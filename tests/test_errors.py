"""``errors.describe``: an exception's text, or its class name where formatting it raises."""

import pytest

from kgqa_engine.errors import KgUnavailable, describe


class HostileStr(str):
    def __format__(self, spec):
        raise RuntimeError("hostile str")


def _cannot_format(self):
    raise ValueError("cannot format")


class StrRaises(RuntimeError):
    __str__ = _cannot_format


class ReprRecurses(RuntimeError):
    def __repr__(self):
        return repr(self)


class HostileText(RuntimeError):
    def __str__(self):
        return HostileStr("hostile text")


class Interrupting(RuntimeError):
    def __repr__(self):
        raise KeyboardInterrupt


@pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyError("k"), KgUnavailable("down"), ValueError()])
@pytest.mark.parametrize("text", [repr, str])
def test_printable_exception_reads_as_before(exc, text):
    assert describe(exc, text) == text(exc)


def test_repr_is_the_default():
    assert describe(RuntimeError("boom")) == "RuntimeError('boom')"


def test_a_formatting_failure_gives_the_class_name():
    assert describe(StrRaises("x"), str) == "<unprintable StrRaises object>"
    assert describe(StrRaises("x")) == "StrRaises('x')"  # repr does not call __str__
    assert describe(ReprRecurses("x")) == "<unprintable ReprRecurses object>"


def test_a_str_subclass_text_becomes_a_plain_str():
    text = describe(HostileText(), str)
    assert type(text) is str and f"{text}" == "hostile text"


def test_an_interrupt_while_formatting_propagates():
    with pytest.raises(KeyboardInterrupt):
        describe(Interrupting())
