"""Exception hierarchy for the engine.

Every failure the orchestrator is expected to absorb derives from
``EngineError``.  ``ScriptMismatch`` deliberately does not: a scripted
backend going off the rails means a broken test fixture, and that must
surface as a test failure, never as a degraded answer.
"""


def describe(exc: BaseException, text=repr) -> str:
    """``text(exc)`` as a plain ``str``; ``<unprintable {class name} object>`` where formatting ``exc`` raises.

    A handler that turns a port's exception into an engine error names it
    through here, so an exception whose ``__str__`` or ``__repr__`` raises
    (or recurses) cannot escape from the handler meant to absorb it.
    """
    try:
        return str.__str__(text(exc))  # a plain copy of a str subclass: none of its methods run
    except Exception:
        return f"<unprintable {type(exc).__name__} object>"


class EngineError(Exception):
    """Base class for recoverable engine failures."""


class MalformedBackendOutput(EngineError):
    """Reasoning backend produced unparseable output after all retries."""


class BackendUnavailable(EngineError):
    """Chat-completion transport failed after retries."""


class ReplanBudgetExhausted(EngineError):
    """Replan requested with the replan counter already at its limit."""


class KgUnavailable(EngineError):
    """Knowledge-graph endpoint unreachable after retries."""


class MalformedResults(EngineError):
    """A graph store answered out of contract: a SPARQL results document, or what ``kg.CheckedGraph`` refuses."""


class InvalidEntityId(EngineError):
    """Entity identifier violates the configured ID grammar."""


class NoFrontier(EngineError):
    """No topic entity and no reasoning chain to anchor exploration."""


class PruningUnavailable(EngineError):
    """Embeddings failed or are unusable; the current attempt is abandoned."""


class ParseError(EngineError):
    """Malformed input file (triple file or dataset)."""


class ScriptMismatch(AssertionError):
    """Scripted backend was asked for a stage the script does not expect."""
