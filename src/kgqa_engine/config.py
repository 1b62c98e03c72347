"""Engine configuration.

Precedence, lowest to highest: built-in defaults, config file, environment
variables (KGQA_<KEY>), explicit overrides (CLI flags).
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass

FREEBASE_PREFIX = "http://rdf.freebase.com/ns/"
FREEBASE_ID_PATTERN = r"[a-z]\.[0-9a-z_]+"
FREEBASE_LABEL_PROPERTY = "type.object.name"
ENV_PREFIX = "KGQA_"
MAX_PLAN_STEPS = 8  # the longest plan a decomposition may propose

_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


def _parse_bool(raw: str) -> bool:
    text = raw.strip().lower()
    if text not in _BOOLS:
        raise ValueError(f"{raw!r} is not a boolean (accepted: {', '.join(_BOOLS)})")
    return _BOOLS[text]


_PARSERS = {"int": int, "float": float, "bool": _parse_bool}
# declared field type -> the types its value may have; a bool is never a number here
_ACCEPTED = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


@dataclass
class EngineConfig:
    replan_limit: int = 2
    max_path_corrections: int = 3
    max_total_cycles: int = 40
    prune_threshold: int = 70
    parse_retries: int = 2
    context_chain_limit: int = 20
    kg_result_limit: int = 200
    expand_unlabeled: bool = False
    http_timeout: float = 30.0
    http_retries: int = 2
    concurrency: int = 1
    chat_url: str = ""
    chat_model: str = ""
    embed_url: str = ""
    embed_model: str = ""
    sparql_url: str = ""
    kg_prefix: str = FREEBASE_PREFIX
    entity_id_pattern: str = FREEBASE_ID_PATTERN
    label_property: str = FREEBASE_LABEL_PROPERTY

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _ACCEPTED[f.type]) or (isinstance(value, bool) and f.type != "bool"):
                raise ValueError(f"{f.name} must be {f.type}, not {type(value).__name__}")
        for name in (
            "replan_limit",
            "max_path_corrections",
            "max_total_cycles",
            "prune_threshold",
            "kg_result_limit",
            "concurrency",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.parse_retries < 0 or self.http_retries < 0:
            raise ValueError("retry counts must be >= 0")
        if self.context_chain_limit < 0:
            raise ValueError("context_chain_limit must be >= 0")
        if self.max_total_cycles < MAX_PLAN_STEPS:
            raise ValueError(f"max_total_cycles must cover at least one full plan (>= {MAX_PLAN_STEPS})")
        if not 0 < self.http_timeout < float("inf"):  # nan fails both comparisons
            raise ValueError("http_timeout must be a positive finite number of seconds")
        try:
            re.compile(self.entity_id_pattern)
        except re.error as exc:
            raise ValueError(f"entity_id_pattern is not a regular expression: {exc}") from None

    def snapshot(self) -> dict:
        # every field is a scalar, so asdict's deep copy would copy nothing
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def _coerce(cls, name: str, raw: str, source: str):
        """``raw`` as the type of field ``name``; a failure names ``source``."""
        field_types = {f.name: f.type for f in dataclasses.fields(cls)}
        parse = _PARSERS.get(field_types[name])
        if parse is None:
            return raw
        try:
            return parse(raw)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from exc

    @classmethod
    def load(
        cls,
        config_file: str | None = None,
        *,
        env: dict | None = None,
        overrides: dict | None = None,
    ) -> "EngineConfig":
        values: dict = {}
        names = {f.name for f in dataclasses.fields(cls)}
        if config_file:
            with open(config_file, encoding="utf-8") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    key, sep, value = line.partition("=")
                    key = key.strip()
                    if not sep or key not in names:
                        raise ValueError(f"config file line {lineno}: unknown entry {line!r}")
                    values[key] = cls._coerce(key, value.strip(), f"config file line {lineno}: {key}")
        env = os.environ if env is None else env
        for name in names:
            variable = ENV_PREFIX + name.upper()
            env_value = env.get(variable)
            if env_value is not None:
                values[name] = cls._coerce(name, env_value, variable)
        for name, value in (overrides or {}).items():
            if value is not None:
                values[name] = value
        config = cls(**values)
        config.validate()
        return config
