"""Scenario configuration: a single JSON document, validated strictly.

``ScenarioConfig`` is the document's schema: its field names are the keys
and its field defaults the defaults. Unknown keys are rejected by name so
typos cannot silently fall back to defaults. A single ``sinr_db`` number
broadcasts to all nodes.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Optional, Tuple

from .errors import DomainError, ParseError, ValidationError, integer, real, shown
from .fbl import FblContext, db_to_linear
from .outage import MAX_NODES, ChaseModel
from .sim import MAX_SEED, MAX_TRIALS, Numerology
from .solver import BlerPolicy


@dataclass(frozen=True)
class ScenarioConfig:
    """A full experiment description, and the schema of the scenario
    document: a key is a field name, an absent key takes the field's
    default, and the scalar fields are type-checked by their annotations
    in field order (the order in which the ranges are checked, too)."""

    scheme: str
    m_nodes: int
    sinr_db: Tuple[float, ...]
    target_outage: float
    payload_bits: int = 256
    metadata_bits: Optional[int] = None  # reported by resource, never added to channel use
    policy: BlerPolicy = field(default_factory=BlerPolicy)
    chase: ChaseModel = ChaseModel.ZERO
    p_d: Optional[float] = None
    trials: int = 100_000
    seed: int = 1234
    latency_quantile: float = 0.99
    numerology: Numerology = field(default_factory=Numerology)
    shared_frame_alignment: bool = True

    def contexts(self) -> list[FblContext]:
        """Per-node finite-blocklength contexts from the configured SINRs:
        one object per distinct SINR, handed to every node with that SINR,
        so equal links are the same object."""
        built = {s: FblContext(self.payload_bits, db_to_linear(s))
                 for s in dict.fromkeys(self.sinr_db)}
        return [built[s] for s in self.sinr_db]


# the fixed_meta policy's value sits beside "policy"
_KEYS = {f.name for f in fields(ScenarioConfig)} | {"fixed_meta"}


def _require(cond: bool, field_name: str, constraint: str):
    if not cond:
        raise ValidationError(f"{field_name}: {constraint}")


def _number(value, field_name: str) -> float:
    """A JSON number as a finite float; NaN, infinities and integers too
    large for a float are rejected by field name."""
    _require(integer(value) or isinstance(value, float), field_name,
             f"must be a number, got {value!r}")
    _require(real(value), field_name, f"must be finite, got {shown(value)}")
    return float(value)


def _scalars(doc: dict, schema) -> dict:
    """Every scalar field of the dataclass ``schema``, in field order: the
    document's value checked against the field's annotation string (the
    modules postpone annotations), or else its default (MISSING if none)."""
    values = {}
    for f in fields(schema):
        if f.type not in ("int", "Optional[int]", "float", "Optional[float]", "bool"):
            continue
        value = values[f.name] = doc.get(f.name, f.default)
        if f.name not in doc:
            continue
        if f.type == "bool":
            _require(isinstance(value, bool), f.name, f"must be a boolean, got {value!r}")
        elif f.type in ("int", "Optional[int]"):
            _require(integer(value), f.name, f"must be an integer, got {value!r}")
            _number(value, f.name)  # rejects an int too large for a float
        else:
            values[f.name] = _number(value, f.name)
    return values


def _enum(doc: dict, key: str, default: Enum) -> Enum:
    """The member of ``default``'s enum whose value ``doc[key]`` names, in
    any case; ``default`` when the key is absent."""
    name, members = doc.get(key, default.value), type(default)
    _require(isinstance(name, str), key, "must be a string")
    try:
        return members(name.lower())
    except ValueError:
        raise ValidationError(
            f"{key}: must be one of {[m.value for m in members]}, got {name!r}"
        ) from None


def _at_least(values: dict, minimum: int, *names: str) -> None:
    for name in names:  # an absent optional field (None) has no minimum
        value = values[name]
        _require(value is None or value >= minimum, name, f"must be >= {minimum}, got {value!r}")


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document.

    Raises ParseError for malformed JSON (with position) and
    ValidationError for constraint violations (naming the field). The
    top-level scalars are type-checked, in field order, before any range.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # e.g. past the digit limit, or nested too deep
        raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")

    unknown = set(doc) - _KEYS
    if unknown:
        raise ValidationError(f"unknown key {sorted(unknown)[0]!r}")

    scheme_raw = doc.get("scheme")
    _require(isinstance(scheme_raw, str), "scheme", "is required ('SC' or 'MC')")
    scheme = scheme_raw.upper()
    _require(scheme in ("SC", "MC"), "scheme", f"must be 'SC' or 'MC', got {scheme_raw!r}")

    values = _scalars(doc, ScenarioConfig)
    if values["m_nodes"] is MISSING:
        values["m_nodes"] = 1 if scheme == "SC" else 2
    m_nodes = values["m_nodes"]
    _at_least(values, 1, "m_nodes")
    _require(scheme == "MC" or m_nodes == 1, "m_nodes", "must be 1 for the SC scheme")
    # before the broadcast below, so a huge count never builds a tuple
    _require(m_nodes <= MAX_NODES, "m_nodes", f"must be <= {MAX_NODES}, got {m_nodes!r}")

    _require("sinr_db" in doc, "sinr_db", "is required")
    raw = doc["sinr_db"]
    sinrs = tuple(_number(s, "sinr_db") for s in (raw if isinstance(raw, list) else [raw]))
    if len(sinrs) == 1:
        sinrs = sinrs * m_nodes
    _require(
        len(sinrs) == m_nodes, "sinr_db", f"needs 1 or {m_nodes} entries, got {len(sinrs)}"
    )

    target = values["target_outage"]
    _require(target is not MISSING, "target_outage", "is required")
    _require(0.0 < target < 1.0, "target_outage", f"must be in (0, 1), got {target!r}")
    _at_least(values, 1, "payload_bits", "metadata_bits")

    kind = _enum(doc, "policy", BlerPolicy.kind)  # the dataclass defaults
    policy = BlerPolicy(kind, **_scalars(doc, BlerPolicy))
    chase = _enum(doc, "chase", ScenarioConfig.chase)

    p_d = values["p_d"]
    if p_d is not None:
        _require(0.0 < p_d < 1.0, "p_d", f"must be in (0, 1), got {p_d!r}")
    _at_least(values, 1, "trials")
    trials = values["trials"]
    _require(trials <= MAX_TRIALS, "trials", f"must be <= {MAX_TRIALS}, got {trials!r}")
    _at_least(values, 0, "seed")
    seed = values["seed"]
    _require(seed <= MAX_SEED, "seed", f"must be <= {MAX_SEED}, got {seed!r}")
    q = values["latency_quantile"]
    _require(0.0 < q <= 1.0, "latency_quantile", f"must be in (0, 1], got {q!r}")

    sub = doc.get("numerology", {})
    _require(isinstance(sub, dict), "numerology", "must be an object")
    unknown = set(sub) - {f.name for f in fields(Numerology)}
    if unknown:
        raise ValidationError(f"numerology: unknown key {sorted(unknown)[0]!r}")

    cfg = ScenarioConfig(
        scheme=scheme, sinr_db=sinrs, policy=policy, chase=chase,
        numerology=Numerology(**_scalars(sub, Numerology)), **values,
    )
    try:  # a finite SINR can still overflow or give a zero capacity
        cfg.contexts()
    except DomainError as exc:
        raise ValidationError(f"sinr_db: {exc}") from None
    return cfg


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(str(exc)) from exc
    return parse_scenario(text)
