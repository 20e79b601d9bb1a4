"""Scenario configuration: a single JSON document, validated strictly.

Unknown keys are rejected by name so typos cannot silently fall back to
defaults. A single ``sinr_db`` number broadcasts to all nodes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional, Tuple

from .errors import DomainError, ParseError, ValidationError
from .fbl import FblContext, db_to_linear
from .outage import ChaseModel
from .sim import Numerology
from .solver import BlerPolicy, PolicyKind

_TOP_KEYS = {
    "scheme",
    "m_nodes",
    "sinr_db",
    "payload_bits",
    "metadata_bits",
    "policy",
    "fixed_meta",
    "chase",
    "target_outage",
    "p_d",
    "numerology",
    "trials",
    "seed",
    "shared_frame_alignment",
    "latency_quantile",
    "report_metadata_use",
}

# Most duplicating links a scenario or an m sweep may use. The paper
# evaluates m <= 3 and the benchmark sweeps to 8; past about m = 40 the
# solver cannot bracket even a 1e-12 outage target.
MAX_NODES = 64

# Most points of a sweep grid; the benchmark's p_d sweep uses 20,001.
MAX_SWEEP_POINTS = 1_000_000


class SweepVariable(Enum):
    P_D = "p_d"
    SINR_DB = "sinr_db"
    M = "m"


class SweepScale(Enum):
    LINEAR = "linear"
    LOG10 = "log10"


@dataclass(frozen=True)
class SweepSpec:
    variable: SweepVariable
    start: float
    stop: float
    points: int
    scale: SweepScale = SweepScale.LINEAR

    def __post_init__(self) -> None:
        for name, value in (("start", self.start), ("stop", self.stop)):
            if not math.isfinite(value):
                raise ValidationError(f"sweep {name} must be finite, got {value!r}")
        if not self.start < self.stop:
            raise ValidationError(
                f"sweep start must be below stop, got [{self.start!r}, {self.stop!r}]"
            )
        if not (isinstance(self.points, int) and self.points >= 2):
            raise ValidationError(f"sweep needs at least 2 points, got {self.points!r}")
        if self.points > MAX_SWEEP_POINTS:
            raise ValidationError(
                f"sweep points must be at most {MAX_SWEEP_POINTS}, got {self.points!r}"
            )
        if self.scale is SweepScale.LOG10 and self.start <= 0:
            raise ValidationError("log-scale sweep requires start > 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """A full experiment description."""

    scheme: str
    m_nodes: int
    sinr_db_per_node: Tuple[float, ...]
    target_outage: float
    payload_bits: int = 256
    metadata_bits: int = 128  # informational; never folded into channel use
    policy: BlerPolicy = field(default_factory=BlerPolicy)
    chase: ChaseModel = ChaseModel.ZERO
    p_d: Optional[float] = None
    numerology: Numerology = field(default_factory=Numerology)
    trials: int = 100_000
    seed: int = 1234
    shared_frame_alignment: bool = True
    latency_quantile: float = 0.99
    report_metadata_use: bool = False

    def contexts(self) -> list[FblContext]:
        """Per-node finite-blocklength contexts from the configured SINRs."""
        return [
            FblContext(self.payload_bits, db_to_linear(s))
            for s in self.sinr_db_per_node
        ]


def _require(cond: bool, field_name: str, constraint: str):
    if not cond:
        raise ValidationError(f"{field_name}: {constraint}")


def _number(value, field_name: str) -> float:
    """A JSON number as a finite float; NaN, infinities and integers too
    large for a float are rejected by field name."""
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        field_name,
        f"must be a number, got {value!r}",
    )
    # an exact comparison, so an int too large for a float fails too
    _require(
        abs(value) <= sys.float_info.max, field_name, f"must be finite, got {value!r}"
    )
    return float(value)


def _get_number(doc, key, default=None, required=False):
    if key not in doc:
        _require(not required, key, "is required")
        return default
    return _number(doc[key], key)


def _get_int(doc, key, default=None, minimum=None, required=False):
    if key not in doc:
        _require(not required, key, "is required")
        return default
    value = doc[key]
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        key,
        f"must be an integer, got {value!r}",
    )
    _number(value, key)  # rejects an int too large for a float
    if minimum is not None:
        _require(value >= minimum, key, f"must be >= {minimum}, got {value!r}")
    return value


def _get_bool(doc, key, default):
    if key not in doc:
        return default
    value = doc[key]
    _require(isinstance(value, bool), key, f"must be a boolean, got {value!r}")
    return value


def _parse_numerology(doc) -> Numerology:
    if "numerology" not in doc:
        return Numerology()
    sub = doc["numerology"]
    _require(isinstance(sub, dict), "numerology", "must be an object")
    schema = fields(Numerology)
    unknown = set(sub) - {f.name for f in schema}
    if unknown:
        raise ValidationError(f"numerology: unknown key {sorted(unknown)[0]!r}")
    kwargs = {}
    # the float fields in field order, then the int fields; a field's type
    # is its annotation string, since sim.py postpones annotations
    for f in sorted(schema, key=lambda f: f.type != "float"):
        if f.name in sub and f.type == "float":
            kwargs[f.name] = _get_number(sub, f.name)
        elif f.name in sub:
            kwargs[f.name] = _get_int(sub, f.name, minimum=1)
    return Numerology(**kwargs)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document.

    Raises ParseError for malformed JSON (with position) and
    ValidationError for constraint violations (naming the field).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")

    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown key {sorted(unknown)[0]!r}")

    scheme_raw = doc.get("scheme")
    _require(isinstance(scheme_raw, str), "scheme", "is required ('SC' or 'MC')")
    scheme = scheme_raw.upper()
    _require(scheme in ("SC", "MC"), "scheme", f"must be 'SC' or 'MC', got {scheme_raw!r}")

    m_nodes = _get_int(doc, "m_nodes", default=(1 if scheme == "SC" else 2), minimum=1)
    _require(
        scheme == "MC" or m_nodes == 1, "m_nodes", "must be 1 for the SC scheme"
    )
    _require(m_nodes <= MAX_NODES, "m_nodes", f"must be <= {MAX_NODES}, got {m_nodes!r}")

    _require("sinr_db" in doc, "sinr_db", "is required")
    sinr_raw = doc["sinr_db"]
    if isinstance(sinr_raw, list):
        sinrs = tuple(_number(s, "sinr_db") for s in sinr_raw)
        if len(sinrs) == 1:
            sinrs = sinrs * m_nodes
        _require(
            len(sinrs) == m_nodes,
            "sinr_db_per_node",
            f"needs 1 or {m_nodes} entries, got {len(sinrs)}",
        )
    else:
        sinrs = (_number(sinr_raw, "sinr_db"),) * m_nodes

    target = _get_number(doc, "target_outage", required=True)
    _require(0.0 < target < 1.0, "target_outage", f"must be in (0, 1), got {target!r}")

    payload_bits = _get_int(doc, "payload_bits", default=256, minimum=1)
    metadata_bits = _get_int(doc, "metadata_bits", default=128, minimum=1)

    policy_name = doc.get("policy", "equal")
    _require(isinstance(policy_name, str), "policy", "must be a string")
    try:
        kind = PolicyKind(policy_name.lower())
    except ValueError:
        raise ValidationError(
            f"policy: must be one of {[k.value for k in PolicyKind]}, got {policy_name!r}"
        ) from None
    fixed_meta = _get_number(doc, "fixed_meta")
    if kind is PolicyKind.FIXED_META:
        _require(fixed_meta is not None, "fixed_meta", "is required for the fixed_meta policy")
    policy = BlerPolicy(kind, fixed_meta)

    chase_name = doc.get("chase", "zero")
    _require(isinstance(chase_name, str), "chase", "must be a string")
    try:
        chase = ChaseModel(chase_name.lower())
    except ValueError:
        raise ValidationError(
            f"chase: must be one of {[c.value for c in ChaseModel]}, got {chase_name!r}"
        ) from None

    p_d = _get_number(doc, "p_d")
    if p_d is not None:
        _require(0.0 < p_d < 1.0, "p_d", f"must be in (0, 1), got {p_d!r}")

    trials = _get_int(doc, "trials", default=100_000, minimum=1)
    seed = _get_int(doc, "seed", default=1234, minimum=0)
    latency_quantile = _get_number(doc, "latency_quantile", default=0.99)
    _require(
        0.0 < latency_quantile <= 1.0,
        "latency_quantile",
        f"must be in (0, 1], got {latency_quantile!r}",
    )

    cfg = ScenarioConfig(
        scheme=scheme,
        m_nodes=m_nodes,
        sinr_db_per_node=sinrs,
        target_outage=target,
        payload_bits=payload_bits,
        metadata_bits=metadata_bits,
        policy=policy,
        chase=chase,
        p_d=p_d,
        numerology=_parse_numerology(doc),
        trials=trials,
        seed=seed,
        shared_frame_alignment=_get_bool(doc, "shared_frame_alignment", True),
        latency_quantile=latency_quantile,
        report_metadata_use=_get_bool(doc, "report_metadata_use", False),
    )
    try:  # a finite SINR can still overflow or give a zero capacity
        cfg.contexts()
    except DomainError as exc:
        raise ValidationError(f"sinr_db: {exc}") from None
    return cfg


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())
