"""The package's public surface: ``urllc_mc.__all__`` is pinned, so a name
is added or removed only by editing the list below."""

from __future__ import annotations

import copy
import inspect
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import urllc_mc
from urllc_mc import (
    BlerPolicy,
    ChaseModel,
    DomainError,
    FblContext,
    LinkBlerProfile,
    Numerology,
    PolicyKind,
    UrllcMcError,
    ValidationError,
    achieved_bler,
    build_profile,
    channel_dispersion,
    channel_use,
    chase_bler,
    db_to_linear,
    latency_budget_check,
    latency_quantile,
    parse_scenario,
    q_func,
    q_inv,
    sc_outage,
    shannon_capacity,
    simulate_run,
    solve_bler,
    success_mix,
    ttis_to_ms,
    usage_at_solution,
    usage_sc,
)
from urllc_mc.errors import integer, real

PUBLIC_NAMES = [
    "BlerPolicy",
    "ChaseModel",
    "DomainError",
    "FblContext",
    "LinkBlerProfile",
    "Numerology",
    "OutageBreakdown",
    "ParseError",
    "PolicyKind",
    "ScenarioConfig",
    "SimAggregate",
    "SolveResult",
    "SolverError",
    "UrllcMcError",
    "ValidationError",
    "achieved_bler",
    "build_profile",
    "channel_dispersion",
    "channel_use",
    "chase_bler",
    "db_to_linear",
    "latency_budget_check",
    "latency_quantile",
    "mc_outage",
    "parse_scenario",
    "q_func",
    "q_inv",
    "sc_outage",
    "shannon_capacity",
    "simulate_run",
    "solve_bler",
    "success_mix",
    "ttis_to_ms",
    "usage_at_solution",
    "usage_sc",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 35
    assert sorted(urllc_mc.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in urllc_mc.__all__:
        assert getattr(urllc_mc, name) is not None, name


def test_the_version_has_one_owner():
    # the package metadata reads urllc_mc.__version__; pyproject.toml keeps no copy
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "urllc_mc.__version__"}


def test_sizing_surface_is_pinned():
    # sizing sizes the data; the metadata column belongs to the resource command
    assert list(inspect.signature(usage_at_solution).parameters) == ["result", "contexts"]
    sized = usage_at_solution(solve_bler(2, 1e-5, BlerPolicy(), ChaseModel.ZERO), [CTX] * 2)
    assert type(sized) is tuple
    assert [type(x) for x in sized] == [float, float]  # channel_use_single, total_usage


PERFECT = LinkBlerProfile(0, 0, 0)
CTX = FblContext(256, 10.0)

# (the name the error gives, an in-range value, a call with the argument in
# question set); the in-range value is an int exactly for an integer argument
NUMERIC_ARGUMENTS = {
    "solve_bler.m": ("m must", 2, lambda b: solve_bler(b, 1e-5, BlerPolicy(), ChaseModel.ZERO)),
    "solve_bler.target": ("target outage", 1e-5, lambda b: solve_bler(
        2, b, BlerPolicy(), ChaseModel.ZERO)),
    "simulate_run.trials": ("trials", 10, lambda b: simulate_run([PERFECT], b, 1)),
    "simulate_run.seed": ("seed", 1, lambda b: simulate_run([PERFECT], 10, b)),
    "simulate_run.jobs": ("jobs", 1, lambda b: simulate_run([PERFECT], 10, 1, jobs=b)),
    **{f"Numerology.{name}": (name, good, lambda b, name=name: Numerology(**{name: b}))
       for name, good in (("scs_khz", 30.0), ("symbols_per_tti", 4), ("harq_rtt_ttis", 4),
                          ("t_up_ttis", 1.0), ("t_tx_ttis", 1.0), ("t_bp_initial_ttis", 0.0))},
    "usage_sc.r": ("channel uses", 2.0, lambda b: usage_sc(b, 0.5)),
    "usage_sc.p_succ_first": ("p_succ_first", 0.5, lambda b: usage_sc(2, b)),
    "latency_quantile.q": ("q must", 0.99, lambda b: latency_quantile(
        success_mix([PERFECT]), Numerology(), b)),
    "latency_budget_check.budget_ms": ("budget_ms", 1.0, lambda b: latency_budget_check(
        Numerology(), b)),
    "ttis_to_ms.ttis": ("ttis", 7.0, lambda b: ttis_to_ms(Numerology(), b)),
    "achieved_bler.channel_uses": ("channel_uses", 500.0, lambda b: achieved_bler(CTX, b)),
    "q_func.x": ("q_func argument", 0.5, q_func),
    "q_inv.p": ("q_inv argument", 0.1, q_inv),
    "shannon_capacity.sinr_linear": ("sinr_linear", 10.0, shannon_capacity),
    "channel_dispersion.sinr_linear": ("sinr_linear", 10.0, channel_dispersion),
    "db_to_linear.x_db": ("x_db", 10.0, db_to_linear),
    "FblContext.payload_bits": ("payload_bits", 256, lambda b: FblContext(b, 10.0)),
    "FblContext.sinr_linear": ("sinr_linear", 10.0, lambda b: FblContext(256, b)),
    "channel_use.bler": ("bler must", 0.1, lambda b: channel_use(CTX, b)),
    "LinkBlerProfile.p_m": ("p_m", 0.1, lambda b: LinkBlerProfile(b, 0.2, 0.05)),
    "LinkBlerProfile.p_d": ("p_d", 0.1, lambda b: LinkBlerProfile(0.1, b, 0.05)),
    "LinkBlerProfile.p_c": ("p_c", 0.1, lambda b: LinkBlerProfile(0.1, 0.2, b)),
    "chase_bler.p_d": ("p_d", 0.1, lambda b: chase_bler(ChaseModel.PRODUCT, b)),
    "build_profile.p_d": ("p_d", 0.1, lambda b: build_profile(
        b, BlerPolicy(), ChaseModel.ZERO)),
    "BlerPolicy.fixed_meta": ("fixed_meta", 0.1, lambda b: BlerPolicy(
        PolicyKind.FIXED_META, b)),
}

FBL = ChaseModel.FINITE_BLOCKLENGTH

# (the argument, the name the error gives, a value of the wrong type, a call
# with the argument set to it): a chase model, policy kind or link that is
# not the enum member or FblContext the call reads
TYPED_ARGUMENTS = [
    ("solve_bler.chase", "chase model must", "product", lambda b: solve_bler(
        2, 1e-5, BlerPolicy(), b, [CTX] * 2)),
    ("build_profile.chase", "chase model must", "zero", lambda b: build_profile(
        0.1, BlerPolicy(), b, CTX)),
    ("BlerPolicy.kind", "policy kind", "equal", BlerPolicy),
    ("BlerPolicy.kind", "policy kind", "fixed_meta", lambda b: BlerPolicy(b, 0.3)),
    ("usage_at_solution.contexts", "contexts", None, lambda b: usage_at_solution(
        solve_bler(2, 1e-5, BlerPolicy(), ChaseModel.ZERO), [b, b])),
    ("build_profile.ctx", "requires an FblContext", "ctx", lambda b: build_profile(
        0.1, BlerPolicy(), FBL, b)),
    ("solve_bler.contexts", "requires an FblContext", "ctx", lambda b: solve_bler(
        2, 1e-5, BlerPolicy(), FBL, [b, b])),
]


@pytest.mark.parametrize("name, bad, call", [row[1:] for row in TYPED_ARGUMENTS],
                         ids=[f"{row[0]}-{row[2]}" for row in TYPED_ARGUMENTS])
def test_enum_and_link_arguments_reject_other_types_by_name(name, bad, call):
    # a string in place of the enum member would otherwise read as the
    # finite-blocklength model, or fail as an AttributeError
    with pytest.raises(ValidationError, match=name):
        call(bad)


def test_a_missing_link_keeps_its_message():
    with pytest.raises(ValidationError,
                       match="^FINITE_BLOCKLENGTH chase model requires an FblContext$"):
        chase_bler(FBL, 0.1, None)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_],
                         ids=["True", "False", "np.True_", "np.False_"])
@pytest.mark.parametrize("argument", sorted(NUMERIC_ARGUMENTS))
def test_numeric_arguments_reject_bool_by_name(argument, flag):
    # bool is an int subclass and numpy's bool compares as 0 or 1, so only
    # errors.real and errors.integer, which refuse both, tell them apart
    name, _, call = NUMERIC_ARGUMENTS[argument]
    with pytest.raises(UrllcMcError, match=f"{name}.*{flag}"):
        call(flag)


def _bad_values(good):
    """Values of a type that errors.real refuses, each the in-range ``good``
    but for its type, and a float32 infinity; numpy's int64 too for an
    integer argument."""
    bad = [str(good), np.float32(good), np.float32("inf"), Fraction(str(good)), Decimal(str(good))]
    return bad + [np.int64(good)] if isinstance(good, int) else bad


BAD_VALUES = [(argument, bad) for argument, (_, good, _) in sorted(NUMERIC_ARGUMENTS.items())
              for bad in _bad_values(good)]


@pytest.mark.parametrize("argument, bad", BAD_VALUES,
                         ids=[f"{a}-{type(b).__name__}-{b}" for a, b in BAD_VALUES])
def test_numeric_arguments_reject_other_types_by_name(argument, bad):
    # no TypeError from a comparison and no numpy cast warning (warnings are
    # errors under the test configuration): the error names the argument and
    # marks the value's type
    name, _, call = NUMERIC_ARGUMENTS[argument]
    with pytest.raises(
        UrllcMcError, match=f"{name}.*, an? {type(bad).__name__}, not a Python int or float"
    ):
        call(bad)


@pytest.mark.parametrize("argument, bad, message", [
    ("db_to_linear.x_db", math.inf, "x_db must be a finite number, got inf"),
    ("db_to_linear.x_db", -math.inf, "x_db must be a finite number, got -inf"),
    ("db_to_linear.x_db", math.nan, "x_db must be a finite number, got nan"),
    ("latency_budget_check.budget_ms", math.inf, "budget_ms must be positive and finite, got inf"),
    ("ttis_to_ms.ttis", math.nan, "ttis must be finite, got nan"),
    ("ttis_to_ms.ttis", math.inf, "ttis must be finite, got inf"),
])
def test_non_finite_numbers_rejected_by_name(argument, bad, message):
    with pytest.raises(UrllcMcError, match=f"^{re.escape(message)}$"):
        NUMERIC_ARGUMENTS[argument][2](bad)


def test_a_refused_type_is_marked_in_the_message():
    # without the mark, "must be in (0, 1), got 0.1" would misread the range
    value = np.float32(0.1)
    with pytest.raises(DomainError) as info:
        q_inv(value)
    assert str(info.value) == (
        f"q_inv argument must be in (0, 1), got {value!r}, a float32, not a Python int or float"
    )


@pytest.mark.parametrize("value, is_real, is_integer", [
    (0.1, True, False), (-3, True, True), (np.float64(2.5), True, False),
    (10**308, True, True), (10**309, False, True), (math.inf, False, False),
    (math.nan, False, False), (np.float64("nan"), False, False), (True, False, False),
    (np.True_, False, False), (np.float32(0.5), False, False), (np.int64(3), False, False),
    (Fraction(1, 2), False, False), ("1", False, False), (None, False, False),
])
def test_real_and_integer(value, is_real, is_integer):
    assert (real(value), integer(value)) == (is_real, is_integer)


# one record of each value type, built when a test asks for it
RECORDS = {
    "BlerPolicy": lambda: BlerPolicy(PolicyKind.FIXED_META, fixed_meta=0.01),
    "FblContext": lambda: CTX,
    "LinkBlerProfile": lambda: LinkBlerProfile(0.01, 0.1, 0.0),
    "Numerology": Numerology,
    "OutageBreakdown": lambda: sc_outage(LinkBlerProfile(0.01, 0.1, 0.0)),
    "ScenarioConfig": lambda: parse_scenario(
        '{"scheme": "MC", "target_outage": 1e-5, "sinr_db": 10, "p_d": 0.01}'),
    "SimAggregate": lambda: simulate_run([LinkBlerProfile(0.01, 0.1, 0.0)], 1000, 7),
    "SolveResult": lambda: solve_bler(2, 1e-5, BlerPolicy(), ChaseModel.ZERO),
}


def test_the_value_types_are_the_public_records():
    records = [n for n in urllc_mc.__all__
               if isinstance(getattr(urllc_mc, n), type) and issubclass(getattr(urllc_mc, n), tuple)]
    assert records == list(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record) is getattr(urllc_mc, name)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("record, field, bad, message", [
    (BlerPolicy(), "fixed_meta", 0.5, "EQUAL policy takes no fixed_meta value"),
    (CTX, "sinr_linear", 0.0, "sinr_linear must be positive, got 0.0"),
    (LinkBlerProfile(0.01, 0.1, 0.0), "p_c", 0.2,
     "post-combining error p_c=0.2 must not exceed the single-transmission data BLER p_d=0.1"),
    (Numerology(), "harq_rtt_ttis", 0,
     "harq_rtt_ttis must be a positive integer within the float range, got 0"),
], ids=["BlerPolicy", "FblContext", "LinkBlerProfile", "Numerology"])
def test_checked_records_check_make_and_replace(record, field, bad, message):
    # NamedTuple's own _make calls tuple.__new__ and would skip the check
    kind = type(record)
    values = [bad if f == field else v for f, v in zip(record._fields, record)]
    for build in (lambda: kind._make(values), lambda: record._replace(**{field: bad})):
        with pytest.raises(UrllcMcError, match=f"^{re.escape(message)}$"):
            build()
    rebuilt = [kind._make(record), record._replace(), copy.copy(record), copy.deepcopy(record),
               pickle.loads(pickle.dumps(record))]
    for same in rebuilt:
        assert same == record and same is not record and type(same) is kind


def test_a_context_derives_capacity_and_dispersion():
    for field in ("capacity", "dispersion"):
        with pytest.raises(ValueError, match=rf"^Got unexpected field names: \['{field}'\]$"):
            CTX._replace(**{field: 1.0})
    assert CTX._replace(sinr_linear=20.0) == FblContext(256, 20.0)
