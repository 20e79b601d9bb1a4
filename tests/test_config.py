"""Tests for scenario-document parsing and validation."""

from __future__ import annotations

import json

import pytest

from urllc_mc import sim
from urllc_mc.config import (
    MAX_NODES,
    ScenarioConfig,
    parse_scenario,
)
from urllc_mc.errors import ParseError, ValidationError
from urllc_mc.outage import ChaseModel
from urllc_mc.sim import Numerology
from urllc_mc.solver import PolicyKind


# the numerology schema: field types are annotation strings in sim.py, which
# a NamedTuple holds as forward references
NUMEROLOGY_TYPES = {n: t.__forward_arg__ for n, t in Numerology.__annotations__.items()}
NUMEROLOGY_FLOATS = [n for n, t in NUMEROLOGY_TYPES.items() if t == "float"]
NUMEROLOGY_INTS = [n for n, t in NUMEROLOGY_TYPES.items() if t == "int"]


def _doc(**overrides) -> str:
    doc = {"scheme": "SC", "target_outage": 1e-5, "sinr_db": 10}
    doc.update(overrides)
    return json.dumps(doc)


def test_minimal_document_gets_defaults():
    cfg = parse_scenario(_doc())
    assert cfg.scheme == "SC"
    assert cfg.m_nodes == 1
    assert cfg.sinr_db == (10.0,)
    assert cfg.target_outage == 1e-5
    assert cfg.payload_bits == 256
    assert cfg.metadata_bits is None
    assert cfg.policy.kind is PolicyKind.EQUAL
    assert cfg.chase is ChaseModel.ZERO
    assert cfg.p_d is None
    assert cfg.trials == 100_000
    assert cfg.seed == 1234
    assert cfg.numerology.scs_khz == 30.0
    assert cfg.numerology.symbols_per_tti == 4
    assert cfg.shared_frame_alignment is True
    # every field with a default takes the record's own
    for name, default in ScenarioConfig._field_defaults.items():
        assert getattr(cfg, name) == default, name


def test_mc_defaults_to_two_nodes_with_broadcast_sinr():
    cfg = parse_scenario(_doc(scheme="MC"))
    assert cfg.m_nodes == 2
    assert cfg.sinr_db == (10.0, 10.0)


def test_sinr_list_must_match_node_count():
    with pytest.raises(ValidationError, match="^sinr_db: needs 1 or"):
        parse_scenario(_doc(scheme="MC", m_nodes=2, sinr_db=[10, 10, 10]))


def test_sinr_single_entry_list_broadcasts():
    cfg = parse_scenario(_doc(scheme="MC", m_nodes=3, sinr_db=[5]))
    assert cfg.sinr_db == (5.0, 5.0, 5.0)


def test_unknown_key_rejected_by_name():
    with pytest.raises(ValidationError, match="sheme"):
        parse_scenario(_doc(sheme="SC"))


def test_malformed_json_raises_parse_error_with_location():
    with pytest.raises(ParseError, match="line 1"):
        parse_scenario("{scheme: SC}")
    with pytest.raises(ParseError, match="object"):
        parse_scenario("[1, 2]")


def test_sc_with_multiple_nodes_rejected():
    with pytest.raises(ValidationError, match="m_nodes"):
        parse_scenario(_doc(m_nodes=3))


def test_policy_parsing():
    cfg = parse_scenario(_doc(policy="half"))
    assert cfg.policy.kind is PolicyKind.HALF
    cfg = parse_scenario(_doc(policy="fixed_meta", fixed_meta=0.01))
    assert cfg.policy.fixed_meta == 0.01
    with pytest.raises(ValidationError, match="fixed_meta"):
        parse_scenario(_doc(policy="fixed_meta"))
    with pytest.raises(ValidationError, match="policy"):
        parse_scenario(_doc(policy="auto"))


def test_chase_parsing():
    cfg = parse_scenario(_doc(chase="product"))
    assert cfg.chase is ChaseModel.PRODUCT
    cfg = parse_scenario(_doc(chase="finite_blocklength"))
    assert cfg.chase is ChaseModel.FINITE_BLOCKLENGTH
    with pytest.raises(ValidationError, match="chase"):
        parse_scenario(_doc(chase="ideal"))


def test_trials_must_be_positive():
    with pytest.raises(ValidationError, match="trials"):
        parse_scenario(_doc(trials=0))


def test_seed_must_be_nonnegative():
    with pytest.raises(ValidationError, match="seed"):
        parse_scenario(_doc(seed=-3))


def test_probability_bounds():
    with pytest.raises(ValidationError, match="target_outage"):
        parse_scenario(_doc(target_outage=0.0))
    with pytest.raises(ValidationError, match="p_d"):
        parse_scenario(_doc(p_d=1.5))


def test_bool_not_accepted_as_number():
    with pytest.raises(ValidationError, match="target_outage"):
        parse_scenario(_doc(target_outage=True))


def test_numerology_overrides():
    cfg = parse_scenario(
        _doc(numerology={"scs_khz": 30, "symbols_per_tti": 7, "harq_rtt_ttis": 4})
    )
    assert cfg.numerology.symbols_per_tti == 7
    with pytest.raises(ValidationError, match="numerology"):
        parse_scenario(_doc(numerology={"scs": 30}))


def test_numerology_schema_follows_the_record():
    assert NUMEROLOGY_FLOATS == ["scs_khz", "t_up_ttis", "t_tx_ttis", "t_bp_initial_ttis"]
    assert NUMEROLOGY_INTS == ["symbols_per_tti", "harq_rtt_ttis"]
    # every field round-trips, each with its own value and type
    values = {
        name: i + 2 if name in NUMEROLOGY_INTS else i + 0.5
        for i, name in enumerate(Numerology._fields)
    }
    numerology = parse_scenario(_doc(numerology=values)).numerology
    for name, value in values.items():
        got = getattr(numerology, name)
        assert got == value and type(got) is type(value), name
    for name in NUMEROLOGY_INTS:
        with pytest.raises(ValidationError, match=f"{name}: must be an integer"):
            parse_scenario(_doc(numerology={name: "4"}))
        # the minimum is Numerology's own check
        with pytest.raises(ValidationError, match=f"{name} must be a positive integer"):
            parse_scenario(_doc(numerology={name: 0}))
    # every type is checked before any range
    with pytest.raises(ValidationError, match="scs_khz: must be a number"):
        parse_scenario(_doc(numerology={"harq_rtt_ttis": 0, "scs_khz": "x"}))


def test_numerology_timeout_ttis_rejected_by_name():
    # the timeout path shares the HARQ round trip; there is no timeout knob
    with pytest.raises(ValidationError, match="timeout_ttis"):
        parse_scenario(_doc(numerology={"timeout_ttis": 3}))


NAN, INF = float("nan"), float("inf")
HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "overrides, field",
    [({"numerology": {key: value}}, key)
     for key in NUMEROLOGY_FLOATS
     for value in (NAN, INF)]
    + [({"sinr_db": INF}, "sinr_db"),
       ({"scheme": "MC", "sinr_db": [10, -INF]}, "sinr_db"),
       ({"scheme": "MC", "sinr_db": [NAN]}, "sinr_db")]
    + [({"sinr_db": HUGE}, "sinr_db"),
       ({"sinr_db": -HUGE}, "sinr_db"),
       ({"scheme": "MC", "sinr_db": [10, HUGE]}, "sinr_db"),
       ({"numerology": {"t_up_ttis": HUGE}}, "t_up_ttis"),
       ({"latency_quantile": HUGE}, "latency_quantile"),
       ({"policy": "fixed_meta", "fixed_meta": HUGE}, "fixed_meta"),
       ({"payload_bits": HUGE}, "payload_bits")]
    # finite in dB, but beyond the float range in linear scale
    + [({"sinr_db": 1e300}, "sinr_db"),
       ({"scheme": "MC", "sinr_db": [10, 1e300]}, "sinr_db"),
       ({"scheme": "MC", "m_nodes": 3, "sinr_db": [10, 4000, 10]}, "sinr_db")]
    # an integer field, checked as an integer first
    + [({"trials": HUGE}, "trials")],
)
def test_non_finite_numbers_rejected_by_name(overrides, field):
    # json.loads accepts NaN, Infinity and integers too large for a float,
    # which pass every range check
    with pytest.raises(ValidationError, match=f"{field}: must be finite") as info:
        parse_scenario(_doc(**overrides))
    if str(HUGE) in json.dumps(overrides):  # HUGE or -HUGE: described, not printed
        assert str(info.value) == f"{field}: must be finite, got an int past the float range"
    if "numerology" in overrides:
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            Numerology(**overrides["numerology"])


def test_sinr_with_zero_capacity_rejected_by_name():
    # 1 + 1e-20 rounds to 1, so log2(1 + sinr) is 0 and no channel use fits
    with pytest.raises(ValidationError, match="sinr_db: capacity"):
        parse_scenario(_doc(sinr_db=-200))
    with pytest.raises(ValidationError, match="sinr_db: capacity"):
        parse_scenario(_doc(scheme="MC", sinr_db=[10, -200]))


@pytest.mark.parametrize("m_nodes", [MAX_NODES + 1, 10**30])
def test_node_count_bounded_by_name(m_nodes):
    assert parse_scenario(_doc(scheme="MC", m_nodes=MAX_NODES)).m_nodes == MAX_NODES
    with pytest.raises(ValidationError, match=f"m_nodes: must be <= {MAX_NODES}"):
        parse_scenario(_doc(scheme="MC", m_nodes=m_nodes))


def test_trial_count_bounded_by_name():
    # the limit of the simulator's int64 tallies
    limit = sim.MAX_TRIALS
    assert parse_scenario(_doc(trials=limit)).trials == limit
    for trials in (limit + 1, 10**30):
        with pytest.raises(ValidationError, match=f"trials: must be <= {limit}"):
            parse_scenario(_doc(trials=trials))


def test_contexts_built_from_sinrs():
    cfg = parse_scenario(_doc(scheme="MC", m_nodes=2, sinr_db=[0, 10]))
    contexts = cfg.contexts()
    assert contexts[0].sinr_linear == pytest.approx(1.0)
    assert contexts[1].sinr_linear == pytest.approx(10.0)
