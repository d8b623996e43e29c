import json
import math
import re
from dataclasses import MISSING, astuple, fields, replace
from typing import get_type_hints

import pytest

from uavchain.consensus import Mission, ProposerPolicy, ProtocolKind, ScoreWeights
from uavchain.faults import ByzantineStrategy, DdosWindow, FaultPlan, SpoofWindow
from uavchain.harness import (
    InvalidOverride,
    build_desk_scenario,
    build_hurricane_scenario,
    export,
    replay,
    run_experiment,
)
from uavchain.mobility import AreaBounds, MobilityConfig, Vec3
from uavchain.radio import LinkBudgetParams, NodeServiceProfile
from uavchain.simnet import Simulation
from uavchain.scenario import (
    ClusterSpec,
    ConsensusParams,
    Region,
    Scenario,
    ScenarioError,
    WorkloadParams,
    deploy_fleet,
    fault_plan_from_dict,
    fault_plan_to_dict,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import mini_scenario


def _set_path(doc, path, value):
    *sections, key = path.split(".")
    for name in sections:
        doc = doc[name]
    doc[key] = value


def off_default_scenario() -> Scenario:
    """A small scenario in which every field that has a default is off it."""
    return Scenario(
        area=AreaBounds(-1_000.0, 6_000.0, 500.0, 5_500.0, 20.0, 180.0),
        fleet={
            Mission.CONNECTIVITY: ClusterSpec(3, Region(0.0, 2_000.0, 1_000.0, 3_000.0), 2.0, stake_jitter=0.2),
            Mission.DELIVERY: ClusterSpec(2, Region(-500.0, 1_500.0, 2_000.0, 4_000.0), 0.5, stake_jitter=0.0),
            Mission.RESCUE: ClusterSpec(2, Region(3_000.0, 5_000.0, 3_000.0, 5_000.0), 0.25, stake_jitter=0.5),
            Mission.ASSESSMENT: ClusterSpec(1, Region(1_000.0, 4_000.0, 600.0, 1_600.0), 0.0, stake_jitter=1.0),
        },
        radio=LinkBudgetParams(
            tx_power_w=2.0, tx_gain_dbi=3.0, rx_gain_dbi=4.5,
            carrier_hz=2.4e9, noise_power_w=5e-12, bandwidth_hz=20e6,
        ),
        mobility=MobilityConfig(v_max=30.0, a_max=3.0, dt=0.2, waypoint_arrival_radius=25.0),
        service=NodeServiceProfile(proc_latency_s=0.002, service_rate_msgs_per_s=1_500.0),
        consensus=ConsensusParams(
            n_validators=5,
            weights=ScoreWeights(0.4, 0.3, 0.2, 0.1),
            policy=ProposerPolicy.ROUND_ROBIN,
            timeout_s=0.3,
            timeout_backoff=1.5,
            max_txs_per_block=4,
            min_block_interval_s=0.1,
            reelect_every_blocks=3,
            vote_bits=256,
            header_bits=512,
        ),
        workload=WorkloadParams(tx_rate_per_uav=0.5, payload_bits=1_024),
        duration_s=1.5,
        extra_delay_jitter_s=0.001,
        trace_detail="full",
    )


class TestRoundTrip:
    def test_off_default_scenario_is_off_every_default(self):
        scn = off_default_scenario()
        sections = (scn, scn.radio, scn.mobility, scn.service, scn.consensus, scn.consensus.weights, scn.workload)
        for section in (*sections, *scn.fleet.values()):
            for f in fields(section):
                default = f.default_factory() if f.default_factory is not MISSING else f.default
                assert default is MISSING or getattr(section, f.name) != default, (type(section).__name__, f.name)
        assert scn.fleet.keys() == set(Mission)

    @pytest.mark.parametrize(
        "build",
        [build_hurricane_scenario, build_desk_scenario, lambda: mini_scenario(5), off_default_scenario],
        ids=["hurricane", "desk", "mini", "off_default"],
    )
    def test_scenario_round_trip_is_equal(self, build):
        # Equal scenarios, not only equal documents: a field the document
        # dropped would come back at its default.
        scn = build()
        assert scenario_from_dict(scenario_to_dict(scn)) == scn

    @pytest.mark.parametrize(
        "build",
        [
            lambda: replace(
                build_hurricane_scenario({"duration_s": 1.0}),
                area=AreaBounds(0.0, 25_000.0, 0.0, 25_000.0, 50.0, 300.0),
            ),
            off_default_scenario,
        ],
        ids=["hurricane_low_ceiling", "off_default"],
    )
    def test_code_built_run_replays_from_its_summary(self, build, tmp_path):
        scn = build()
        report, result = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 1)
        paths = export(report, result, tmp_path, scn, FaultPlan())
        assert replay(paths["summary"]) == (True, report.trace_hash, report.trace_hash)

    def test_dict_round_trip_is_lossless(self):
        scn = build_hurricane_scenario()
        doc = scenario_to_dict(scn)
        again = scenario_from_dict(doc)
        assert scenario_to_dict(again) == doc

    def test_file_round_trip(self, tmp_path):
        scn = mini_scenario(5)
        path = tmp_path / "scenario.json"
        save_scenario(scn, path)
        loaded = load_scenario(path)
        assert scenario_to_dict(loaded) == scenario_to_dict(scn)

    def test_save_refuses_what_load_refuses(self, tmp_path):
        # `Infinity` in the file would fail `load_scenario`; no file is written.
        path = tmp_path / "scenario.json"
        with pytest.raises(ScenarioError, match=r"^run\.duration_s must be "):
            save_scenario(replace(mini_scenario(5), duration_s=math.inf), path)
        assert not path.exists()

    def test_json_is_plain_data(self):
        doc = scenario_to_dict(build_hurricane_scenario())
        json.dumps(doc)  # must not raise


class TestValidation:
    def test_unknown_section_rejected(self):
        doc = scenario_to_dict(build_hurricane_scenario())
        doc["extra_section"] = {}
        with pytest.raises(ScenarioError, match="extra_section"):
            scenario_from_dict(doc)

    def test_unknown_key_in_section_rejected(self):
        # A removed option's key fails too, rather than being ignored.
        for section, key in (("radio", "warp_drive"), ("consensus", "optimistic_fast_path")):
            doc = scenario_to_dict(build_hurricane_scenario())
            doc[section][key] = False
            with pytest.raises(ScenarioError, match=rf"unknown key\(s\) in {section}: \['{key}'\]"):
                scenario_from_dict(doc)

    def test_missing_section_rejected(self):
        doc = scenario_to_dict(build_hurricane_scenario())
        del doc["radio"]
        with pytest.raises(ScenarioError, match="radio"):
            scenario_from_dict(doc)

    def test_attacks_section_rejected(self):
        # Fault plans come only from `simulate --attacks`; a scenario section
        # would be accepted and never applied.
        doc = scenario_to_dict(build_hurricane_scenario())
        doc["attacks"] = fault_plan_to_dict(FaultPlan(drop_prob=0.1))
        with pytest.raises(ScenarioError, match="attacks"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("key", ["base_stations", "relief_camps", "adversary_zones"])
    def test_unsimulated_geometry_rejected(self, key):
        # Only UAV-to-UAV links are simulated; ground points never entered a run.
        doc = scenario_to_dict(build_hurricane_scenario())
        doc["geometry"][key] = []
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict(doc)

    def test_missing_proc_latency_takes_profile_default(self):
        doc = scenario_to_dict(mini_scenario(5))
        del doc["run"]["proc_latency_s"]
        assert scenario_from_dict(doc).service.proc_latency_s == NodeServiceProfile().proc_latency_s

    @pytest.mark.parametrize(
        "section,key", [("consensus", "n_validators"), ("workload", "tx_rate_per_uav"), ("workload", "payload_bits")]
    )
    def test_missing_key_takes_dataclass_default(self, section, key):
        scn = mini_scenario(15)
        doc = scenario_to_dict(scn)
        del doc[section][key]
        params = getattr(scenario_from_dict(doc), section)
        default = getattr(type(params)(), key)
        assert default != getattr(getattr(scn, section), key)
        assert getattr(params, key) == default

    @pytest.mark.parametrize(
        "path", ["geometry.area", "fleet.rescue.count", "fleet.rescue.region", "fleet.rescue.stake"]
    )
    def test_missing_required_key_names_section(self, path):
        doc = scenario_to_dict(build_hurricane_scenario())
        *sections, key = path.split(".")
        cursor = doc
        for name in sections:
            cursor = cursor[name]
        del cursor[key]
        where = ".".join(sections)
        with pytest.raises(ScenarioError, match=rf"missing key\(s\) in {where}: \['{key}'\]"):
            scenario_from_dict(doc)

    def test_region_outside_area_rejected(self):
        doc = scenario_to_dict(build_hurricane_scenario())
        doc["fleet"]["rescue"]["region"] = [20_000.0, 30_000.0, 20_000.0, 24_000.0]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_more_validators_than_fleet_rejected(self):
        doc = scenario_to_dict(mini_scenario(5))
        doc["consensus"]["n_validators"] = 50
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)


class TestMalformedValues:
    @pytest.mark.parametrize(
        "path,value",
        [
            ("geometry.area", [0.0, 25_000.0, 0.0, 25_000.0, 50.0]),
            ("geometry.area", [0.0, 25_000.0, 0.0, 25_000.0, 50.0, 500.0, 900.0]),
            ("consensus.weights", [0.2] * 5),
            ("fleet.rescue.count", 2.7),
            ("consensus.n_validators", 12.0),
            ("workload.payload_bits", True),
            ("consensus.policy", 1),
            ("radio.tx_power_w", "1.0"),
            ("run.trace_detail", ["full"]),
        ],
        # A list's id names its length, not its position among the cases.
        ids=lambda v: f"list{len(v)}" if isinstance(v, list) else None,
    )
    def test_malformed_value_rejected(self, path, value):
        doc = scenario_to_dict(build_hurricane_scenario())
        _set_path(doc, path, value)
        with pytest.raises(ScenarioError, match=rf"^{re.escape(path)} must be "):
            scenario_from_dict(doc)

    # Python's json reads NaN and Infinity, and an integer too large for a
    # float; a float field takes none of them.
    NON_FINITE = pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "1" + "0" * 400], ids=["nan", "inf", "1e400"]
    )

    @NON_FINITE
    @pytest.mark.parametrize(
        "path", ["run.duration_s", "consensus.timeout_s", "radio.noise_power_w", "fleet.rescue.stake"]
    )
    def test_non_finite_number_rejected(self, path, literal):
        doc = scenario_to_dict(build_hurricane_scenario())
        _set_path(doc, path, json.loads(literal))
        with pytest.raises(ScenarioError, match=rf"^{re.escape(path)} must be a finite number"):
            scenario_from_dict(doc)

    @NON_FINITE
    def test_non_finite_vector_entry_rejected(self, literal):
        doc = scenario_to_dict(build_hurricane_scenario())
        doc["geometry"]["area"][5] = json.loads(literal)
        with pytest.raises(ScenarioError, match=r"^geometry\.area must be a finite number"):
            scenario_from_dict(doc)

    @NON_FINITE
    @pytest.mark.parametrize(
        "kind,key", [("ddos", "flood_rate_msgs_per_s"), ("ddos", "duration_s"), ("spoof", "duration_s")]
    )
    def test_non_finite_plan_number_rejected(self, kind, key, literal):
        window = {"target": 1, "start_s": 0.5, "duration_s": 1.0}
        window.update({"flood_rate_msgs_per_s": 200.0} if kind == "ddos" else {"offset": [10.0, 0.0, 0.0]})
        window[key] = json.loads(literal)
        with pytest.raises(ScenarioError, match=rf"^attacks\.{kind}\.{key} must be a finite number"):
            fault_plan_from_dict({kind: [window]})

    def test_float_field_takes_an_integer(self):
        doc = scenario_to_dict(build_hurricane_scenario())
        doc["run"]["duration_s"] = 30
        doc["consensus"]["weights"] = [1, 1, 1, 1]
        scn = scenario_from_dict(doc)
        assert scn.duration_s == 30.0 and type(scn.duration_s) is float
        assert scenario_to_dict(scn)["consensus"]["weights"] == [0.25] * 4

    def test_weights_whose_sum_overflows_rejected(self):
        # Normalized by an infinite sum, every weight would be zero.
        with pytest.raises(ValueError, match="positive, finite sum"):
            ScoreWeights(1e308, 1e308, 1e308, 1e308)
        doc = scenario_to_dict(build_hurricane_scenario())
        doc["consensus"]["weights"] = [1e308] * 4
        with pytest.raises(ScenarioError, match=r"^consensus\.weights: weights must have a positive, finite sum"):
            scenario_from_dict(doc)

    def test_unknown_mission_rejected(self):
        doc = scenario_to_dict(build_hurricane_scenario())
        doc["fleet"]["firefighting"] = doc["fleet"].pop("rescue")
        with pytest.raises(ScenarioError, match=r"unknown key\(s\) in fleet: \['firefighting'\]"):
            scenario_from_dict(doc)

    def test_section_that_is_not_an_object_rejected(self):
        doc = scenario_to_dict(build_hurricane_scenario())
        doc["radio"] = []
        with pytest.raises(ScenarioError, match="radio must be an object"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"ddos": [{"target": 3, "start_s": 1.0, "duration_s": 2.0}]},
             r"missing key\(s\) in attacks\.ddos: \['flood_rate_msgs_per_s'\]"),
            ({"ddos": [{"target": 3.0, "start_s": 1.0, "duration_s": 2.0, "flood_rate_msgs_per_s": 100}]},
             r"attacks\.ddos\.target must be int"),
            ({"spoof": [{"target": 3, "offset": [1.0, 2.0], "start_s": 0.0, "duration_s": 1.0}]},
             r"attacks\.spoof\.offset must be a list of 3 numbers"),
            ({"byzantine": {"three": "silent"}}, r"attacks\.byzantine keys must be node ids"),
            ({"byzantine": {"3": "sleepy"}}, r"attacks\.byzantine\.3 must be one of"),
            # Windows that cannot act (a zero-rate flood: TestDdos in test_simnet).
            ({"ddos": [{"target": 1, "start_s": -1.0, "duration_s": 0.5, "flood_rate_msgs_per_s": 200.0}]},
             r"attacks\.ddos: start_s must be >= 0"),
            ({"ddos": [{"target": 1, "start_s": 0.2, "duration_s": 0.0, "flood_rate_msgs_per_s": 200.0}]},
             r"attacks\.ddos: duration_s must be > 0"),
            ({"spoof": [{"target": 1, "offset": [1.0, 0.0, 0.0], "start_s": -0.5, "duration_s": 1.0}]},
             r"attacks\.spoof: start_s must be >= 0"),
            ({"spoof": [{"target": 1, "offset": [1.0, 0.0, 0.0], "start_s": 0.0, "duration_s": 0.0}]},
             r"attacks\.spoof: duration_s must be > 0"),
            ({"spoof": [{"target": 1, "offset": [0.0, 0.0, 0.0], "start_s": 0.0, "duration_s": 1.0}]},
             r"attacks\.spoof: offset must be non-zero"),
        ],
        ids=[
            "ddos-missing-key", "ddos-float-target", "spoof-short-offset", "byzantine-node", "byzantine-strategy",
            "ddos-negative-start", "ddos-zero-duration",
            "spoof-negative-start", "spoof-zero-duration", "spoof-zero-offset",
        ],
    )
    def test_malformed_attack_plan_rejected(self, doc, message):
        with pytest.raises(ScenarioError, match=message):
            fault_plan_from_dict(doc)


class TestRanges:
    @pytest.mark.parametrize(
        "path,value",
        [
            ("consensus.vote_bits", -10**7),
            ("consensus.header_bits", -1),
            ("consensus.timeout_s", 0.0),
            ("consensus.timeout_s", -0.5),
            ("consensus.timeout_backoff", 0.5),
            ("consensus.reelect_every_blocks", 0),
            ("consensus.max_txs_per_block", -1),
            ("consensus.min_block_interval_s", -0.1),
            ("workload.tx_rate_per_uav", -1.0),
            ("workload.payload_bits", -1),
            ("workload.payload_bits", 0),
            ("fleet.rescue.stake_jitter", 1.5),
            ("run.extra_delay_jitter_s", -0.1),
            ("consensus.n_validators", 3),
            ("consensus.n_validators", -5),
        ],
    )
    def test_value_out_of_range_rejected(self, path, value):
        doc = scenario_to_dict(build_hurricane_scenario())
        _set_path(doc, path, value)
        with pytest.raises(ScenarioError, match=path.split(".")[-1]):
            scenario_from_dict(doc)

    def test_builtin_scenarios_stay_valid(self):
        for scn in (build_hurricane_scenario(), build_desk_scenario(), mini_scenario(5, tx_rate=0.0)):
            doc = scenario_to_dict(scn)
            assert scenario_to_dict(scenario_from_dict(doc)) == doc


# What no document carries: NaN, an infinity or a bool in a number field, and
# a float, even a whole one, in an int field.
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
BAD_FLOATS = {**NON_FINITE, "bool": True}
BAD_INTS = {**BAD_FLOATS, "float": 8.0}


def _rows(names, bads=BAD_FLOATS):
    """One ``name-kind`` row per name and bad value."""
    return [pytest.param(name, bad, id=f"{name}-{kind}") for name in names for kind, bad in bads.items()]


def _field_rows(cls, types=(float, int)):
    """The rows of every number field of ``cls`` whose type is in ``types``."""
    hints = get_type_hints(cls)
    names = {tp: [f.name for f in fields(cls) if hints[f.name] is tp] for tp in types}
    return [row for tp in types for row in _rows(names[tp], BAD_INTS if tp is int else BAD_FLOATS)]


def _with(path: str, value) -> Scenario:
    """``mini_scenario(4)`` with ``value`` at one dotted field path."""
    scn = mini_scenario(4)
    section, _, name = path.rpartition(".")
    if not section:
        return replace(scn, **{name: value})
    if section == "fleet":
        fleet = {m: replace(spec, **{name: value}) for m, spec in scn.fleet.items()}
        return replace(scn, fleet=fleet)
    return replace(scn, **{section: replace(getattr(scn, section), **{name: value})})


def _rejected_before_run(build, where: str) -> None:
    """``build`` makes a scenario or a fault plan that holds one value no
    document carries.  Its constructor may refuse it by a range check;
    otherwise ``Simulation`` refuses it, before the first event, by its
    document key ``where``."""
    try:
        built = build()
    except ValueError:
        return
    scn, plan = (built, FaultPlan()) if isinstance(built, Scenario) else (mini_scenario(4), built)
    with pytest.raises(ScenarioError, match=f"^{re.escape(where)} must be "):
        Simulation(scn, plan, ProtocolKind.HYBRID, 1)


class TestCodeBuiltNonFinite:
    """Every number field of every scenario section and plan type, built in
    code with a value no document carries.  A run's document round trip is
    the one type check, so only ``Simulation`` is called, never ``run``: a
    NaN or infinite duration, workload rate or flood rate never ends one."""

    @pytest.mark.parametrize("name, bad", _field_rows(Scenario))
    def test_scenario(self, name, bad):
        _rejected_before_run(lambda: _with(name, bad), f"run.{name}")

    @pytest.mark.parametrize("name, bad", _field_rows(NodeServiceProfile))
    def test_service_profile(self, name, bad):
        _rejected_before_run(lambda: _with(f"service.{name}", bad), f"run.{name}")

    @pytest.mark.parametrize("name, bad", _field_rows(MobilityConfig))
    def test_mobility_config(self, name, bad):
        _rejected_before_run(lambda: _with(f"mobility.{name}", bad), f"mobility.{name}")

    @pytest.mark.parametrize("name, bad", _field_rows(LinkBudgetParams))
    def test_link_budget(self, name, bad):
        _rejected_before_run(lambda: _with(f"radio.{name}", bad), f"radio.{name}")

    @pytest.mark.parametrize("name, bad", _field_rows(WorkloadParams))
    def test_workload(self, name, bad):
        _rejected_before_run(lambda: _with(f"workload.{name}", bad), f"workload.{name}")

    @pytest.mark.parametrize("name, bad", _field_rows(ConsensusParams, (float,)))
    def test_consensus_params(self, name, bad):
        _rejected_before_run(lambda: _with(f"consensus.{name}", bad), f"consensus.{name}")

    @pytest.mark.parametrize("name, bad", _field_rows(ConsensusParams, (int,)))
    def test_consensus_params_counts(self, name, bad):
        _rejected_before_run(lambda: _with(f"consensus.{name}", bad), f"consensus.{name}")

    @pytest.mark.parametrize("index, bad", _rows(range(4)))
    def test_score_weights(self, index, bad):
        weights = [0.25] * 4
        weights[index] = bad
        _rejected_before_run(lambda: _with("consensus.weights", ScoreWeights(*weights)), "consensus.weights")

    @pytest.mark.parametrize("index, bad", _rows(range(6)))
    def test_area_bounds(self, index, bad):
        bounds = list(astuple(mini_scenario(4).area))
        bounds[index] = bad
        _rejected_before_run(lambda: replace(mini_scenario(4), area=AreaBounds(*bounds)), "geometry.area")

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 25.0, True, False],
        ids=["nan", "inf", "-inf", "float", "true", "false"],
    )
    def test_cluster_count(self, bad):
        _rejected_before_run(lambda: _with("fleet.count", bad), "fleet.connectivity.count")

    @pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_cluster_stake(self, bad):
        _rejected_before_run(lambda: _with("fleet.stake", bad), "fleet.connectivity.stake")

    @pytest.mark.parametrize("flag", [True, False])
    def test_cluster_stake_bool(self, flag):
        _rejected_before_run(lambda: _with("fleet.stake", flag), "fleet.connectivity.stake")

    @pytest.mark.parametrize("bad", BAD_FLOATS.values(), ids=BAD_FLOATS.keys())
    def test_cluster_stake_jitter(self, bad):
        _rejected_before_run(lambda: _with("fleet.stake_jitter", bad), "fleet.connectivity.stake_jitter")

    @pytest.mark.parametrize("bad", [2048.5, 2048.0], ids=["fraction", "whole"])
    def test_workload_payload_float(self, bad):
        _rejected_before_run(lambda: _with("workload.payload_bits", bad), "workload.payload_bits")

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("name", [f.name for f in fields(WorkloadParams)])
    def test_workload_bool(self, name, flag):
        _rejected_before_run(lambda: _with(f"workload.{name}", flag), f"workload.{name}")

    @pytest.mark.parametrize("name, bad", _field_rows(FaultPlan))
    def test_fault_plan(self, name, bad):
        _rejected_before_run(lambda: FaultPlan(**{name: bad}), f"attacks.{name}")

    @pytest.mark.parametrize("name, bad", _field_rows(DdosWindow))
    def test_ddos_window(self, name, bad):
        args = {"target": 1, "start_s": 0.5, "duration_s": 1.0, "flood_rate_msgs_per_s": 200.0, name: bad}
        _rejected_before_run(lambda: FaultPlan(ddos=(DdosWindow(**args),)), f"attacks.ddos.{name}")

    @pytest.mark.parametrize("name, bad", _field_rows(SpoofWindow))
    def test_spoof_window_times(self, name, bad):
        args = {"target": 1, "offset": Vec3(10.0, 0.0, 0.0), "start_s": 0.5, "duration_s": 1.0, name: bad}
        _rejected_before_run(lambda: FaultPlan(spoof=(SpoofWindow(**args),)), f"attacks.spoof.{name}")

    @pytest.mark.parametrize("axis, bad", _rows(range(3)))
    def test_spoof_window_offset(self, axis, bad):
        offset = [10.0, 0.0, 0.0]
        offset[axis] = bad
        _rejected_before_run(
            lambda: FaultPlan(spoof=(SpoofWindow(1, Vec3(*offset), 0.5, 1.0),)), "attacks.spoof.offset"
        )

    # `Transaction` takes no empty payload; the scenario rejects it by name
    # before a run's setup would fail on it.
    def test_workload_empty_payload(self):
        with pytest.raises(ScenarioError, match="payload_bits must be > 0"):
            WorkloadParams(tx_rate_per_uav=0.0, payload_bits=0)

    def test_finite_values_still_construct(self):
        replace(build_hurricane_scenario(), duration_s=0.0, extra_delay_jitter_s=0.0)
        WorkloadParams(tx_rate_per_uav=0.0, payload_bits=1)
        ConsensusParams(n_validators=4, max_txs_per_block=0, reelect_every_blocks=1, vote_bits=0, header_bits=0)
        assert ScoreWeights(1, 0, 0, 3) == ScoreWeights(0.25, 0.0, 0.0, 0.75)
        WorkloadParams(tx_rate_per_uav=1e300, payload_bits=10**9)
        AreaBounds(-1e6, 1e6, -1e6, 1e6, 0.0, 1e4)
        MobilityConfig(v_max=1e300, a_max=1e-300, dt=1e-6, waypoint_arrival_radius=1e6)
        LinkBudgetParams(tx_gain_dbi=-3.0, rx_gain_dbi=0.0)
        DdosWindow(1, 0.0, 1e9, 1e6)
        SpoofWindow(1, Vec3(0.0, -0.0, 1e-300), 0.0, 1e9)


class TestCodeBuiltRunNormalized:
    """A run normalizes a code-built scenario and plan through their
    documents, so what it runs is what its summary replays."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: replace(build_hurricane_scenario({"duration_s": 1.0}), mobility=MobilityConfig(dt=1)),
            lambda: replace(build_hurricane_scenario({"duration_s": 1.0}), duration_s=1),
        ],
        ids=["int_dt", "int_duration"],
    )
    def test_int_in_float_field_replays(self, build, tmp_path):
        scn = build()
        report, result = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 3)
        paths = export(report, result, tmp_path, scn, FaultPlan())
        assert replay(paths["summary"]) == (True, report.trace_hash, report.trace_hash)

    def test_int_and_float_runs_write_one_summary(self, tmp_path):
        summaries = []
        for dt in (1, 1.0):
            scn = replace(build_hurricane_scenario({"duration_s": 1.0}), mobility=MobilityConfig(dt=dt))
            report, result = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 3)
            summaries.append(export(report, result, tmp_path / repr(dt), scn, FaultPlan())["summary"].read_bytes())
        assert summaries[0] == summaries[1]

    def test_export_refuses_another_runs_documents(self, tmp_path):
        scn = mini_scenario(4, duration=1.0)
        report, result = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 1)
        with pytest.raises(ValueError, match="not the one the run used"):
            export(report, result, tmp_path, replace(scn, duration_s=2.0), FaultPlan())
        with pytest.raises(ValueError, match="not the one the run used"):
            export(report, result, tmp_path, scn, FaultPlan(drop_prob=0.1))
        assert not any(tmp_path.iterdir())

    # Each passes its range check as 1, and before normalization `export`
    # failed on it with a bare TypeError.
    @pytest.mark.parametrize(
        "path, where",
        [
            ("duration_s", "run.duration_s"),
            ("extra_delay_jitter_s", "run.extra_delay_jitter_s"),
            ("mobility.dt", "mobility.dt"),
            ("service.service_rate_msgs_per_s", "run.service_rate_msgs_per_s"),
            ("radio.tx_power_w", "radio.tx_power_w"),
            ("consensus.timeout_s", "consensus.timeout_s"),
            ("fleet.stake_jitter", "fleet.connectivity.stake_jitter"),
        ],
    )
    def test_bool_in_scenario_float_field_rejected(self, path, where):
        scn = _with(path, True)
        with pytest.raises(ScenarioError, match=re.escape(f"{where} must be a finite number, got True")):
            Simulation(scn, FaultPlan(), ProtocolKind.HYBRID, 1)

    @pytest.mark.parametrize(
        "plan, where",
        [
            (FaultPlan(drop_prob=True), "attacks.drop_prob"),
            (FaultPlan(ddos=(DdosWindow(0, 0.5, 1.0, True),)), "attacks.ddos.flood_rate_msgs_per_s"),
        ],
        ids=["drop_prob", "flood_rate"],
    )
    def test_bool_in_plan_float_field_rejected(self, plan, where):
        with pytest.raises(ScenarioError, match=re.escape(f"{where} must be a finite number, got True")):
            Simulation(mini_scenario(4), plan, ProtocolKind.HYBRID, 1)


class TestZeroStakeCommittee:
    """A document whose validators hold no stake loads; only a run that
    draws its proposers by stake refuses it, naming the key."""

    @staticmethod
    def unstaked(policy: ProposerPolicy = ProposerPolicy.STAKE_WEIGHTED):
        doc = scenario_to_dict(mini_scenario(4, duration=1.0, policy=policy))
        doc["fleet"]["connectivity"]["stake"] = 0.0
        return scenario_from_dict(doc)

    def test_stake_weighted_draw_names_the_key(self):
        with pytest.raises(ScenarioError, match=re.escape("no stake to draw proposers by: fleet.connectivity.stake")):
            Simulation(self.unstaked(), FaultPlan(), ProtocolKind.HYBRID, 1)

    @pytest.mark.parametrize(
        "protocol, policy",
        [
            (ProtocolKind.PURE_PBFT, ProposerPolicy.STAKE_WEIGHTED),
            (ProtocolKind.PURE_DPOS, ProposerPolicy.STAKE_WEIGHTED),
            (ProtocolKind.HYBRID, ProposerPolicy.ROUND_ROBIN),
        ],
        ids=["pbft", "dpos", "hybrid-round-robin"],
    )
    def test_runs_that_draw_no_stake(self, protocol, policy):
        report, _ = run_experiment(self.unstaked(policy), protocol, FaultPlan(), 1)
        assert report.blocks_committed > 0


class TestOverrides:
    def test_duration_override_leaves_rest_identical(self):
        base = scenario_to_dict(build_hurricane_scenario())
        overridden = scenario_to_dict(build_hurricane_scenario({"duration_s": 10.0}))
        assert overridden["run"]["duration_s"] == 10.0
        overridden["run"]["duration_s"] = base["run"]["duration_s"]
        assert overridden == base

    def test_dotted_path_override(self):
        scn = build_hurricane_scenario({"consensus.n_validators": 8})
        assert scn.consensus.n_validators == 8

    def test_too_few_validators_rejected_at_load(self):
        # Election needs 4 validators to tolerate one byzantine node; the
        # scenario fails at load, not when the run elects.
        with pytest.raises(ScenarioError, match="n_validators must be >= 4"):
            build_hurricane_scenario({"consensus.n_validators": 3})

    def test_unknown_override_raises_with_key(self):
        # optimistic_fast_path names a removed option.
        for key in ("propeller_count", "optimistic_fast_path"):
            with pytest.raises(InvalidOverride) as err:
                build_hurricane_scenario({key: True})
            assert err.value.key == key

    def test_bare_key_names_a_run_field(self):
        # A key without a dot is looked up in `run` only; a field of another
        # section takes its dotted path.
        scn = build_hurricane_scenario({"proc_latency_s": 0.002, "trace_detail": "full"})
        assert scn.service.proc_latency_s == 0.002 and scn.trace_detail == "full"
        with pytest.raises(InvalidOverride) as err:
            build_hurricane_scenario({"n_validators": 8})
        assert err.value.key == "n_validators"

    def test_unknown_dotted_override(self):
        with pytest.raises(InvalidOverride):
            build_hurricane_scenario({"radio.magic": 1})


# The reference deployment's 16 base stations (4x4 grid, 1.5 km spacing).
# They are not simulated; the hurricane mission regions are placed against them.
BASE_STATIONS = [(500.0 + i * 1500.0, 500.0 + j * 1500.0) for j in range(4) for i in range(4)]


class TestHurricaneGeometry:
    def test_reference_fleet_composition(self):
        scn = build_hurricane_scenario()
        counts = {m.value: spec.count for m, spec in scn.fleet.items()}
        assert counts == {"connectivity": 50, "delivery": 100, "rescue": 25, "assessment": 25}

    def test_rescue_region_at_least_20km_from_every_base(self):
        scn = build_hurricane_scenario()
        rescue = scn.fleet[Mission.RESCUE].region
        corners = [
            (rescue.x_min, rescue.y_min), (rescue.x_min, rescue.y_max),
            (rescue.x_max, rescue.y_min), (rescue.x_max, rescue.y_max),
        ]
        for bx, by in BASE_STATIONS:
            for cx, cy in corners:
                assert ((cx - bx) ** 2 + (cy - by) ** 2) ** 0.5 >= 20_000.0

    def test_connectivity_and_delivery_within_10km_of_a_base(self):
        scn = build_hurricane_scenario()
        for mission in (Mission.CONNECTIVITY, Mission.DELIVERY):
            region = scn.fleet[mission].region
            corners = [
                (region.x_min, region.y_min), (region.x_min, region.y_max),
                (region.x_max, region.y_min), (region.x_max, region.y_max),
            ]
            for cx, cy in corners:
                nearest = min(
                    ((cx - bx) ** 2 + (cy - by) ** 2) ** 0.5 for bx, by in BASE_STATIONS
                )
                assert nearest <= 10_000.0

    def test_radio_mirrors_reference_setup(self):
        scn = build_hurricane_scenario()
        assert scn.radio.carrier_hz == 915e6
        assert scn.radio.tx_power_w == 1.0
        assert scn.radio.tx_gain_dbi == 6.0
        assert scn.radio.rx_gain_dbi == 6.0
        assert scn.radio.bandwidth_hz == 10e6
        assert scn.mobility.v_max == 50.0


class TestDeployment:
    def test_same_seed_same_fleet(self):
        scn = build_hurricane_scenario()
        a = deploy_fleet(scn, 9)
        b = deploy_fleet(scn, 9)
        assert a == b

    def test_different_seed_different_positions(self):
        scn = build_hurricane_scenario()
        a = deploy_fleet(scn, 1)
        b = deploy_fleet(scn, 2)
        assert a != b

    def test_counts_and_regions(self):
        scn = build_hurricane_scenario()
        uavs = deploy_fleet(scn, 3)
        assert len(uavs) == 200
        for uav in uavs:
            region = scn.fleet[uav.profile.mission].region
            assert region.x_min <= uav.state.position.x <= region.x_max
            assert region.y_min <= uav.state.position.y <= region.y_max
            assert uav.box == AreaBounds(
                region.x_min, region.x_max, region.y_min, region.y_max, scn.area.z_min, scn.area.z_max
            )
            assert scn.area.z_min <= uav.state.position.z <= scn.area.z_max

    def test_unique_node_ids(self):
        uavs = deploy_fleet(build_hurricane_scenario(), 3)
        ids = [u.profile.node for u in uavs]
        assert len(set(ids)) == len(ids)


class TestFaultPlanSerialization:
    def test_round_trip(self):
        from uavchain.mobility import Vec3
        from uavchain.faults import DdosWindow, SpoofWindow

        plan = FaultPlan(
            byzantine={3: ByzantineStrategy.EQUIVOCATE, 7: ByzantineStrategy.SILENT},
            ddos=(DdosWindow(3, 5.0, 2.0, 500.0),),
            spoof=(SpoofWindow(9, Vec3(500.0, 0.0, 0.0), 0.0, 10.0),),
            drop_prob=0.05,
        )
        doc = fault_plan_to_dict(plan)
        json.dumps(doc)
        again = fault_plan_from_dict(doc)
        assert again == plan

    def test_unknown_attack_key_rejected(self):
        with pytest.raises(ScenarioError):
            fault_plan_from_dict({"drop_prob": 0.1, "emp_burst": True})

    def test_tolerance_check(self):
        plan = FaultPlan(byzantine={0: ByzantineStrategy.SILENT, 1: ByzantineStrategy.SILENT})
        with pytest.raises(ValueError):
            plan.check_tolerance(frozenset({0, 1, 2, 3}), 1)
        plan.check_tolerance(frozenset({0, 1, 2, 3}), 2)
