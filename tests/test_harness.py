import csv
import hashlib
import json
import math
import random
import re
from dataclasses import replace

import pytest

from uavchain import simnet
from uavchain.consensus import Mission, ProtocolKind
from uavchain.faults import ByzantineStrategy, FaultPlan
from uavchain.harness import (
    ANOVA_COLUMNS,
    GROUPS_COLUMNS,
    METRICS_COLUMNS,
    build_desk_scenario,
    build_hurricane_scenario,
    canonical_fault_plan,
    compute_metrics,
    degradation_pct,
    export,
    nearest_rank,
    replay,
    run_experiment,
)
from uavchain.radio import LinkBudgetParams
from uavchain.scenario import ScenarioError, deploy_fleet
from uavchain.simnet import EventTrace

from conftest import mini_scenario, swapping_reelection


@pytest.fixture(scope="module")
def attack_run():
    """The golden attack run of test_golden_hashes.py: its full trace fills
    several serializer chunks and part of one more."""
    scn = mini_scenario(7, duration=3.0, trace_detail="full", reelect_every=5)
    plan = canonical_fault_plan(scn, 2)
    report, result = run_experiment(scn, ProtocolKind.HYBRID, plan, 2)
    n = len(result.trace.records)
    assert n > simnet._CHUNK_RECORDS and n % simnet._CHUNK_RECORDS
    return scn, plan, report, result


class TestNearestRank:
    def test_median_of_five(self):
        assert nearest_rank(sorted([1, 2, 3, 4, 5]), 50) == 3

    def test_small_sets(self):
        assert nearest_rank([7.0], 50) == 7.0
        assert nearest_rank([7.0], 99) == 7.0
        assert math.isnan(nearest_rank([], 50))

    def test_percentile_monotonicity_against_sort_oracle(self):
        rng = random.Random(31)
        for _ in range(1_000):
            data = sorted(rng.uniform(0, 100) for _ in range(rng.randint(1, 60)))
            p50 = nearest_rank(data, 50)
            p95 = nearest_rank(data, 95)
            p99 = nearest_rank(data, 99)
            assert p50 <= p95 <= p99
            assert p99 <= data[-1]
            assert data[0] <= p50


class TestComputeMetrics:
    def test_throughput_and_latency_extraction(self):
        scn = mini_scenario(5, duration=2.0)
        report, result = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 21)
        blocks = result.trace.by_kind("block")
        committed = sum(len(b["txs"]) for b in blocks)
        assert report.txs_committed == committed
        assert report.throughput_tps == pytest.approx(committed / 2.0)
        assert report.latency.count == committed
        assert report.latency.median <= report.latency.p95 <= report.latency.p99
        assert report.trace_hash == result.trace_hash()

    def test_zero_duration_runs_flag_no_data(self):
        scn = mini_scenario(4, duration=0.0)
        report, _ = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 1)
        assert report.throughput_tps == 0.0
        assert report.latency.count == 0
        assert math.isnan(report.latency.median)

    def test_same_inputs_identical_reports(self):
        scn = mini_scenario(4, duration=1.0)
        r1, _ = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 5)
        r2, _ = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 5)
        assert r1 == r2

    def test_liveness_consequence_throughput_positive(self):
        scn = mini_scenario(5, duration=2.0)
        report, _ = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 2)
        assert report.throughput_tps > 0
        assert math.isfinite(report.latency.median)

    def test_end_record_must_come_last(self):
        with pytest.raises(ValueError, match="no end record"):
            compute_metrics(EventTrace())
        _, result = run_experiment(mini_scenario(4, duration=0.5), ProtocolKind.HYBRID, FaultPlan(), 1)
        backwards = EventTrace()
        for line, kind in reversed(list(zip(result.trace.lines, result.trace.kinds))):
            backwards.add(line, kind)
        with pytest.raises(ValueError, match="no end record"):
            compute_metrics(backwards)


class TestDegradation:
    def test_positive_means_worse(self):
        scn = mini_scenario(5, duration=2.0)
        base, _ = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 8)
        attacked, _ = run_experiment(
            scn, ProtocolKind.HYBRID, FaultPlan(drop_prob=0.3), 8, baseline=base
        )
        d = attacked.degradation
        assert d is not None
        assert d["throughput_pct"] >= 0.0

    def test_identity_baseline_zero(self):
        scn = mini_scenario(4, duration=1.5)
        base, _ = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 3)
        d = degradation_pct(base, base)
        assert d["throughput_pct"] == 0.0
        assert d["median_latency_pct"] == 0.0


class TestCanonicalPlan:
    def test_plan_shape(self):
        scn = build_hurricane_scenario()
        plan = canonical_fault_plan(scn, 7)
        assert len(plan.byzantine) == 2
        assert all(s is ByzantineStrategy.EQUIVOCATE for s in plan.byzantine.values())
        assert len(plan.ddos) == 2
        for w in plan.ddos:
            assert w.flood_rate_msgs_per_s == 2.0 * scn.service.service_rate_msgs_per_s
            assert w.duration_s == pytest.approx(0.2 * scn.duration_s)
        assert len(plan.spoof) == 5
        rescue_ids = {
            u.profile.node for u in deploy_fleet(scn, 7) if u.profile.mission is Mission.RESCUE
        }
        assert {w.target for w in plan.spoof} <= rescue_ids
        for w in plan.spoof:
            assert w.offset.norm() == pytest.approx(500.0)

    def test_plan_within_tolerance(self):
        scn = build_hurricane_scenario()
        plan = canonical_fault_plan(scn, 7)
        from uavchain.consensus import byzantine_tolerance, elect_validators

        vset = elect_validators(
            [u.profile for u in deploy_fleet(scn, 7)], scn.consensus.weights,
            scn.consensus.n_validators,
        )
        plan.check_tolerance(vset.ids, byzantine_tolerance(vset.n))

    def test_mistyped_scenario_named_by_key(self):
        # A code-built fleet with float counts: the plan reads the scenario a
        # run would, so its document round trip names the key.
        scn = build_hurricane_scenario({"duration_s": 1.0})
        scn = replace(scn, fleet={m: replace(c, count=float(c.count)) for m, c in scn.fleet.items()})
        with pytest.raises(ScenarioError, match=r"^fleet\.\w+\.count must be int"):
            canonical_fault_plan(scn, 1)


class TestExportAndReplay:
    def test_files_and_schemas(self, tmp_path):
        scn = mini_scenario(5, duration=1.5)
        plan = FaultPlan()
        report, result = run_experiment(scn, ProtocolKind.HYBRID, plan, 13)
        paths = export(report, result, tmp_path / "out", scn, plan)
        for key in ("metrics", "groups", "anova", "events", "summary"):
            assert paths[key].exists()
        with open(paths["metrics"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == METRICS_COLUMNS
        assert len(rows) == 2
        assert len(rows[1]) == len(METRICS_COLUMNS)
        with open(paths["groups"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == GROUPS_COLUMNS
        with open(paths["anova"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ANOVA_COLUMNS

    def test_csv_floats_reparse_exactly(self, tmp_path):
        scn = mini_scenario(5, duration=1.5)
        plan = FaultPlan()
        report, result = run_experiment(scn, ProtocolKind.HYBRID, plan, 13)
        paths = export(report, result, tmp_path / "out", scn, plan)
        with open(paths["metrics"]) as fh:
            rows = list(csv.reader(fh))
        row = dict(zip(rows[0], rows[1]))
        assert float(row["throughput_tps"]) == report.throughput_tps
        assert float(row["latency_median"]) == report.latency.median
        assert float(row["latency_p99"]) == report.latency.p99

    def test_summary_round_trips_numerics(self, tmp_path):
        scn = mini_scenario(5, duration=1.5)
        plan = FaultPlan(drop_prob=0.05)
        report, result = run_experiment(scn, ProtocolKind.HYBRID, plan, 13)
        paths = export(report, result, tmp_path / "out", scn, plan)
        with open(paths["summary"]) as fh:
            summary = json.load(fh)
        assert summary["metrics"]["throughput_tps"] == report.throughput_tps
        assert summary["metrics"]["latency"]["median"] == report.latency.median
        assert summary["metrics"]["trace_hash"] == report.trace_hash
        assert summary["fault_plan"]["drop_prob"] == 0.05

    def test_events_jsonl_matches_trace(self, tmp_path, attack_run):
        scn, plan, report, result = attack_run
        paths = export(report, result, tmp_path / "out", scn, plan)
        lines = paths["events"].read_text().splitlines()
        assert lines == [
            json.dumps(r, sort_keys=True, separators=(",", ":")) for r in result.trace.records
        ]

    def test_export_refuses_another_runs_report(self, tmp_path):
        scn = mini_scenario(4, duration=1.0)
        plan = FaultPlan()
        report_a, _ = run_experiment(scn, ProtocolKind.HYBRID, plan, 1)
        report_b, result_b = run_experiment(scn, ProtocolKind.HYBRID, plan, 2)
        assert report_a.trace_hash != report_b.trace_hash
        with pytest.raises(ValueError, match="different runs"):
            export(report_a, result_b, tmp_path, scn, plan)
        assert not (tmp_path / "summary.json").exists()

    def test_replay_reproduces_hash(self, tmp_path):
        scn = mini_scenario(5, duration=1.5)
        plan = FaultPlan(drop_prob=0.1)
        report, result = run_experiment(scn, ProtocolKind.HYBRID, plan, 29)
        paths = export(report, result, tmp_path / "out", scn, plan)
        matches, recorded, recomputed = replay(paths["summary"])
        assert matches
        assert recorded == recomputed == report.trace_hash

    def test_hash_hex_trace_hash_and_events_jsonl_agree(self, tmp_path, attack_run):
        scn, plan, report, result = attack_run
        paths = export(report, result, tmp_path / "out", scn, plan)
        written = hashlib.sha256(paths["events"].read_bytes()).hexdigest()
        assert result.trace.hash_hex() == result.trace_hash() == written == report.trace_hash

    def test_replay_detects_tampering(self, tmp_path):
        scn = mini_scenario(4, duration=1.0)
        plan = FaultPlan()
        report, result = run_experiment(scn, ProtocolKind.HYBRID, plan, 1)
        paths = export(report, result, tmp_path / "out", scn, plan)
        summary = json.loads(paths["summary"].read_text())
        summary["metrics"]["trace_hash"] = "0" * 64
        paths["summary"].write_text(json.dumps(summary))
        matches, _, _ = replay(paths["summary"])
        assert not matches


class TestOneEncodingPass:
    """Each trace record is encoded once, when it happens: a report hashes
    and writes the lines the run wrote."""

    def test_report_encodes_no_record(self, tmp_path, attack_run, monkeypatch):
        scn, plan, report, result = attack_run

        def refuse(record):
            raise AssertionError("a report encoded a record")

        monkeypatch.setattr(simnet, "_encode_record", refuse)
        written = []
        for i in (1, 2):
            again = compute_metrics(
                result.trace, protocol=report.protocol, seed=report.seed,
                queue_stats=result.queue_stats,
            )
            paths = export(again, result, tmp_path / f"report{i}", scn, plan)
            assert again.trace_hash == report.trace_hash
            written.append(paths["events"].read_bytes())
        assert written[0] == written[1]

    def test_chunks_without_a_prior_hash(self, tmp_path, attack_run):
        scn, plan, report, result = attack_run
        fresh = EventTrace()
        for line, kind in zip(result.trace.lines, result.trace.kinds):
            fresh.add(line, kind)
        text = b"".join(fresh.jsonl_chunks())
        assert hashlib.sha256(text).hexdigest() == report.trace_hash
        paths = export(report, result, tmp_path, scn, plan)
        assert paths["events"].read_bytes() == text

    def test_record_added_after_hash(self, attack_run):
        run_trace = attack_run[3].trace
        trace, longer = EventTrace(), EventTrace()
        for line, kind in zip(run_trace.lines, run_trace.kinds):
            trace.add(line, kind)
            longer.add(line, kind)
        extra = _dumps({"t": 3.0, "seq": len(run_trace.lines) + 1, "kind": "extra"})
        trace.hash_hex()
        trace.add(extra, "extra")
        longer.add(extra, "extra")
        text = b"".join(trace.jsonl_chunks())
        assert text == b"".join(longer.jsonl_chunks())
        assert trace.hash_hex() == longer.hash_hex() == hashlib.sha256(text).hexdigest()


def _dumps(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# Each of `simnet._FORMATS` by its kind: the format and, in its order, the
# fields the simulator fills it with.
FORMATS = {
    re.search(r'"kind":"(\w+)"', fmt)[1]: (fmt, re.findall(r'"(\w+)":"?%s', fmt)) for fmt in simnet._FORMATS
}


def _assert_canonical(trace):
    """Each line of a trace is its record's compact, key-sorted JSON, under
    the record's kind, and a line of a kind with a format has exactly that
    format's keys."""
    for line, kind in zip(trace.lines, trace.kinds, strict=True):
        record = json.loads(line)
        assert line == _dumps(record)
        assert record["kind"] == kind
        if kind in FORMATS:
            assert sorted(record) == sorted([*FORMATS[kind][1], "kind"])


class TestLineFormats:
    """The lines a run writes are the JSON encoder's text, and each format
    string that writes the fixed-shape lines -- send, deliver and drop, and
    commit, tx_arrival, proposal and mobility_tick -- gives it for any value
    the simulator fills it with."""

    TRANSPORT = ("send", "deliver", "drop")
    EVENTS = ("commit", "tx_arrival", "proposal", "mobility_tick")
    VALUES = {
        "t": 0.5, "seq": 7, "src": 1, "dst": 2, "msg": "Prepare", "latency": 0.001,
        "reason": "queue_full", "node": 3, "height": 12, "view": 2, "hash": "a9" * 32,
        "tx": 10**6, "origin": 199, "mission": "assessment", "bits": 60_000, "txs": 16,
    }
    EDGES = {
        "1e-07": {"t": 1e-07},
        "1e16": {"t": 1e16},
        "5e-324": {"t": 5e-324},
        "0.1+0.2": {"t": 0.1 + 0.2},
        "-0.0": {"t": -0.0},
        "int-t": {"t": 3},
        "attacker-src": {"src": simnet.ATTACKER_ID},
    }
    # Every record kind a run writes, and every reason it drops a message for.
    KINDS = {*FORMATS, "block", "end", "reelection", "timeout", "view_adopted", "sync"}
    REASONS = {"loss", "queue_full", "zero_capacity"}

    @staticmethod
    def _check_line(kind, values):
        # Filled as the simulator fills it (each `t` and `latency` as
        # `_time_text` of the value, every other field as it is), a format's
        # line re-encodes to itself and holds those values, rounded to 9
        # places where the simulator rounds them.
        fmt, names = FORMATS[kind]
        timed = ("t", "latency")
        line = fmt % tuple(simnet._time_text(values[n]) if n in timed else values[n] for n in names)
        record = json.loads(line)
        assert line == _dumps(record)
        assert record == {"kind": kind, **{n: round(values[n], 9) if n in timed else values[n] for n in names}}

    def test_every_record_of_a_run(self, attack_run):
        events = run_experiment(mini_scenario(7, duration=2.0), ProtocolKind.HYBRID, FaultPlan(), 1)[1]
        for result in (attack_run[3], events):
            _assert_canonical(result.trace)
        attack_kinds = attack_run[3].trace.kinds
        assert sum(kind in FORMATS for kind in attack_kinds) > len(attack_kinds) // 2

    @pytest.mark.parametrize("attacked", [False, True], ids=["no-attacks", "canonical"])
    @pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.value)
    def test_every_record_of_an_events_run(self, protocol, attacked):
        # A full trace holds every events-level record and the transport's.
        scn = mini_scenario(7, duration=2.0, reelect_every=5, trace_detail="full")
        plan = canonical_fault_plan(scn, 3) if attacked else FaultPlan()
        trace = run_experiment(scn, protocol, plan, 3)[1].trace
        assert {"tx_arrival", "mobility_tick", "proposal", "send", "deliver"} <= set(trace.kinds)
        _assert_canonical(trace)

    def test_every_kind_and_drop_reason(self, attack_run):
        # Scenarios pinned elsewhere, each with a full trace: the attack run,
        # the member-swapping re-election, the lossy run and the radio
        # tests' zero-capacity link.  Between them they write every kind and
        # every drop reason.
        swap_scn, swap_plan = swapping_reelection()
        lossy = mini_scenario(7, duration=2.0, jitter=0.02, trace_detail="full")
        weak = replace(mini_scenario(4, duration=1.0, trace_detail="full"), radio=LinkBudgetParams(tx_power_w=1e-300))
        traces = [
            attack_run[3].trace,
            simnet.run(replace(swap_scn, trace_detail="full"), swap_plan, ProtocolKind.HYBRID, 2).trace,
            simnet.run(lossy, FaultPlan(drop_prob=0.05), ProtocolKind.HYBRID, 1).trace,
            simnet.run(weak, FaultPlan(), ProtocolKind.HYBRID, 1).trace,
        ]
        for trace in traces:
            _assert_canonical(trace)
        assert {kind for trace in traces for kind in trace.kinds} == self.KINDS
        assert {r["reason"] for trace in traces for r in trace.by_kind("drop")} == self.REASONS

    @pytest.mark.parametrize("edge", list(EDGES))
    @pytest.mark.parametrize("kind", TRANSPORT)
    def test_edge_values(self, kind, edge):
        values = {**self.VALUES, **self.EDGES[edge]}
        values["latency"] = values["t"]
        self._check_line(kind, values)

    @pytest.mark.parametrize("edge", [name for name, edge in EDGES.items() if "t" in edge])
    @pytest.mark.parametrize("kind", EVENTS)
    def test_event_edge_values(self, kind, edge):
        self._check_line(kind, {**self.VALUES, **self.EDGES[edge]})

    @pytest.mark.parametrize("mission", list(Mission), ids=lambda m: m.value)
    def test_missions_need_no_escape(self, mission):
        # `bits` is the scenario's int payload size, as a run writes it.
        bits = mini_scenario(4).workload.payload_bits
        self._check_line("tx_arrival", {**self.VALUES, "mission": mission.value, "bits": bits})

    def test_time_text_is_the_encoders(self):
        # The simulator writes each `t` and `latency` as this text.
        rng = random.Random(5)
        bounds = [1e-4, 1e6, 999999.9999999999, 99999.9999999995, 5e-10, 1.5e-9]
        values = [1e-07, 1e16, 5e-324, 0.1 + 0.2, -0.0, 0.0, 3.0, math.inf]
        values += [math.nextafter(b, d) for b in bounds for d in (0.0, math.inf)] + bounds
        values += [rng.uniform(0.0, 60.0) for _ in range(20_000)]
        values += [10 ** rng.uniform(-12.0, 8.0) for _ in range(20_000)]
        values += [(rng.randrange(10**15) + 0.5) / 1e9 for _ in range(20_000)]
        for x in values:
            assert simnet._time_text(x) == repr(round(x, 9)), x


class TestBuilders:
    def test_desk_scenario_composition(self):
        scn = build_desk_scenario()
        assert scn.total_fleet() == 24
        assert scn.consensus.n_validators == 20
        assert scn.duration_s == 60.0

    def test_hurricane_defaults(self):
        scn = build_hurricane_scenario()
        assert scn.total_fleet() == 200
        assert scn.workload.tx_rate_per_uav == 1.0
