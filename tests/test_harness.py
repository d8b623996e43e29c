import csv
import hashlib
import json
import math
import random

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
from uavchain.scenario import deploy_fleet
from uavchain.simnet import EventTrace

from conftest import mini_scenario


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
        for record in reversed(result.trace.records):
            backwards.add(record)
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

        monkeypatch.setattr(simnet, "_encode_line", refuse)
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
        for record in result.trace.records:
            fresh.add(record)
        text = b"".join(fresh.jsonl_chunks())
        assert hashlib.sha256(text).hexdigest() == report.trace_hash
        paths = export(report, result, tmp_path, scn, plan)
        assert paths["events"].read_bytes() == text

    def test_record_added_after_hash(self, attack_run):
        records = attack_run[3].trace.records
        trace, longer = EventTrace(), EventTrace()
        for record in records:
            trace.add(record)
            longer.add(record)
        extra = {"t": 3.0, "seq": len(records) + 1, "kind": "extra"}
        trace.hash_hex()
        trace.add(extra)
        longer.add(extra)
        text = b"".join(trace.jsonl_chunks())
        assert text == b"".join(longer.jsonl_chunks())
        assert trace.hash_hex() == longer.hash_hex() == hashlib.sha256(text).hexdigest()


def _dumps(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestLineFormats:
    """The format strings that write the fixed-shape lines -- send, deliver
    and drop, and commit, tx_arrival, proposal and mobility_tick -- give the
    generic encoder's bytes."""

    TRANSPORT = {
        "send": {"t": 0.5, "seq": 7, "kind": "send", "src": 1, "dst": 2, "msg": "Prepare"},
        "deliver": {
            "t": 0.5, "seq": 7, "kind": "deliver", "src": 1, "dst": 2, "msg": "TxForward",
            "latency": 0.001,
        },
        "drop": {"t": 0.5, "seq": 7, "kind": "drop", "src": 1, "dst": 2, "reason": "queue_full"},
    }
    EVENTS = {
        "commit": {"t": 0.5, "seq": 7, "kind": "commit", "node": 3, "height": 12, "hash": "0f" * 32},
        "tx_arrival": {
            "t": 0.5, "seq": 7, "kind": "tx_arrival", "tx": 10**6, "origin": 199,
            "mission": "assessment", "bits": 60_000,
        },
        "proposal": {
            "t": 0.5, "seq": 7, "kind": "proposal", "node": 3, "height": 12, "view": 2,
            "hash": "a9" * 32, "txs": 16,
        },
        "mobility_tick": {"t": 0.5, "seq": 7, "kind": "mobility_tick"},
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

    @pytest.fixture
    def no_encoder(self, monkeypatch):
        def generic(record):
            raise AssertionError("a fixed-shape record reached the generic encoder")

        monkeypatch.setattr(simnet, "_encode_record", generic)

    def test_every_record_of_a_run(self, attack_run):
        events = run_experiment(mini_scenario(7, duration=2.0), ProtocolKind.HYBRID, FaultPlan(), 1)[1]
        formatted = 0
        for result in (attack_run[3], events):
            for record in result.trace.records:
                assert simnet._encode_line(record) == _dumps(record)
                formatted += (record["kind"], len(record)) in simnet._LINE_FORMATS
        assert formatted > len(attack_run[3].trace.records) // 2

    @pytest.mark.parametrize("attacked", [False, True], ids=["no-attacks", "canonical"])
    @pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.value)
    def test_every_record_of_an_events_run(self, protocol, attacked):
        # A full trace holds every events-level record and the transport's.
        scn = mini_scenario(7, duration=2.0, reelect_every=5, trace_detail="full")
        plan = canonical_fault_plan(scn, 3) if attacked else FaultPlan()
        trace = run_experiment(scn, protocol, plan, 3)[1].trace
        records = trace.records
        kinds = {record["kind"] for record in records}
        assert {"tx_arrival", "mobility_tick", "proposal", "send", "deliver"} <= kinds
        for line, kind, record in zip(trace.lines, trace.kinds, records, strict=True):
            # The line the run wrote is the encoder's text, under its kind.
            assert line == _dumps(record)
            assert kind == record["kind"]
            assert simnet._encode_line(record) == _dumps(record)
            # Each kind with a format is written by it: no field count drifts.
            if record["kind"] in {**self.TRANSPORT, **self.EVENTS}:
                assert (record["kind"], len(record)) in simnet._LINE_FORMATS

    @pytest.mark.parametrize("edge", list(EDGES))
    @pytest.mark.parametrize("kind", list(TRANSPORT))
    def test_edge_values(self, kind, edge, no_encoder):
        record = {**self.TRANSPORT[kind], **self.EDGES[edge]}
        if kind == "deliver":
            record["latency"] = record["t"]
        assert simnet._encode_line(record) == _dumps(record)

    @pytest.mark.parametrize("edge", [name for name, edge in EDGES.items() if "t" in edge])
    @pytest.mark.parametrize("kind", list(EVENTS))
    def test_event_edge_values(self, kind, edge, no_encoder):
        record = {**self.EVENTS[kind], **self.EDGES[edge]}
        assert simnet._encode_line(record) == _dumps(record)

    @pytest.mark.parametrize("mission", list(Mission), ids=lambda m: m.value)
    def test_missions_need_no_escape(self, mission, no_encoder):
        record = {**self.EVENTS["tx_arrival"], "mission": mission.value, "bits": 2048.0}
        assert simnet._encode_line(record) == _dumps(record)

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

    def test_extra_field_falls_back(self, monkeypatch):
        encode, calls = simnet._encode_record, []

        def counting(record):
            calls.append(1)
            return encode(record)

        monkeypatch.setattr(simnet, "_encode_record", counting)
        formatted = {**self.TRANSPORT, **self.EVENTS}
        for record in formatted.values():
            record = {**record, "note": "extra"}
            assert simnet._encode_line(record) == _dumps(record)
        assert len(calls) == len(formatted)


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
