import copy
import heapq
import random
import typing
from collections import Counter, defaultdict
from dataclasses import replace
from types import SimpleNamespace

import pytest

from uavchain import consensus as cons
from uavchain import simnet
from uavchain.consensus import ConsensusState, Mission, ProtocolKind
from uavchain.domain import Commit, Prepare, PrePrepare, genesis_block, signed_message
from uavchain.faults import ByzantineStrategy, DdosWindow, FaultPlan, SpoofWindow
from uavchain.harness import build_hurricane_scenario, canonical_fault_plan
from uavchain.mobility import MobilityConfig, Vec3
from uavchain.radio import PROPAGATION_SPEED_M_S, NodeServiceProfile, link_capacity
from uavchain.scenario import ClusterSpec, Region, ScenarioError
from uavchain.simnet import NodeQueue, RunResult, SimNode, Simulation, TxForward, run

from conftest import mini_scenario, swapping_reelection


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        scn = mini_scenario(5, duration=1.5)
        a = run(scn, FaultPlan(), ProtocolKind.HYBRID, 11)
        b = run(scn, FaultPlan(), ProtocolKind.HYBRID, 11)
        assert a.trace.records == b.trace.records
        assert a.trace_hash() == b.trace_hash()

    def test_different_seeds_differ(self):
        scn = mini_scenario(5, duration=1.5)
        a = run(scn, FaultPlan(), ProtocolKind.HYBRID, 11)
        b = run(scn, FaultPlan(), ProtocolKind.HYBRID, 12)
        assert a.trace_hash() != b.trace_hash()

    def test_full_trace_runs_are_deterministic_too(self):
        scn = mini_scenario(4, duration=1.0, trace_detail="full")
        a = run(scn, FaultPlan(), ProtocolKind.HYBRID, 2)
        b = run(scn, FaultPlan(), ProtocolKind.HYBRID, 2)
        assert a.trace_hash() == b.trace_hash()

    def test_timestamps_non_decreasing(self):
        scn = mini_scenario(4, duration=1.5)
        result = run(scn, FaultPlan(), ProtocolKind.HYBRID, 1)
        times = [r["t"] for r in result.trace.records]
        assert times == sorted(times)

    def test_causality_delivery_never_precedes_send(self):
        scn = mini_scenario(4, duration=1.0, trace_detail="full")
        result = run(scn, FaultPlan(), ProtocolKind.HYBRID, 8)
        delivers = result.trace.by_kind("deliver")
        assert delivers
        # Every delivery happens after its send by at least the processing
        # floor plus a positive propagation component.
        floor = scn.service.proc_latency_s
        assert all(r["latency"] > floor for r in delivers)


def _arrival_scenario(**mobility):
    """Four UAVs in a 200-m box, fast enough to reach a waypoint in 2 s."""
    scn = mini_scenario(4, duration=2.0)
    box = Region(1_000.0, 1_200.0, 1_000.0, 1_200.0)
    return replace(
        scn,
        fleet={Mission.CONNECTIVITY: ClusterSpec(4, box, stake=1.0)},
        mobility=MobilityConfig(a_max=40.0, **mobility),
    )


class TestKeysThatMoveARun:
    """Keys that no other pinned run reaches: each moves a small run's hash."""

    ARRIVAL_HASH = "791fcc8b5caee20b6cadf7dda98f9b9c0b22942294e6249734b374524fa8c0c9"

    def test_waypoint_arrival_run_hash(self, monkeypatch):
        sim = Simulation(_arrival_scenario(), FaultPlan(), ProtocolKind.HYBRID, 1)
        draws = []
        sample = simnet.sample_waypoint
        monkeypatch.setattr(simnet, "sample_waypoint", lambda *a: draws.append(a) or sample(*a))
        # Every draw after setup is a waypoint resampled on arrival.
        assert sim.run().trace_hash() == self.ARRIVAL_HASH
        assert len(draws) == 2

    @pytest.mark.parametrize(
        "key, value", [("waypoint_arrival_radius", 80.0), ("v_max", 30.0)]
    )
    def test_mobility_key_moves_arrival_run(self, key, value):
        result = run(_arrival_scenario(**{key: value}), FaultPlan(), ProtocolKind.HYBRID, 1)
        assert result.trace_hash() != self.ARRIVAL_HASH

    def test_timeout_backoff_moves_run_with_repeated_timeouts(self):
        scn = mini_scenario(4, duration=3.0)
        plan = FaultPlan(byzantine={0: ByzantineStrategy.SILENT})
        base = run(scn, plan, ProtocolKind.HYBRID, 1)
        assert len(base.trace.by_kind("timeout")) > 1
        slower = replace(scn, consensus=replace(scn.consensus, timeout_backoff=3.0))
        assert run(slower, plan, ProtocolKind.HYBRID, 1).trace_hash() != base.trace_hash()


class TestConservation:
    def test_sent_equals_delivered_plus_dropped_plus_inflight(self):
        scn = mini_scenario(5, duration=2.0)
        result = run(scn, FaultPlan(drop_prob=0.1), ProtocolKind.HYBRID, 4)
        c = result.counters
        end = result.trace.by_kind("end")[-1]
        reconstructed = (
            c["delivered"] + c["dropped"] + c["dropped_zero_capacity"]
            + c["dropped_queue_full"] + end["in_flight"]
        )
        assert c["sent"] + c["junk_injected"] == reconstructed
        assert end["in_flight"] >= 0

    def test_double_counted_delivery_fails_the_run(self, monkeypatch):
        deliver = Simulation._on_deliver

        def deliver_counted_twice(sim, dst):
            deliver(sim, dst)
            if sim.counters["delivered"] == 1:
                sim.counters["delivered"] += 1

        monkeypatch.setattr(Simulation, "_on_deliver", deliver_counted_twice)
        with pytest.raises(RuntimeError, match="message conservation violated"):
            run(mini_scenario(4, duration=1.0), FaultPlan(), ProtocolKind.HYBRID, 1)

    def test_drop_prob_one_delivers_nothing(self):
        scn = mini_scenario(4, duration=1.0)
        result = run(scn, FaultPlan(drop_prob=1.0), ProtocolKind.HYBRID, 1)
        assert result.counters["delivered"] == 0
        assert result.counters["dropped"] == result.counters["sent"]

    def test_no_loss_every_send_delivered(self):
        scn = mini_scenario(4, duration=1.0)
        result = run(scn, FaultPlan(), ProtocolKind.HYBRID, 1)
        end = result.trace.by_kind("end")[-1]
        assert result.counters["dropped"] == 0
        assert result.counters["delivered"] + end["in_flight"] == result.counters["sent"]


class TestDeliveryLatency:
    def test_empty_queue_latency_composition(self):
        # Two nodes 2 km apart with the cluster service preset: delivery
        # latency is processing + transmission + propagation exactly.
        scn = mini_scenario(4, duration=0.1, tx_rate=0.0, trace_detail="full")
        from uavchain.radio import NodeServiceProfile
        from dataclasses import replace as dreplace

        scn = dreplace(scn, service=NodeServiceProfile(proc_latency_s=0.010, service_rate_msgs_per_s=1000.0))
        sim = Simulation(scn, FaultPlan(), ProtocolKind.HYBRID, 1)
        a, b = sorted(sim.nodes)[:2]
        sim.nodes[a].kin = dreplace(sim.nodes[a].kin, position=Vec3(0, 0, 100))
        sim.nodes[a].reported = Vec3(0, 0, 100)
        sim.nodes[b].kin = dreplace(sim.nodes[b].kin, position=Vec3(2000, 0, 100))
        sim.nodes[b].reported = Vec3(2000, 0, 100)
        cap = link_capacity(scn.radio, 2000.0)
        msg_bits = round(cap * 0.010)  # 10 ms transmission
        msg = signed_message(a, Prepare(b"\x00" * 32, 1, 0))
        sim._send(msg, a, [b], msg_bits)
        arrivals = [e[3][3] for e in sim._heap if e[2] is Simulation._on_arrivals]
        assert len(arrivals) == 1 and [dst for _t, _seq, dst in arrivals[0]] == [b]
        sim.run()
        first = [r for r in sim.trace.records if r["kind"] == "deliver"][0]
        expected = 0.010 + 0.0 + 0.010 + 2000.0 / PROPAGATION_SPEED_M_S
        assert first["src"] == a and first["dst"] == b
        assert first["latency"] == pytest.approx(expected, rel=1e-6)

    def test_queue_wait_measured_under_load(self):
        q = NodeQueue(service_rate=100.0)
        first = q.admit(0.0)
        second = q.admit(0.0)
        assert first == (0.0, 0.0)
        assert second[1] == pytest.approx(0.01)  # waits one service slot

    def test_queue_tail_drop(self):
        q = NodeQueue(service_rate=10.0, max_backlog_msgs=2)
        assert q.admit(0.0) is not None
        assert q.admit(0.0) is not None
        assert q.admit(0.0) is not None  # third waits behind two -> backlog 2
        assert q.admit(0.0) is None
        assert q.served == 3


class TestInboundQueue:
    def test_one_queued_delivery_per_node_in_admission_order(self, monkeypatch):
        # Twenty all-to-all validators at 200 msgs/s each: every round queues
        # a backlog at every node, and part of it is still queued at the end.
        scn = mini_scenario(20, duration=1.0, trace_detail="full")
        scn = replace(scn, service=replace(scn.service, service_rate_msgs_per_s=200.0))
        sim = Simulation(scn, FaultPlan(), ProtocolKind.PURE_PBFT, 3)
        deliver, arrive = Simulation._on_deliver, Simulation._on_arrivals
        # Every message's arrivals as first queued, by the identity of their
        # list; holding the lists keeps the identities unique.
        messages = {}
        popped = Counter()

        def checked_pop(heap):
            heads = Counter(entry[3][0] for entry in heap if entry[2] is deliver)
            for node_id, node in sim.nodes.items():
                assert heads[node_id] == bool(node.inbox)
            entries = Counter()
            for entry in heap:
                if entry[2] is arrive:
                    pending = entry[3][3]
                    entries[id(pending)] += 1
                    assert entry[:2] == pending[-1][:2]
                    assert pending == sorted(pending, reverse=True)
            for _wire, _src, pending, _created in messages.values():
                assert entries[id(pending)] == bool(pending)
            entry = heapq.heappop(heap)
            popped[entry[2]] += 1
            return entry

        monkeypatch.setattr(simnet, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=checked_pop))

        queue_arrivals = Simulation._queue_arrivals

        def capturing(self, wire, src, sent_at, arrivals):
            if id(arrivals) not in messages:
                messages[id(arrivals)] = (wire, src, arrivals, list(arrivals))
            queue_arrivals(self, wire, src, sent_at, arrivals)

        monkeypatch.setattr(Simulation, "_queue_arrivals", capturing)

        owner = {id(node.queue): node_id for node_id, node in sim.nodes.items()}
        admit, admits = NodeQueue.admit, []

        def recording_admit(queue, now):
            result = admit(queue, now)
            admits.append((now, owner[id(queue)], result))
            return result

        monkeypatch.setattr(NodeQueue, "admit", recording_admit)
        result = sim.run()

        # Every arrival due by the end is admitted once, in (t_arr, seq) order.
        expected = sorted(
            (t_arr, seq, dst, wire, src)
            for wire, src, _pending, created in messages.values()
            for t_arr, seq, dst in created
            if t_arr <= scn.duration_s
        )
        assert [(now, dst) for now, dst, _ in admits] == [(t, dst) for t, _seq, dst, _w, _s in expected]
        # Some arrivals were admitted without an event-queue round trip.
        assert popped[arrive] < len(admits)
        assert sum(popped.values()) > result.counters["delivered"]
        assert max(len(node.inbox) for node in sim.nodes.values()) >= 10

        proc = scn.service.proc_latency_s
        admitted = defaultdict(list)
        for (_now, dst, outcome), (_t, _seq, _dst, wire, src) in zip(admits, expected):
            if outcome is not None:
                admitted[dst].append((src, wire.kind(), round(outcome[0] + proc, 9)))
        delivered = defaultdict(list)
        for r in result.trace.by_kind("deliver"):
            delivered[r["dst"]].append((r["src"], r["msg"], r["t"]))
        assert delivered.keys() == admitted.keys()
        for dst, records in delivered.items():
            assert records == admitted[dst][:len(records)]
        assert sum(map(len, admitted.values())) > sum(map(len, delivered.values()))

    def test_fleet_pbft_event_queue_follows_messages(self, monkeypatch):
        # 200 validators broadcast all-to-all and queue deep backlogs; one
        # entry per message in flight and one per non-empty inbox keep the
        # event queue small (an entry per arrival would peak at 23,403 here).
        scn = build_hurricane_scenario({"duration_s": 0.45})
        sim = Simulation(scn, FaultPlan(), ProtocolKind.PURE_PBFT, 1000)
        peak = 0

        def tracking_push(heap, entry):
            nonlocal peak
            heapq.heappush(heap, entry)
            peak = max(peak, len(heap))

        monkeypatch.setattr(simnet, "heapq", SimpleNamespace(heappush=tracking_push, heappop=heapq.heappop))
        result = sim.run()
        assert result.counters["sent"] > 100_000
        assert peak < 1_000


class _ReferenceQueue:
    """`NodeQueue` by its definition: the backlog an arrival sees is every
    service start so far that is still ahead of it."""

    def __init__(self, service_rate, max_backlog_msgs):
        self.rate, self.cap = service_rate, max_backlog_msgs
        self.starts = []
        self.busy_until = 0.0
        self.served, self.total_wait_s, self.max_wait_s, self.total_len_seen = 0, 0.0, 0.0, 0.0

    def admit(self, now):
        qlen = sum(1 for s in self.starts if s > now)
        if qlen >= self.cap:
            return None
        start = max(now, self.busy_until)
        self.busy_until = start + 1.0 / self.rate
        wait = start - now
        self.starts.append(start)
        self.served += 1
        self.total_wait_s += wait
        self.max_wait_s = max(self.max_wait_s, wait)
        self.total_len_seen += qlen
        return start, wait


class TestNodeQueueOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_admit_matches_full_scan(self, seed):
        rng = random.Random(seed)
        rate = rng.choice([10.0, 200.0, 2_000.0, 333.3])
        cap = rng.choice([1, 3, 8, 50])
        q, ref = NodeQueue(rate, cap), _ReferenceQueue(rate, cap)
        now, dropped, idle = 0.0, 0, 0
        for _ in range(400):
            mode = rng.random()
            if mode < 0.15:  # a burst past the backlog bound, at one instant
                times = [now] * (cap + rng.randrange(1, 6))
            elif mode < 0.3:  # a gap that drains the backlog
                now += (cap + rng.randrange(1, 4)) / rate
                times = [now]
            else:
                now += rng.expovariate(rate * rng.choice([0.5, 1.0, 2.0]))
                times = [now]
            for t in times:
                got = q.admit(t)
                assert got == ref.admit(t)
                dropped += got is None
                idle += got is not None and got[1] == 0.0
        assert dropped > 0 and idle > 0
        assert (q.served, q.total_wait_s, q.max_wait_s, q.total_len_seen, q.busy_until) == (
            ref.served, ref.total_wait_s, ref.max_wait_s, ref.total_len_seen, ref.busy_until
        )


class TestAnnotations:
    def test_dataclass_annotations_resolve(self):
        # Annotations are strings under `from __future__ import annotations`;
        # each name they use must be importable from simnet.
        for cls in (TxForward, NodeQueue, SimNode, RunResult):
            typing.get_type_hints(cls)


class TestByzantineTransforms:
    def _sim(self, plan=None):
        scn = mini_scenario(4, duration=1.0)
        return Simulation(scn, plan or FaultPlan(), ProtocolKind.HYBRID, 3)

    def test_honest_passthrough(self):
        sim = self._sim()
        msg = signed_message(0, Prepare(b"\x11" * 32, 1, 0))
        out = sim._apply_byzantine(0, msg, None, [1, 2, 3])
        assert out == [(msg, [1, 2, 3])]

    def test_equivocate_splits_into_conflicting_halves(self):
        sim = self._sim()
        msg = signed_message(0, Prepare(b"\x11" * 32, 1, 0))
        out = sim._apply_byzantine(0, msg, ByzantineStrategy.EQUIVOCATE, [1, 2, 3])
        assert len(out) == 2
        (m1, half1), (m2, half2) = out
        assert set(half1) | set(half2) == {1, 2, 3}
        assert set(half1) & set(half2) == set()
        assert m1.body.block_hash != m2.body.block_hash
        assert m1.verifies() and m2.verifies()

    def test_equivocate_leaves_preprepare_alone(self):
        sim = self._sim()
        msg = signed_message(0, PrePrepare(genesis_block()))
        out = sim._apply_byzantine(0, msg, ByzantineStrategy.EQUIVOCATE, [1, 2])
        assert out == [(msg, [1, 2])]

    def test_invalid_block_strategy_breaks_validation(self):
        from uavchain.domain import block_is_valid, make_block

        sim = self._sim()
        tip = genesis_block()
        block = make_block(1, tip.block_hash, 0, 0, ())
        msg = signed_message(0, PrePrepare(block))
        out = sim._apply_byzantine(0, msg, ByzantineStrategy.INVALID_BLOCK, [1, 2])
        assert len(out) == 1
        mutated = out[0][0].body.block
        assert not block_is_valid(mutated, tip.block_hash, 1)

    def test_silent_emits_nothing(self):
        sim = self._sim()
        msg = signed_message(0, Commit(b"\x11" * 32, 1, 0))
        assert sim._apply_byzantine(0, msg, ByzantineStrategy.SILENT, [1, 2, 3]) == []

    def test_equivocation_never_breaks_safety_exhaustive_small(self):
        # One equivocator among four validators, several seeds: honest nodes
        # never commit conflicting blocks at the same height.
        for seed in range(12):
            scn = mini_scenario(4, duration=1.5)
            plan = FaultPlan(byzantine={seed % 4: ByzantineStrategy.EQUIVOCATE})
            result = run(scn, plan, ProtocolKind.HYBRID, seed)
            per_height = {}
            for rec in result.trace.by_kind("commit"):
                if rec["node"] == seed % 4:
                    continue
                per_height.setdefault(rec["height"], set()).add(rec["hash"])
            assert all(len(hashes) == 1 for hashes in per_height.values())


class TestDdos:
    def test_zero_rate_rejected(self):
        # A window that floods nothing would leave the run as it was.
        with pytest.raises(ValueError, match="flood_rate_msgs_per_s must be > 0"):
            DdosWindow(0, 0.2, 1.0, 0.0)

    def test_junk_consumes_service_and_is_discarded(self):
        scn = mini_scenario(4, duration=2.0)
        plan = FaultPlan(ddos=(DdosWindow(0, 0.5, 1.0, 2000.0),))
        result = run(scn, plan, ProtocolKind.HYBRID, 6)
        assert result.counters["junk_injected"] > 1000
        assert result.counters["invalid_signature"] >= result.counters["junk_injected"] * 0.5
        # target's queue saw real load
        assert result.queue_stats[0]["mean_wait_s"] > 0

    def test_every_delivered_junk_message_is_counted(self):
        # The golden attack run of test_golden_hashes.py: state transfer
        # replaces the state of validators that have discarded junk, and
        # the count keeps every discard made before it.
        scn = mini_scenario(7, duration=3.0, trace_detail="full", reelect_every=5)
        result = run(scn, canonical_fault_plan(scn, 2), ProtocolKind.HYBRID, 2)
        assert len(result.trace.by_kind("sync")) == 4
        junk = [r for r in result.trace.by_kind("deliver") if r["src"] == simnet.ATTACKER_ID]
        assert len(junk) == 3301
        assert result.counters["invalid_signature"] == len(junk)
        assert result.trace.by_kind("end")[-1]["counters"] == result.counters

    def test_queue_grows_during_saturating_flood(self):
        # Flood at the service rate on top of normal traffic pushes the
        # target's measured wait well past its pre-attack baseline.
        scn = mini_scenario(4, duration=2.0)
        target = 0
        baseline = run(scn, FaultPlan(), ProtocolKind.HYBRID, 6)
        plan = FaultPlan(ddos=(DdosWindow(target, 0.5, 1.0, scn.service.service_rate_msgs_per_s),))
        attacked = run(scn, plan, ProtocolKind.HYBRID, 6)
        assert (
            attacked.queue_stats[target]["max_wait_s"]
            > 10 * max(baseline.queue_stats[target]["max_wait_s"], 1e-6)
        )


class TestSpoofing:
    def test_spoof_shifts_reported_position_during_window(self):
        scn = mini_scenario(4, duration=0.35, tx_rate=0.0)
        offset = Vec3(400.0, 0.0, 0.0)
        plan = FaultPlan(spoof=(SpoofWindow(1, offset, 0.0, 0.6),))
        sim = Simulation(scn, plan, ProtocolKind.HYBRID, 2)
        sim.run()
        node = sim.nodes[1]
        drift = node.reported - node.kin.position
        assert drift.x == pytest.approx(400.0)
        assert drift.y == pytest.approx(0.0)

    def test_spoof_clears_after_window(self):
        scn = mini_scenario(4, duration=0.9, tx_rate=0.0)
        plan = FaultPlan(spoof=(SpoofWindow(1, Vec3(400.0, 0.0, 0.0), 0.0, 0.3),))
        sim = Simulation(scn, plan, ProtocolKind.HYBRID, 2)
        sim.run()
        node = sim.nodes[1]
        assert node.reported == node.kin.position

    def test_overlapping_windows_add_and_price_the_spoofed_link(self):
        # Two windows on one node overlap from 0.15 s: the tick at 0.2 s
        # reports its true position plus both offsets, and a message it sends
        # at 0.25 s is priced over the spoofed distance (processing +
        # transmission + propagation, as in the empty-queue composition).
        scn = mini_scenario(4, duration=0.5, tx_rate=0.0, timeout_s=10.0, trace_detail="full")
        scn = replace(
            scn,
            service=NodeServiceProfile(proc_latency_s=0.010, service_rate_msgs_per_s=1000.0),
            consensus=replace(scn.consensus, min_block_interval_s=10.0),
        )
        first = SpoofWindow(0, Vec3(1500.0, 0.0, 0.0), 0.0, 1.0)
        second = SpoofWindow(0, Vec3(0.0, 2000.0, 0.0), 0.15, 1.0)
        sim = Simulation(scn, FaultPlan(spoof=(first, second)), ProtocolKind.HYBRID, 2)
        msg = signed_message(0, Prepare(b"\x00" * 32, 1, 0))
        seen = {}

        def send_during_overlap(sim):
            node, peer = sim.nodes[0], sim.nodes[1]
            assert node.reported == node.kin.position + (first.offset + second.offset)
            seen["spoofed"] = node.reported.distance_to(peer.reported)
            seen["true"] = node.kin.position.distance_to(peer.kin.position)
            seen["bits"] = round(link_capacity(scn.radio, seen["spoofed"]) * 0.010)  # 10 ms
            sim._send(msg, 0, [1], seen["bits"])

        sim._schedule(0.25, send_during_overlap, ())
        sim.run()
        (deliver,) = [r for r in sim.trace.records if r["kind"] == "deliver"]
        assert deliver["src"] == 0 and deliver["dst"] == 1 and deliver["t"] > 0.25
        spoofed = 0.010 + 0.010 + seen["spoofed"] / PROPAGATION_SPEED_M_S
        honest = (
            0.010 + seen["bits"] / link_capacity(scn.radio, seen["true"])
            + seen["true"] / PROPAGATION_SPEED_M_S
        )
        assert abs(seen["spoofed"] - seen["true"]) > 500.0
        assert deliver["latency"] == pytest.approx(spoofed, rel=1e-6)
        assert deliver["latency"] != pytest.approx(honest, rel=1e-6)

    def test_spoofing_never_touches_signatures(self):
        scn = mini_scenario(4, duration=1.5)
        plan = FaultPlan(spoof=(SpoofWindow(0, Vec3(500.0, 0.0, 0.0), 0.0, 1.5),))
        result = run(scn, plan, ProtocolKind.HYBRID, 3)
        assert result.counters["invalid_signature"] == 0
        assert result.counters["blocks_committed"] > 0


class TestEmptyScenario:
    def test_empty_fleet_trace_is_only_mobility_ticks(self):
        from dataclasses import replace as dreplace

        from uavchain.consensus import Mission
        from uavchain.scenario import ClusterSpec, Region

        scn = mini_scenario(4, duration=10.0, tx_rate=0.0)
        scn = dreplace(
            scn,
            fleet={Mission.CONNECTIVITY: ClusterSpec(0, Region(500, 4500, 500, 4500), stake=1.0)},
        )
        result = run(scn, FaultPlan(), ProtocolKind.HYBRID, 1)
        kinds = {r["kind"] for r in result.trace.records}
        assert kinds == {"mobility_tick", "end"}

    def test_tolerance_enforcement(self):
        scn = mini_scenario(4, duration=0.5)
        plan = FaultPlan(byzantine={0: ByzantineStrategy.SILENT, 1: ByzantineStrategy.SILENT})
        with pytest.raises(ValueError):
            run(scn, plan, ProtocolKind.HYBRID, 1)
        run(scn, plan, ProtocolKind.HYBRID, 1, enforce_tolerance=False)


class TestPlanAgainstFleet:
    """A plan entry for a node outside the fleet is rejected at setup, by
    every id it names, rather than failing mid-setup or changing nothing."""

    def _reject(self, plan, ids):
        scn = mini_scenario(5, duration=1.0)
        with pytest.raises(ScenarioError) as info:
            Simulation(scn, plan, ProtocolKind.HYBRID, 1)
        assert str(list(ids)) in str(info.value)

    def test_ddos_target_outside_fleet(self):
        self._reject(FaultPlan(ddos=(DdosWindow(99, 0.1, 0.5, 200.0),)), [99])

    def test_spoof_target_outside_fleet(self):
        self._reject(FaultPlan(spoof=(SpoofWindow(99, Vec3(1.0, 0.0, 0.0), 0.0, 1.0),)), [99])

    def test_byzantine_node_outside_fleet(self):
        plan = FaultPlan(
            byzantine={99: ByzantineStrategy.SILENT, 0: ByzantineStrategy.SILENT, 7: ByzantineStrategy.SILENT}
        )
        self._reject(plan, [7, 99])


class TestChains:
    def test_all_honest_chains_are_prefix_consistent(self):
        scn = mini_scenario(6, duration=2.0)
        result = run(scn, FaultPlan(), ProtocolKind.HYBRID, 9)
        chains = list(result.chains.values())
        assert all(len(c) > 1 for c in chains)
        for other in chains[1:]:
            shared = min(len(chains[0]), len(other))
            assert [b.block_hash for b in chains[0][:shared]] == [
                b.block_hash for b in other[:shared]
            ]

    def test_committed_txs_match_offered_subset(self):
        scn = mini_scenario(5, duration=2.0)
        result = run(scn, FaultPlan(), ProtocolKind.HYBRID, 10)
        offered = {r["tx"] for r in result.trace.by_kind("tx_arrival")}
        committed = {t for r in result.trace.by_kind("block") for t in r["txs"]}
        assert committed <= offered


class TestSeating:
    @pytest.mark.parametrize("seed", [2, 3, 5, 6, 7, 8])
    def test_joiner_starts_in_the_tip_view(self, monkeypatch, seed):
        # A validator elected mid-run starts at the committed tip in the tip
        # block's view, as one catching up by state transfer does: in a lower
        # view it could prepare none of the committee's blocks.
        seated = []
        reelect = Simulation._reelect

        def checked(sim):
            before = sim.vset.ids
            reelect(sim)
            tip = list(sim.first_commit.values())[-1]
            seated.extend((sim.nodes[j].machine.view, tip.view) for j in sorted(sim.vset.ids - before))

        monkeypatch.setattr(Simulation, "_reelect", checked)
        scn, plan = swapping_reelection()
        run(scn, plan, ProtocolKind.HYBRID, seed)
        assert seated
        assert [view for view, _ in seated] == [tip_view for _, tip_view in seated]

    @pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.value)
    def test_first_proposal_waits_the_block_interval(self, protocol):
        # Under hybrid and PBFT the deadline (0.02 s) falls before the block
        # interval (0.05 s), so the view-1 proposer is due first; it too
        # waits the interval from t = 0, as if genesis were the last proposal.
        scn = mini_scenario(4, duration=1.0, timeout_s=0.02)
        proposals = run(scn, FaultPlan(), protocol, 1).trace.by_kind("proposal")
        assert proposals
        assert min(r["t"] for r in proposals) >= scn.consensus.min_block_interval_s

    @pytest.mark.parametrize("protocol", [ProtocolKind.HYBRID, ProtocolKind.PURE_PBFT], ids=lambda p: p.value)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_state_transfer_runs_before_a_deadline_due_with_it(self, protocol, seed):
        # With timeout_s = SYNC_DELAY_S and no backoff, the timeout that
        # schedules a state transfer re-arms its deadline for the same
        # instant.  The transfer runs first and seats a fresh machine, so
        # that deadline is stale and writes no timeout.
        scn = mini_scenario(7, jitter=0.01, timeout_s=simnet.SYNC_DELAY_S)
        scn = replace(scn, consensus=replace(scn.consensus, timeout_backoff=1.0))
        trace = run(scn, FaultPlan(drop_prob=0.2), protocol, seed).trace
        syncs = {(r["node"], r["t"]) for r in trace.by_kind("sync")}
        assert syncs
        assert not syncs & {(r["node"], r["t"]) for r in trace.by_kind("timeout")}


class TestDposTimeouts:
    def test_stalled_dpos_round_does_not_stop_the_clock(self, monkeypatch):
        # Seed 1000 of the desk scenario goes past its first DPoS deadline
        # without a commit.  DPoS has no view change, so a timeout that
        # re-armed the same deadline would refire at that instant forever;
        # the guard turns such a livelock into a failure instead of a hang.
        from uavchain import consensus as cons
        from uavchain.harness import build_desk_scenario

        original = cons.on_timeout
        stuck = {"now": None, "calls": 0}

        def guarded(state, now, cfg):
            if now == stuck["now"]:
                stuck["calls"] += 1
                if stuck["calls"] >= 1000:
                    raise AssertionError(f"simulated clock stuck at t={now}")
            else:
                stuck["now"], stuck["calls"] = now, 0
            return original(state, now, cfg)

        monkeypatch.setattr(cons, "on_timeout", guarded)
        result = run(build_desk_scenario({"duration_s": 1.0}), FaultPlan(), ProtocolKind.PURE_DPOS, 1000)
        assert result.trace.by_kind("end")[-1]["duration_s"] == 1.0
        assert result.counters["blocks_committed"] > 0


class TestPurity:
    @pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.value)
    def test_transitions_never_mutate_their_input(self, monkeypatch, protocol):
        # Copies of a state share its containers, so a transition that wrote
        # into one would change the state it was handed.  Check every call
        # of a whole run: commits, view changes, syncs, future-height replay.
        mutated = []

        def guard(transition):
            def checked(state, *args):
                before = {name: copy.copy(value) for name, value in vars(state).items()}
                out = transition(state, *args)
                if vars(state) != before:
                    mutated.append(transition.__name__)
                return out
            return checked

        monkeypatch.setattr(cons, "handle_message", guard(cons.handle_message))
        monkeypatch.setattr(cons, "on_timeout", guard(cons.on_timeout))
        monkeypatch.setattr(ConsensusState, "add_transactions", guard(ConsensusState.add_transactions))
        result = self._simulation(protocol).run()
        assert result.counters["blocks_committed"] > 0
        assert mutated == []

    @pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.value)
    def test_committed_index_matches_chain(self, protocol):
        sim = self._simulation(protocol)
        sim.run()
        machines = [node.machine for node in sim.nodes.values() if node.machine is not None]
        assert machines
        for machine in machines:
            chain_ids = {tx.tx_id for block in machine.committed_chain for tx in block.transactions}
            assert machine.committed_ids == chain_ids

    @staticmethod
    def _simulation(protocol):
        # Commits, view changes, syncs and future-height replay all happen here.
        scn = mini_scenario(7, duration=3.0, trace_detail="full", reelect_every=5)
        return Simulation(scn, canonical_fault_plan(scn, 2), protocol, 2)


class TestMempool:
    @pytest.mark.parametrize("case", ["hybrid", "dpos", "pbft", "reelection-2", "reelection-3"])
    def test_pool_follows_commits_syncs_and_the_committee(self, monkeypatch, case):
        """Each validator's pool of pending txs lives on its ``SimNode``.
        Every commit takes the block's txs out and leaves the others in
        arrival order; a state transfer keeps the pool, in order, less what
        the adopted chain committed.  At the end no validator's pool holds a
        tx of its own chain, and a node outside the committee holds none.
        A simulator that skipped the removal on commit, or on sync, fails
        here (the hybrid run's four syncs drop four committed txs), and
        so does one that kept a leaver's pool (at seed 3 the UAV voted out
        holds six pending txs)."""
        counts = Counter()
        absorb, sync = Simulation._absorb_result, Simulation._on_sync

        def checked_absorb(sim, node_id, result):
            node = sim.nodes[node_id]
            before = list(node.mempool.items())
            absorb(sim, node_id, result)
            if result.committed:
                taken = {tx.tx_id for block in result.committed for tx in block.transactions}
                kept = [(i, tx) for i, tx in before if i not in taken] if node.machine else []
                assert list(node.mempool.items()) == kept
                counts["commits"] += 1

        def checked_sync(sim, node_id):
            node = sim.nodes[node_id]
            before, machine = list(node.mempool.items()), node.machine
            sync(sim, node_id)
            if node.machine is not machine:
                committed = node.machine.committed_ids
                assert list(node.mempool.items()) == [(i, tx) for i, tx in before if i not in committed]
                counts["syncs"] += 1

        monkeypatch.setattr(Simulation, "_absorb_result", checked_absorb)
        monkeypatch.setattr(Simulation, "_on_sync", checked_sync)
        if case.startswith("reelection"):
            scn, plan = swapping_reelection()
            sim = Simulation(scn, plan, ProtocolKind.HYBRID, int(case[-1]))
        else:
            sim = TestPurity._simulation(ProtocolKind(case))
        result = sim.run()
        assert counts["commits"] > 0
        assert (counts["syncs"] > 0) is (case == "hybrid")
        for node_id, node in sim.nodes.items():
            if node_id not in sim.vset.ids:
                assert node.mempool == {}
                continue
            chain_ids = {tx.tx_id for block in node.machine.committed_chain for tx in block.transactions}
            assert not chain_ids & node.mempool.keys()
        if case.startswith("reelection"):
            assert result.trace.by_kind("reelection")
