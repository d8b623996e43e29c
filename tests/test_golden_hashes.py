"""Trace hashes pinned across commits.

Every other determinism test compares two runs of the same code.  These
pins compare against hashes recorded from earlier code, so a refactor that
silently changes any event, its order or its fields fails here.  A change
that alters a trace on purpose updates the pin and lists the old and new
hash in CHANGES.md.
"""

import dataclasses

import pytest

from uavchain.consensus import ProtocolKind
from uavchain.faults import FaultPlan
from uavchain.harness import build_hurricane_scenario, canonical_fault_plan
from uavchain.simnet import run

from conftest import mini_scenario, swapping_reelection


FAULT_FREE = {
    ProtocolKind.HYBRID: "834e19963cd30eedad67416a73dbe0916ecd1263f78ce47f491b150a863c1264",
    ProtocolKind.PURE_PBFT: "675b403ad41743591ef51fdc7b40b70478d2a5f3504962a09cfa17c99d532d53",
    ProtocolKind.PURE_DPOS: "d321623ad3e76f49b075b8ff3b43e1837def7a5c7860cb648bc6a03043dd410e",
}


@pytest.mark.parametrize("protocol", list(FAULT_FREE), ids=lambda p: p.value)
def test_fault_free_run_hash(protocol):
    result = run(mini_scenario(7, duration=2.0), FaultPlan(), protocol, 1)
    assert result.trace_hash() == FAULT_FREE[protocol]


def test_canonical_attack_full_trace_hash():
    # Equivocators, a DDoS window, view changes, tail drops and state
    # transfer all occur in this run; the election reruns every five blocks.
    scn = mini_scenario(7, duration=3.0, trace_detail="full", reelect_every=5)
    result = run(scn, canonical_fault_plan(scn, 2), ProtocolKind.HYBRID, 2)
    kinds = {r["kind"] for r in result.trace.records}
    assert {"timeout", "view_adopted", "sync", "drop"} <= kinds
    # A node's (height, view) only grows, so it adopts a view change from a
    # given (height, view) at most once; view_adopted relies on that.
    adopted = [
        (r["node"], r["height"], r["old_view"])
        for r in result.trace.records if r["kind"] == "view_adopted"
    ]
    assert len(adopted) == len(set(adopted))
    assert result.trace_hash() == "d784629ed9a70c3b0fc7b91f252116b001026ad261d3cea1afe4a4dcdf52a290"


CANONICAL_ATTACK_BASELINES = {
    ProtocolKind.PURE_DPOS: "5a496364d33af5c0312921c22d44f304b87f67d8f7750bc4bcae2ea68a14d4ba",
    ProtocolKind.PURE_PBFT: "46d29b92761ee20bdf846ad9b0968303a93b6675071d1a2e75a71917da880843",
}


@pytest.mark.parametrize("protocol", list(CANONICAL_ATTACK_BASELINES), ids=lambda p: p.value)
def test_canonical_attack_baseline_hash(protocol):
    # The attack run under each baseline: DPoS never times out, and PBFT's
    # view changes exercise the deadline backoff.
    scn = mini_scenario(7, duration=3.0, trace_detail="full", reelect_every=5)
    result = run(scn, canonical_fault_plan(scn, 2), protocol, 2)
    timeouts = result.trace.by_kind("timeout")
    assert bool(timeouts) is (protocol is ProtocolKind.PURE_PBFT)
    assert result.trace_hash() == CANONICAL_ATTACK_BASELINES[protocol]


def test_reelection_with_changed_ids_hash():
    scn, plan = swapping_reelection()
    result = run(scn, plan, ProtocolKind.HYBRID, 2)
    swaps = [(r["joined"], r["left"]) for r in result.trace.by_kind("reelection")]
    assert swaps == [([4], [1])]
    assert result.trace_hash() == "3912de7a01778067090fcc2c7f9a853baa4df81363491d15b12336ef16faeb98"


def test_reelection_with_same_ids_hash():
    # Ten re-elections keep the same 12 ids but can reorder the members, which
    # moves the stake-weighted proposer of a (height, view) nobody has left.
    scn = build_hurricane_scenario({"duration_s": 1.0, "consensus.reelect_every_blocks": 3})
    result = run(scn, FaultPlan(), ProtocolKind.HYBRID, 1)
    assert not result.trace.by_kind("reelection")
    assert result.trace_hash() == "ee9307be22452d724b1737cd52f2d477cef2c729393c3bf66c6296f8a61fd81b"


def test_pbft_fleet_backlog_hash():
    # All 200 hurricane UAVs validate, and their all-to-all rounds queue up
    # to about 58k deliveries behind node backlogs, more than any other pin.
    scn = build_hurricane_scenario({"duration_s": 0.45})
    result = run(scn, FaultPlan(), ProtocolKind.PURE_PBFT, 1000)
    assert result.trace_hash() == "54424b5c02580f911dd27677a0bd6fd8d05d4b3a05cf985a905cfd9d2a34e4b0"


# Message loss and delay jitter draw from the drop and net substreams once
# per recipient, in send order; a transport change that reorders those draws
# or the send/drop records fails these pins.
LOSSY_JITTERED = {
    ProtocolKind.HYBRID: "3c877be7bed3969b2171b8cac092d32ceebe161d4f57b5296fb02dff95d0bf8e",
    ProtocolKind.PURE_PBFT: "a3731719344f12b05f1d65d6e9c839e5efabf980d5c7ae820f3e1623d455e641",
    ProtocolKind.PURE_DPOS: "f1e6fc96c3d5e46d760a79f88cfd757b2feef3171f67c53d87d143faddf54c69",
}


@pytest.mark.parametrize("protocol", list(LOSSY_JITTERED), ids=lambda p: p.value)
def test_lossy_jittered_run_hash(protocol):
    scn = mini_scenario(7, duration=2.0, jitter=0.02, trace_detail="full")
    result = run(scn, FaultPlan(drop_prob=0.05), protocol, 1)
    assert result.trace.by_kind("drop")
    assert result.trace_hash() == LOSSY_JITTERED[protocol]


def test_lossy_jittered_attack_hash():
    # The canonical plan's DDoS junk shares the inbound queues with jittered,
    # lossy fleet traffic.
    scn = build_hurricane_scenario({"duration_s": 1.0, "extra_delay_jitter_s": 0.01, "trace_detail": "full"})
    plan = dataclasses.replace(canonical_fault_plan(scn, 3), drop_prob=0.02)
    result = run(scn, plan, ProtocolKind.HYBRID, 3)
    assert result.counters["dropped"] > 0 and result.counters["junk_injected"] > 0
    assert result.trace_hash() == "6c5fbcba5c042796099b512547365c750dadc505d1cdd8034ef3b3de53117737"


def test_lossy_jittered_pbft_fleet_hash():
    # 200 validators: each broadcast's 199 jittered arrivals interleave with
    # every other message's, and 2% of them are lost.
    scn = build_hurricane_scenario({"duration_s": 0.2, "extra_delay_jitter_s": 0.005})
    result = run(scn, FaultPlan(drop_prob=0.02), ProtocolKind.PURE_PBFT, 5)
    assert result.trace_hash() == "4f0cedb2b964d184e83a3d4d9ff6c0767c1d7f871fdc9af95f2a0ccb8719a6a9"
