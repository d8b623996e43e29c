"""Scenario, attack-plan and exported-output documents pinned across commits.

A summary.json carries both documents, and `replay` rebuilds its run from
them, so a change in how either is written or read can break the replay of
summaries written by earlier code.  The pins are SHA-256 hashes of each
document serialized with sorted keys, recorded from earlier code; the
replay test re-runs a summary.json that earlier code exported.  The export
pins hash the bytes of the tables, event trace and summary that `export`
writes for three runs, so a change in how a report is written shows up as a
changed file.  A change that alters a document on purpose updates the pin
and lists the old and new hash in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from uavchain.consensus import ProtocolKind
from uavchain.faults import FaultPlan
from uavchain.harness import (
    build_desk_scenario,
    build_hurricane_scenario,
    canonical_fault_plan,
    export,
    replay,
    run_experiment,
)
from uavchain.scenario import fault_plan_to_dict, scenario_from_dict, scenario_to_dict
from uavchain.simnet import _CHUNK_RECORDS

from conftest import mini_scenario


SCENARIOS = {
    "hurricane": build_hurricane_scenario,
    "desk": build_desk_scenario,
    "mini": lambda: mini_scenario(7, duration=3.0, trace_detail="full", reelect_every=5),
}

# name -> (scenario document, canonical_fault_plan(scenario, 2) document)
PINS = {
    "hurricane": (
        "940ea1e5e38e463108771d5d8c329efc1bfcca0b320a76e8b066def680d0f2a6",
        "28914594c9e68a4e001f20b629d99e22ddc09148fe34a8bf7163d628ca65e867",
    ),
    "desk": (
        "dc3f342b69aeec84de4ae9f039c0ece026b87170549ff69735ba1fbe58cec749",
        "f6e8ab368cfd8b39f07d1401dd891659681ae8b75c6551956d063fe0c2ab666a",
    ),
    "mini": (
        "827f8e264b0d292e68380e00cf6f76991109ee19be042bc492da648b2ff3f38c",
        "3a1e70b213c7cb1b4741ffba848afbf9c06513d4a1616b713919261dc8c1daf4",
    ),
}

# Exported from `mini_scenario(7, duration=1.0)` with canonical_fault_plan(scn, 3),
# hybrid, seed 3, in the older layout that also wrote protocol, seed and
# trace_hash at the top level.  Its `consensus.optimistic_fast_path: false`,
# a key since removed, was deleted by hand, as README's migration note says.
SUMMARY = Path(__file__).parent / "fixtures" / "summary_mini_canonical.json"


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", list(PINS))
def test_scenario_document_hash(name):
    assert _sha256(scenario_to_dict(SCENARIOS[name]())) == PINS[name][0]


@pytest.mark.parametrize("name", list(PINS))
def test_fault_plan_document_hash(name):
    plan = canonical_fault_plan(SCENARIOS[name](), 2)
    assert _sha256(fault_plan_to_dict(plan)) == PINS[name][1]


def test_summary_from_earlier_code_replays():
    summary = json.loads(SUMMARY.read_text(encoding="utf-8"))
    assert scenario_to_dict(scenario_from_dict(summary["scenario"])) == summary["scenario"]
    matches, recorded, recomputed = replay(SUMMARY)
    assert recorded == "6125da8685d55b9d575455dbe92ce1bdd482f76e7df5fed88c763e47fdce105d"
    assert matches, recomputed


def _degraded_run():
    """Degradation present, no ANOVA: the canonical plan against the
    fault-free report of the same seed."""
    scn = mini_scenario(7, duration=1.0)
    baseline, _ = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 3)
    plan = canonical_fault_plan(scn, 3)
    return scn, plan, run_experiment(scn, ProtocolKind.HYBRID, plan, 3, baseline=baseline)


def _empty_run():
    """No commits: empty groups and NaN latencies."""
    scn = mini_scenario(4, duration=0.0)
    return scn, FaultPlan(), run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 1)


def _anova_run():
    """Three mission groups with samples: an ANOVA row."""
    scn = build_hurricane_scenario({"duration_s": 2.0})
    return scn, FaultPlan(), run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), 1)


EXPORTED = ("metrics", "groups", "anova", "events", "summary")

# name -> (run, SHA-256 of the bytes of each file in EXPORTED)
EXPORT_PINS = {
    "degraded": (
        _degraded_run,
        (
            "cd94ef056025a6a9b908e07ab5de1a8c02e2a0f34de5e7a81008ff52a3bdd553",
            "0d2439645c86f98fed72e6e1315c6871484e7d3deb227d9bc971c151e2375e6a",
            "997cf4e3c1497dc6630c29113545a9d168a1c669a04c4b6de8e6aa58e2b8884b",
            "6125da8685d55b9d575455dbe92ce1bdd482f76e7df5fed88c763e47fdce105d",
            "3f267db7949606685d1a65bd1a7d542d330b7279140bbdc15a9584b0d6f50883",
        ),
    ),
    "empty": (
        _empty_run,
        (
            "4bf00376d84d92582a91a56c376eee05612bf917a685bf9641d55a3bb4be0342",
            "c28b6034798f58633352d728aace07205369e03d0cfd73057f71df807e369a03",
            "997cf4e3c1497dc6630c29113545a9d168a1c669a04c4b6de8e6aa58e2b8884b",
            "f1afd0c6116ea2e5bfe6343062499cf83b0d3b4a5476966ed9baaaa7cf07a08f",
            "82d8ce70ca3b5c15ab6b166b811ad40de38b535997f2fb1bc0d0643e20d8617c",
        ),
    ),
    "anova": (
        _anova_run,
        (
            "4195d450a0146c3b35274c793dc199565ca449c8d3d3a5d25dd50fe3a684b3be",
            "5b8a4cdb36175a769ef4816b8d2e9475ae9b3a2a251df2407835c3af852625fa",
            "5eb44875bacd32f329b6c4b099e40a6bd9787d28b113ef602f7ac276d7722dcf",
            "382752192bb630ea459496c3c397e1bdffe1e30a86192a19a56e847ef7ffc769",
            "b696cc8b319fd1c781270c7b4288fb07c44ab824e9061074f001f59f70e103c7",
        ),
    ),
}


@pytest.mark.parametrize("name", list(EXPORT_PINS))
def test_exported_file_hashes(name, tmp_path):
    run, pins = EXPORT_PINS[name]
    scn, plan, (report, result) = run()
    paths = export(report, result, tmp_path, scn, plan)
    digests = tuple(hashlib.sha256(paths[key].read_bytes()).hexdigest() for key in EXPORTED)
    assert digests == pins


def test_events_jsonl_is_the_hashed_trace(tmp_path):
    # The golden attack run of test_golden_hashes.py: its full trace fills
    # several serializer chunks and part of one more.
    scn = mini_scenario(7, duration=3.0, trace_detail="full", reelect_every=5)
    plan = canonical_fault_plan(scn, 2)
    report, result = run_experiment(scn, ProtocolKind.HYBRID, plan, 2)
    n = len(result.trace.records)
    assert n > _CHUNK_RECORDS and n % _CHUNK_RECORDS
    paths = export(report, result, tmp_path, scn, plan)
    summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
    events_hash = hashlib.sha256(paths["events"].read_bytes()).hexdigest()
    assert events_hash == report.trace_hash == summary["metrics"]["trace_hash"]
    assert events_hash == "d784629ed9a70c3b0fc7b91f252116b001026ad261d3cea1afe4a4dcdf52a290"
