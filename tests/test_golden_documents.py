"""Scenario and attack-plan documents pinned across commits.

A summary.json carries both documents, and `replay` rebuilds its run from
them, so a change in how either is written or read can break the replay of
summaries written by earlier code.  The pins are SHA-256 hashes of each
document serialized with sorted keys, recorded from earlier code; the
replay test re-runs a summary.json that earlier code exported.  A change
that alters a document on purpose updates the pin and lists the old and new
hash in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from uavchain.harness import build_desk_scenario, build_hurricane_scenario, canonical_fault_plan, replay
from uavchain.scenario import fault_plan_to_dict, scenario_from_dict, scenario_to_dict

from conftest import mini_scenario


SCENARIOS = {
    "hurricane": build_hurricane_scenario,
    "desk": build_desk_scenario,
    "mini": lambda: mini_scenario(7, duration=3.0, trace_detail="full", reelect_every=5),
}

# name -> (scenario document, canonical_fault_plan(scenario, 2) document)
PINS = {
    "hurricane": (
        "c2ea99359a9ba09da7c664bca0b6ef6deaaee367ccf62b21ebf89ce3e204bc2f",
        "28914594c9e68a4e001f20b629d99e22ddc09148fe34a8bf7163d628ca65e867",
    ),
    "desk": (
        "8f51b87c16eae6426d4771b149c02a220c764728af5fa2d195ff71aab55b50bc",
        "f6e8ab368cfd8b39f07d1401dd891659681ae8b75c6551956d063fe0c2ab666a",
    ),
    "mini": (
        "5863b57ac57cd6fb2ac8441dae5be31c9e0fbbd47fbfacf37d4b4c5ef04a56e6",
        "3a1e70b213c7cb1b4741ffba848afbf9c06513d4a1616b713919261dc8c1daf4",
    ),
}

# Exported from `mini_scenario(7, duration=1.0)` with canonical_fault_plan(scn, 3),
# hybrid, seed 3.
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
