"""The benchmark's per-layer tracer must still reach the program's entry points.

``perfbench/tracer.py`` rebinds entry points by name from outside the
package, so renaming or bypassing one silently empties its layer.  The
traced run happens in a subprocess to keep the monkeypatching out of this
process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import uavchain
import uavchain.harness
from uavchain.consensus import ProtocolKind
from uavchain.faults import FaultPlan
from tracer import Tracer

def desk_hash():
    scn = uavchain.harness.build_desk_scenario({"duration_s": 1.0})
    return uavchain.simnet.run(scn, FaultPlan(), ProtocolKind.HYBRID, 7).trace_hash()

untraced = desk_hash()
tracer = Tracer()
tracer.install(uavchain, 1.0)
traced = desk_hash()
calls = {name: acc[0] for name, acc in tracer.layers.items()}
print(json.dumps({"untraced": untraced, "traced": traced, "calls": calls}))
"""


def test_tracer_wraps_entry_points_without_changing_the_run():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["traced"] == report["untraced"]
    for name in (
        "consensus.proposer_for",
        "consensus.handle_message",
        "consensus.copy",
        "domain.verifies",
        "radio.link_capacity",
        "mobility.step",
        "mobility.steer_to_waypoint",
        "mobility.apply_spoofing",
        "simnet.queue.admit",
    ):
        assert report["calls"][name] > 0, name
