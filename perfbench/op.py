"""One benchmark operation, run in a fresh interpreter by ``run.py``.

    python3 perfbench/op.py '<json spec>'

An operation is one simulation of one (scenario, fault plan, protocol, seed)
the way ``uavchain simulate`` runs it: build the scenario, fault plan and
``Simulation``; ``Simulation.run``; ``harness.compute_metrics`` plus
``harness.export``.  Each step is timed with ``perf_counter``, less the time
spent sampling the host's speed (``HostClock``), and scaled to a host of
reference speed.  The last line of stdout is one JSON object with the
timings, the run's simulated fingerprint, the result of the output checks
and, when the spec asks for tracing, the per-layer accumulators.  The wall budget is enforced by the
parent, which kills a worker that outlives it.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A DPoS validator whose deadline has passed re-arms the same deadline and
# fires again at the same simulated instant; several such validators take
# turns.  At most a few timeouts per validator can be due at one instant, so
# this many on_timeout calls without the clock moving past its latest value
# mean the simulated clock has stopped advancing.
LIVELOCK_CALLS = 5000

# The host's speed drifts by a quarter or more from one minute to the next,
# and flips between a fast and a slow state within seconds (NOTES.md,
# "Host-speed scaling").  A fixed pure-Python reference chunk, timed in the
# operation's own interpreter, tracks that: before uavchain is imported,
# every SAMPLE_PERIOD_S while the operation runs, and after it.  The
# operation's times are scaled to a host on which a chunk takes
# REF_NOMINAL_S.
REF_ITEMS = 3000
REF_NOMINAL_S = 0.008
BRACKET_CHUNKS = 10  # timed before and after the operation; the median counts
SAMPLE_PERIOD_S = 0.25

# setup_s and report_s stand alone (run_s does not) as the median of the
# operation's own step and repeats of it, made while their total stays under
# REPEAT_BUDGET_S: a desk build takes about 5 ms and a hurricane pbft report
# about 10 ms, too little for one timing to be steady.
REPEAT_BUDGET_S = 0.5
MAX_REPEATS = 40

# Much of a small report is the kernel's time to create the export's files,
# and on a shared virtual machine that swings ninefold between processes a
# few seconds apart, unlike the reference chunk (NOTES.md, "Host-speed
# scaling").  Before each repeat, a second reference times the creation of a
# directory of FS_FILES files of FS_BYTES each; the kernel-mode share of a
# repeated step is scaled by it, to a host on which it takes FS_NOMINAL_S.
FS_FILES = 6
FS_BYTES = 4096
FS_NOMINAL_S = 0.002


class Livelock(Exception):
    pass


def _reference_chunk_s() -> float:
    """Time dict lookups, float updates and a bounded heap, as the simulator
    does them.  The garbage collector is off meanwhile, so the program's heap
    does not enter the time."""
    was_enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    rng = random.Random(12345)
    table = {i: float(i) for i in range(REF_ITEMS)}
    heap: list = []
    for _ in range(REF_ITEMS):
        k = rng.randrange(REF_ITEMS)
        table[k] = value = table[k] * 0.5 + k
        heapq.heappush(heap, (value, k))
        if len(heap) > 300:
            heapq.heappop(heap)
    took = time.perf_counter() - began
    if was_enabled:
        gc.enable()
    return took


class HostClock:
    """The host's speed over one operation, and a clock that leaves out the
    time spent measuring it.

    While sampling, a SIGALRM handler times one reference chunk every
    SAMPLE_PERIOD_S of wall time, between two bytecodes of whatever the
    operation is doing; ``now`` subtracts the handler's time.  The handler
    touches nothing of the program, so the run stays the same run.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []  # reference chunk times, s
        self.spent = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def bracket(self) -> None:
        self.samples.append(statistics.median(_reference_chunk_s() for _ in range(BRACKET_CHUNKS)))

    def _tick(self, signum, frame) -> None:
        began = time.perf_counter()
        self.samples.append(_reference_chunk_s())
        self.spent += time.perf_counter() - began

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self) -> float:
        """Reference host seconds per host second: the mean of each sample's
        speed relative to the reference host, so that each stretch of the
        operation counts at the speed the host had then."""
        return statistics.fmean(REF_NOMINAL_S / t for t in self.samples)


def _fs_chunk_s(path: Path) -> float:
    """Time creating a directory of small files, as ``harness.export`` does."""
    data = b"x" * FS_BYTES
    began = time.perf_counter()
    path.mkdir(parents=True)
    for i in range(FS_FILES):
        with open(path / f"f{i}", "wb") as fh:
            fh.write(data)
    return time.perf_counter() - began


def _cpu_s() -> tuple[float, float]:
    """(user, system) CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


@dataclass
class Repeated:
    """A step's first time and its repeats' times.  Each repeat is paired
    with the scales of the two references timed just before it: the host
    flips between speeds within seconds, too fast for the operation's mean
    scale to fit a 10-ms step."""

    times: list[float]
    cpu_scales: list[float] = field(default_factory=list)
    fs_scales: list[float] = field(default_factory=list)
    kernel_share: float = 0.0  # of the repeats' CPU time

    def scaled(self, op_scale: float) -> float:
        """The median over the times, each scaled: its kernel-mode share at
        the file-system reference's speed, the rest at the chunk's.  The
        first time, which has no references of its own, takes the
        operation's scale and the repeats' mean file-system scale."""
        cpu_scales = [op_scale] + self.cpu_scales
        fs_scales = [statistics.fmean(self.fs_scales) if self.fs_scales else op_scale]
        fs_scales += self.fs_scales
        k = self.kernel_share
        return statistics.median(
            t * ((1 - k) * cpu + k * fs)
            for t, cpu, fs in zip(self.times, cpu_scales, fs_scales)
        )


def _import_uavchain():
    if not (SRC / "uavchain" / "__init__.py").is_file():
        raise SystemExit(f"uavchain sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import uavchain
    import uavchain.harness  # noqa: F401  (binds uavchain.harness)

    if Path(uavchain.__file__).resolve().parent != SRC / "uavchain":
        raise SystemExit(f"imported uavchain from {uavchain.__file__}, not {SRC}")
    return uavchain


def _guard_livelock(consensus) -> None:
    """Wrap ``consensus.on_timeout`` (rare, so cheap) to stop a stuck clock."""
    original = consensus.on_timeout
    clock = {"latest": float("-inf"), "stalled": 0}

    def guarded(state, now, cfg):
        if now > clock["latest"]:
            clock["latest"], clock["stalled"] = now, 0
        else:
            clock["stalled"] += 1
            if clock["stalled"] >= LIVELOCK_CALLS:
                raise Livelock(
                    f"livelock: {clock['stalled']} timeouts (last: node {state.node}) "
                    f"at t={now!r} without the simulated clock advancing"
                )
        return original(state, now, cfg)

    consensus.on_timeout = guarded


def check_outputs(result, report, plan) -> list[str]:
    """Output checks; returns one message per violation."""
    problems = []
    byzantine = set(plan.byzantine)
    by_height: dict[int, bytes] = {}
    for node, chain in result.chains.items():
        if node in byzantine:
            continue
        seen_tx: set[int] = set()
        for index, block in enumerate(chain):
            if block.height != index:
                problems.append(f"node {node}: block at index {index} has height {block.height}")
                break
            first = by_height.setdefault(block.height, block.block_hash)
            if first != block.block_hash:
                problems.append(f"honest chains fork at height {block.height} (node {node})")
                break
            for tx in block.transactions:
                if tx.tx_id in seen_tx:
                    problems.append(f"node {node}: tx {tx.tx_id} committed twice")
                seen_tx.add(tx.tx_id)
    canonical = [tx for rec in result.trace.by_kind("block") for tx in rec["txs"]]
    if len(canonical) != len(set(canonical)):
        problems.append("a tx id appears in two committed blocks")
    if report.txs_committed > report.txs_offered:
        problems.append(
            f"txs_committed {report.txs_committed} > txs_offered {report.txs_offered}"
        )
    return problems


def _fingerprint(report, counters) -> dict:
    latency = report.latency
    return {
        "trace_hash": report.trace_hash,
        "throughput_tps": report.throughput_tps,
        "latency_median_s": latency.median if latency.count else None,
        "latency_p99_s": latency.p99 if latency.count else None,
        "blocks": counters["blocks_committed"],
        "view_changes": counters["view_changes"],
        "msgs": counters["sent"] + counters["junk_injected"],
        "delivered": counters["delivered"],
    }


def run_operation(spec: dict) -> dict:
    clock = HostClock()
    clock.bracket()
    uavchain = _import_uavchain()
    from uavchain import harness, simnet
    from uavchain.consensus import ProtocolKind
    from uavchain.faults import FaultPlan

    _guard_livelock(uavchain.consensus)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(uavchain, spec["overrides"]["duration_s"])
    builders = {"hurricane": harness.build_hurricane_scenario, "desk": harness.build_desk_scenario}

    def build():
        scenario = builders[spec["scenario"]](spec["overrides"])
        plan = harness.canonical_fault_plan(scenario, spec["seed"]) if spec["attacks"] else FaultPlan()
        return scenario, plan, simnet.Simulation(scenario, plan, ProtocolKind(spec["protocol"]), spec["seed"])

    def report(out_dir):
        metrics = harness.compute_metrics(
            result.trace, protocol=spec["protocol"], seed=spec["seed"],
            queue_stats=result.queue_stats,
        )
        return metrics, harness.export(metrics, result, out_dir, scenario, plan)

    def timed(step, *args):
        began = clock.now()
        value = step(*args)
        return clock.now() - began, value

    fs_dirs = (Path(spec["out_dir"]) / f"fs-reference{i}" for i in itertools.count())

    def repeat(first_s, step) -> Repeated:
        """Time ``step`` again, each time after one chunk of each reference,
        while the times stay under REPEAT_BUDGET_S.  The heap already there
        is frozen meanwhile, so that whether a full collection of it lands
        in a repeat is not left to chance."""
        rep = Repeated([first_s])
        user = system = 0.0
        gc.freeze()
        while sum(rep.times) < REPEAT_BUDGET_S and len(rep.times) < MAX_REPEATS:
            rep.cpu_scales.append(REF_NOMINAL_S / _reference_chunk_s())
            rep.fs_scales.append(FS_NOMINAL_S / _fs_chunk_s(next(fs_dirs)))
            cpu_before = _cpu_s()
            rep.times.append(timed(step)[0])
            cpu_after = _cpu_s()
            user += cpu_after[0] - cpu_before[0]
            system += cpu_after[1] - cpu_before[1]
        gc.unfreeze()
        rep.kernel_share = system / (user + system) if user + system else 0.0
        return rep

    out: dict = {"ok": True}
    # The traced pass leaves the sampler off and makes no repeats, so that no
    # layer's span holds their time; its scale comes from the bracket alone.
    if tracer is None:
        clock.start()
    try:
        # Each step runs once, in a fresh interpreter, as a ``simulate`` user
        # waits for it.
        first_setup_s, (scenario, plan, sim) = timed(build)
        # Before the run, while the heap is as small as at the first build.
        setup = repeat(first_setup_s, build) if tracer is None else Repeated([first_setup_s])
        run_began = clock.now()
        result = sim.run()
        run_time_s = clock.now() - run_began
        first_report_s, (metrics, paths) = timed(report, spec["out_dir"])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Each repeat exports into a directory of its own, as the first did.
        repeat_dirs = (Path(spec["out_dir"]) / f"repeat{i}" for i in itertools.count())
        reports = (
            repeat(first_report_s, lambda: report(next(repeat_dirs)))
            if tracer is None else Repeated([first_report_s])
        )
    except Livelock as exc:
        return {"ok": False, "failure": "livelock", "reason": str(exc)}
    except Exception as exc:  # any raise is a failed operation, with its reason
        return {"ok": False, "failure": "error", "reason": f"{type(exc).__name__}: {exc}"}
    finally:
        clock.stop()
    clock.bracket()
    scale = clock.scale()
    out["host_ref_s"] = REF_NOMINAL_S / scale
    # Host seconds scaled to the reference host.
    out["setup_s"] = setup.scaled(scale)
    out["run_time_s"] = run_time_s * scale
    out["report_s"] = reports.scaled(scale)
    out["run_s"] = (first_setup_s + run_time_s + first_report_s) * scale
    counters = sim.counters
    out["sim_s"] = scenario.duration_s
    out["msgs"] = counters["sent"] + counters["junk_injected"]
    out["checks"] = check_outputs(result, metrics, plan)
    out["fingerprint"] = _fingerprint(metrics, counters)
    out["export_mb"] = sum(p.stat().st_size for p in paths.values()) / 1e6
    if tracer is not None:
        trace = tracer.summary(run_began, run_began + run_time_s)
        trace["counters"] = dict(counters)
        trace["trace_records"] = len(sim.trace.records)
        trace["export_mb"] = out["export_mb"]
        trace["spans"] = tracer.spans()
        out["trace"] = trace
    return out


def main() -> int:
    print(json.dumps(run_operation(json.loads(sys.argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
