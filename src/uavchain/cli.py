"""Command-line front end: simulate, compare, replay.

Exit code 0 on success; on failure a machine-readable JSON error object is
written to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .consensus import ProtocolKind
from .faults import FaultPlan
from .harness import (
    METRICS_COLUMNS,
    apply_overrides,
    build_hurricane_scenario,
    canonical_fault_plan,
    compare_protocols,
    export,
    replay,
    run_experiment,
    table_row,
    write_csv,
)
from .scenario import fault_plan_from_dict, load_scenario


def _load_attacks(spec: str, scenario, seed: int) -> FaultPlan:
    if spec == "none":
        return FaultPlan()
    if spec == "canonical":
        return canonical_fault_plan(scenario, seed)
    with open(spec, encoding="utf-8") as fh:
        return fault_plan_from_dict(json.load(fh))


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario) if args.scenario else build_hurricane_scenario()
    if args.duration is not None:
        scenario = apply_overrides(scenario, {"duration_s": args.duration})
    plan = _load_attacks(args.attacks, scenario, args.seed)
    report, result = run_experiment(scenario, ProtocolKind(args.protocol), plan, args.seed)
    paths = export(report, result, args.out, scenario, plan)
    print(f"trace_hash {report.trace_hash}")
    print(
        f"throughput_tps {report.throughput_tps:.3f} "
        f"median_latency_s {report.latency.median if report.latency.count else 'n/a'}"
    )
    print(f"wrote {paths['summary']}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario) if args.scenario else build_hurricane_scenario()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not seeds:
        raise ValueError("at least one seed required")
    reports = compare_protocols(scenario, seeds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "comparison.csv"
    write_csv(table_path, METRICS_COLUMNS, [table_row(r) for r in reports])
    for r in reports:
        print(
            f"{r.protocol:>6} seed={r.seed} median={r.latency.median:.4f}s "
            f"tps={r.throughput_tps:.2f} hash={r.trace_hash[:12]}"
        )
    print(f"wrote {table_path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    matches, recorded, recomputed = replay(args.summary)
    if matches:
        print(f"replay ok: trace hash {recorded}")
        return 0
    print(
        json.dumps({"error": "trace_hash_mismatch", "recorded": recorded, "recomputed": recomputed}),
        file=sys.stderr,
    )
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavchain",
        description="Deterministic simulator of blockchain-coordinated UAV fleets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one experiment and export results")
    sim.add_argument("--scenario", help="scenario JSON path (default: built-in hurricane)")
    sim.add_argument("--protocol", choices=[p.value for p in ProtocolKind], default="hybrid")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--duration", type=float, default=None, help="override duration (s)")
    sim.add_argument("--attacks", default="none", help="none | canonical | path to plan JSON")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    cmp_p = sub.add_parser("compare", help="run hybrid/dpos/pbft on shared seeds")
    cmp_p.add_argument("--scenario", help="scenario JSON path (default: built-in hurricane)")
    cmp_p.add_argument("--seeds", required=True, help="comma-separated seed list")
    cmp_p.add_argument("--out", required=True, help="output directory")
    cmp_p.set_defaults(func=_cmd_compare)

    rep = sub.add_parser("replay", help="verify a summary.json reproduces its trace hash")
    rep.add_argument("--summary", required=True, help="path to summary.json")
    rep.set_defaults(func=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a machine-readable error
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
