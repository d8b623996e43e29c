"""Experiment harness: scenario construction, metrics, comparison, export.

The hurricane scenario mirrors the reference deployment: a 25 km x 25 km
urban area and a 200-UAV fleet of 50 connectivity, 100 delivery, 25 rescue,
and 25 assessment drones.  The reference deployment also has 16 base
stations on a 4x4 grid in one quadrant, four corner relief camps and two
adversary zones; the simulator models only UAV-to-UAV links, so none of
them is part of a scenario.  The station grid fixes where the mission
regions sit: connectivity and delivery clusters operate within 10 km of a
station, and the rescue cluster at least 20 km from every station.  Radio
constants: 915 MHz carrier, 1 W transmit power, 6 dBi gains, 10 MHz
bandwidth.

Scenario-level assumptions (documented, overridable): offered load is
1 tx/s per UAV; transaction payloads are 60 kbit (imagery-bearing field
reports); in-band noise is 2e-11 W, a hurricane-zone RF environment that
makes link capacity meaningfully distance-dependent at this map scale;
stake concentrates on connectivity drones (the fleet's network backbone),
with delivery staked lightly and rescue/assessment unstaked.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, get_type_hints

from .consensus import Mission, ProtocolKind, byzantine_tolerance, elect_validators
from .faults import ByzantineStrategy, DdosWindow, FaultPlan, SpoofWindow
from .mobility import AreaBounds, MobilityConfig, Vec3
from .radio import LinkBudgetParams, NodeServiceProfile
from .scenario import (
    ClusterSpec,
    ConsensusParams,
    Region,
    Scenario,
    WorkloadParams,
    deploy_fleet,
    fault_plan_from_dict,
    fault_plan_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from .simnet import EventTrace, RunResult, run as run_simulation
from .stats import AnovaResult, anova_oneway, DegenerateGroups, InsufficientSamples


class InvalidOverride(ValueError):
    def __init__(self, key: str) -> None:
        super().__init__(f"unknown scenario override: {key!r}")
        self.key = key


@dataclass(frozen=True)
class LatencyStats:
    count: int
    median: float
    mean: float
    p95: float
    p99: float


EMPTY_STATS = LatencyStats(0, math.nan, math.nan, math.nan, math.nan)

# Marks the report fields that name a run; every table row starts with them.
_RUN_KEY = {"run_key": True}


@dataclass(frozen=True)
class MetricsReport:
    protocol: str = field(metadata=_RUN_KEY)
    seed: int = field(metadata=_RUN_KEY)
    duration_s: float
    throughput_tps: float
    txs_committed: int
    txs_offered: int
    blocks_committed: int
    latency: LatencyStats
    per_group: dict[str, LatencyStats]
    anova: Optional[AnovaResult]
    queue_wait_measured_mean_s: float
    queue_wait_analytic_mean_s: float
    counters: dict[str, int]
    trace_hash: str
    degradation: Optional[dict[str, float]] = None


# --- scenario builders ---------------------------------------------------------


def build_hurricane_scenario(overrides: Optional[dict[str, Any]] = None) -> Scenario:
    """The reference hurricane-response experiment with optional overrides.

    Overrides are dotted paths into the scenario document
    (``consensus.n_validators``); a key without a dot names a field of its
    ``run`` section (``duration_s``, ``trace_detail`` ...).  Unknown keys
    raise InvalidOverride.
    """
    scenario = Scenario(
        area=AreaBounds(0.0, 25_000.0, 0.0, 25_000.0, 50.0, 500.0),
        # Regions are placed against the reference 4x4 base-station grid
        # (500 m to 5 km on both axes; not simulated): connectivity and
        # delivery within 10 km of a station, rescue >= 20 km from all.
        fleet={
            Mission.CONNECTIVITY: ClusterSpec(50, Region(2_000.0, 8_000.0, 2_000.0, 8_000.0), stake=1.0),
            Mission.DELIVERY: ClusterSpec(100, Region(0.0, 12_000.0, 0.0, 12_000.0), stake=0.3),
            Mission.RESCUE: ClusterSpec(25, Region(19_500.0, 24_500.0, 19_500.0, 24_500.0), stake=0.0),
            Mission.ASSESSMENT: ClusterSpec(25, Region(15_000.0, 21_000.0, 15_000.0, 21_000.0), stake=0.0),
        },
        radio=LinkBudgetParams(noise_power_w=2e-11),
        mobility=MobilityConfig(),
        service=NodeServiceProfile(proc_latency_s=0.001, service_rate_msgs_per_s=1000.0),
        consensus=ConsensusParams(n_validators=12),
        workload=WorkloadParams(tx_rate_per_uav=1.0, payload_bits=60_000),
        duration_s=30.0,
    )
    if overrides:
        scenario = apply_overrides(scenario, overrides)
    return scenario


def build_desk_scenario(overrides: Optional[dict[str, Any]] = None) -> Scenario:
    """Small-fleet variant for the three-protocol latency comparison:
    24 UAVs, 20 elected validators, lighter offered load, 60 s horizon.

    Stakes and weights are chosen so the election provably keeps all 15
    near-infrastructure UAVs in the hybrid validator set: its two-thirds
    quorum (14) can complete on near links, while the all-node baseline's
    quorum (17 of 24) must always wait for distant validators.
    """
    base = {
        "fleet.connectivity.count": 8,
        "fleet.delivery.count": 7,
        "fleet.rescue.count": 5,
        "fleet.assessment.count": 4,
        "fleet.delivery.stake": 0.6,
        "consensus.n_validators": 20,
        "consensus.weights": [0.4, 0.2, 0.2, 0.2],
        "consensus.min_block_interval_s": 0.25,
        "workload.tx_rate_per_uav": 0.2,
        # Heavy imagery payloads: block transmission dominates the round, so
        # the all-node baseline (whose quorum always crosses the slow far
        # links) runs round-bound while the elected set stays pacing-bound.
        "workload.payload_bits": 1_000_000,
        "duration_s": 60.0,
    }
    if overrides:
        base.update(overrides)
    return build_hurricane_scenario(base)


def apply_overrides(scenario: Scenario, overrides: dict[str, Any]) -> Scenario:
    doc = scenario_to_dict(scenario)
    for key, value in overrides.items():
        # A key without a dot names a field of the `run` section.
        parts = key.split(".") if "." in key else ["run", key]
        cursor: Any = doc
        try:
            for part in parts[:-1]:
                cursor = cursor[part]
            if parts[-1] not in cursor:
                raise KeyError(parts[-1])
            cursor[parts[-1]] = value
        except (KeyError, TypeError):
            raise InvalidOverride(key) from None
    return scenario_from_dict(doc)


def canonical_fault_plan(scenario: Scenario, seed: int) -> FaultPlan:
    """The fixed resilience-experiment attack plan for a (scenario, seed) run:
    a 2x-service-rate DDoS on two validators for 20% of the run, two
    equivocating byzantine validators (within tolerance), a 500 m spoof on
    five rescue UAVs, and no baseline loss."""
    uavs = deploy_fleet(scenario, seed)
    profiles = [u.profile for u in uavs]
    n = scenario.consensus.n_validators
    vset = elect_validators(profiles, scenario.consensus.weights, n)
    members = vset.member_nodes()
    f = byzantine_tolerance(vset.n)
    byz_count = min(2, f)
    byzantine = {members[i]: ByzantineStrategy.EQUIVOCATE for i in range(byz_count)}
    ddos_targets = [members[-1], members[-2]]
    window = 0.2 * scenario.duration_s
    start = 0.4 * scenario.duration_s
    rate = 2.0 * scenario.service.service_rate_msgs_per_s
    rescue_ids = [p.node for p in profiles if p.mission is Mission.RESCUE][:5]
    return FaultPlan(
        byzantine=byzantine,
        ddos=tuple(DdosWindow(t, start, window, rate) for t in ddos_targets),
        spoof=tuple(
            SpoofWindow(r, Vec3(500.0, 0.0, 0.0), 0.0, scenario.duration_s)
            for r in rescue_ids
        ),
        drop_prob=0.0,
    )


# --- metrics ---------------------------------------------------------------------


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile (no interpolation); values must be sorted."""
    if not sorted_values:
        return math.nan
    rank = math.ceil(percentile / 100.0 * len(sorted_values))
    rank = min(max(rank, 1), len(sorted_values))
    return sorted_values[rank - 1]


def _latency_stats(values: Sequence[float]) -> LatencyStats:
    if not values:
        return EMPTY_STATS
    ordered = sorted(values)
    return LatencyStats(
        count=len(ordered),
        median=nearest_rank(ordered, 50),
        mean=sum(ordered) / len(ordered),
        p95=nearest_rank(ordered, 95),
        p99=nearest_rank(ordered, 99),
    )


def commit_latencies(
    trace: EventTrace, arrivals: Optional[list[dict[str, Any]]] = None
) -> dict[str, list[float]]:
    """Per-mission commit latency samples: first block commit time minus the
    transaction's arrival time.  ``arrivals`` are the trace's ``tx_arrival``
    records, if the caller has already read them."""
    if arrivals is None:
        arrivals = trace.by_kind("tx_arrival")
    tx_arrivals: dict[int, tuple[float, str]] = {}
    for record in arrivals:
        tx_arrivals[record["tx"]] = (record["t"], record["mission"])
    groups: dict[str, list[float]] = {}
    for record in trace.by_kind("block"):
        commit_t = record["t"]
        for tx_id in record["txs"]:
            if tx_id not in tx_arrivals:
                continue
            arrived, mission = tx_arrivals[tx_id]
            groups.setdefault(mission, []).append(commit_t - arrived)
    return groups


def compute_metrics(
    trace: EventTrace,
    protocol: str = "",
    seed: int = 0,
    queue_stats: Optional[dict[int, dict[str, float]]] = None,
) -> MetricsReport:
    """Extract the throughput/latency/ANOVA report from a completed trace."""
    # A completed run's last record is the one `end` record it writes.
    end = trace.records[-1] if trace.records else None
    if end is None or end["kind"] != "end":
        raise ValueError("trace has no end record; run incomplete")
    counters = dict(end["counters"])
    duration = end["duration_s"]

    arrivals = trace.by_kind("tx_arrival")
    groups = commit_latencies(trace, arrivals)
    all_latencies = [v for g in groups.values() for v in g]
    txs_committed = counters.get("txs_committed", 0)
    throughput = txs_committed / duration if duration > 0 else 0.0

    anova: Optional[AnovaResult] = None
    anova_groups = [
        groups.get(m.value, [])
        for m in (Mission.CONNECTIVITY, Mission.DELIVERY, Mission.RESCUE)
    ]
    if all(len(g) >= 2 for g in anova_groups):
        try:
            anova = anova_oneway(anova_groups)
        except (DegenerateGroups, InsufficientSamples):
            anova = None

    measured = analytic = math.nan
    if queue_stats:
        served = sum(q["served"] for q in queue_stats.values())
        if served > 0:
            measured = sum(q["mean_wait_s"] * q["served"] for q in queue_stats.values()) / served
            analytic = sum(q["mean_len_over_rate_s"] * q["served"] for q in queue_stats.values()) / served

    return MetricsReport(
        protocol=protocol,
        seed=seed,
        duration_s=duration,
        throughput_tps=throughput,
        txs_committed=txs_committed,
        txs_offered=len(arrivals),
        blocks_committed=counters.get("blocks_committed", 0),
        latency=_latency_stats(all_latencies),
        per_group={mission: _latency_stats(vals) for mission, vals in groups.items()},
        anova=anova,
        queue_wait_measured_mean_s=measured,
        queue_wait_analytic_mean_s=analytic,
        counters=counters,
        trace_hash=trace.hash_hex(),
    )


def degradation_pct(baseline: MetricsReport, attacked: MetricsReport) -> dict[str, float]:
    """Relative change under attack vs the same-seed baseline; positive = worse."""
    out: dict[str, float] = {}
    if baseline.throughput_tps > 0:
        out["throughput_pct"] = 100.0 * (
            (baseline.throughput_tps - attacked.throughput_tps) / baseline.throughput_tps
        )
    if baseline.latency.count and attacked.latency.count and baseline.latency.median > 0:
        out["median_latency_pct"] = 100.0 * (
            (attacked.latency.median - baseline.latency.median) / baseline.latency.median
        )
    return out


def run_experiment(
    scenario: Scenario,
    protocol: ProtocolKind,
    fault_plan: FaultPlan,
    seed: int,
    baseline: Optional[MetricsReport] = None,
) -> tuple[MetricsReport, RunResult]:
    result = run_simulation(scenario, fault_plan, protocol, seed)
    report = compute_metrics(
        result.trace, protocol=protocol.value, seed=seed, queue_stats=result.queue_stats
    )
    if baseline is not None:
        report = replace(report, degradation=degradation_pct(baseline, report))
    return report, result


def compare_protocols(scenario: Scenario, seeds: Sequence[int]) -> list[MetricsReport]:
    """Run all three protocols, fault-free, on identical (scenario, seed) pairs."""
    reports = []
    for protocol in (ProtocolKind.HYBRID, ProtocolKind.PURE_DPOS, ProtocolKind.PURE_PBFT):
        for seed in seeds:
            report, _ = run_experiment(scenario, protocol, FaultPlan(), seed)
            reports.append(report)
    reports.sort(key=lambda r: (r.protocol, r.seed))
    return reports


# --- export / replay ----------------------------------------------------------------


def _column_paths(cls: type) -> list[tuple[str, ...]]:
    """The table columns of a report dataclass, as attribute paths: its
    scalar fields, and a LatencyStats field spread out as <name>_<stat>."""
    hints = get_type_hints(cls)
    paths: list[tuple[str, ...]] = []
    for f in fields(cls):
        if hints[f.name] is LatencyStats:
            paths += [(f.name, *sub) for sub in _column_paths(LatencyStats)]
        elif hints[f.name] in (int, float, str, tuple[float, ...]):
            paths.append((f.name,))
    return paths


_PATHS = {cls: _column_paths(cls) for cls in (MetricsReport, LatencyStats, AnovaResult)}
_COLUMNS = {cls: ["_".join(path) for path in paths] for cls, paths in _PATHS.items()}
_KEY = [f.name for f in fields(MetricsReport) if f.metadata.get("run_key")]

METRICS_COLUMNS = _COLUMNS[MetricsReport]
GROUPS_COLUMNS = [*_KEY, "mission", *_COLUMNS[LatencyStats]]
ANOVA_COLUMNS = [*_KEY, *_COLUMNS[AnovaResult]]


def table_row(report: Any) -> list[Any]:
    """A report dataclass as a table row, in the order of its columns."""
    return [reduce(getattr, path, report) for path in _PATHS[type(report)]]


def _fmt(value: Any) -> str:
    # repr keeps the shortest round-trip decimal form for floats.
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def _field_values(report: Any) -> dict[str, Any]:
    """A report dataclass as a JSON object of its fields.  `json.dump` calls
    this for the report dataclasses nested in a summary."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


def write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a header of columns, then one formatted line per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def export(
    report: MetricsReport,
    result: RunResult,
    out_dir: str | Path,
    scenario: Scenario,
    fault_plan: FaultPlan,
) -> dict[str, Path]:
    """Write events.jsonl, metrics.csv, groups.csv, anova.csv, summary.json.

    Raises ValueError, with only events.jsonl written, when `report` names a
    trace hash other than that of `result`'s trace."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "metrics": out / "metrics.csv",
            "groups": out / "groups.csv",
            "anova": out / "anova.csv",
            "events": out / "events.jsonl",
            "summary": out / "summary.json",
        }
        # The trace is hashed as it is written, so a report of another run
        # fails here rather than naming a hash its own events.jsonl lacks.
        digest = hashlib.sha256()
        with open(paths["events"], "wb") as fh:
            for chunk in result.trace.jsonl_chunks():
                digest.update(chunk)
                fh.write(chunk)
        written = digest.hexdigest()
        if written != report.trace_hash:
            raise ValueError(
                f"report trace hash {report.trace_hash} is not the exported trace's "
                f"{written}: the report and the result are from different runs"
            )
        key = [getattr(report, name) for name in _KEY]
        write_csv(paths["metrics"], METRICS_COLUMNS, [table_row(report)])
        write_csv(paths["groups"], GROUPS_COLUMNS, [
            [*key, mission, *table_row(stats)] for mission, stats in sorted(report.per_group.items())
        ])
        write_csv(paths["anova"], ANOVA_COLUMNS, (
            [] if report.anova is None else [[*key, *table_row(report.anova)]]
        ))
        summary = {
            "scenario": scenario_to_dict(scenario),
            "fault_plan": fault_plan_to_dict(fault_plan),
            "metrics": {k: v for k, v in _field_values(report).items() if v is not None},
        }
        with open(paths["summary"], "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, default=_field_values)
            fh.write("\n")
        return paths
    except OSError as exc:
        raise OSError(f"export to {out} failed: {exc}") from exc


def replay(summary_path: str | Path) -> tuple[bool, str, str]:
    """Re-run the experiment recorded in summary.json and verify its trace
    hash.  Returns (matches, recorded_hash, recomputed_hash).  Only the hash
    is checked, so no metrics are computed and no trace text is kept."""
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    scenario = scenario_from_dict(summary["scenario"])
    plan = fault_plan_from_dict(summary["fault_plan"])
    metrics = summary["metrics"]
    protocol = ProtocolKind(metrics["protocol"])
    seed = int(metrics["seed"])
    result = run_simulation(scenario, plan, protocol, seed, enforce_tolerance=False)
    recorded = metrics["trace_hash"]
    recomputed = result.trace_hash()
    return recomputed == recorded, recorded, recomputed
