"""Declarative experiment description and its JSON round-trip.

A scenario pins geometry, fleet composition, radio constants, mobility
limits, consensus parameters, and workload.  It stays seed-free: the same
scenario with different seeds yields different (but reproducible) fleets
and traffic.  Unknown keys anywhere in a scenario document are rejected.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .consensus import (
    Mission,
    ProposerPolicy,
    ProtocolConfig,
    ProtocolKind,
    ScoreWeights,
    UavProfile,
    substream,
)
from .faults import ByzantineStrategy, DdosWindow, FaultPlan, SpoofWindow
from .mobility import AreaBounds, KinematicState, MobilityConfig, Vec3
from .radio import LinkBudgetParams, NodeServiceProfile


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Region:
    """Axis-aligned 2D deployment box, meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ScenarioError("region must be non-degenerate")

    def sample(self, rng: random.Random) -> tuple[float, float]:
        return rng.uniform(self.x_min, self.x_max), rng.uniform(self.y_min, self.y_max)


@dataclass(frozen=True)
class ClusterSpec:
    """One mission cluster: head count, operating region, stake assignment."""

    count: int
    region: Region
    stake: float
    stake_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ScenarioError("cluster count must be non-negative")
        if self.stake < 0:
            raise ScenarioError("cluster stake must be non-negative")


@dataclass(frozen=True)
class ConsensusParams:
    n_validators: int = 12
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    policy: ProposerPolicy = ProposerPolicy.STAKE_WEIGHTED
    timeout_s: float = 0.5
    timeout_backoff: float = 2.0
    max_txs_per_block: int = 16
    min_block_interval_s: float = 0.025
    reelect_every_blocks: int = 50
    optimistic_fast_path: bool = False
    vote_bits: int = 1024
    header_bits: int = 2048

    def protocol_config(self, kind: ProtocolKind, seed: int) -> ProtocolConfig:
        return ProtocolConfig(
            kind=kind,
            policy=self.policy,
            timeout_s=self.timeout_s,
            timeout_backoff=self.timeout_backoff,
            max_txs_per_block=self.max_txs_per_block,
            optimistic_fast_path=self.optimistic_fast_path,
            seed=seed,
        )


@dataclass(frozen=True)
class WorkloadParams:
    tx_rate_per_uav: float = 1.0
    payload_bits: int = 2048


@dataclass(frozen=True)
class Scenario:
    area: AreaBounds
    fleet: dict[Mission, ClusterSpec]
    radio: LinkBudgetParams
    mobility: MobilityConfig
    service: NodeServiceProfile
    consensus: ConsensusParams
    workload: WorkloadParams
    duration_s: float = 30.0
    extra_delay_jitter_s: float = 0.0
    trace_detail: str = "events"  # "events" | "full"

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ScenarioError("duration must be >= 0")
        if self.trace_detail not in ("events", "full"):
            raise ScenarioError("trace_detail must be 'events' or 'full'")
        for spec in self.fleet.values():
            r = spec.region
            if not (
                self.area.x_min <= r.x_min
                and r.x_max <= self.area.x_max
                and self.area.y_min <= r.y_min
                and r.y_max <= self.area.y_max
            ):
                raise ScenarioError("deployment region outside area")
        if self.total_fleet() > 0 and self.consensus.n_validators > self.total_fleet():
            raise ScenarioError("more validators requested than fleet nodes")

    def total_fleet(self) -> int:
        return sum(spec.count for spec in self.fleet.values())


@dataclass(frozen=True)
class DeployedUav:
    profile: UavProfile
    state: KinematicState
    waypoint_region: Region


def deploy_fleet(scenario: Scenario, seed: int) -> list[DeployedUav]:
    """Instantiate the fleet for one run: seeded positions and profiles.

    Node ids are assigned in a fixed mission order so a (scenario, seed)
    pair always produces the identical fleet.
    """
    rng = substream(seed, "deploy")
    uavs: list[DeployedUav] = []
    node_id = 0
    z_lo = scenario.area.z_min
    z_hi = scenario.area.z_max
    for mission in Mission:
        spec = scenario.fleet.get(mission)
        if spec is None:
            continue
        for _ in range(spec.count):
            x, y = spec.region.sample(rng)
            z = rng.uniform(z_lo, z_hi)
            jitter = 1.0 + spec.stake_jitter * (2.0 * rng.random() - 1.0)
            profile = UavProfile(
                node=node_id,
                stake=spec.stake * jitter,
                fuel=rng.uniform(0.6, 0.9),
                capability=rng.uniform(0.6, 0.9),
                history=rng.uniform(0.6, 0.9),
                mission=mission,
            )
            uavs.append(
                DeployedUav(
                    profile=profile,
                    state=KinematicState(position=Vec3(x, y, z)),
                    waypoint_region=spec.region,
                )
            )
            node_id += 1
    return uavs


# --- JSON (de)serialization --------------------------------------------------

_SECTIONS = {"geometry", "fleet", "radio", "mobility", "consensus", "workload", "run"}


def _check_keys(obj: dict, allowed: set[str], where: str, required: Iterable[str] = ()) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ScenarioError(f"missing key(s) in {where}: {missing}")


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    return {
        "geometry": {
            "area": [s.area.x_min, s.area.x_max, s.area.y_min, s.area.y_max, s.area.z_min, s.area.z_max],
        },
        "fleet": {
            mission.value: {
                "count": spec.count,
                "region": [spec.region.x_min, spec.region.x_max, spec.region.y_min, spec.region.y_max],
                "stake": spec.stake,
                "stake_jitter": spec.stake_jitter,
            }
            for mission, spec in s.fleet.items()
        },
        "radio": asdict(s.radio),
        "mobility": {
            "v_max": s.mobility.v_max,
            "a_max": s.mobility.a_max,
            "dt": s.mobility.dt,
            "waypoint_arrival_radius": s.mobility.waypoint_arrival_radius,
        },
        "consensus": {
            "n_validators": s.consensus.n_validators,
            "weights": [s.consensus.weights.w1, s.consensus.weights.w2, s.consensus.weights.w3, s.consensus.weights.w4],
            "policy": s.consensus.policy.value,
            "timeout_s": s.consensus.timeout_s,
            "timeout_backoff": s.consensus.timeout_backoff,
            "max_txs_per_block": s.consensus.max_txs_per_block,
            "min_block_interval_s": s.consensus.min_block_interval_s,
            "reelect_every_blocks": s.consensus.reelect_every_blocks,
            "optimistic_fast_path": s.consensus.optimistic_fast_path,
            "vote_bits": s.consensus.vote_bits,
            "header_bits": s.consensus.header_bits,
        },
        "workload": {
            "tx_rate_per_uav": s.workload.tx_rate_per_uav,
            "payload_bits": s.workload.payload_bits,
        },
        "run": {
            "duration_s": s.duration_s,
            "extra_delay_jitter_s": s.extra_delay_jitter_s,
            "proc_latency_s": s.service.proc_latency_s,
            "service_rate_msgs_per_s": s.service.service_rate_msgs_per_s,
            "trace_detail": s.trace_detail,
        },
    }


def scenario_from_dict(d: dict[str, Any]) -> Scenario:
    _check_keys(d, _SECTIONS, "scenario", required=sorted(_SECTIONS))

    geom = d["geometry"]
    _check_keys(geom, {"area"}, "geometry", required=("area",))
    a = geom["area"]
    area = AreaBounds(a[0], a[1], a[2], a[3], a[4], a[5])

    fleet: dict[Mission, ClusterSpec] = {}
    for name, spec in d["fleet"].items():
        required = ("count", "region", "stake")
        _check_keys(spec, {*required, "stake_jitter"}, f"fleet.{name}", required=required)
        r = spec["region"]
        fleet[Mission(name)] = ClusterSpec(
            count=int(spec["count"]),
            region=Region(r[0], r[1], r[2], r[3]),
            stake=float(spec["stake"]),
            stake_jitter=float(spec.get("stake_jitter", ClusterSpec.stake_jitter)),
        )

    radio_d = d["radio"]
    _check_keys(
        radio_d,
        {"tx_power_w", "tx_gain_dbi", "rx_gain_dbi", "carrier_hz", "noise_power_w", "bandwidth_hz"},
        "radio",
    )
    radio = LinkBudgetParams(**radio_d)

    mob = d["mobility"]
    _check_keys(mob, {"v_max", "a_max", "dt", "waypoint_arrival_radius"}, "mobility")
    mobility = MobilityConfig(area=area, **mob)

    cons = d["consensus"]
    _check_keys(
        cons,
        {
            "n_validators", "weights", "policy", "timeout_s", "timeout_backoff",
            "max_txs_per_block", "min_block_interval_s", "reelect_every_blocks",
            "optimistic_fast_path", "vote_bits", "header_bits",
        },
        "consensus",
    )
    w = cons.get("weights", astuple(ScoreWeights()))
    consensus = ConsensusParams(
        n_validators=int(cons.get("n_validators", ConsensusParams.n_validators)),
        weights=ScoreWeights(w[0], w[1], w[2], w[3]),
        policy=ProposerPolicy(cons.get("policy", ConsensusParams.policy.value)),
        timeout_s=float(cons.get("timeout_s", ConsensusParams.timeout_s)),
        timeout_backoff=float(cons.get("timeout_backoff", ConsensusParams.timeout_backoff)),
        max_txs_per_block=int(cons.get("max_txs_per_block", ConsensusParams.max_txs_per_block)),
        min_block_interval_s=float(cons.get("min_block_interval_s", ConsensusParams.min_block_interval_s)),
        reelect_every_blocks=int(cons.get("reelect_every_blocks", ConsensusParams.reelect_every_blocks)),
        optimistic_fast_path=bool(cons.get("optimistic_fast_path", ConsensusParams.optimistic_fast_path)),
        vote_bits=int(cons.get("vote_bits", ConsensusParams.vote_bits)),
        header_bits=int(cons.get("header_bits", ConsensusParams.header_bits)),
    )

    wl = d["workload"]
    _check_keys(wl, {"tx_rate_per_uav", "payload_bits"}, "workload")
    workload = WorkloadParams(
        tx_rate_per_uav=float(wl.get("tx_rate_per_uav", WorkloadParams.tx_rate_per_uav)),
        payload_bits=int(wl.get("payload_bits", WorkloadParams.payload_bits)),
    )

    run = d["run"]
    _check_keys(
        run,
        {"duration_s", "extra_delay_jitter_s", "proc_latency_s", "service_rate_msgs_per_s", "trace_detail"},
        "run",
    )
    service = NodeServiceProfile(
        proc_latency_s=float(run.get("proc_latency_s", NodeServiceProfile.proc_latency_s)),
        service_rate_msgs_per_s=float(run.get("service_rate_msgs_per_s", NodeServiceProfile.service_rate_msgs_per_s)),
    )

    return Scenario(
        area=area,
        fleet=fleet,
        radio=radio,
        mobility=mobility,
        service=service,
        consensus=consensus,
        workload=workload,
        duration_s=float(run.get("duration_s", Scenario.duration_s)),
        extra_delay_jitter_s=float(run.get("extra_delay_jitter_s", Scenario.extra_delay_jitter_s)),
        trace_detail=str(run.get("trace_detail", Scenario.trace_detail)),
    )


def fault_plan_to_dict(plan: FaultPlan) -> dict[str, Any]:
    return {
        "byzantine": {str(node): strat.value for node, strat in sorted(plan.byzantine.items())},
        "ddos": [
            {"target": w.target, "start_s": w.start_s, "duration_s": w.duration_s,
             "flood_rate_msgs_per_s": w.flood_rate_msgs_per_s}
            for w in plan.ddos
        ],
        "spoof": [
            {"target": w.target, "offset": [w.offset.x, w.offset.y, w.offset.z],
             "start_s": w.start_s, "duration_s": w.duration_s}
            for w in plan.spoof
        ],
        "drop_prob": plan.drop_prob,
    }


def fault_plan_from_dict(d: dict[str, Any]) -> FaultPlan:
    _check_keys(d, {"byzantine", "ddos", "spoof", "drop_prob"}, "attacks")
    byz = {int(node): ByzantineStrategy(strat) for node, strat in d.get("byzantine", {}).items()}
    ddos = []
    for w in d.get("ddos", []):
        _check_keys(w, {"target", "start_s", "duration_s", "flood_rate_msgs_per_s"}, "attacks.ddos")
        ddos.append(DdosWindow(int(w["target"]), float(w["start_s"]), float(w["duration_s"]),
                               float(w["flood_rate_msgs_per_s"])))
    spoof = []
    for w in d.get("spoof", []):
        _check_keys(w, {"target", "offset", "start_s", "duration_s"}, "attacks.spoof")
        o = w["offset"]
        spoof.append(SpoofWindow(int(w["target"]), Vec3(o[0], o[1], o[2]),
                                 float(w["start_s"]), float(w["duration_s"])))
    return FaultPlan(
        byzantine=byz,
        ddos=tuple(ddos),
        spoof=tuple(spoof),
        drop_prob=float(d.get("drop_prob", 0.0)),
    )


def load_scenario(path: str | Path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
