"""Declarative experiment description and its JSON round-trip.

A scenario pins geometry, fleet composition, radio constants, mobility
limits, consensus parameters, and workload.  It stays seed-free: the same
scenario with different seeds yields different (but reproducible) fleets
and traffic.  Unknown keys anywhere in a scenario document are rejected,
and so are values of the wrong type or out of range.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import AbstractSet, Any, Callable, Iterable, NoReturn, get_args, get_origin, get_type_hints

from .consensus import (
    Mission,
    ProposerPolicy,
    ProtocolConfig,
    ProtocolKind,
    ScoreWeights,
    UavProfile,
    substream,
)
from .faults import ByzantineStrategy, FaultPlan
from .mobility import AreaBounds, KinematicState, MobilityConfig, sample_waypoint
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


@dataclass(frozen=True)
class ClusterSpec:
    """One mission cluster: head count, operating region, stake assignment."""

    count: int
    region: Region
    stake: float
    stake_jitter: float = 0.1

    def __post_init__(self) -> None:
        # A document carries the count only as an int, and neither field as a
        # bool; a scenario built otherwise would fail to run or to replay.
        count, stake = self.count, self.stake
        if isinstance(count, bool) or not isinstance(count, int):
            raise ScenarioError(f"cluster count must be an int, got {count!r}")
        if count < 0:
            raise ScenarioError("cluster count must be non-negative")
        if isinstance(stake, bool) or not 0 <= stake < math.inf:
            raise ScenarioError("cluster stake must be a finite number >= 0, not a bool")
        if not 0 <= self.stake_jitter <= 1:
            raise ScenarioError("stake_jitter must lie in [0, 1], or a stake can turn negative")


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
    vote_bits: int = 1024
    header_bits: int = 2048

    def __post_init__(self) -> None:
        # Fewer than 4 validators tolerate no byzantine node, and election
        # refuses them.  A negative message size runs the simulated clock
        # backwards, a negative block size drops mempool entries, and a
        # deadline that never moves past the clock stops it.  A NaN interval
        # or timeout compares false, so it would skip pacing or deadlines.
        # A document carries each count as an integer: a float, NaN or
        # infinity would build a run whose summary does not replay.
        for name, least in (
            ("n_validators", 4), ("max_txs_per_block", 0), ("reelect_every_blocks", 1),
            ("vote_bits", 0), ("header_bits", 0),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ScenarioError(f"{name} must be >= {least}")
        if not 0 <= self.min_block_interval_s < math.inf:
            raise ScenarioError("min_block_interval_s must be a finite number >= 0")
        if not 0 < self.timeout_s < math.inf:
            raise ScenarioError("timeout_s must be a finite number > 0")
        if not 1 <= self.timeout_backoff < math.inf:
            raise ScenarioError("timeout_backoff must be a finite number >= 1")

    def protocol_config(self, kind: ProtocolKind, seed: int) -> ProtocolConfig:
        return ProtocolConfig(
            kind=kind,
            policy=self.policy,
            timeout_s=self.timeout_s,
            timeout_backoff=self.timeout_backoff,
            max_txs_per_block=self.max_txs_per_block,
            seed=seed,
        )


@dataclass(frozen=True)
class WorkloadParams:
    tx_rate_per_uav: float = 1.0
    payload_bits: int = 2048

    def __post_init__(self) -> None:
        # An infinite rate draws zero gaps, so workload generation never
        # ends; a NaN payload makes every arrival time NaN; a payload of no
        # bits is no transaction; a bool is no count, and the trace would
        # write it as `True`, not `true`; a document carries no float payload.
        rate, bits = self.tx_rate_per_uav, self.payload_bits
        if isinstance(rate, bool) or not 0 <= rate < math.inf:
            raise ScenarioError("tx_rate_per_uav must be a finite number >= 0, not a bool")
        if isinstance(bits, bool) or not 0 < bits < math.inf:
            raise ScenarioError("payload_bits must be a finite number > 0, not a bool")
        if not isinstance(bits, int):
            raise ScenarioError(f"payload_bits must be an int, got {bits!r}")


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
        # A NaN duration never ends a run.
        if not 0 <= self.duration_s < math.inf:
            raise ScenarioError("duration must be a finite number >= 0")
        if not 0 <= self.extra_delay_jitter_s < math.inf:
            raise ScenarioError("extra_delay_jitter_s must be a finite number >= 0")
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
    # The cluster's region at the area's altitude band: where the UAV was
    # deployed and where its waypoints are drawn.
    box: AreaBounds


def deploy_fleet(scenario: Scenario, seed: int) -> list[DeployedUav]:
    """Instantiate the fleet for one run: seeded positions and profiles.

    Node ids are assigned in a fixed mission order so a (scenario, seed)
    pair always produces the identical fleet.
    """
    rng = substream(seed, "deploy")
    uavs: list[DeployedUav] = []
    node_id = 0
    area = scenario.area
    for mission in Mission:
        spec = scenario.fleet.get(mission)
        if spec is None:
            continue
        r = spec.region
        box = AreaBounds(r.x_min, r.x_max, r.y_min, r.y_max, area.z_min, area.z_max)
        for _ in range(spec.count):
            position = sample_waypoint(rng, box)
            jitter = 1.0 + spec.stake_jitter * (2.0 * rng.random() - 1.0)
            profile = UavProfile(
                node=node_id,
                stake=spec.stake * jitter,
                fuel=rng.uniform(0.6, 0.9),
                capability=rng.uniform(0.6, 0.9),
                history=rng.uniform(0.6, 0.9),
                mission=mission,
            )
            uavs.append(DeployedUav(profile=profile, state=KinematicState(position=position), box=box))
            node_id += 1
    return uavs


# --- JSON (de)serialization --------------------------------------------------
#
# A section holds the fields of one dataclass: a key must name a field, a
# field without a default is required, and a value must have the field's
# type.  int and str take exactly that JSON type, float takes any
# finite number, an enum takes its value, a flat dataclass (Region, AreaBounds,
# ScoreWeights, Vec3) a list of its fields, and a tuple of dataclasses a list
# of sections.

_SECTIONS = {"geometry", "fleet", "radio", "mobility", "consensus", "workload", "run"}
# Scenario fields with sections of their own; the rest of Scenario sits in
# `run`, next to the fields of NodeServiceProfile.
_NESTED = ("area", "fleet", "radio", "mobility", "service", "consensus", "workload")
_SCALARS = (float, int, str)
_Converter = Callable[[Any, str, str], Any]


def _object(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object, got {obj!r}")
    return obj


def _check_keys(obj: Any, allowed: AbstractSet[str], where: str, required: Iterable[str] = ()) -> None:
    if not _object(obj, where).keys() <= allowed:
        raise ScenarioError(f"unknown key(s) in {where}: {sorted(obj.keys() - allowed)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ScenarioError(f"missing key(s) in {where}: {missing}")


def _mistyped(value: Any, where: str, key: str, expected: str) -> NoReturn:
    raise ScenarioError(f"{where}.{key} must be {expected}, got {value!r}")


@functools.cache
def _converter(tp: Any) -> _Converter:
    """How a JSON value under ``where``.``key`` becomes a value of type ``tp``."""
    if tp is float:
        # Python's json reads NaN, Infinity and integers too large for a
        # float; no field takes them (a NaN duration never ends a run).
        return lambda value, where, key: (
            float(value) if type(value) in (int, float) and abs(value) <= sys.float_info.max
            else _mistyped(value, where, key, "a finite number")
        )
    if tp in _SCALARS:
        return lambda value, where, key: (
            value if type(value) is tp else _mistyped(value, where, key, tp.__name__)
        )
    if isinstance(tp, type) and issubclass(tp, Enum):
        values = [member.value for member in tp]
        return lambda value, where, key: (
            tp(value) if value in values else _mistyped(value, where, key, f"one of {values}")
        )
    if get_origin(tp) is tuple:
        item = get_args(tp)[0]
        return lambda value, where, key: (
            tuple(_build(item, doc, f"{where}.{key}") for doc in value)
            if type(value) is list else _mistyped(value, where, key, "list")
        )
    converters = list(_schema(tp)[0].values())
    expected = f"a list of {len(converters)} numbers"
    return lambda value, where, key: (
        _construct(tp, f"{where}.{key}", *[convert(x, where, key) for convert, x in zip(converters, value)])
        if type(value) is list and len(value) == len(converters) else _mistyped(value, where, key, expected)
    )


@functools.cache
def _schema(cls: type, skip: tuple[str, ...] = ()) -> tuple[dict[str, _Converter], tuple[str, ...]]:
    """(field name -> converter, required field names) for the fields of ``cls`` not in ``skip``."""
    hints = get_type_hints(cls)
    kept = [f for f in fields(cls) if f.name not in skip]
    return (
        {f.name: _converter(hints[f.name]) for f in kept},
        tuple(f.name for f in kept if f.default is MISSING and f.default_factory is MISSING),
    )


def _read(cls: type, doc: Any, where: str, skip: tuple[str, ...] = ()) -> dict[str, Any]:
    """Keyword arguments for ``cls`` from one document section."""
    converters, required = _schema(cls, skip)
    _check_keys(doc, converters.keys(), where, required)
    return {key: converters[key](value, where, key) for key, value in doc.items()}


def _construct(cls: type, where: str, /, *args: Any, **kwargs: Any) -> Any:
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _build(cls: type, doc: Any, where: str, **given: Any) -> Any:
    """``cls`` from a section that holds every field but those ``given``."""
    return _construct(cls, where, **given, **_read(cls, doc, where, tuple(given)))


def _plain(value: Any) -> Any:
    # A bool passes as an int, for the field's converter to reject.
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_to_dict(item) for item in value]
    return [getattr(value, name) for name in _schema(type(value))[0]]


def _to_dict(obj: Any, skip: tuple[str, ...] = ()) -> dict[str, Any]:
    return {name: _plain(getattr(obj, name)) for name in _schema(type(obj), skip)[0]}


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    return {
        "geometry": {"area": _plain(s.area)},
        "fleet": {mission.value: _to_dict(spec) for mission, spec in s.fleet.items()},
        "radio": _to_dict(s.radio),
        "mobility": _to_dict(s.mobility),
        "consensus": _to_dict(s.consensus),
        "workload": _to_dict(s.workload),
        "run": {**_to_dict(s, skip=_NESTED), **_to_dict(s.service)},
    }


def scenario_from_dict(d: dict[str, Any]) -> Scenario:
    _check_keys(d, _SECTIONS, "scenario", required=sorted(_SECTIONS))
    _check_keys(d["geometry"], {"area"}, "geometry", required=("area",))
    _check_keys(d["fleet"], {mission.value for mission in Mission}, "fleet")
    run = _object(d["run"], "run")
    service_keys = _schema(NodeServiceProfile)[0]
    return Scenario(
        area=_converter(AreaBounds)(d["geometry"]["area"], "geometry", "area"),
        fleet={Mission(name): _build(ClusterSpec, spec, f"fleet.{name}") for name, spec in d["fleet"].items()},
        radio=_build(LinkBudgetParams, d["radio"], "radio"),
        mobility=_build(MobilityConfig, d["mobility"], "mobility"),
        service=_build(NodeServiceProfile, {k: v for k, v in run.items() if k in service_keys}, "run"),
        consensus=_build(ConsensusParams, d["consensus"], "consensus"),
        workload=_build(WorkloadParams, d["workload"], "workload"),
        **_read(Scenario, {k: v for k, v in run.items() if k not in service_keys}, "run", skip=_NESTED),
    )


def fault_plan_to_dict(plan: FaultPlan) -> dict[str, Any]:
    return {
        "byzantine": {str(node): strat.value for node, strat in sorted(plan.byzantine.items())},
        **_to_dict(plan, skip=("byzantine",)),
    }


def fault_plan_from_dict(d: dict[str, Any]) -> FaultPlan:
    _object(d, "attacks")
    byzantine = {}
    for node, strategy in _object(d.get("byzantine", {}), "attacks.byzantine").items():
        if not str(node).isdigit():
            raise ScenarioError(f"attacks.byzantine keys must be node ids, got {node!r}")
        byzantine[int(node)] = _converter(ByzantineStrategy)(strategy, "attacks.byzantine", node)
    rest = {k: v for k, v in d.items() if k != "byzantine"}
    return _build(FaultPlan, rest, "attacks", byzantine=byzantine)


def load_scenario(path: str | Path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
