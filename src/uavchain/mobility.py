"""UAV kinematics: random-waypoint motion with velocity/acceleration limits.

State advances by the discrete constant-acceleration update

    position' = position + velocity*dt + 0.5*acceleration*dt^2
    velocity' = velocity + acceleration*dt   (then magnitude-clamped)

with reflection at the area boundaries.  True and reported positions are
kept separate so GPS-spoofing experiments can shift what the network layer
sees without touching the physics.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Vec3:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def distance_to(self, other: "Vec3") -> float:
        # ``(self - other).norm()`` without the Vec3 it allocates: the same
        # operations in the same order, so the float is bit-identical.
        dx = self.x - other.x
        dy = self.y - other.y
        dz = self.z - other.z
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def clamped(self, max_norm: float) -> "Vec3":
        n = self.norm()
        if n <= max_norm or n == 0.0:
            return self
        return self.scale(max_norm / n)


ZERO = Vec3(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class AreaBounds:
    """Axis-aligned operating box, meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.z_min < self.z_max):
            raise ValueError("area bounds must be non-degenerate")

    def contains(self, p: Vec3, tol: float = 1e-9) -> bool:
        return (
            self.x_min - tol <= p.x <= self.x_max + tol
            and self.y_min - tol <= p.y <= self.y_max + tol
            and self.z_min - tol <= p.z <= self.z_max + tol
        )


# 25 km x 25 km urban area with a [50, 500] m altitude band.
DEFAULT_AREA = AreaBounds(0.0, 25_000.0, 0.0, 25_000.0, 50.0, 500.0)


@dataclass(frozen=True)
class MobilityConfig:
    v_max: float = 50.0
    a_max: float = 5.0
    dt: float = 0.1
    area: AreaBounds = DEFAULT_AREA
    waypoint_arrival_radius: float = 50.0

    def __post_init__(self) -> None:
        if min(self.v_max, self.a_max, self.dt, self.waypoint_arrival_radius) <= 0:
            raise ValueError("mobility parameters must be positive")


@dataclass(frozen=True)
class KinematicState:
    position: Vec3
    velocity: Vec3 = ZERO
    acceleration: Vec3 = ZERO
    reported_position: Vec3 | None = None

    def __post_init__(self) -> None:
        if self.reported_position is None:
            object.__setattr__(self, "reported_position", self.position)


def _reflect(value: float, velocity: float, lo: float, hi: float) -> tuple[float, float]:
    # Mirror across the violated bound; loop covers (rare) multi-bound overshoot.
    while value < lo or value > hi:
        if value < lo:
            value = 2.0 * lo - value
            velocity = -velocity
        else:
            value = 2.0 * hi - value
            velocity = -velocity
    return value, velocity


def step(state: KinematicState, cfg: MobilityConfig) -> KinematicState:
    """Advance one dt: constant-acceleration update, speed clamp, reflection.

    The true position moves; any spoofing offset on the reported position is
    carried along unchanged.
    """
    dt = cfg.dt
    pos = state.position + state.velocity.scale(dt) + state.acceleration.scale(0.5 * dt * dt)
    vel = (state.velocity + state.acceleration.scale(dt)).clamped(cfg.v_max)

    a = cfg.area
    x, vx = _reflect(pos.x, vel.x, a.x_min, a.x_max)
    y, vy = _reflect(pos.y, vel.y, a.y_min, a.y_max)
    z, vz = _reflect(pos.z, vel.z, a.z_min, a.z_max)
    pos = Vec3(x, y, z)
    vel = Vec3(vx, vy, vz)

    offset = state.reported_position - state.position
    return KinematicState(
        position=pos,
        velocity=vel,
        acceleration=state.acceleration,
        reported_position=pos + offset,
    )


def sample_waypoint(rng: random.Random, area: AreaBounds) -> Vec3:
    """Uniform waypoint inside the area; identical seeds yield identical draws."""
    return Vec3(
        rng.uniform(area.x_min, area.x_max),
        rng.uniform(area.y_min, area.y_max),
        rng.uniform(area.z_min, area.z_max),
    )


def steer_to_waypoint(state: KinematicState, waypoint: Vec3, cfg: MobilityConfig) -> Vec3:
    """Acceleration command that approaches the waypoint and slows to arrive.

    Inside the arrival radius the command is zero (callers resample a new
    waypoint).  Outside it, the node tracks a desired velocity pointing at
    the waypoint whose speed is capped both by v_max and by the speed from
    which a_max can still stop within the remaining distance; the command is
    the a_max-clamped correction toward that desired velocity.  The damping
    makes the closing distance settle monotonically instead of orbiting.
    """
    to_target = waypoint - state.position
    dist = to_target.norm()
    if dist <= cfg.waypoint_arrival_radius:
        return ZERO
    stop_speed = math.sqrt(2.0 * cfg.a_max * dist)
    desired = to_target.scale(min(cfg.v_max, stop_speed) / dist)
    return (desired - state.velocity).scale(1.0 / cfg.dt).clamped(cfg.a_max)


def apply_spoofing(state: KinematicState, offset: Vec3) -> KinematicState:
    """Shift the reported position by ``offset``; true position unchanged."""
    return replace(state, reported_position=state.position + offset)
