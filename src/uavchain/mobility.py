"""UAV kinematics: random-waypoint motion with velocity/acceleration limits.

State advances under a steering command by the discrete constant-acceleration
update

    position' = position + velocity*dt + 0.5*acceleration*dt^2
    velocity' = velocity + acceleration*dt   (then magnitude-clamped)

with reflection at the bounds of the scenario's area, which the caller
passes in.  The kinematic state is the true position and velocity only.
The position the network layer sees is the simulator's: each tick it sets a
node's reported position to ``apply_spoofing(position, offset)``, so
GPS-spoofing experiments shift what the transport prices without touching
the physics.

The functions run once per UAV per tick, so they work on plain floats and
allocate only the value they return.  Their operation order is part of the
determinism contract: each float comes from the same operations, in the same
order, as the vector formula it implements (``p + v*dt`` is ``(p.x + v.x*dt)``
and so on, per axis), so a trajectory and every trace hash built on it are
bit-identical to the vector formulation.  A rewrite must keep that order;
``tests/test_mobility.py`` holds the vector version as its oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Vec3:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def distance_to(self, other: "Vec3") -> float:
        # ``(self - other).norm()`` without the Vec3 it allocates: the same
        # operations in the same order, so the float is bit-identical.
        dx = self.x - other.x
        dy = self.y - other.y
        dz = self.z - other.z
        return math.sqrt(dx * dx + dy * dy + dz * dz)


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


@dataclass(frozen=True)
class MobilityConfig:
    """Motion limits; the area they act in is the scenario's."""

    v_max: float = 50.0
    a_max: float = 5.0
    dt: float = 0.1
    waypoint_arrival_radius: float = 50.0

    def __post_init__(self) -> None:
        limits = (self.v_max, self.a_max, self.dt, self.waypoint_arrival_radius)
        if not all(0 < value for value in limits):
            raise ValueError("mobility parameters must be > 0")


@dataclass(frozen=True)
class KinematicState:
    position: Vec3
    velocity: Vec3 = ZERO


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


def step(state: KinematicState, accel: Vec3, cfg: MobilityConfig, area: AreaBounds) -> KinematicState:
    """Advance one dt under the steering command ``accel``: constant-
    acceleration update, speed clamp, reflection at ``area``'s bounds.

    Only the true state moves; the simulator derives the reported position
    from it with ``apply_spoofing``.
    """
    dt = cfg.dt
    p, v = state.position, state.velocity
    ax, ay, az = accel.x, accel.y, accel.z
    # position + velocity*dt + acceleration*(0.5*dt*dt)
    h = 0.5 * dt * dt
    x = p.x + v.x * dt + ax * h
    y = p.y + v.y * dt + ay * h
    z = p.z + v.z * dt + az * h
    # velocity + acceleration*dt, clamped to v_max
    vx = v.x + ax * dt
    vy = v.y + ay * dt
    vz = v.z + az * dt
    n = math.sqrt(vx * vx + vy * vy + vz * vz)
    if not (n <= cfg.v_max or n == 0.0):
        k = cfg.v_max / n
        vx, vy, vz = vx * k, vy * k, vz * k

    x, vx = _reflect(x, vx, area.x_min, area.x_max)
    y, vy = _reflect(y, vy, area.y_min, area.y_max)
    z, vz = _reflect(z, vz, area.z_min, area.z_max)

    return KinematicState(Vec3(x, y, z), Vec3(vx, vy, vz))


def sample_waypoint(rng: random.Random, area: AreaBounds) -> Vec3:
    """Uniform point inside the box, drawn x, then y, then z; identical
    seeds yield identical draws.  Deployment and waypoint resampling both
    draw from it."""
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
    p, v = state.position, state.velocity
    tx = waypoint.x - p.x
    ty = waypoint.y - p.y
    tz = waypoint.z - p.z
    dist = math.sqrt(tx * tx + ty * ty + tz * tz)
    if dist <= cfg.waypoint_arrival_radius:
        # The one return of the ZERO object itself: the tick tests ``is ZERO``
        # for arrival, while a zero correction away from the waypoint is a
        # new Vec3 that only compares equal to it.
        return ZERO
    stop_speed = math.sqrt(2.0 * cfg.a_max * dist)
    k = min(cfg.v_max, stop_speed) / dist
    # (to_target*k - velocity) * (1/dt), clamped to a_max
    inv_dt = 1.0 / cfg.dt
    cx = (tx * k - v.x) * inv_dt
    cy = (ty * k - v.y) * inv_dt
    cz = (tz * k - v.z) * inv_dt
    n = math.sqrt(cx * cx + cy * cy + cz * cz)
    if not (n <= cfg.a_max or n == 0.0):
        k = cfg.a_max / n
        cx, cy, cz = cx * k, cy * k, cz * k
    return Vec3(cx, cy, cz)


def apply_spoofing(position: Vec3, offset: Vec3) -> Vec3:
    """The reported position: the true ``position`` shifted by ``offset``."""
    return Vec3(position.x + offset.x, position.y + offset.y, position.z + offset.z)
