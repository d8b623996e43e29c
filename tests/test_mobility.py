import hashlib
import math
import random
from collections import Counter

import pytest

from uavchain.mobility import (
    AreaBounds,
    KinematicState,
    MobilityConfig,
    Vec3,
    ZERO,
    apply_spoofing,
    sample_waypoint,
    steer_to_waypoint,
    step,
)

CFG = MobilityConfig()
# 25 km x 25 km urban area with a [50, 500] m altitude band.
AREA = AreaBounds(0.0, 25_000.0, 0.0, 25_000.0, 50.0, 500.0)


def contains(area, p, tol=1e-9):
    return (
        area.x_min - tol <= p.x <= area.x_max + tol
        and area.y_min - tol <= p.y <= area.y_max + tol
        and area.z_min - tol <= p.z <= area.z_max + tol
    )


def state_at(x, y, z, vx=0.0, vy=0.0, vz=0.0):
    return KinematicState(position=Vec3(x, y, z), velocity=Vec3(vx, vy, vz))


class TestVec3:
    def test_distance_to_is_bit_identical_to_difference_norm(self):
        rng = random.Random(5)

        def point():
            return Vec3(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4), rng.uniform(0.0, 500.0))

        for i in range(3000):
            a = point()
            b = a if i % 10 == 0 else point()  # coincident points too
            spoof = Vec3(rng.uniform(-5e3, 5e3), rng.uniform(-5e3, 5e3), rng.uniform(-50.0, 50.0))
            ra = a + spoof if i % 3 == 0 else a
            rb = b + spoof if i % 5 == 0 else b
            assert ra.distance_to(rb) == (ra - rb).norm()


class TestStep:
    def test_constant_velocity(self):
        cfg = MobilityConfig(dt=1.0)
        out = step(state_at(0, 0, 100, vx=10), ZERO, cfg, AREA)
        assert out.position == Vec3(10, 0, 100)

    def test_quadratic_acceleration_term(self):
        cfg = MobilityConfig(dt=1.0)
        out = step(state_at(0, 0, 100), Vec3(2, 0, 0), cfg, AREA)
        assert out.position == Vec3(1, 0, 100)
        assert out.velocity == Vec3(2, 0, 0)

    def test_speed_clamped_to_v_max(self):
        cfg = MobilityConfig(dt=1.0)
        out = step(state_at(100, 100, 100, vx=49), Vec3(20, 0, 0), cfg, AREA)
        assert out.velocity.norm() == pytest.approx(cfg.v_max)

    def test_clamp_preserves_direction(self):
        cfg = MobilityConfig(dt=1.0)
        out = step(state_at(100, 100, 100, vx=40, vy=40), ZERO, cfg, AREA)
        assert out.velocity.x == pytest.approx(out.velocity.y)

    def test_boundary_reflection(self):
        cfg = MobilityConfig(dt=1.0)
        out = step(state_at(24_999, 100, 100, vx=10), ZERO, cfg, AREA)
        assert out.position.x == pytest.approx(2 * 25_000 - 25_009)
        assert out.velocity.x < 0

    def test_containment_over_many_steps(self):
        rng = random.Random(3)
        cfg = MobilityConfig(dt=0.5)
        state = state_at(24_900, 24_900, 480, vx=45, vy=30, vz=20)
        accel = Vec3(3, -2, 1)
        for _ in range(2_000):
            state = step(state, accel, cfg, AREA)
            assert contains(AREA, state.position)

    def test_exact_kinematics_against_closed_form(self):
        # Well inside the area and below v_max, neither a boundary nor the
        # speed clamp acts, and the discrete update telescopes to
        # p0 + v0*T + a*T^2/2 exactly.
        cfg = MobilityConfig(dt=0.1)
        p0, v0, a = Vec3(12_000.0, 12_000.0, 200.0), Vec3(4.0, 0.5, -1.0), Vec3(0.02, -0.01, 0.005)
        state = KinematicState(position=p0, velocity=v0)
        n = 1_000
        for _ in range(n):
            state = step(state, a, cfg, AREA)
        t = n * cfg.dt
        for axis in ("x", "y", "z"):
            expected = (
                getattr(p0, axis) + getattr(v0, axis) * t + 0.5 * getattr(a, axis) * t * t
            )
            assert getattr(state.position, axis) == pytest.approx(expected, rel=1e-9)

    def test_speed_bound_property(self):
        rng = random.Random(11)
        cfg = MobilityConfig(dt=0.1)
        for _ in range(200):
            state = state_at(
                rng.uniform(0, 25_000), rng.uniform(0, 25_000), rng.uniform(50, 500),
                vx=rng.uniform(-50, 50), vy=rng.uniform(-50, 50), vz=rng.uniform(-10, 10),
            )
            accel = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-2, 2))
            for _ in range(50):
                state = step(state, accel, cfg, AREA)
                assert state.velocity.norm() <= cfg.v_max + 1e-9


class TestSampleWaypoint:
    def test_inside_bounds(self):
        rng = random.Random(0)
        for _ in range(500):
            p = sample_waypoint(rng, AREA)
            assert contains(AREA, p)

    def test_equal_seeds_equal_sequences(self):
        a, b = random.Random(99), random.Random(99)
        seq_a = [sample_waypoint(a, AREA) for _ in range(50)]
        seq_b = [sample_waypoint(b, AREA) for _ in range(50)]
        assert seq_a == seq_b

    def test_uniformity_ks(self):
        # Empirical CDF within the 1% Kolmogorov-Smirnov band of uniform,
        # checked per axis with scipy as the independent statistics routine.
        from scipy import stats

        rng = random.Random(7)
        n = 10_000
        samples = [sample_waypoint(rng, AREA) for _ in range(n)]
        crit = 1.628 / math.sqrt(n)  # 1% critical value, asymptotic form
        for axis, lo, hi in (("x", 0, 25_000), ("y", 0, 25_000), ("z", 50, 500)):
            values = [(getattr(p, axis) - lo) / (hi - lo) for p in samples]
            d_stat = stats.kstest(values, "uniform").statistic
            assert d_stat < crit


class TestSteerToWaypoint:
    def test_zero_at_waypoint(self):
        state = state_at(100, 100, 100)
        assert steer_to_waypoint(state, Vec3(100, 110, 100), CFG) == ZERO

    def test_full_acceleration_toward_distant_target_at_rest(self):
        state = state_at(0, 0, 100)
        accel = steer_to_waypoint(state, Vec3(10_000, 0, 100), CFG)
        assert accel.x == pytest.approx(CFG.a_max)
        assert accel.y == pytest.approx(0.0)
        assert accel.z == pytest.approx(0.0)

    def test_magnitude_never_exceeds_a_max(self):
        rng = random.Random(5)
        for _ in range(200):
            state = state_at(
                rng.uniform(0, 25_000), rng.uniform(0, 25_000), rng.uniform(50, 500),
                vx=rng.uniform(-50, 50), vy=rng.uniform(-50, 50),
            )
            target = Vec3(rng.uniform(0, 25_000), rng.uniform(0, 25_000), rng.uniform(50, 500))
            assert steer_to_waypoint(state, target, CFG).norm() <= CFG.a_max + 1e-9

    def test_closed_loop_distance_envelope(self):
        # After the initial transient the distance to the waypoint must be
        # non-increasing until arrival.
        cfg = MobilityConfig(dt=0.1)
        state = state_at(1_000, 1_000, 100, vx=-30, vy=15)
        target = Vec3(4_000, 3_500, 200)
        distances = []
        for _ in range(1_000):
            accel = steer_to_waypoint(state, target, cfg)
            state = step(state, accel, cfg, AREA)
            distances.append(state.position.distance_to(target))
            if distances[-1] <= cfg.waypoint_arrival_radius:
                break
        transient = 150
        tail = distances[transient:]
        assert tail, "trajectory never settled"
        assert all(b <= a + 1e-6 for a, b in zip(tail, tail[1:]))
        assert distances[-1] <= cfg.waypoint_arrival_radius


class TestSpoofing:
    def test_offset_shifts_reported_only(self):
        assert apply_spoofing(Vec3(500, 500, 100), Vec3(100, 0, 0)) == Vec3(600, 500, 100)

    def test_zero_offset_identity(self):
        position = Vec3(500, 500, 100)
        assert apply_spoofing(position, ZERO) == position


# --- Bit-identity oracle ------------------------------------------------------
#
# The Vec3 formulation of the kinematics, kept as the reference the
# float-level functions in ``uavchain.mobility`` must match bit for bit.
# ``hits`` counts the branches a case takes, so the random drive below can
# show that it reaches each of them.


def _scale(v, k):
    return Vec3(v.x * k, v.y * k, v.z * k)


def _clamped(v, max_norm, hits, branch):
    n = v.norm()
    if n <= max_norm or n == 0.0:
        return v
    hits[branch] += 1
    return _scale(v, max_norm / n)


def _oracle_reflect(value, velocity, lo, hi, hits):
    bounces = 0
    while value < lo or value > hi:
        bounces += 1
        if value < lo:
            value = 2.0 * lo - value
            velocity = -velocity
        else:
            value = 2.0 * hi - value
            velocity = -velocity
    if bounces:
        hits["reflection"] += 1
    if bounces > 1:
        hits["multi_bound"] += 1
    return value, velocity


def oracle_step(state, accel, cfg, area, hits):
    dt = cfg.dt
    pos = state.position + _scale(state.velocity, dt) + _scale(accel, 0.5 * dt * dt)
    vel = _clamped(state.velocity + _scale(accel, dt), cfg.v_max, hits, "speed_clamp")
    x, vx = _oracle_reflect(pos.x, vel.x, area.x_min, area.x_max, hits)
    y, vy = _oracle_reflect(pos.y, vel.y, area.y_min, area.y_max, hits)
    z, vz = _oracle_reflect(pos.z, vel.z, area.z_min, area.z_max, hits)
    return KinematicState(position=Vec3(x, y, z), velocity=Vec3(vx, vy, vz))


def oracle_steer(state, waypoint, cfg, hits):
    to_target = waypoint - state.position
    dist = to_target.norm()
    if dist <= cfg.waypoint_arrival_radius:
        hits["arrival"] += 1
        return ZERO
    stop_speed = math.sqrt(2.0 * cfg.a_max * dist)
    desired = _scale(to_target, min(cfg.v_max, stop_speed) / dist)
    return _clamped(_scale(desired - state.velocity, 1.0 / cfg.dt), cfg.a_max, hits, "accel_clamp")


def oracle_apply_spoofing(position, offset, hits):
    if offset != ZERO:
        hits["spoof_offset"] += 1
    return position + offset


def vec_hex(v):
    return (v.x.hex(), v.y.hex(), v.z.hex())


def state_hex(s):
    return vec_hex(s.position) + vec_hex(s.velocity)


SMALL_BOX = AreaBounds(0.0, 10.0, -5.0, 5.0, 50.0, 56.0)
ORACLE_CFGS = (
    MobilityConfig(v_max=6.0, a_max=2.0, dt=0.5, waypoint_arrival_radius=1.5),
    MobilityConfig(v_max=40.0, a_max=9.0, dt=1.0, waypoint_arrival_radius=0.25),
    MobilityConfig(v_max=3.0, a_max=30.0, dt=0.1, waypoint_arrival_radius=4.0),
)


def _component(rng, scale):
    r = rng.random()
    if r < 0.05:
        return 0.0
    if r < 0.10:
        return -0.0
    return rng.uniform(-scale, scale)


def _random_vec(rng, scale):
    return Vec3(_component(rng, scale), _component(rng, scale), _component(rng, scale))


def _random_point(rng, area, margin):
    return Vec3(
        rng.uniform(area.x_min - margin, area.x_max + margin),
        rng.uniform(area.y_min - margin, area.y_max + margin),
        rng.uniform(area.z_min - margin, area.z_max + margin),
    )


def _random_case(rng):
    cfg = rng.choice(ORACLE_CFGS)
    area = SMALL_BOX
    position = _random_point(rng, area, 0.0 if rng.random() < 0.8 else 3.0)
    if rng.random() < 0.3:
        waypoint = position + _random_vec(rng, cfg.waypoint_arrival_radius)
    else:
        waypoint = _random_point(rng, area, 0.0)
    velocity = _random_vec(rng, cfg.v_max * rng.choice((0.2, 1.0, 3.0, 12.0)))
    if rng.random() < 0.02 and waypoint.distance_to(position) > cfg.waypoint_arrival_radius:
        # The velocity the steering law asks for: a zero correction that is
        # not an arrival.
        dist = (waypoint - position).norm()
        speed = min(cfg.v_max, math.sqrt(2.0 * cfg.a_max * dist))
        velocity = _scale(waypoint - position, speed / dist)
    accel = _random_vec(rng, cfg.a_max * rng.choice((0.5, 3.0)))
    offset = ZERO if rng.random() < 0.3 else _random_vec(rng, 50.0)
    return cfg, KinematicState(position, velocity), accel, waypoint, offset


class TestBitIdentityWithVec3Oracle:
    CASES = 12_000

    def test_random_cases_match_oracle_bit_for_bit(self):
        rng = random.Random(20_241)
        hits = Counter()
        zero_corrections = 0
        for _ in range(self.CASES):
            cfg, state, accel, waypoint, offset = _random_case(rng)

            expected = oracle_steer(state, waypoint, cfg, hits)
            command = steer_to_waypoint(state, waypoint, cfg)
            assert vec_hex(command) == vec_hex(expected)
            # The tick resamples exactly when the command is the ZERO object:
            # only an arrival returns it, a zero correction returns a new Vec3.
            arrived = state.position.distance_to(waypoint) <= cfg.waypoint_arrival_radius
            assert (command is ZERO) == arrived
            if not arrived and command == ZERO:
                zero_corrections += 1

            assert state_hex(step(state, accel, cfg, SMALL_BOX)) == state_hex(
                oracle_step(state, accel, cfg, SMALL_BOX, hits)
            )
            assert vec_hex(apply_spoofing(state.position, offset)) == vec_hex(
                oracle_apply_spoofing(state.position, offset, hits)
            )
        for branch in ("reflection", "multi_bound", "speed_clamp", "accel_clamp", "arrival", "spoof_offset"):
            assert hits[branch] >= 50, (branch, hits)
        assert zero_corrections > 0

    def test_signed_zeros_survive(self):
        # 0.0 + -0.0 is 0.0 but -0.0 + -0.0 is -0.0: the sign of a zero is
        # part of the result, so it must come out of the same operations.
        state = KinematicState(Vec3(-0.0, 0.0, 50.0), Vec3(-0.0, -0.0, 0.0))
        accel = Vec3(-0.0, 0.0, -0.0)
        area = AreaBounds(-1.0, 1.0, -1.0, 1.0, 40.0, 60.0)
        hits = Counter()
        assert state_hex(step(state, accel, CFG, area)) == state_hex(oracle_step(state, accel, CFG, area, hits))
        for offset in (ZERO, Vec3(-0.0, -0.0, -0.0)):
            assert vec_hex(apply_spoofing(state.position, offset)) == vec_hex(
                oracle_apply_spoofing(state.position, offset, hits)
            )


def trajectory_digest(n_ticks=20_000):
    """SHA-256 over every float of a long closed-loop run in a small box.

    The loop is the simulator's tick: steer, resample the waypoint on
    arrival, step, then apply the tick's spoofing offset.
    """
    rng = random.Random(77)
    area = AreaBounds(0.0, 300.0, 0.0, 200.0, 50.0, 120.0)
    cfg = MobilityConfig(v_max=25.0, a_max=6.0, dt=0.2, waypoint_arrival_radius=8.0)
    state = KinematicState(Vec3(150.0, 100.0, 80.0), Vec3(20.0, -20.0, 5.0))
    waypoint = sample_waypoint(rng, area)
    offset = ZERO
    digest = hashlib.sha256()
    for tick in range(n_ticks):
        accel = steer_to_waypoint(state, waypoint, cfg)
        if accel == ZERO and state.position.distance_to(waypoint) <= cfg.waypoint_arrival_radius:
            waypoint = sample_waypoint(rng, area)
            accel = steer_to_waypoint(state, waypoint, cfg)
        state = step(state, accel, cfg, area)
        if tick % 500 == 0:
            offset = ZERO if offset != ZERO else Vec3(rng.uniform(-90, 90), rng.uniform(-90, 90), 0.0)
        reported = apply_spoofing(state.position, offset)
        line = state_hex(state) + vec_hex(accel) + vec_hex(reported) + vec_hex(waypoint)
        digest.update(" ".join(line).encode())
    return digest.hexdigest()


# Recorded with the Vec3 implementation, before the float-level rewrite.
TRAJECTORY_SHA256 = "69825e030f1a002c15b5263e94daf8918ca2aad7aeb7cceede4d6242ca9f8175"


def test_long_trajectory_digest_is_pinned():
    assert trajectory_digest() == TRAJECTORY_SHA256
