import math
import random

import pytest

from uavchain.mobility import (
    DEFAULT_AREA,
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


def state_at(x, y, z, vx=0.0, vy=0.0, vz=0.0, ax=0.0, ay=0.0, az=0.0):
    return KinematicState(
        position=Vec3(x, y, z),
        velocity=Vec3(vx, vy, vz),
        acceleration=Vec3(ax, ay, az),
    )


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
        out = step(state_at(0, 0, 100, vx=10), cfg)
        assert out.position == Vec3(10, 0, 100)

    def test_quadratic_acceleration_term(self):
        cfg = MobilityConfig(dt=1.0)
        out = step(state_at(0, 0, 100, ax=2), cfg)
        assert out.position == Vec3(1, 0, 100)
        assert out.velocity == Vec3(2, 0, 0)

    def test_speed_clamped_to_v_max(self):
        cfg = MobilityConfig(dt=1.0)
        out = step(state_at(100, 100, 100, vx=49, ax=20), cfg)
        assert out.velocity.norm() == pytest.approx(cfg.v_max)

    def test_clamp_preserves_direction(self):
        cfg = MobilityConfig(dt=1.0)
        out = step(state_at(100, 100, 100, vx=40, vy=40), cfg)
        assert out.velocity.x == pytest.approx(out.velocity.y)

    def test_boundary_reflection(self):
        cfg = MobilityConfig(dt=1.0)
        out = step(state_at(24_999, 100, 100, vx=10), cfg)
        assert out.position.x == pytest.approx(2 * 25_000 - 25_009)
        assert out.velocity.x < 0

    def test_containment_over_many_steps(self):
        rng = random.Random(3)
        cfg = MobilityConfig(dt=0.5)
        state = state_at(24_900, 24_900, 480, vx=45, vy=30, vz=20, ax=3, ay=-2, az=1)
        for _ in range(2_000):
            state = step(state, cfg)
            assert cfg.area.contains(state.position)

    def test_exact_kinematics_against_closed_form(self):
        # Well inside the area and below v_max, neither a boundary nor the
        # speed clamp acts, and the discrete update telescopes to
        # p0 + v0*T + a*T^2/2 exactly.
        cfg = MobilityConfig(dt=0.1)
        p0, v0, a = Vec3(12_000.0, 12_000.0, 200.0), Vec3(4.0, 0.5, -1.0), Vec3(0.02, -0.01, 0.005)
        state = KinematicState(position=p0, velocity=v0, acceleration=a)
        n = 1_000
        for _ in range(n):
            state = step(state, cfg)
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
                ax=rng.uniform(-5, 5), ay=rng.uniform(-5, 5), az=rng.uniform(-2, 2),
            )
            for _ in range(50):
                state = step(state, cfg)
                assert state.velocity.norm() <= cfg.v_max + 1e-9


class TestSampleWaypoint:
    def test_inside_bounds(self):
        rng = random.Random(0)
        for _ in range(500):
            p = sample_waypoint(rng, DEFAULT_AREA)
            assert DEFAULT_AREA.contains(p)

    def test_equal_seeds_equal_sequences(self):
        a, b = random.Random(99), random.Random(99)
        seq_a = [sample_waypoint(a, DEFAULT_AREA) for _ in range(50)]
        seq_b = [sample_waypoint(b, DEFAULT_AREA) for _ in range(50)]
        assert seq_a == seq_b

    def test_uniformity_ks(self):
        # Empirical CDF within the 1% Kolmogorov-Smirnov band of uniform,
        # checked per axis with scipy as the independent statistics routine.
        from scipy import stats

        rng = random.Random(7)
        n = 10_000
        samples = [sample_waypoint(rng, DEFAULT_AREA) for _ in range(n)]
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
            from dataclasses import replace

            state = replace(state, acceleration=accel)
            state = step(state, cfg)
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
        state = state_at(500, 500, 100)
        spoofed = apply_spoofing(state, Vec3(100, 0, 0))
        assert spoofed.reported_position == Vec3(600, 500, 100)
        assert spoofed.position == Vec3(500, 500, 100)

    def test_zero_offset_identity(self):
        state = state_at(500, 500, 100)
        assert apply_spoofing(state, ZERO).reported_position == state.position

    def test_drift_persists_through_step(self):
        cfg = MobilityConfig(dt=1.0)
        state = apply_spoofing(state_at(500, 500, 100, vx=10), Vec3(100, 0, 0))
        stepped = step(state, cfg)
        assert stepped.position == Vec3(510, 500, 100)
        assert stepped.reported_position == Vec3(610, 500, 100)
