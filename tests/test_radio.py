import math
import random
from dataclasses import asdict, fields, replace

import pytest

from uavchain.consensus import ProtocolKind
from uavchain.faults import FaultPlan
from uavchain.harness import build_desk_scenario, build_hurricane_scenario
from uavchain.radio import (
    MIN_LINK_DISTANCE_M,
    LinkBudgetParams,
    NodeServiceProfile,
    PROPAGATION_SPEED_M_S,
    SPEED_OF_LIGHT_M_S,
    ZeroDistance,
    capacity,
    dbi_to_linear,
    link_capacity,
    snr,
)
from uavchain.simnet import run

from conftest import link_deliveries, mini_scenario

# Hand evaluation of the free-space SNR with the reference radio constants
# (1 W, 6 dBi both ends, 915 MHz, 1e-13 W noise) at 1 km.
GOLDEN_SNR_1KM = 107746.0458019145

REFERENCE_RADIO = LinkBudgetParams()  # defaults already mirror the reference setup


class TestDbiToLinear:
    def test_zero_dbi_is_unity(self):
        assert dbi_to_linear(0.0) == 1.0

    def test_ten_dbi_is_ten(self):
        assert dbi_to_linear(10.0) == pytest.approx(10.0)

    def test_six_dbi(self):
        assert dbi_to_linear(6.0) == pytest.approx(3.9810717055349722, rel=1e-12)


class TestSnr:
    def test_zero_power_zero_snr(self):
        params = LinkBudgetParams(tx_power_w=1e-300)
        assert snr(params, 1000.0) == pytest.approx(0.0, abs=1e-250)

    def test_inverse_square_law(self):
        rng = random.Random(1)
        for _ in range(50):
            d = rng.uniform(1.0, 30_000.0)
            params = LinkBudgetParams(
                tx_power_w=rng.uniform(0.1, 10),
                noise_power_w=rng.uniform(1e-14, 1e-10),
            )
            assert snr(params, 2 * d) == pytest.approx(snr(params, d) / 4.0, rel=1e-12)

    def test_golden_value_at_1km(self):
        assert snr(REFERENCE_RADIO, 1000.0) == pytest.approx(GOLDEN_SNR_1KM, rel=1e-12)

    def test_zero_distance_raises(self):
        with pytest.raises(ZeroDistance):
            snr(REFERENCE_RADIO, 0.0)
        with pytest.raises(ZeroDistance):
            snr(REFERENCE_RADIO, -5.0)

    def test_halving_noise_doubles_snr(self):
        quiet = LinkBudgetParams(noise_power_w=0.5e-13)
        assert snr(quiet, 777.0) == pytest.approx(2 * snr(REFERENCE_RADIO, 777.0), rel=1e-12)

    def test_monotone_decreasing_in_distance(self):
        distances = [10.0, 100.0, 1_000.0, 10_000.0, 30_000.0]
        values = [snr(REFERENCE_RADIO, d) for d in distances]
        assert all(a > b for a, b in zip(values, values[1:]))


def oracle_snr(params, distance_m):
    """The link budget written out in full for every call: the reference
    the once-per-params constants of ``snr`` must reproduce exactly."""
    gains = 10.0 ** (params.tx_gain_dbi / 10.0) * 10.0 ** (params.rx_gain_dbi / 10.0)
    lam = SPEED_OF_LIGHT_M_S / params.carrier_hz
    numerator = params.tx_power_w * gains * lam * lam
    denominator = (4.0 * math.pi * distance_m) ** 2 * params.noise_power_w
    return numerator / denominator


def oracle_link_capacity(params, distance_m):
    return params.bandwidth_hz * math.log2(1.0 + oracle_snr(params, distance_m))


def log_sweep(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


class TestAgainstFullFormula:
    SWEEP = log_sweep(MIN_LINK_DISTANCE_M, 50_000.0, 4_001)

    @pytest.mark.parametrize(
        "params",
        [LinkBudgetParams(), build_hurricane_scenario().radio, build_desk_scenario().radio],
        ids=["default", "hurricane", "desk"],
    )
    def test_sweep_is_exact(self, params):
        assert self.SWEEP[0] == MIN_LINK_DISTANCE_M and self.SWEEP[-1] == pytest.approx(50_000.0)
        for d in self.SWEEP:
            assert snr(params, d) == oracle_snr(params, d)
            assert link_capacity(params, d) == oracle_link_capacity(params, d)

    def test_random_params_are_exact(self):
        rng = random.Random(3)
        for _ in range(300):
            params = LinkBudgetParams(
                tx_power_w=rng.uniform(1e-3, 20.0),
                tx_gain_dbi=rng.uniform(-5.0, 20.0),
                rx_gain_dbi=rng.uniform(-5.0, 20.0),
                carrier_hz=rng.uniform(1e8, 6e9),
                noise_power_w=rng.uniform(1e-15, 1e-9),
                bandwidth_hz=rng.uniform(1e5, 1e8),
            )
            d = rng.uniform(MIN_LINK_DISTANCE_M, 50_000.0)
            assert snr(params, d) == oracle_snr(params, d)
            assert link_capacity(params, d) == oracle_link_capacity(params, d)

    def test_replace_recomputes_the_constants(self):
        params = replace(build_hurricane_scenario().radio, tx_power_w=3.0, rx_gain_dbi=2.0)
        assert snr(params, 1234.5) == oracle_snr(params, 1234.5)

    def test_fields_equality_and_repr_unchanged(self):
        names = [f.name for f in fields(LinkBudgetParams)]
        assert names == ["tx_power_w", "tx_gain_dbi", "rx_gain_dbi", "carrier_hz", "noise_power_w", "bandwidth_hz"]
        a, b = LinkBudgetParams(noise_power_w=2e-11), LinkBudgetParams(noise_power_w=2e-11)
        assert a == b and hash(a) == hash(b) and a != LinkBudgetParams()
        assert asdict(a) == dict(zip(names, (1.0, 6.0, 6.0, 915e6, 2e-11, 10e6)))
        assert repr(a) == (
            "LinkBudgetParams(tx_power_w=1.0, tx_gain_dbi=6.0, rx_gain_dbi=6.0, "
            "carrier_hz=915000000.0, noise_power_w=2e-11, bandwidth_hz=10000000.0)"
        )


class TestCapacity:
    def test_unit_snr(self):
        assert capacity(10e6, 1.0) == pytest.approx(1e7)

    def test_zero_snr(self):
        assert capacity(10e6, 0.0) == 0.0

    def test_snr_three(self):
        assert capacity(10e6, 3.0) == pytest.approx(2e7)

    def test_monotone_in_snr(self):
        values = [capacity(10e6, s) for s in (0.1, 1.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


# The 10 ms processing and 1000 msg/s (1 ms per queued message) presets.
CLUSTER_SERVICE = NodeServiceProfile(proc_latency_s=0.010, service_rate_msgs_per_s=1000.0)
# No processing and an idle queue: latency is transmission + propagation.
NO_PROCESSING = NodeServiceProfile(proc_latency_s=0.0, service_rate_msgs_per_s=1000.0)


class TestLatencyComponents:
    """A delivered message's latency, as the simulator's transport produces
    it, against its four components.  Trace latencies are rounded to 1e-9 s."""

    def test_cluster_preset_totals(self):
        # Component presets: 10 ms processing, 10 ms transmission, 0.3 ms
        # propagation, and 1 ms queuing for a second message that arrives
        # with the first.
        distance = 0.0003 * PROPAGATION_SPEED_M_S
        bits = round(link_capacity(REFERENCE_RADIO, distance) * 0.010)
        (first, second), queue = link_deliveries(distance, [bits, bits], CLUSTER_SERVICE)
        assert queue.total_wait_s == pytest.approx(0.001, rel=1e-9)
        assert first == pytest.approx(0.0203, rel=1e-6)
        assert second - first == pytest.approx(0.001, abs=1e-9)
        assert second == pytest.approx(0.0213, rel=1e-4)

    def test_propagation_3km_is_ten_microseconds(self):
        # A zero-size message with no processing is propagation only.
        assert link_deliveries(3_000.0, [0], NO_PROCESSING)[0] == [10e-6]

    def test_trans_is_bits_over_capacity(self):
        (latency,), _ = link_deliveries(1_000.0, [100_000], NO_PROCESSING)
        trans = latency - 1_000.0 / PROPAGATION_SPEED_M_S
        assert trans == pytest.approx(100_000 / link_capacity(REFERENCE_RADIO, 1_000.0), abs=1e-9)

    def test_total_is_exact_sum(self):
        # Two messages sent at once: the first finds the queue idle, so the
        # second's measured wait is all the queue's wait.
        rng = random.Random(7)
        for _ in range(50):
            sizes = sorted(rng.randint(1, 10**7) for _ in range(2))
            d = rng.uniform(1, 30_000)
            service = NodeServiceProfile(
                proc_latency_s=rng.uniform(0, 0.05),
                service_rate_msgs_per_s=rng.uniform(10, 10_000),
            )
            latencies, queue = link_deliveries(d, sizes, service)
            assert queue.served == len(latencies) == 2
            cap = link_capacity(REFERENCE_RADIO, d)
            for latency, bits, wait in zip(latencies, sizes, (0.0, queue.total_wait_s)):
                parts = service.proc_latency_s + wait + bits / cap + d / PROPAGATION_SPEED_M_S
                assert abs(latency - parts) <= 1e-9

    def test_trans_monotone_in_bits(self):
        sizes = [10, 100, 1_000, 10_000]
        values = [link_deliveries(500.0, [b], NO_PROCESSING)[0][0] for b in sizes]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_capacity_link_drops_every_send(self):
        # A transmitter too weak to carry a bit: the link drops every message.
        scn = replace(mini_scenario(4, duration=1.0, trace_detail="full"), radio=LinkBudgetParams(tx_power_w=1e-300))
        result = run(scn, FaultPlan(), ProtocolKind.HYBRID, 1)
        counters = result.counters
        assert counters["sent"] > 0
        assert counters["dropped_zero_capacity"] == counters["sent"]
        assert counters["delivered"] == 0 and counters["blocks_committed"] == 0
        drops = result.trace.by_kind("drop")
        assert len(drops) == counters["sent"]
        assert {r["reason"] for r in drops} == {"zero_capacity"}

    def test_prop_below_area_bound(self):
        # Worst-case in-area distance is the 25 km box diagonal.
        diagonal = 25_000.0 * math.sqrt(2.0)
        (latency,), _ = link_deliveries(diagonal, [0], NO_PROCESSING)
        assert latency < 0.12e-3
