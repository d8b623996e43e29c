"""Link SNR, Shannon capacity, and the four-component message latency model.

Pure functions over value types.  Conventions:

* ``noise_power_w`` is total in-band noise power in watts (default 1e-13 W);
  the free-space SNR divides by it directly rather than by a spectral
  density times bandwidth, which keeps the link budget dimensionally
  consistent with a single noise knob.
* Per-message transmission latency is ``msg_bits / capacity``; the
  single-bit case reduces to the reciprocal-capacity form.
* Queue latency has two modes: the analytic estimate here
  (``queue_len / service_rate``, a steady-state approximation used for
  reports) and the measured FIFO wait tracked by the network simulator.
* Callers must clamp co-located UAVs to a 1 m separation floor
  (``MIN_LINK_DISTANCE_M``) before evaluating the far-field SNR formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Carrier wavelength uses the 4-digit light speed; propagation delay uses the
# round 3e8 figure so the worked latency constants (10 us at 3 km) hold
# exactly.  The <0.07% disagreement is far below every model tolerance.
SPEED_OF_LIGHT_M_S = 2.998e8
PROPAGATION_SPEED_M_S = 3.0e8

# Far-field floor: the inverse-square law diverges as separation -> 0.
MIN_LINK_DISTANCE_M = 1.0


class ZeroDistance(ValueError):
    """Degenerate geometry: non-positive link distance."""


class ZeroCapacity(ValueError):
    """Unusable link: channel capacity is zero for this SNR/bandwidth."""


@dataclass(frozen=True)
class LinkBudgetParams:
    """Radio constants of the free-space link budget.

    Defaults mirror the reference deployment: 915 MHz carrier, 1 W transmit
    power, 6 dBi antenna gains on both ends, 10 MHz bandwidth.
    """

    tx_power_w: float = 1.0
    tx_gain_dbi: float = 6.0
    rx_gain_dbi: float = 6.0
    carrier_hz: float = 915e6
    noise_power_w: float = 1e-13
    bandwidth_hz: float = 10e6

    def __post_init__(self) -> None:
        for name in ("tx_power_w", "carrier_hz", "noise_power_w", "bandwidth_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_hz


@dataclass(frozen=True)
class NodeServiceProfile:
    """Per-node-class processing latency and inbound queue service rate."""

    proc_latency_s: float = 0.010
    service_rate_msgs_per_s: float = 1000.0

    def __post_init__(self) -> None:
        if self.service_rate_msgs_per_s <= 0:
            raise ValueError("service_rate_msgs_per_s must be > 0")
        if self.proc_latency_s < 0:
            raise ValueError("proc_latency_s must be >= 0")


@dataclass(frozen=True)
class LatencyBreakdown:
    proc_s: float
    queue_s: float
    trans_s: float
    prop_s: float
    total_s: float


def dbi_to_linear(gain_dbi: float) -> float:
    return 10.0 ** (gain_dbi / 10.0)


def snr(params: LinkBudgetParams, distance_m: float) -> float:
    """Received signal-to-noise ratio over a free-space link (linear)."""
    if distance_m <= 0:
        raise ZeroDistance(f"link distance must be > 0, got {distance_m}")
    gains = dbi_to_linear(params.tx_gain_dbi) * dbi_to_linear(params.rx_gain_dbi)
    lam = params.wavelength_m
    numerator = params.tx_power_w * gains * lam * lam
    denominator = (4.0 * math.pi * distance_m) ** 2 * params.noise_power_w
    return numerator / denominator


def capacity(bandwidth_hz: float, snr_ratio: float) -> float:
    """Shannon-Hartley channel capacity in bits per second."""
    if bandwidth_hz < 0 or snr_ratio < 0:
        raise ValueError("bandwidth and SNR must be non-negative")
    return bandwidth_hz * math.log2(1.0 + snr_ratio)


def link_capacity(params: LinkBudgetParams, distance_m: float) -> float:
    return capacity(params.bandwidth_hz, snr(params, distance_m))


def latency_components(
    msg_bits: int,
    distance_m: float,
    queue_len_msgs: float,
    params: LinkBudgetParams,
    service: NodeServiceProfile,
) -> LatencyBreakdown:
    """Per-message latency decomposition: processing + queuing + transmission
    + propagation, with the total as their exact sum.

    Queue latency here is the analytic estimate (queue length over service
    rate); the event-driven simulator measures the actual FIFO wait instead.
    """
    if msg_bits <= 0:
        raise ValueError("msg_bits must be positive")
    cap = link_capacity(params, distance_m)
    if cap <= 0.0:
        raise ZeroCapacity(f"zero capacity over {distance_m} m link")
    proc_s = service.proc_latency_s
    queue_s = queue_len_msgs / service.service_rate_msgs_per_s
    trans_s = msg_bits / cap
    prop_s = distance_m / PROPAGATION_SPEED_M_S
    return LatencyBreakdown(
        proc_s=proc_s,
        queue_s=queue_s,
        trans_s=trans_s,
        prop_s=prop_s,
        total_s=proc_s + queue_s + trans_s + prop_s,
    )


# Component preset for intra-cluster links: 10 ms processing, 1 ms
# queuing at unit queue length, and service sized so those figures round-trip
# through the scenario config.
INTRA_CLUSTER_SERVICE = NodeServiceProfile(proc_latency_s=0.010, service_rate_msgs_per_s=1000.0)
