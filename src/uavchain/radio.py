"""Link SNR and Shannon capacity: the radio half of the message latency model.

Pure functions over value types.  Conventions:

* ``noise_power_w`` is total in-band noise power in watts (default 1e-13 W);
  the free-space SNR divides by it directly rather than by a spectral
  density times bandwidth, which keeps the link budget dimensionally
  consistent with a single noise knob.
* A message's latency is processing + queuing + transmission +
  propagation.  The network simulator composes it: transmission is
  ``msg_bits / link_capacity`` and propagation ``distance /
  PROPAGATION_SPEED_M_S``, both in ``Simulation._send``; the queue wait is
  measured by its FIFO (``NodeQueue``) and processing comes from
  ``NodeServiceProfile``.
* Callers must clamp co-located UAVs to a 1 m separation floor
  (``MIN_LINK_DISTANCE_M``) before evaluating the far-field SNR formula.

``link_capacity`` runs once per message sent, so the distance-free part of
the link budget, ``tx_power_w * gains * lam * lam``, is computed once per
``LinkBudgetParams`` and ``4.0 * math.pi`` once per module.  The operation
order is part of the determinism contract: the SNR is that product over
``(4.0 * math.pi * distance_m) ** 2 * noise_power_w``, evaluated in exactly
this order, so every latency and trace hash is bit-identical to the formula
written out in full (``tests/test_radio.py`` keeps it as the oracle).
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

_FOUR_PI = 4.0 * math.pi


class ZeroDistance(ValueError):
    """Degenerate geometry: non-positive link distance."""


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
            if not 0 < getattr(self, name):
                raise ValueError(f"{name} must be > 0")
        # The distance-free numerator of the SNR.  An attribute, not a field,
        # so fields, equality, hashing and serialization are unchanged.
        gains = dbi_to_linear(self.tx_gain_dbi) * dbi_to_linear(self.rx_gain_dbi)
        lam = self.wavelength_m
        object.__setattr__(self, "_snr_numerator", self.tx_power_w * gains * lam * lam)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_hz


@dataclass(frozen=True)
class NodeServiceProfile:
    """Per-node-class processing latency and inbound queue service rate."""

    proc_latency_s: float = 0.010
    service_rate_msgs_per_s: float = 1000.0

    def __post_init__(self) -> None:
        if not 0 < self.service_rate_msgs_per_s:
            raise ValueError("service_rate_msgs_per_s must be > 0")
        if not 0 <= self.proc_latency_s:
            raise ValueError("proc_latency_s must be >= 0")


def dbi_to_linear(gain_dbi: float) -> float:
    return 10.0 ** (gain_dbi / 10.0)


def snr(params: LinkBudgetParams, distance_m: float) -> float:
    """Received signal-to-noise ratio over a free-space link (linear)."""
    if distance_m <= 0:
        raise ZeroDistance(f"link distance must be > 0, got {distance_m}")
    return params._snr_numerator / ((_FOUR_PI * distance_m) ** 2 * params.noise_power_w)


def capacity(bandwidth_hz: float, snr_ratio: float) -> float:
    """Shannon-Hartley channel capacity in bits per second."""
    if bandwidth_hz < 0 or snr_ratio < 0:
        raise ValueError("bandwidth and SNR must be non-negative")
    return bandwidth_hz * math.log2(1.0 + snr_ratio)


def link_capacity(params: LinkBudgetParams, distance_m: float) -> float:
    return capacity(params.bandwidth_hz, snr(params, distance_m))

