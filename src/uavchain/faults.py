"""Attack-injection plan: byzantine strategies, DDoS floods, GPS spoofing.

The plan is declarative; the network simulator interprets it.  Spoofing and
flooding only ever touch reported positions and queue load, never signature
validity, so consensus safety is attacked solely through the byzantine
strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .domain import NodeId
from .mobility import ZERO, Vec3


class ByzantineStrategy(Enum):
    EQUIVOCATE = "equivocate"
    INVALID_BLOCK = "invalid_block"
    SILENT = "silent"


def _check_window(start_s: float, duration_s: float) -> None:
    if not 0 <= start_s:
        raise ValueError("start_s must be >= 0")
    if not 0 < duration_s:
        raise ValueError("duration_s must be > 0")


@dataclass(frozen=True)
class DdosWindow:
    target: NodeId
    start_s: float
    duration_s: float
    flood_rate_msgs_per_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.duration_s)
        if not 0 < self.flood_rate_msgs_per_s:
            raise ValueError("flood_rate_msgs_per_s must be > 0")


@dataclass(frozen=True)
class SpoofWindow:
    target: NodeId
    offset: Vec3
    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.duration_s)
        if self.offset == ZERO:
            raise ValueError("offset must be non-zero")

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.start_s + self.duration_s


@dataclass(frozen=True)
class FaultPlan:
    byzantine: dict[NodeId, ByzantineStrategy] = field(default_factory=dict)
    ddos: tuple[DdosWindow, ...] = ()
    spoof: tuple[SpoofWindow, ...] = ()
    drop_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must lie in [0, 1]")

    def check_tolerance(self, validator_ids: frozenset[NodeId], f: int) -> None:
        """Safety-mode guard: byzantine validators must stay within f.

        Stress scenarios may skip this check deliberately.
        """
        overlap = set(self.byzantine) & set(validator_ids)
        if len(overlap) > f:
            raise ValueError(
                f"{len(overlap)} byzantine validators exceeds tolerance f={f}"
            )
