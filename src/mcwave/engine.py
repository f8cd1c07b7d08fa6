"""Synchronization-interval timeline and its presets.

Simulation time is an integer count of microseconds; floating-point clocks
are avoided so that identically seeded runs replay byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

SimTime = int  # microseconds


class Phase(Enum):
    """Sub-phases of one synchronization interval, in the order they run.

    Each value is the name of the `SyncIntervalConfig` field holding the
    phase's length, and definition order is the phases' order in time.
    """

    GUARD = "guard"
    E1 = "e1"
    E2 = "e2"
    E3 = "e3"
    SCHI = "schi"


@dataclass(frozen=True, slots=True)
class SyncIntervalConfig:
    """Timing layout of one synchronization interval, all fields in microseconds.

    The control-channel interval (cchi) is a guard slot, a broadcast slot
    (e1), a computation slot (e2) and an exchange slot (e3); the
    service-channel interval (schi) follows it and ends the interval.
    """

    guard: int
    e1: int
    e2: int
    e3: int
    schi: int

    def __post_init__(self) -> None:
        for phase in Phase:
            value = getattr(self, phase.value)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"si.{phase.value} must be a positive integer, got {value!r}")

    @property
    def cchi(self) -> int:
        return self.guard + self.e1 + self.e2 + self.e3

    @property
    def si_length(self) -> int:
        return self.cchi + self.schi


#: Named interval layouts.  "paper-literal" keeps the published sub-slot
#: lengths, which only fit a 55 ms control interval; "std-50" trims the
#: exchange slot so the control interval is the standard 50 ms.
SI_PRESETS: dict[str, SyncIntervalConfig] = {
    "paper-literal": SyncIntervalConfig(
        guard=4_000, e1=26_000, e2=5_000, e3=20_000, schi=45_000,
    ),
    "std-50": SyncIntervalConfig(
        guard=4_000, e1=26_000, e2=5_000, e3=15_000, schi=50_000,
    ),
}

DEFAULT_PRESET = "std-50"


def si_phase(t: SimTime, cfg: SyncIntervalConfig) -> Phase:
    """The sub-phase an instant falls in."""
    offset = t % cfg.si_length
    for phase in Phase:
        offset -= getattr(cfg, phase.value)
        if offset < 0:
            break
    return phase


def si_index(t: SimTime, cfg: SyncIntervalConfig) -> int:
    """Index of the synchronization interval containing t."""
    return t // cfg.si_length


def phase_window(index: int, phase: Phase, cfg: SyncIntervalConfig) -> tuple[int, int]:
    """Absolute [start, end) of a phase within the index-th interval."""
    start = index * cfg.si_length
    for p in Phase:
        end = start + getattr(cfg, p.value)
        if p is phase:
            break
        start = end
    return start, end
