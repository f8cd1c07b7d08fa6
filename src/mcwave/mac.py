"""Per-vehicle CSMA/CA contention primitives.

Two single-stage back-off chains share one freeze rule (a busy slot leaves
the counter untouched): the standard chain decrements by one per idle slot,
the emergency chain by two (floored at zero) so its countdown finishes in
half the slots.  A node whose counter sits at zero transmits on the next
idle slot.  Broadcast frames are unacknowledged, so there is no retry stage
and the window never grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

MODE_STANDARD = "standard"
MODE_EMERGENCY = "emergency"

PHASE_IDLE = "idle"
PHASE_COUNTING = "counting"
PHASE_TRANSMITTING = "transmitting"


@dataclass(frozen=True, slots=True)
class MacParams:
    cw_min: int = 15
    cw_max: int = 256          # accepted for completeness; single-stage chains never grow the window
    sigma: int = 16            # slot time, microseconds
    sifs: int = 32             # microseconds
    aifsn: int = 2
    eifs: Optional[int] = None  # microseconds; derived when omitted
    data_rate: float = 3_000_000.0  # bits/s
    payload_s: int = 200       # bytes

    def __post_init__(self) -> None:
        if self.cw_min < 0:
            raise ValueError("mac.cw_min must be non-negative")
        if self.cw_min > self.cw_max:
            raise ValueError("mac.cw_min must not exceed mac.cw_max")
        if self.sigma <= 0:
            raise ValueError("mac.sigma must be positive")
        if self.sifs < 0 or self.aifsn < 0:
            raise ValueError("mac.sifs and mac.aifsn must be non-negative")
        if self.data_rate <= 0:
            raise ValueError("mac.data_rate must be positive")
        if self.payload_s < 0:
            raise ValueError("mac.payload_s must be non-negative")

    @property
    def difs(self) -> int:
        """Arbitration gap before countdown: sifs + aifsn slot times."""
        return self.sifs + self.aifsn * self.sigma

    @property
    def eifs_us(self) -> float:
        """Post-error gap; defaults to sifs + difs + the airtime of the shortest frame the model sends."""
        if self.eifs is not None:
            return float(self.eifs)
        return self.sifs + self.difs + frame_airtime(self)


def frame_airtime(params: MacParams, payload_bytes: Optional[int] = None) -> float:
    """Airtime of one frame in microseconds: 8 * payload / rate."""
    payload = params.payload_s if payload_bytes is None else payload_bytes
    if payload < 0:
        raise ValueError("payload must be non-negative")
    return 8.0 * payload / params.data_rate * 1_000_000.0


@dataclass(slots=True)
class BackoffState:
    mode: str
    counter_k: int
    w0: int
    phase: str = PHASE_COUNTING
    frozen: bool = False


@dataclass(frozen=True, slots=True)
class ContentionParams:
    n_contenders: int = 1
    p_b: float = 0.0   # probability a back-off slot senses the channel busy
    p_a: float = 1.0   # per-slot packet arrival probability
    rho: float = 1.0   # queue utilization

    def __post_init__(self) -> None:
        if self.n_contenders < 1:
            raise ValueError("contention.n_contenders must be >= 1")
        for name in ("p_b", "p_a", "rho"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"contention.{name} must lie in [0, 1], got {value}")


def draw_counter(params: MacParams, rng: np.random.Generator) -> int:
    """A fresh back-off counter, uniform on {0, ..., cw_min}."""
    return int(rng.integers(0, params.cw_min + 1))


def draw_backoff(mode: str, params: MacParams, rng: np.random.Generator) -> BackoffState:
    """Fresh contention instance with a counter drawn by `draw_counter`."""
    if mode not in (MODE_STANDARD, MODE_EMERGENCY):
        raise ValueError(f"unknown back-off mode {mode!r}")
    return BackoffState(mode=mode, counter_k=draw_counter(params, rng),
                        w0=params.cw_min + 1, phase=PHASE_COUNTING)


def _backoff_step(s: BackoffState, channel_busy: bool, decrement: int) -> BackoffState:
    if s.phase != PHASE_COUNTING:
        raise ValueError(f"cannot step a back-off in phase {s.phase!r}")
    if channel_busy:
        s.frozen = True
        return s
    s.frozen = False
    if s.counter_k == 0:
        s.phase = PHASE_TRANSMITTING
        return s
    s.counter_k = max(0, s.counter_k - decrement)
    return s


def standard_backoff_step(s: BackoffState, channel_busy: bool) -> BackoffState:
    """One slot of the standard chain: freeze when busy, else decrement by one.

    A node already at counter zero transmits on the idle slot (the state
    moves to transmitting); the counter itself never goes negative.
    """
    if s.mode != MODE_STANDARD:
        raise ValueError("standard_backoff_step requires a standard-mode state")
    return _backoff_step(s, channel_busy, 1)


def emergency_backoff_step(s: BackoffState, channel_busy: bool) -> BackoffState:
    """One slot of the emergency chain: freeze when busy, else decrement by two.

    Odd counters floor at zero so the chain exits from every start state;
    the countdown therefore completes in ceil(k/2) idle slots.
    """
    if s.mode != MODE_EMERGENCY:
        raise ValueError("emergency_backoff_step requires an emergency-mode state")
    return _backoff_step(s, channel_busy, 2)


def simulate_chain(
    mode: str,
    params: MacParams,
    p_b: float,
    p_a: float,
    rho: float,
    n_slots: int,
    rng: np.random.Generator,
    w0_override: Optional[int] = None,
) -> float:
    """Drive one back-off instance for n_slots and return its empirical
    per-slot transmission probability.

    Channel busy indications are Bernoulli(p_b); after each transmission the
    next packet is already queued with probability rho, otherwise the node
    idles until a per-slot Bernoulli(p_a) arrival.  Arrivals re-enter the
    chain uniformly, matching draw_backoff.
    """
    w0 = (params.cw_min + 1) if w0_override is None else w0_override
    step = standard_backoff_step if mode == MODE_STANDARD else emergency_backoff_step
    state = BackoffState(mode=mode, counter_k=int(rng.integers(0, w0)), w0=w0)
    in_chain = True
    transmissions = 0
    block = 1 << 16
    done = 0
    while done < n_slots:
        count = min(block, n_slots - done)
        busy = rng.random(count) < p_b
        gates = rng.random(count)  # arrival / queue-refill draws
        entries = rng.integers(0, w0, count)
        for i in range(count):
            if in_chain:
                step(state, bool(busy[i]))
                if state.phase == PHASE_TRANSMITTING:
                    transmissions += 1
                    if gates[i] < rho:
                        state.counter_k = int(entries[i])
                        state.phase = PHASE_COUNTING
                    else:
                        in_chain = False
            else:
                if gates[i] < p_a:
                    state.counter_k = int(entries[i])
                    state.phase = PHASE_COUNTING
                    in_chain = True
        done += count
    return transmissions / n_slots


@dataclass(frozen=True, slots=True)
class ChannelActivity:
    kind: str                       # "idle" | "success" | "collision"
    tx_ids: tuple[int, ...] = ()    # transmitting frames (success: one; collision: the losers)


def channel_activity(
    transmissions: Sequence[tuple[int, float, float]],
    sensed_by_common_receiver: Optional[Iterable[tuple[int, int]]] = None,
) -> ChannelActivity:
    """Classify a window of per-channel transmissions.

    `transmissions` holds (tx_id, start, end) tuples.  Overlapping pairs
    collide when some receiver senses both; `sensed_by_common_receiver`
    enumerates such pairs, and defaults to "every overlapping pair" (a fully
    connected channel).
    """
    if not transmissions:
        return ChannelActivity("idle")
    if len(transmissions) == 1:
        return ChannelActivity("success", (transmissions[0][0],))
    overlapping: set[tuple[int, int]] = set()
    for i, (id_a, s_a, e_a) in enumerate(transmissions):
        for id_b, s_b, e_b in transmissions[i + 1:]:
            if s_a < e_b and s_b < e_a:
                overlapping.add((min(id_a, id_b), max(id_a, id_b)))
    if sensed_by_common_receiver is not None:
        heard = {(min(a, b), max(a, b)) for a, b in sensed_by_common_receiver}
        overlapping &= heard
    if not overlapping:
        return ChannelActivity("success", tuple(tid for tid, _, _ in transmissions))
    losers = sorted({tid for pair in overlapping for tid in pair})
    return ChannelActivity("collision", tuple(losers))


def airtime_slots(params: MacParams, payload_bytes: Optional[int] = None) -> int:
    """Whole back-off slots a frame occupies on the shared slot grid."""
    return max(1, math.ceil(frame_airtime(params, payload_bytes) / params.sigma))
