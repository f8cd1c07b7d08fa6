"""Per-vehicle CSMA/CA parameters and the back-off counter draw.

A node draws a counter uniform on {0, ..., cw_min} for each frame.  The
standard chain counts it down one idle slot at a time; the emergency chain
needs only ceil(k/2) idle slots.  A sensed burst freezes the countdown.
Broadcast frames are unacknowledged, so there is no retry stage and the
window never grows.  Every frame the model sends is one safety message of
`payload_s` bytes, so every frame has the one airtime `frame_airtime`.
`simulation.ContentionArena` runs both chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODE_STANDARD = "standard"
MODE_EMERGENCY = "emergency"


@dataclass(frozen=True, slots=True)
class MacParams:
    cw_min: int = 15
    sigma: int = 16            # slot time, microseconds
    sifs: int = 32             # microseconds
    aifsn: int = 2
    data_rate: float = 3_000_000.0  # bits/s
    payload_s: int = 200       # bytes

    def __post_init__(self) -> None:
        if self.cw_min < 0:
            raise ValueError("mac.cw_min must be non-negative")
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
        """Post-error gap: sifs + difs + the airtime of a frame."""
        return self.sifs + self.difs + frame_airtime(self)


def frame_airtime(params: MacParams) -> float:
    """Airtime of one frame in microseconds: 8 * payload_s / rate."""
    return 8.0 * params.payload_s / params.data_rate * 1_000_000.0


def draw_counter(params: MacParams, rng: np.random.Generator, count: int) -> list[int]:
    """`count` fresh back-off counters, each uniform on {0, ..., cw_min}.

    The list holds the values of `count` single draws in turn and leaves
    `rng` where they would: numpy's bounded draw takes each value by its own
    rejection loop, and PCG64 keeps the spare 32-bit half of a draw in the
    generator's state.  `tests/test_mac.py` checks both.
    """
    return rng.integers(0, params.cw_min + 1, size=count).tolist()
