"""Closed-form contention, queueing, and dissemination-delay models.

All functions are pure, validate their domains eagerly, and raise instead of
returning NaN.  Durations are unit-agnostic where only one time quantity is
involved and in seconds where several are combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .mac import MacParams, frame_airtime
from .radio import RadioParams, TrafficParams, carrier_sense_range, vehicles_in_cs_range

SCHEME_CMD = "cmd"
SCHEME_WSD = "wsd"
SCHEME_LEGACY = "legacy"
SCHEMES = (SCHEME_CMD, SCHEME_WSD, SCHEME_LEGACY)

#: width of the band around rho = 1 treated with the analytic limit
RHO_ONE_BAND = 1e-6


@dataclass(frozen=True, slots=True)
class QueueParams:
    lambda_: float = 10.0       # packet arrival rate, 1/s
    mu: float = 10_000.0        # service rate, 1/s
    b_capacity: int = 20        # finite system capacity, packets

    def __post_init__(self) -> None:
        if self.lambda_ <= 0 or self.mu <= 0:
            raise ValueError("queue.lambda and queue.mu must be positive")
        if self.b_capacity < 1:
            raise ValueError("queue.b_capacity must be >= 1")


@dataclass(frozen=True, slots=True)
class StationaryDistribution:
    """Stationary occupancies of the single-stage back-off chain.

    `occupancy[k]` is the probability of sitting at counter k between slots
    (occupancy[0] exceeds b0 by the busy-freeze factor 1/(1 - p_b)); `idle`
    is the empty-queue state's mass; `b0` is the normalizing solution, which
    equals the per-slot transmission probability tau.
    """

    occupancy: tuple[float, ...]
    idle: float
    b0: float

    @property
    def tau(self) -> float:
        return self.b0


def _validate_chain_inputs(w0: int, p_b: float, p_a: float, rho: float) -> None:
    if not isinstance(w0, int) or w0 < 1:
        raise ValueError(f"w0 must be a positive integer, got {w0!r}")
    if not 0.0 <= p_b < 1.0:
        raise ValueError(
            f"p_b must lie in [0, 1); p_b = {p_b} means the channel is always busy and the chain never advances"
        )
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if not 0.0 <= p_a <= 1.0:
        raise ValueError(f"p_a must lie in [0, 1], got {p_a}")
    if rho < 1.0 and p_a == 0.0:
        raise ValueError("p_a must be positive when rho < 1 (the idle state would be absorbing)")


def transmission_probability(w0: int, p_b: float, p_a: float, rho: float) -> float:
    """Per-slot transmission probability of one back-off instance.

    tau = [ (w0 + 1) / (2 (1 - p_b)) + (1 - rho) / p_a ]^-1
    """
    _validate_chain_inputs(w0, p_b, p_a, rho)
    idle_mass = 0.0 if rho >= 1.0 else (1.0 - rho) / p_a
    return 1.0 / ((w0 + 1) / (2.0 * (1.0 - p_b)) + idle_mass)


def stationary_distribution(w0: int, p_b: float, p_a: float, rho: float) -> StationaryDistribution:
    """Closed-form stationary distribution of the back-off chain.

    occupancy[k] = ((w0 - k) / (w0 (1 - p_b))) * b0 for counters k, and the
    idle state holds ((1 - rho) / p_a) * b0; the masses sum to one.
    """
    b0 = transmission_probability(w0, p_b, p_a, rho)
    occupancy = tuple((w0 - k) / (w0 * (1.0 - p_b)) * b0 for k in range(w0))
    idle = 0.0 if rho >= 1.0 else (1.0 - rho) / p_a * b0
    return StationaryDistribution(occupancy=occupancy, idle=idle, b0=b0)


def saturated_fixed_point(w0: int, n: int) -> tuple[float, float]:
    """Self-consistent (tau, p_b) for n always-backlogged stations.

    Each station transmits with tau given the busy probability produced by
    the other n - 1, p_b = 1 - (1 - tau)^(n-1).  The fixed point is
    bisected: tau - tau(p_b(tau)) rises in tau, is negative at 0 and
    non-negative at the lone-station rate 2 / (w0 + 1), which is what a lone
    station (p_b = 0) gets exactly.  Plain iteration of the map would not
    do: past n ~ 1.4 w0 it falls into a two-cycle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def busy(tau: float) -> float:
        return 1.0 - (1.0 - tau) ** (n - 1)

    def rate(p_b: float) -> float:
        return transmission_probability(w0, min(p_b, 1.0 - 1e-12), 1.0, 1.0)

    lo, hi = 0.0, rate(0.0)
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if mid - rate(busy(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi, busy(hi)


@dataclass(frozen=True, slots=True)
class SlotProbabilities:
    p_busy: float
    p_success: float
    p_coll: float


def slot_probabilities(tau: float, n: int) -> SlotProbabilities:
    """Per-slot channel outcome probabilities for n independent contenders.

    With no contenders every slot is idle.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    p_idle = (1.0 - tau) ** n
    p_success = n * tau * (1.0 - tau) ** (n - 1) if n else 0.0
    return SlotProbabilities(
        p_busy=1.0 - p_idle,
        p_success=p_success,
        p_coll=1.0 - p_idle - p_success,
    )


@dataclass(frozen=True, slots=True)
class SlotDurations:
    t_slot: float


def slot_duration(probs: SlotProbabilities, sigma: float, e_t: float,
                  difs: float, eifs: float) -> SlotDurations:
    """Expected slot duration given the channel outcome mix.

    A successful transmission occupies difs + sigma + e_t, a collision
    eifs + sigma + e_t, and an unoccupied slot just sigma.
    """
    for name, value in (("sigma", sigma), ("e_t", e_t), ("difs", difs), ("eifs", eifs)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    t_success = difs + sigma + e_t
    t_coll = eifs + sigma + e_t
    t_slot = (1.0 - probs.p_busy) * sigma + t_success * probs.p_success + t_coll * probs.p_coll
    return SlotDurations(t_slot=t_slot)


def expected_contention_delay(cw_min: int, t_slot: float) -> float:
    """Mean contention delay: half the minimum window less one, in slots."""
    if cw_min < 1:
        raise ValueError("cw_min must be >= 1")
    if t_slot < 0:
        raise ValueError("t_slot must be non-negative")
    return (cw_min - 1) / 2.0 * t_slot


def expected_queue_length(rho: float, b: int) -> float:
    """Mean number of packets in the finite system.

    E[b] = rho/(1 - rho^(B+1)) * ((1 - rho^B)/(1 - rho) - B rho^B), with the
    analytic limit B/2 on the band |rho - 1| < 1e-6 where the direct form is
    numerically unstable.
    """
    if rho < 0:
        raise ValueError("rho must be non-negative")
    if b < 1:
        raise ValueError("b must be >= 1")
    if abs(rho - 1.0) < RHO_ONE_BAND:
        return b / 2.0
    return rho / (1.0 - rho ** (b + 1)) * ((1.0 - rho ** b) / (1.0 - rho) - b * rho ** b)


def queueing_delay(lambda_: float, mu: float, b: int) -> float:
    """Mean accepted-packet sojourn in the finite queue, seconds.

    E[q] = 1/(mu - lambda) - (1/mu) * B rho^B / (1 - rho^B) away from
    rho = 1, and (B + 1) / (2 mu) on the crossover band.  Both branches equal
    E[b] / (lambda (1 - P_block)).
    """
    if lambda_ <= 0 or mu <= 0:
        raise ValueError("lambda and mu must be positive")
    if b < 1:
        raise ValueError("b must be >= 1")
    rho = lambda_ / mu
    if abs(rho - 1.0) < RHO_ONE_BAND:
        return (b + 1) / (2.0 * mu)
    return 1.0 / (mu - lambda_) - (1.0 / mu) * b * rho ** b / (1.0 - rho ** b)


@dataclass(slots=True)
class DelayBreakdown:
    e_q: float
    e_c: float
    e_t: float
    e_d: float
    t_slot: float
    tau: float


def hop_delay(queue: QueueParams, mac: MacParams, n_total: int) -> DelayBreakdown:
    """Single-hop delay E[d] = E[q] + E[c] + E[t], seconds, among n_total stations.

    Every station is backlogged for the duration of the burst and transmits
    with the saturated fixed point's tau.  The tagged sender's back-off clock
    ticks through slots occupied by the *other* n_total - 1 stations, so a
    lone sender counts down through empty slots only (t_slot = sigma).
    """
    tau, _p_b = saturated_fixed_point(mac.cw_min, n_total)
    probs = slot_probabilities(tau, n_total - 1)
    e_t = frame_airtime(mac) / 1e6
    t_slot = slot_duration(
        probs, mac.sigma / 1e6, e_t, mac.difs / 1e6, mac.eifs_us / 1e6
    ).t_slot
    e_c = expected_contention_delay(mac.cw_min, t_slot)
    e_q = queueing_delay(queue.lambda_, queue.mu, queue.b_capacity)
    return DelayBreakdown(e_q=e_q, e_c=e_c, e_t=e_t, e_d=e_q + e_c + e_t, t_slot=t_slot, tau=tau)


def optimal_decision_interval(traffic: TrafficParams, radio: RadioParams, t_slot: float) -> float:
    """Broadcast-slot length sized to the sensing neighbourhood: V = B * t_slot.

    B = 2 * beta * L_cs is used unrounded; t_slot (and hence V) is in the
    caller's time unit.
    """
    if t_slot < 0:
        raise ValueError("t_slot must be non-negative")
    b = vehicles_in_cs_range(traffic, carrier_sense_range(radio))
    return b * t_slot


def broadcast_window(traffic: TrafficParams, radio: RadioParams, mac: MacParams) -> tuple[int, float, float]:
    """Size the broadcast window to the sensing neighbourhood: (stations, t_slot, V).

    The neighbourhood holds round(B) stations that each transmit with the
    nominal tau = 2 / (cw_min + 1); t_slot is their expected slot, in us,
    and V = B * t_slot.
    """
    stations = round(vehicles_in_cs_range(traffic, carrier_sense_range(radio)))
    probs = slot_probabilities(2.0 / (mac.cw_min + 1), stations)
    t_slot = slot_duration(probs, mac.sigma, frame_airtime(mac), mac.difs, mac.eifs_us).t_slot
    return stations, t_slot, optimal_decision_interval(traffic, radio, t_slot)


def total_dissemination_delay(
    scheme: str,
    y: int,
    e_d: float,
    t_sw: float,
    residual_wait: Optional[float] = None,
    guard: Optional[float] = None,
) -> float:
    """Scheme-level total dissemination delay over y advertised channels.

    With a single channel every scheme is one broadcast (e_d).  Beyond that,
    the sequential-visit scheme pays y hops plus y-1 switches; the
    coordinated-relay scheme pays two hops plus one switch (relays run in
    parallel); the legacy scheme waits out the service interval and adds the
    guard before its control-channel broadcast.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if y < 1:
        raise ValueError("y must be >= 1")
    if e_d < 0 or t_sw < 0:
        raise ValueError("e_d and t_sw must be non-negative")
    if scheme == SCHEME_LEGACY:
        if residual_wait is None or guard is None:
            raise ValueError("legacy delay requires residual_wait and guard")
        return residual_wait + guard + e_d
    if y == 1:
        return e_d
    if scheme == SCHEME_WSD:
        return y * e_d + (y - 1) * t_sw
    return 2.0 * e_d + t_sw
