"""Emergency-message delivery schemes over the per-channel arenas.

Three schemes move one emergency message from its origin to the vehicles
tuned to other service channels:

* coordinated relay ("cmd"): the origin broadcasts on its own channel; the
  self-elected coordinators that heard it each switch once and relay on
  their target channel, concurrently;
* sequential visits ("wsd"): the origin itself visits the other populated
  channels one after another, paying one switching delay per hop;
* legacy: the message waits for the next control-channel interval and is
  broadcast there, where every vehicle listens.

Optional single-hop blind flooding makes every first-time receiver
rebroadcast the message exactly once; rebroadcasts are never rebroadcast.
`ContentionArena` carries it out; the relays a scheme schedules itself are
told not to flood.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .analytics import (
    SCHEME_CMD,
    SCHEME_LEGACY,
    SCHEME_WSD,
    SCHEMES,
    hop_delay,
)
from .engine import Phase, SyncIntervalConfig, phase_window, si_index, si_phase
from .mac import MODE_EMERGENCY
from .simulation import SCHI_TAG, ArenaResult, Backdrop, Frame, SiSnapshot, handoff_us

FLOODING_MODES = ("none", "shbf")


@dataclass(frozen=True, slots=True)
class EmergencyMessage:
    origin_id: int
    invocation_time_us: int
    origin_sch: int
    payload_size: int
    msg_id: str


@dataclass(frozen=True, slots=True)
class SchemeConfig:
    scheme: str = SCHEME_CMD
    switching_delay_us: int = 2_000
    flooding: str = "none"
    advertised_y: int = 3

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme.scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.switching_delay_us < 0:
            raise ValueError("scheme.switching_delay_us must be non-negative")
        if self.flooding not in FLOODING_MODES:
            raise ValueError(f"scheme.flooding must be one of {FLOODING_MODES}, got {self.flooding!r}")
        if not 1 <= self.advertised_y <= 6:
            raise ValueError("scheme.advertised_y must lie in [1, 6]")


@dataclass(slots=True)
class DisseminationReport:
    scheme: str
    y: int
    flooding: str
    invocation_us: int
    per_channel_delivery: dict[int, int]          # channel -> first delivery, absolute us
    per_vehicle_delivery: dict[int, int]          # vehicle -> first delivery, absolute us
    vehicle_channel: dict[int, int]               # vehicle -> channel it was tuned to
    total_delay_us: Optional[int]
    switch_count: int
    prr: Optional[float]
    unreached_channels: tuple[int, ...]
    residual_wait_us: Optional[int] = None        # legacy only: invocation -> interval end
    relay_depth: Optional[int] = None             # hops behind the delivery that set total_delay

    def per_channel_delays_us(self) -> dict[int, list[int]]:
        """Delivery latencies grouped by the receivers' channel."""
        grouped: dict[int, list[int]] = {}
        for vid, t in sorted(self.per_vehicle_delivery.items()):
            grouped.setdefault(self.vehicle_channel[vid], []).append(t - self.invocation_us)
        return grouped


@dataclass(slots=True)
class Scenario:
    """What run_scheme needs from the surrounding experiment.

    The seed's `backdrop` builds the service-channel arenas and holds the MAC
    and queue parameters.  `advance` runs one further synchronization
    interval with extra frames injected into its first control sub-window
    (the legacy path) and returns that interval's snapshot.
    """

    backdrop: Backdrop
    snap: SiSnapshot
    advance: Callable[[int, Sequence[Frame]], SiSnapshot]


def legacy_wait(invocation_us: int, si: SyncIntervalConfig) -> int:
    """Earliest legal transmit instant for a message that must use the control channel."""
    phase = si_phase(invocation_us, si)
    if phase != Phase.SCHI:
        return invocation_us
    next_si = (si_index(invocation_us, si) + 1) * si.si_length
    return next_si + si.guard


def wsd_schedule(channel_stats: dict[int, tuple[float, int]]) -> list[int]:
    """Visit order over channels: ascending mean-delay-per-vehicle ratio.

    channel_stats maps channel id -> (avg_delay, vehicle_count); channels
    with no vehicles are dropped; equal ratios break towards the lower id.
    """
    ranked = [
        (avg_delay / count, ch)
        for ch, (avg_delay, count) in channel_stats.items()
        if count > 0
    ]
    return [ch for _ratio, ch in sorted(ranked)]


# -- internals --------------------------------------------------------------


def _emergency_frame(emergency: EmergencyMessage, sender: int, ready_us: int) -> Frame:
    return Frame(
        msg_id=emergency.msg_id,
        sender_id=sender,
        payload_bytes=emergency.payload_size,
        ready_us=ready_us,
    )


def _schi_arena(
    scenario: Scenario,
    channel: int,
    listeners: Sequence[int],
    flooding: bool,
    flood_exclude: Iterable[int],
):
    backdrop = scenario.backdrop
    snap = scenario.snap
    return backdrop.build_arena(
        si_index=snap.si_index,
        phase_tag=SCHI_TAG,
        channel=channel,
        window=phase_window(snap.si_index, Phase.SCHI, backdrop.si),
        listeners=listeners,
        cs_adj=snap.cs_adj,
        rx_adj=snap.rx_adj,
        chain_mode=MODE_EMERGENCY,
        flooding=flooding,
        flood_exclude=flood_exclude,
    )


def _own_tx_end(result: ArenaResult, sender: int, msg_id: str) -> Optional[int]:
    ends = [
        rec.end_us
        for rec in result.transmissions
        if rec.sender_id == sender and rec.frame.msg_id == msg_id
        and not rec.frame.is_rebroadcast
    ]
    return min(ends) if ends else None


def _emergency_prr(results: Sequence[ArenaResult], msg_id: str) -> Optional[float]:
    samples = [
        len(rec.received_by) / rec.in_range_count
        for result in results
        for rec in result.transmissions
        if rec.frame.msg_id == msg_id and rec.in_range_count > 0
    ]
    return sum(samples) / len(samples) if samples else None


def _assemble_report(
    *,
    cfg: SchemeConfig,
    emergency: EmergencyMessage,
    deliveries: dict[int, int],
    vehicle_channel: dict[int, int],
    populated: dict[int, list[int]],
    results: Sequence[ArenaResult],
    switch_count: int,
    residual_wait_us: Optional[int] = None,
) -> DisseminationReport:
    per_channel: dict[int, int] = {}
    for vid, t in sorted(deliveries.items()):
        ch = vehicle_channel[vid]
        if ch not in per_channel or t < per_channel[ch]:
            per_channel[ch] = t
    unreached = tuple(
        ch for ch in sorted(populated)
        if populated[ch] and ch not in per_channel
    )
    total = max(per_channel.values()) - emergency.invocation_time_us if per_channel else None
    return DisseminationReport(
        scheme=cfg.scheme,
        y=cfg.advertised_y,
        flooding=cfg.flooding,
        invocation_us=emergency.invocation_time_us,
        per_channel_delivery=per_channel,
        per_vehicle_delivery=dict(sorted(deliveries.items())),
        vehicle_channel=vehicle_channel,
        total_delay_us=total,
        switch_count=switch_count,
        prr=_emergency_prr(results, emergency.msg_id),
        unreached_channels=unreached,
        residual_wait_us=residual_wait_us,
    )


def _populated_targets(snap: SiSnapshot, y: int, origin: int) -> dict[int, list[int]]:
    """Channel -> members that still need the message (origin excluded)."""
    return {
        ch: [v for v in snap.members_of(ch) if v != origin]
        for ch in range(1, y + 1)
    }


def cmd_relay(
    emergency: EmergencyMessage,
    assignments,
    scenario: Scenario,
    cfg: SchemeConfig,
    origin_result: ArenaResult,
) -> tuple[dict[int, int], list[ArenaResult], int]:
    """Run every coordinator's switch-and-relay leg concurrently.

    Coordinators that never got the origin broadcast relay nothing — their
    target channel simply stays unreached unless a duplicate coordinator
    heard it.  Returns (deliveries, per-channel arena results, switches).
    """
    snap = scenario.snap
    flooding = cfg.flooding == "shbf"
    k = emergency.origin_sch
    by_target: dict[int, list[int]] = {}
    for a in assignments:
        if a.from_sch != k:
            continue
        by_target.setdefault(a.to_sch, []).append(a.coordinator)

    deliveries: dict[int, int] = {}
    results: list[ArenaResult] = []
    switches = 0
    for z in sorted(by_target):
        members = [v for v in snap.members_of(z) if v != emergency.origin_id]
        relayers: list[tuple[int, int]] = []
        for coordinator in sorted(by_target[z]):
            if coordinator == emergency.origin_id:
                got_at = _own_tx_end(origin_result, coordinator, emergency.msg_id)
            else:
                got_at = origin_result.first_delivery.get((emergency.msg_id, coordinator))
            if got_at is None:
                continue
            relayers.append((coordinator, got_at))
        if not relayers:
            continue
        listeners = sorted(set(members) | {c for c, _ in relayers})
        arena = _schi_arena(
            scenario, z, listeners, flooding,
            flood_exclude=[c for c, _ in relayers],
        )
        for coordinator, got_at in relayers:
            ready = got_at + cfg.switching_delay_us + handoff_us(arena.rng, scenario.backdrop.queue)
            arena.add_frame(_emergency_frame(emergency, coordinator, ready))
            switches += 1
        result = arena.run()
        results.append(result)
        for vid in members:
            t = result.first_delivery.get((emergency.msg_id, vid))
            if t is not None and (vid not in deliveries or t < deliveries[vid]):
                deliveries[vid] = t
    return deliveries, results, switches


def run_scheme(
    cfg: SchemeConfig,
    scenario: Scenario,
    emergency: EmergencyMessage,
) -> DisseminationReport:
    """Deliver one emergency message under the configured scheme."""
    if cfg.scheme == SCHEME_LEGACY:
        return _run_legacy(cfg, scenario, emergency)
    if cfg.scheme == SCHEME_CMD:
        return _run_cmd(cfg, scenario, emergency)
    return _run_wsd(cfg, scenario, emergency)


def _origin_broadcast(
    cfg: SchemeConfig,
    scenario: Scenario,
    emergency: EmergencyMessage,
    flood_exclude: Iterable[int],
) -> ArenaResult:
    snap = scenario.snap
    k = emergency.origin_sch
    listeners = snap.members_of(k)
    arena = _schi_arena(
        scenario, k, listeners, cfg.flooding == "shbf", flood_exclude,
    )
    ready = emergency.invocation_time_us + handoff_us(arena.rng, scenario.backdrop.queue)
    arena.add_frame(_emergency_frame(emergency, emergency.origin_id, ready))
    return arena.run()


def _latest_channel(report: DisseminationReport) -> Optional[int]:
    if not report.per_channel_delivery:
        return None
    return max(report.per_channel_delivery, key=lambda ch: (report.per_channel_delivery[ch], ch))


def _run_cmd(cfg: SchemeConfig, scenario: Scenario, emergency: EmergencyMessage) -> DisseminationReport:
    snap = scenario.snap
    k = emergency.origin_sch
    own_coordinators = {
        a.coordinator for a in snap.assignments if a.from_sch == k
    }
    origin_result = _origin_broadcast(cfg, scenario, emergency, own_coordinators)
    deliveries = {
        vid: t
        for (mid, vid), t in origin_result.first_delivery.items()
        if mid == emergency.msg_id and vid != emergency.origin_id
    }
    relay_deliveries, relay_results, switches = cmd_relay(
        emergency, snap.assignments, scenario, cfg, origin_result,
    )
    for vid, t in relay_deliveries.items():
        if vid not in deliveries or t < deliveries[vid]:
            deliveries[vid] = t
    report = _assemble_report(
        cfg=cfg,
        emergency=emergency,
        deliveries=deliveries,
        vehicle_channel=dict(snap.sch),
        populated=_populated_targets(snap, cfg.advertised_y, emergency.origin_id),
        results=[origin_result, *relay_results],
        switch_count=1 if switches else 0,
    )
    last = _latest_channel(report)
    if last is not None:
        report.relay_depth = 1 if last == k else 2
    return report


def _run_wsd(cfg: SchemeConfig, scenario: Scenario, emergency: EmergencyMessage) -> DisseminationReport:
    snap = scenario.snap
    backdrop = scenario.backdrop
    k = emergency.origin_sch
    origin = emergency.origin_id
    flooding = cfg.flooding == "shbf"

    counts = snap.neighbor_counts(origin)
    stats = {}
    for z in range(1, cfg.advertised_y + 1):
        if z == k:
            continue
        count = counts.get(z, 0)
        if count == 0:
            continue
        # the origin contends with the `count` stations it heard there
        stats[z] = (hop_delay(backdrop.queue, backdrop.mac, count + 1).e_d, count)
    order = wsd_schedule(stats)

    results: list[ArenaResult] = []
    deliveries: dict[int, int] = {}
    origin_result = _origin_broadcast(cfg, scenario, emergency, flood_exclude=[origin])
    results.append(origin_result)
    for vid, t in origin_result.deliveries_of(emergency.msg_id).items():
        if vid != origin:
            deliveries[vid] = t
    last_end = _own_tx_end(origin_result, origin, emergency.msg_id)
    visited = [k]
    switches = 0
    schi_end = phase_window(snap.si_index, Phase.SCHI, backdrop.si)[1]
    for z in order:
        if last_end is None:
            break
        arrive = last_end + cfg.switching_delay_us
        if arrive >= schi_end:
            break
        switches += 1
        members = [v for v in snap.members_of(z) if v != origin]
        arena = _schi_arena(
            scenario, z, sorted(set(members) | {origin}), flooding,
            flood_exclude=[origin],
        )
        ready = arrive + handoff_us(arena.rng, backdrop.queue)
        arena.add_frame(_emergency_frame(emergency, origin, ready))
        result = arena.run()
        results.append(result)
        for vid, t in result.deliveries_of(emergency.msg_id).items():
            if vid != origin and (vid not in deliveries or t < deliveries[vid]):
                deliveries[vid] = t
        last_end = _own_tx_end(result, origin, emergency.msg_id)
        visited.append(z)
    report = _assemble_report(
        cfg=cfg,
        emergency=emergency,
        deliveries=deliveries,
        vehicle_channel=dict(snap.sch),
        populated=_populated_targets(snap, cfg.advertised_y, origin),
        results=results,
        switch_count=switches,
    )
    last = _latest_channel(report)
    if last is not None:
        report.relay_depth = visited.index(last) + 1
    return report


def _run_legacy(cfg: SchemeConfig, scenario: Scenario, emergency: EmergencyMessage) -> DisseminationReport:
    si = scenario.backdrop.si
    start = legacy_wait(emergency.invocation_time_us, si)
    next_si = si_index(start, si)
    frame = _emergency_frame(emergency, emergency.origin_id, start)
    next_snap = scenario.advance(next_si, [frame])
    deliveries = {
        vid: t
        for vid, t in next_snap.e1.deliveries_of(emergency.msg_id).items()
        if vid != emergency.origin_id
    }
    residual = next_si * si.si_length - emergency.invocation_time_us
    report = _assemble_report(
        cfg=cfg,
        emergency=emergency,
        deliveries=deliveries,
        vehicle_channel=dict(next_snap.sch),
        populated=_populated_targets(next_snap, cfg.advertised_y, emergency.origin_id),
        results=[next_snap.e1],
        switch_count=0,
        residual_wait_us=residual,
    )
    if report.per_channel_delivery:
        report.relay_depth = 1
    return report
