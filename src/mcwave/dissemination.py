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

Every broadcast of the message on a service channel, the origin's own, a
coordinator's relay or a wsd visit, is one *leg*: one arena in this
interval's service window.  A scheme is a list of legs, and one function
folds them into its report.

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
    SCHEMES,
    hop_delay,
)
from .engine import Phase, SyncIntervalConfig, phase_window, si_index, si_phase
from .mac import MODE_EMERGENCY
from .simulation import (
    SCHI_TAG,
    ArenaResult,
    ContentionArena,
    Frame,
    SiSnapshot,
    Stations,
    decode_ratios,
    handoff_us,
)

FLOODING_MODES = ("none", "shbf")


@dataclass(frozen=True, slots=True)
class EmergencyMessage:
    origin_id: int
    invocation_time_us: int
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
    per_channel_delays_us: dict[int, list[int]]   # channel -> its receivers' latencies, by id
    switch_count: int                             # channel switches: the last leg's depth - 1
    prr: Optional[float]                          # mean decode ratio of the emergency frames
    unreached_channels: tuple[int, ...]
    relay_depth: Optional[int]                    # hops behind the delivery that set total_delay
    residual_wait_us: Optional[int] = None        # legacy only: invocation -> interval end

    @property
    def total_delay_us(self) -> Optional[int]:
        """Invocation to the first delivery on the last channel reached."""
        return max(map(min, self.per_channel_delays_us.values()), default=None)


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


def _own_tx_end(result: ArenaResult) -> Optional[int]:
    """When a one-sender leg's original frame ended, or None if it never went on air."""
    ends = [rec.end_us for rec in result.transmissions if not rec.frame.is_rebroadcast]
    return ends[0] if ends else None


def _leg(
    cfg: SchemeConfig,
    snap: SiSnapshot,
    emergency: EmergencyMessage,
    channel: int,
    senders: Sequence[tuple[int, int]],
    flood_exclude: Iterable[int],
) -> ArenaResult:
    """Broadcast the emergency message on one service channel in this interval's SCHI.

    `senders` are (vehicle, earliest hand-off instant) pairs.  The channel's
    members and the senders listen; each sender's frame is ready one queue
    hand-off after its instant, the hand-offs drawn as one block in sender order.
    """
    world, interval = snap.world, snap.interval
    arena = ContentionArena(
        channel=channel,
        window=phase_window(interval.si_index, Phase.SCHI, world.si),
        mac=world.mac,
        chain_mode=MODE_EMERGENCY,
        stations=Stations({*snap.members_of(channel), *(v for v, _ in senders)},
                          interval.cs_adj, interval.rx_adj),
        rng=world.stream(interval.si_index, channel, SCHI_TAG),
        flooding=cfg.flooding == "shbf",
        flood_exclude=flood_exclude,
    )
    handoffs = handoff_us(arena.rng, world.queue, len(senders))
    arena.add_frames([Frame(emergency.msg_id, sender, at + handoff)
                      for (sender, at), handoff in zip(senders, handoffs)])
    return world.trace_arena(channel, arena.run())


def _assemble_report(
    cfg: SchemeConfig,
    emergency: EmergencyMessage,
    snap: SiSnapshot,
    legs: Sequence[tuple[int, Iterable[int], ArenaResult]],
    residual_wait_us: Optional[int] = None,
) -> DisseminationReport:
    """Fold a scheme's legs, in the order they ran, into its report.

    A leg is (relay depth, audience, arena result).  Its audience is whom its
    deliveries count for, and no two audiences share a channel, so each
    channel is reached by one leg.  `snap` tells the vehicles' channels.  The
    relay depth is that of the leg that reached the latest channel, and each
    leg deeper than the first costs the message one channel switch.
    """
    msg_id = emergency.msg_id
    origin = emergency.origin_id
    deliveries: dict[int, int] = {}
    depth_of: dict[int, int] = {}   # channel -> depth of the leg that reached it
    samples: list[float] = []
    for depth, audience, result in legs:
        first_delivery = result.first_delivery
        for vid in audience:
            t = first_delivery.get((msg_id, vid))
            if t is not None and vid != origin:
                deliveries[vid] = t
                depth_of[snap.sch[vid]] = depth
        samples += decode_ratios(rec for rec in result.transmissions if rec.frame.msg_id == msg_id)
    delays: dict[int, list[int]] = {}
    for vid, t in sorted(deliveries.items()):
        delays.setdefault(snap.sch[vid], []).append(t - emergency.invocation_time_us)
    latest = max(delays, key=lambda ch: (min(delays[ch]), ch), default=None)
    return DisseminationReport(
        per_channel_delays_us=delays,
        switch_count=legs[-1][0] - 1,
        prr=sum(samples) / len(samples) if samples else None,
        unreached_channels=tuple(
            ch for ch in range(1, cfg.advertised_y + 1)
            if ch not in delays and any(v != origin for v in snap.members_of(ch))
        ),
        relay_depth=None if latest is None else depth_of[latest],
        residual_wait_us=residual_wait_us,
    )


def run_scheme(
    cfg: SchemeConfig,
    snap: SiSnapshot,
    emergency: EmergencyMessage,
    advance: Callable[[int, Frame], SiSnapshot],
) -> DisseminationReport:
    """Deliver one emergency message under the configured scheme in `snap`'s interval.

    The snapshot's world builds the service-channel arenas and holds the MAC
    and queue parameters.  `advance` runs one further synchronization
    interval with one frame injected into its first control sub-window
    (the legacy path) and returns that interval's snapshot.
    """
    if cfg.scheme == SCHEME_LEGACY:
        return _run_legacy(cfg, snap, emergency, advance)
    if cfg.scheme == SCHEME_CMD:
        return _run_cmd(cfg, snap, emergency)
    return _run_wsd(cfg, snap, emergency)


def _run_cmd(cfg: SchemeConfig, snap: SiSnapshot, emergency: EmergencyMessage) -> DisseminationReport:
    """The origin's leg, then one relay leg per target channel, concurrently.

    The coordinators for a target that heard the origin switch once and
    relay; a target whose coordinators all missed it stays unreached.
    """
    origin = emergency.origin_id
    k = snap.sch[origin]
    coordinators: dict[int, list[int]] = {}   # target -> coordinators, both ascending as rows come
    for row in snap.election:
        if row.cluster_k == k:
            coordinators.setdefault(row.target_z, []).append(row.coordinator_id)
    first = _leg(
        cfg, snap, emergency, k, [(origin, emergency.invocation_time_us)],
        flood_exclude={c for cs in coordinators.values() for c in cs},
    )
    legs = [(1, snap.members_of(k), first)]
    for z, cs in coordinators.items():
        relayers = []
        for c in cs:
            if c == origin:
                got_at = _own_tx_end(first)
            else:
                got_at = first.first_delivery.get((emergency.msg_id, c))
            if got_at is not None:
                relayers.append((c, got_at + cfg.switching_delay_us))
        if relayers:
            relay = _leg(cfg, snap, emergency, z, relayers, flood_exclude=[c for c, _ in relayers])
            legs.append((2, snap.members_of(z), relay))
    return _assemble_report(cfg, emergency, snap, legs)


def _run_wsd(cfg: SchemeConfig, snap: SiSnapshot, emergency: EmergencyMessage) -> DisseminationReport:
    """The origin's leg, then the origin's own visits, one leg per channel in turn."""
    world = snap.world
    origin = emergency.origin_id
    k = snap.sch[origin]

    stats = {}
    for z, heard in snap.heard_on.items():
        if z != k and origin in heard:   # it contends with the stations it heard there
            count = len(heard[origin])
            stats[z] = (hop_delay(world.queue, world.mac, count + 1).e_d, count)

    schi_end = phase_window(snap.interval.si_index, Phase.SCHI, world.si)[1]
    result = _leg(cfg, snap, emergency, k, [(origin, emergency.invocation_time_us)],
                  flood_exclude=[origin])
    legs = [(1, snap.members_of(k), result)]
    for z in wsd_schedule(stats):
        last_end = _own_tx_end(result)
        if last_end is None or last_end + cfg.switching_delay_us >= schi_end:
            break
        result = _leg(cfg, snap, emergency, z, [(origin, last_end + cfg.switching_delay_us)],
                      flood_exclude=[origin])
        legs.append((len(legs) + 1, snap.members_of(z), result))
    return _assemble_report(cfg, emergency, snap, legs)


def _run_legacy(
    cfg: SchemeConfig,
    snap: SiSnapshot,
    emergency: EmergencyMessage,
    advance: Callable[[int, Frame], SiSnapshot],
) -> DisseminationReport:
    """One leg: the next interval's status storm, re-run with the message in it."""
    si = snap.world.si
    start = legacy_wait(emergency.invocation_time_us, si)
    next_si = si_index(start, si)
    frame = Frame(msg_id=emergency.msg_id, sender_id=emergency.origin_id, ready_us=start)
    next_snap = advance(next_si, frame)
    return _assemble_report(
        cfg, emergency, next_snap, [(1, next_snap.interval.ids, next_snap.e1)],
        residual_wait_us=next_si * si.si_length - emergency.invocation_time_us,
    )
