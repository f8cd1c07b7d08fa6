"""Per-channel broadcast contention and the multi-interval vehicular world.

ContentionArena resolves one channel's broadcast contention inside one time
window: slotted back-off countdown with spatial carrier sensing (hidden
nodes keep counting), freeze-and-resume around sensed bursts, post-burst
DIFS/EIFS spacing, interference-based reception, and optional single-hop
blind flooding.  World strings one seed's arenas together across
synchronization intervals: mobility advances once per interval, vehicles
re-pick a service channel, broadcast their status in the first control
sub-window, exchange per-channel averages in the third, and elect relay
coordinators; the averages and the election run when the election is first
read.  One world serves every channel count and flooding mode of its seed:
mobility, sensing and the control-channel storms do not depend on them, and
each interval's storms live on that interval's record.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import astuple, dataclass, field
from itertools import chain
from operator import attrgetter, is_
from typing import Collection, Iterable, Mapping, Optional, Sequence

import numpy as np

from .coordination import ElectionRow, average_distance_to_sch, elect_coordinators
from .analytics import QueueParams
from .engine import Phase, SyncIntervalConfig, phase_window
from .mac import MODE_EMERGENCY, MODE_STANDARD, MacParams, draw_counter, frame_airtime
from .mobility import MobilityConfig, MobilityModel, RoadNetwork
from .radio import RadioParams, reception_range, sensing_range

#: channel id of the shared control channel; service channels are 1..Y
CCH = 0

# Random-stream tags.  Mobility draws from [seed, MOBILITY_STREAM]; every
# other draw comes off [seed, interval, channel, tag], so that identical
# configurations replay identically regardless of host or process.
MOBILITY_STREAM = 101
E1_TAG = 1               # the status storm
E3_TAG = 3               # the averages storm
SCHI_TAG = 5             # a scheme's service-channel arena
MESH_TAG = 9             # the broadcast-window sizing arena (keyed by its own seed)
SCH_STREAM = 201         # channel picks
EMERGENCY_STREAM = 301   # the emergency's origin and invocation instant


def handoff_us(rng: np.random.Generator, queue: QueueParams, count: int) -> list[int]:
    """Queue-to-MAC hand-offs of `count` frames: exponential service times, in whole us.

    numpy draws each value of a block as it draws a single one, so the block
    holds the values of `count` single draws in turn.  `np.rint` rounds half
    to even, as `round` does, and the draws are never negative.
    """
    draws = rng.exponential(1.0 / queue.mu, size=count)
    return np.rint(draws * 1_000_000).astype(np.int64).tolist()


@dataclass(slots=True)
class Frame:
    """One queued transmission attempt of a message copy."""

    msg_id: str
    sender_id: int
    ready_us: int
    is_rebroadcast: bool = False


@dataclass(slots=True)
class TxRecord:
    sender_id: int
    start_us: int
    end_us: int
    frame: Frame
    concurrent: int = 0        # frames that overlapped this one in time, set when it ends
    in_range_count: int = 0
    received_by: list[int] = field(default_factory=list)


_LONG_AGO = -(1 << 62)   # a start stamp before every window


class _Node:
    """One station's contention state, reset by each arena built on its `Stations`."""

    __slots__ = ("nid", "queue", "head", "remaining", "last", "hit", "ext", "fire")

    def __init__(self, nid: int) -> None:
        self.nid = nid   # every arena resets the rest before it reads any

    def reset(self) -> None:
        self.queue: list[Frame] = []   # kept sorted by (ready, msg)
        self.head: Optional[Frame] = None
        self.remaining: Optional[int] = None   # its head's back-off slots, once drawn
        # start stamps: `last` is the latest start it sensed or made, `hit`
        # the latest one that came less than an airtime A after the start
        # stamped before it, so overlapped it, and `ext` the latest sensed
        # one that came at most A after it, so extended its burst.  Not
        # transmitting at t, it senses a frame iff last > t - A, and its
        # post-burst spacing ends at last + A + DIFS, or + EIFS if ext == last
        self.last = self.hit = self.ext = _LONG_AGO
        # its head's scheduled start, or wake if not ready; with `remaining`
        # set too it is counting down `remaining` slots to `fire`
        self.fire: Optional[int] = None


class Stations:
    """One topology's listeners and their wiring, built once, serving one arena at a time.

    `sensed_by[nid]` and `receivers[nid]` list the `nodes` in nid's `cs_adj`
    and `rx_adj` rows, which list ascending ids, less the stations not
    listening; where the two rows are one object, as with equal radii, so
    are the two lists.  Where some station's two lists differ, the
    arena asks whether a receiver senses the sender: `cs_adj` then holds a
    set per listener, built once, else the rows as given.  No node refers
    to another, so reference counting frees the stations.  Each arena built
    on them resets every node: build the next once the last has run.
    """

    __slots__ = ("nodes", "sensed_by", "receivers", "cs_adj")

    def __init__(self, listeners: Iterable[int], cs_adj: Mapping[int, Collection[int]],
                 rx_adj: Mapping[int, Collection[int]]) -> None:
        nodes = self.nodes = {nid: _Node(nid) for nid in sorted(listeners)}
        listening = nodes.get

        def wire(row: Collection[int]) -> list[_Node]:
            return list(filter(None, map(listening, row)))   # drops those not listening

        self.sensed_by = {nid: wire(cs_adj[nid]) for nid in nodes}
        self.receivers = {nid: sensed if rx_adj[nid] is cs_adj[nid] else wire(rx_adj[nid])
                          for nid, sensed in self.sensed_by.items()}
        shared = all(map(is_, self.receivers.values(), self.sensed_by.values()))
        self.cs_adj = cs_adj if shared else {nid: set(cs_adj[nid]) for nid in nodes}


_nid = attrgetter("nid")


@dataclass(slots=True)
class ArenaResult:
    """One arena's transmissions, and what they delivered.

    Every frame has the arena's one airtime, and frames that end at the same
    instant end in sender order, as frames that start together start.  So
    frames end in the order they start, and `transmissions` lists them in
    end order.  The first delivery of each (message, receiver) pair is
    therefore derived from `transmissions` when first read: nothing keeps it
    while the arena runs.
    """

    transmissions: list[TxRecord]
    ptr: Optional[float]
    pending_senders: set[int]
    # cache of the derived mapping; a result equals another whether read or not
    _first_delivery: Optional[dict[tuple[str, int], int]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def first_delivery(self) -> dict[tuple[str, int], int]:
        """(message, receiver) -> end of the first frame that delivered it, in delivery order."""
        if self._first_delivery is None:
            first: dict[tuple[str, int], int] = {}
            for rec in self.transmissions:
                msg_id, end = rec.frame.msg_id, rec.end_us
                for receiver in rec.received_by:
                    first.setdefault((msg_id, receiver), end)
            self._first_delivery = first
        return self._first_delivery


def decode_ratios(records: Iterable[TxRecord]) -> list[float]:
    """Per frame with receivers in range, the share of them that decoded it."""
    return [len(rec.received_by) / rec.in_range_count for rec in records if rec.in_range_count]


#: metres beyond a sensing radius within which `adjacency` keeps candidate pairs
#: across intervals; at 50 m, 200 static vehicles at the default speed, which
#: move at most 1.22 m an interval, find them once in a run's 20 intervals
SENSING_SKIN = 50.0


@dataclass(slots=True)
class Candidates:
    """The candidate pairs one world keeps for one radius across intervals.

    `ids` is the population `adjacency` last saw.  Once it has seen that
    population twice in a row, `xy` holds its interleaved positions when the
    candidates were found, and `pairs` the candidates: flat indices i * n + j
    into `ids`, ascending, of the ordered pairs then within radius + skin.
    """

    ids: list[int] = field(default_factory=list)
    xy: Optional[np.ndarray] = None
    pairs: Optional[np.ndarray] = None


def _pairs_within(x: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
    """Flat indices i * n + j, ascending, of the ordered pairs i != j within radius."""
    # squared distances dx*dx + dy*dy, built in place
    d2 = np.subtract.outer(x, x)
    dy = np.subtract.outer(y, y)
    d2 *= d2
    dy *= dy
    d2 += dy
    within = d2 <= radius * radius
    np.fill_diagonal(within, False)
    # one nonzero over the flattened matrix: its pairs come row by row, and
    # within a row in ascending column order
    return np.flatnonzero(within)


def adjacency(
    ids: Sequence[int],
    positions: dict[int, tuple[float, float]],
    radius: float,
    candidates: Optional[Candidates] = None,
) -> dict[int, list[int]]:
    """Symmetric within-radius neighbour rows over a static snapshot.

    Each row lists a vehicle's neighbours in ascending id order.  Without
    `candidates` every pair is tested.  With them, a population seen before
    is tested on its candidates alone while no vehicle has moved more than
    half of `SENSING_SKIN` since they were found (a NaN position counts as
    moved), and finds them again, within radius + skin, when one has; a new
    population is tested on every pair, and its ids are kept.

    The rows are the same either way.  A pair within radius now, whose two
    vehicles each moved at most skin / 2, was within radius + skin when the
    candidates were found (triangle inequality), so it is a candidate; that
    holds for any positive skin, which only trades how often the candidates
    are found again against how many there are.  The cut-off is widened by a
    relative 1e-12, far above the few-ulp relative rounding of a float64
    squared distance, so no tie slips between the tests.  A candidate is kept
    by the same float64 operations as the all-pairs test, (xi - xj)² +
    (yi - yj)² <= radius², so on the same bits.
    """
    if not ids:
        return {}
    order = sorted(ids)
    n = len(order)
    xy = np.fromiter(chain.from_iterable(map(positions.__getitem__, order)), float, 2 * n)
    x, y = xy[0::2], xy[1::2]
    if candidates is None or candidates.ids != order:
        if candidates is not None:
            candidates.ids, candidates.xy, candidates.pairs = order, None, None
        pairs = _pairs_within(x, y, radius)
    else:
        if candidates.xy is None or not _moved_at_most(xy, candidates.xy, SENSING_SKIN / 2):
            candidates.xy = xy
            candidates.pairs = _pairs_within(x, y, (radius + SENSING_SKIN) * (1 + 1e-12))
        pairs = candidates.pairs
        i, j = np.divmod(pairs, n)
        d2 = x[i] - x[j]
        dy = y[i] - y[j]
        d2 *= d2
        dy *= dy
        d2 += dy
        pairs = pairs[d2 <= radius * radius]
    neighbours = np.array(order)[pairs % n].tolist()
    ends = np.searchsorted(pairs, np.arange(n, n * n + 1, n)).tolist()
    out: dict[int, list[int]] = {}
    lo = 0
    for vid, hi in zip(order, ends):
        out[vid] = neighbours[lo:hi]
        lo = hi
    return out


def _moved_at_most(xy: np.ndarray, then: np.ndarray, limit: float) -> bool:
    """Whether no vehicle lies more than `limit` from where it was; False on a NaN."""
    moved = xy - then
    moved *= moved
    # NaN compares False, and max passes it on
    return bool((moved[0::2] + moved[1::2]).max() <= limit * limit)


_queue_order = attrgetter("ready_us", "msg_id")


class ContentionArena:
    """Broadcast contention on one channel over one window.

    Every frame is one message of the MAC's payload, so every frame has the
    one airtime `frame_airtime(mac)`.  Sensing is symmetric: a node senses
    the senders in its `cs_adj` row, and they sense it.

    The listeners and their wiring come from the caller's `Stations`, wired
    once per topology by its owner.  Building the arena resets every
    station's state, and `run` reads all it needs into the result, so the
    next arena on the same stations cannot change an earlier result.

    Timing model: a node with a pending frame schedules its start `counter`
    unhindered slots after the latest of window start, frame readiness, and
    the end of its post-burst spacing.  Sensing a start before then freezes
    the counter mid-slot, keeping the whole slots left before the scheduled
    start (more than it held, if the start came during the spacing); the
    node resumes one inter-frame spacing after the burst ends — DIFS when it
    sensed a single frame, EIFS when frames overlapped.  A frame that cannot
    finish before the window closes is never started (it stays pending).
    Broadcast frames are never retried.

    The loop is event-driven: after each event time only the nodes that
    event touched are examined again.  They are examined in ascending id
    order, so back-off draws come off `rng` in the same order as a scan over
    every node would take them.  A drained node, one with neither a head
    frame nor a queue, is never examined, since examining it could schedule
    nothing; adding a frame to it marks it for examination.  Nor is a
    transmitting node: it takes up its next frame when its own frame ends.
    A node whose head is not ready yet wakes at the head's ready time, from
    the heap of scheduled starts: only a ready head draws a counter, so an
    entry for a node without one is a wake, not a start.  A wake whose node
    senses a frame at that time is dropped as if stale when it reaches the
    top of the heap: the examination it would trigger draws nothing, stamps
    only grow, and the end that frees the node marks it.  Whether a node
    senses a frame, and when its spacing ends, follow from its start stamps
    (see `_Node`).  When a frame that started at ts ends, each listener of
    its sender is visited once: one whose latest stamp is ts is free now,
    and one that stamped a later start is busy past the end, so it neither
    resumes nor becomes ready to count.

    A freed listener whose head is ready and whose counter is drawn
    resumes in place, unless a frame starts at that instant: it draws
    nothing, so it takes no counter out of id order.  Its start is staged
    on a short `armed` list rather than the heap of scheduled starts,
    because the next start often freezes it again (in a clique, always).
    Only a start changes a staged start, so the earliest one is kept as a
    running minimum until the next start; that start merges the staged
    starts with the heap's in id order, and only those it leaves armed move
    to the heap.  A start that a sensed start freezes stays in the heap,
    stale, until it comes up.  Every frame has the one airtime, so frames
    end in the order they start: the frames on air are the last ones in
    `transmissions`, after those that have ended.

    Back-off counters are drawn in blocks, one counter for each frame that
    has not drawn yet, because one draw of many counters costs little more
    host time than a single draw.  The counters used are those that one draw
    per counter would give.  A block may hold counters the run never uses,
    so callers draw their hand-offs from `rng` before the run.

    Reception is decided when a frame ends, in the pass over its listeners
    when they are its receivers (equal radii).  With airtime A, a receiver
    decodes a frame that started at ts when the only start it sensed or
    made in the open interval (ts - A, ts + A) is that frame's; a receiver
    that does not sense the sender (a reception radius wider than the
    sensing radius) decodes when it sensed or made none there.  Ends come
    before starts at the same instant, so a frame that starts as another
    ends does not overlap it.  Each listener keeps two start stamps, `last`
    and `hit` (see `_Node`): at the frame's end a sensing receiver decoded
    when `last == ts != hit`, a hidden one when `last <= ts - A`.  A sensed
    start at or before `last + A`, where the burst the listener sensed last
    ends, extends that burst (EIFS follows).  Deliveries are not tallied
    while the arena runs (`ArenaResult` and `status_heard` read them off the
    transmissions), except on a flooding arena, which must know each
    receiver's first delivery to relay it once.
    """

    def __init__(
        self,
        *,
        channel: int,
        window: tuple[int, int],
        mac: MacParams,
        chain_mode: str,
        stations: Stations,
        rng: np.random.Generator,
        flooding: bool = False,
        flood_exclude: Iterable[int] = (),
    ) -> None:
        self.channel = channel
        self.window_start, self.window_end = window
        if self.window_end < self.window_start:
            raise ValueError("arena window must not be inverted")
        if chain_mode not in (MODE_STANDARD, MODE_EMERGENCY):
            raise ValueError(f"unknown back-off mode {chain_mode!r}")
        self.mac = mac
        self.chain_mode = chain_mode
        self.stations = stations
        self.rng = rng
        self.flooding = flooding
        self.flood_exclude = frozenset(flood_exclude)
        self.sigma = mac.sigma
        self.difs = mac.difs
        self.eifs = int(round(mac.eifs_us))
        self.airtime = max(1, int(round(frame_airtime(mac))))
        self._nodes = stations.nodes
        for node in self._nodes.values():
            node.reset()
        self._all_tx: list[TxRecord] = []
        self._dirty: set[int] = set()   # nodes to examine at the next event time
        # back-off counters: every frame draws at most one, so the frames
        # added less the counters used bound how many can still be used
        self._owed = 0                   # frames added less counters used
        self._block: list[int] = []      # unused slot counts of the last block, reversed

    # -- frame intake -----------------------------------------------------

    def add_frames(self, frames: Sequence[Frame]) -> None:
        """Queue frames at their senders, each in (ready, msg) order among those it joins."""
        nodes, dirty = self._nodes, self._dirty
        for frame in frames:
            node = nodes.get(frame.sender_id)
            if node is None:
                raise ValueError(f"sender {frame.sender_id} is not tuned to channel {self.channel}")
            if node.queue:
                insort(node.queue, frame, key=_queue_order)
            else:
                node.queue.append(frame)
            dirty.add(frame.sender_id)
        self._owed += len(frames)

    def _draw_slots(self) -> int:
        """The idle slots of one frame's countdown, from its back-off counter."""
        if not self._block:
            counters = draw_counter(self.mac, self.rng, max(1, self._owed))
            if self.chain_mode == MODE_EMERGENCY:
                counters = [(counter + 1) // 2 for counter in counters]
            self._block = counters[::-1]
        self._owed -= 1
        return self._block.pop()

    # -- main loop --------------------------------------------------------

    def run(self) -> ArenaResult:
        nodes, dirty, cs_adj = self._nodes, self._dirty, self.stations.cs_adj
        sensed_by_of, receivers_of = self.stations.sensed_by, self.stations.receivers
        window_end, sigma, airtime = self.window_end, self.sigma, self.airtime
        difs, eifs = self.difs, self.eifs
        transmissions = self._all_tx
        draw_slots = self._draw_slots
        heappush, heappop = heapq.heappush, heapq.heappop
        fires: list[tuple[int, int]] = []       # (fire_us, nid); stale when node.fire differs
        armed: list[tuple[int, _Node]] = []     # (fire_us, node) resumed in place, as fires
        idle = window_end + 1                   # `staged` while nothing is armed
        staged = idle                           # the earliest armed start
        ended = 0                               # transmissions[ended:] are on air
        # the (message, receiver) pairs delivered so far, kept only when
        # first deliveries relay
        delivered: Optional[set[tuple[str, int]]] = set() if self.flooding else None
        t = self.window_start
        while True:
            quiet = t - airtime   # a node that stamped no start after it senses nothing
            for nid in sorted(dirty) if len(dirty) > 1 else dirty:
                node = nodes[nid]
                head = node.head
                if head is None:
                    head = node.head = node.queue.pop(0)
                    node.remaining = None
                fire = None
                # t starts at the window start, so an early head is ready at once
                if head.ready_us > t:
                    fire = head.ready_us   # a wake: it draws its counter once ready
                elif node.last <= quiet:
                    remaining = node.remaining
                    if remaining is None:
                        remaining = node.remaining = draw_slots()
                    elif node.fire is not None:
                        continue   # counting down to the start it has
                    # the head is ready by t, so only the spacing can end later
                    resume = node.last + airtime + (difs if node.ext != node.last else eifs)
                    fire = node.fire = (t if t >= resume else resume) + remaining * sigma
                    if fire + airtime <= window_end:   # else it cannot complete inside the window
                        heappush(fires, (fire, nid))
                    continue
                if fire != node.fire:
                    node.fire = fire
                    if fire is not None:
                        heappush(fires, (fire, nid))
            dirty.clear()

            while fires:
                fire, nid = fires[0]
                node = nodes[nid]
                if node.fire == fire:
                    if node.remaining is not None or node.last <= fire - airtime:
                        break
                    # a wake whose station senses a frame at its ready time:
                    # it would draw nothing then, and the end that frees it
                    # marks it dirty, so drop it as if stale
                    node.fire = None
                heappop(fires)
            t = staged   # the earliest event; none inside the window ends the loop
            if fires and fires[0][0] < t:
                t = fires[0][0]
            if ended < len(transmissions) and transmissions[ended].end_us < t:
                t = transmissions[ended].end_us
            if t > window_end:
                break

            starters: list[_Node] = []
            while fires and fires[0][0] == t:
                node = nodes[heappop(fires)[1]]
                if node.fire == t:
                    node.fire = None
                    if node.remaining is None:
                        dirty.add(node.nid)   # a wake: only a ready head draws a counter
                    else:
                        starters.append(node)
            if staged == t:
                for fire, node in armed:
                    if fire == t and node.fire == t:   # not already popped
                        node.fire = None
                        starters.append(node)
                if len(starters) > 1:
                    starters.sort(key=_nid)

            # one pass over each ended frame's listeners.  One whose latest
            # stamp is the frame's start sensed no later start, so is free
            # now; it is not transmitting, or started with the frame and so
            # ends now too.  A node with a queue but no head is dirty, or on
            # air until its own end marks it, so only nodes with a head need marking
            while ended < len(transmissions) and transmissions[ended].end_us == t:
                rec = transmissions[ended]   # in sender order
                ended += 1
                sid = rec.sender_id
                sender = nodes[sid]
                rec.concurrent += len(transmissions)
                # no start comes between the ends at t, so the stamps
                # read here are those each listener had when rec ended
                ts = rec.start_us
                sensed_by, receivers = sensed_by_of[sid], receivers_of[sid]
                shared = receivers is sensed_by
                if shared:
                    received = []
                else:
                    received = [node.nid for node in receivers
                                if (node.last == ts and node.hit != ts
                                    if sid in cs_adj[node.nid] else node.last <= ts - airtime)]
                for node in sensed_by:
                    if node.last != ts:
                        continue   # a later start keeps it busy past t
                    if shared and node.hit != ts:
                        received.append(node.nid)
                    remaining = node.remaining
                    # a start it sensed cleared its scheduled start, and nothing
                    # sets one while it senses: a frame ending with this one
                    # resumed it, so it is counting again
                    if node.head is None or (remaining is not None and node.fire is not None):
                        continue
                    if starters or remaining is None:
                        dirty.add(node.nid)
                        continue
                    # resume in place: with no start at t nothing else can
                    # touch it before the dirty nodes are examined, and it
                    # draws nothing, so it takes no counter out of id order.
                    # Its burst ends at t, and no spacing is negative
                    fire = node.fire = t + (difs if node.ext != ts else eifs) + remaining * sigma
                    if fire + airtime <= window_end:
                        armed.append((fire, node))
                        if fire < staged:
                            staged = fire
                rec.received_by = received
                if delivered is not None and received:
                    frame = rec.frame
                    msg_id = frame.msg_id
                    for receiver in received:
                        key = (msg_id, receiver)
                        if key not in delivered:
                            delivered.add(key)
                            if not frame.is_rebroadcast:
                                self._maybe_flood(frame, receiver, t)
                # its own frame has ended, and it senses nothing now: it
                # started sensing nothing, and with symmetric sensing any
                # frame it sensed since started with its own, so ends now too
                sender.ext = _LONG_AGO
                if sender.queue:
                    dirty.add(sid)

            if starters:
                end = t + airtime
                cut = t - airtime   # a start after cut overlaps one at t
                # frames on air at this start, less the transmissions started
                # by now: adding those started by a frame's end gives its
                # `concurrent`
                offset = -1 - ended
                for node in starters:
                    nid = node.nid
                    # (sender, start, end, frame, concurrent, in_range_count)
                    rec = TxRecord(nid, t, end, node.head, offset, len(receivers_of[nid]))
                    transmissions.append(rec)
                    node.head = None
                    node.remaining = None
                    # it sensed nothing and was not transmitting, so no
                    # earlier start overlaps this one
                    node.last = t
                for sender in starters:
                    for node in sensed_by_of[sender.nid]:
                        # every frame has the one airtime, so the burst it
                        # sensed last ends at last + airtime.  A transmitting
                        # node's `ext` is cleared when its own frame ends
                        last = node.last
                        if last >= cut:
                            node.ext = t
                            if last > cut:
                                node.hit = t
                        node.last = t
                        fire = node.fire
                        if fire is not None and node.remaining is not None:   # counting
                            # a frozen counter keeps the whole slots left before its start
                            remaining = -((t - fire) // sigma)
                            node.remaining = remaining if remaining > 0 else 0
                            node.fire = None
                # the staged starts this start left armed move to the heap.
                # Until now none could change: only a start resets a start,
                # and the dirty loop gives an armed node the start it has
                for fire, node in armed:
                    if node.fire == fire:
                        heappush(fires, (fire, node.nid))
                armed.clear()
                staged = idle

        return self._build_result()

    def _maybe_flood(self, frame: Frame, receiver: int, now: int) -> None:
        """Queue the one rebroadcast of a first delivery.

        Called once per (message, receiver) of an original frame on a flooding
        arena, so each vehicle relays a message at most once; `flood_exclude`
        receivers relay nothing.
        """
        if receiver in self.flood_exclude:
            return
        self.add_frames((Frame(frame.msg_id, receiver, now, True),))

    def _build_result(self) -> ArenaResult:
        nodes, window_end = self._nodes, self.window_end
        own_senders: set[int] = set()
        successful: set[int] = set()
        for rec in self._all_tx:
            if not rec.frame.is_rebroadcast:
                own_senders.add(rec.sender_id)
                if rec.received_by:
                    successful.add(rec.sender_id)
        pending: set[int] = set()
        for nid, node in nodes.items():
            if node.head is None and not node.queue:
                continue   # drained: nothing waiting
            frames = node.queue if node.head is None else [node.head, *node.queue]
            if any(not f.is_rebroadcast for f in frames):
                own_senders.add(nid)
            if any(f.ready_us < window_end for f in frames):
                pending.add(nid)
        eligible = {nid for nid in own_senders if self.stations.receivers[nid]}
        ptr = len(successful & eligible) / len(eligible) if eligible else None
        return ArenaResult(
            transmissions=self._all_tx,
            ptr=ptr,
            pending_senders=pending,
        )


# -- the multi-interval world ---------------------------------------------


@dataclass(slots=True)
class SiSnapshot:
    """One interval at one channel count: its channel picks, its status storm, its election.

    The status table and the election are each made when first read; the
    election runs the averages (E3) storm, which the world keeps on the
    interval, then `coordinate`.  So an interval whose election nothing reads
    runs neither, and one read later, after the world has sensed a later
    interval, elects as it would have at once.  Each averages frame is one
    whole broadcast: that storm neither floods nor carries other frames.
    """

    interval: Interval
    sch: dict[int, int]
    e1: ArenaResult
    heard: dict[int, set[int]]   # its status storm, as `status_heard` reads it
    reach: list[float]   # per vehicle, the share of the others that decoded its status broadcast
    y: int
    world: World
    _heard_on: Optional[StatusTable] = field(default=None, init=False, repr=False)
    _election: Optional[list[ElectionRow]] = field(default=None, init=False, repr=False)

    @property
    def heard_on(self) -> StatusTable:
        if self._heard_on is None:
            self._heard_on = status_table(self.sch, self.interval.positions, self.heard.items())
        return self._heard_on

    @property
    def election(self) -> list[ElectionRow]:
        if self._election is None:
            interval = self.interval
            e3 = self.world.storm(interval, Phase.E3)
            e3_heard = map(attrgetter("sender_id", "received_by"), e3.transmissions)
            self._election = coordinate(interval.si_index, interval.positions,
                                        self.sch, self.y, self.heard_on, e3_heard)
        return self._election

    def members_of(self, channel: int) -> list[int]:
        """The channel's members, in the interval's ascending id order."""
        return [v for v in self.interval.ids if self.sch[v] == channel]


StatusTable = dict[int, dict[int, list[tuple[float, float]]]]   # channel -> vehicle -> heard


def status_table(
    sch: Mapping[int, int],
    positions: Mapping[int, tuple[float, float]],
    e1_heard: Iterable[tuple[int, Collection[int]]],
) -> StatusTable:
    """Fold one interval's status storm, as `status_heard` reads it, into its status table.

    Each bucket keeps heard order: an average sums its distances in list
    order, and that order fixes the float's last bits.
    """
    heard_on: StatusTable = {}
    for sender, receivers in e1_heard:
        z, pos = sch[sender], positions[sender]
        peers_of = heard_on.setdefault(z, {})
        for r in receivers:
            peers = peers_of.get(r)
            if peers is None:
                peers_of[r] = [pos]
            else:
                peers.append(pos)
    return heard_on


def coordinate(
    si_index: int,
    positions: dict[int, tuple[float, float]],
    sch: dict[int, int],
    y: int,
    heard_on: StatusTable,
    e3_heard: Iterable[tuple[int, Collection[int]]],
) -> list[ElectionRow]:
    """Elect one interval's coordinators from its status table and averages storm.

    Each vehicle averages its distance to the status (E1) senders it heard
    on every other channel, one bucket of `heard_on` each, then elects itself
    against the averages (E3) broadcasts it heard, as (sender, receivers)
    pairs.  `sch` keys every vehicle of the interval.
    """
    own_avgs: dict[int, dict[int, Optional[float]]] = {v: {} for v in sch}
    for z, peers_of in heard_on.items():
        for vid, peers in peers_of.items():
            if sch[vid] != z:
                own_avgs[vid][z] = average_distance_to_sch(positions[vid], peers)
    return elect_coordinators(si_index, sch, own_avgs, e3_heard, y)


def _message_ids(kind: str, si_index: int, ids: Iterable[int]) -> list[str]:
    """The ids of one interval's status ("bsm") or averages ("avg") broadcasts, one per sender."""
    prefix = f"{kind}-{si_index}-"
    return [f"{prefix}{vid}" for vid in ids]


def status_heard(si_index: int, ids: Sequence[int], e1: ArenaResult) -> dict[int, set[int]]:
    """Who decoded each of one interval's status (`bsm-`) broadcasts, by sender.

    Other frames, such as a legacy frame, are left out.  Senders come in the
    order of their first delivery, and flooded copies add their receivers,
    a vehicle whose own message was relayed back to it among them.
    """
    senders = dict(zip(_message_ids("bsm", si_index, ids), ids))
    heard: dict[int, set[int]] = {}
    for rec in e1.transmissions:
        sender = senders.get(rec.frame.msg_id)
        if sender is not None and rec.received_by:
            heard.setdefault(sender, set()).update(rec.received_by)
    return heard


StormKey = tuple[Phase, bool, Optional[tuple]]   # (phase, flooding, the legacy frame's fields)


def _storm_key(phase: Phase, flooding: bool, legacy: Optional[Frame]) -> StormKey:
    return phase, flooding, None if legacy is None else astuple(legacy)


@dataclass(slots=True)
class Interval:
    """Who is on the road at the start of one interval, who hears whom, and what it drew.

    The adjacencies are built once when the interval is sensed: each
    vehicle's neighbours in ascending id order.  With equal radii `rx_adj` is
    `cs_adj`, so each vehicle's two rows are one object.  Every storm of the
    interval runs on `stations`, wired once from them.  The storms, each
    status storm's receptions by sender and reach samples, and the channel
    picks are kept here when first made.
    """

    si_index: int
    ids: list[int]
    positions: dict[int, tuple[float, float]]
    cs_adj: dict[int, list[int]]
    rx_adj: dict[int, list[int]]
    stations: Stations
    storms: dict[StormKey, ArenaResult] = field(default_factory=dict)
    heard: dict[StormKey, dict[int, set[int]]] = field(default_factory=dict)   # status storms
    reach: dict[StormKey, list[float]] = field(default_factory=dict)           # status storms
    picks: dict[int, dict[int, int]] = field(default_factory=dict)     # by channel count


class World:
    """One seed's world, shared by every channel count and flooding mode.

    Mobility, both adjacencies and the averages (E3) storm depend on the seed
    only, and the plain status (E1) storm on the seed and the flooding mode:
    every vehicle contends on the one control channel however many service
    channels are advertised.  Only the channel picks and the election depend
    on the channel count y.  `sense` returns one `Interval` per interval and
    keeps the latest; mobility cannot rewind, so asking for an older interval
    raises, and once a step fails every later request raises that failure, so
    no run of the seed goes on from a half-advanced state.  `storm` simulates
    each storm of an interval once, when first asked, and keeps it on that
    interval, so it serves an older interval as well as the latest.  A storm
    with a legacy frame injected is kept the same way, keyed by the flooding
    mode and the frame's fields: legacy's re-run is the same at every channel
    count, since its frame depends on the seed and the interval only.
    """

    def __init__(
        self,
        *,
        net: RoadNetwork,
        si: SyncIntervalConfig,
        mobility: MobilityConfig,
        radio: RadioParams,
        mac: MacParams,
        queue: QueueParams,
        seed: int,
        trace: Optional[list] = None,
    ) -> None:
        self.si = si
        self.mac = mac
        self.queue = queue
        self.seed = seed
        self.trace = trace   # each arena of the seed has its rows appended here, unless None
        self.rx_range = reception_range(radio)
        self.cs_range = sensing_range(radio)
        self.model = MobilityModel(net, mobility,
                                   np.random.default_rng([seed, MOBILITY_STREAM]),
                                   tick_us=si.si_length)
        self._latest: Optional[Interval] = None
        self._error: Optional[Exception] = None
        # each radius's candidate pairs, kept across intervals by `adjacency`
        self._candidates = {r: Candidates() for r in (self.cs_range, self.rx_range)}

    # -- random streams ----------------------------------------------------

    def stream(self, si_index: int, channel: int, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, si_index, channel, tag])

    # -- intervals -----------------------------------------------------------

    def sense(self, si_index: int) -> Interval:
        """Ids, positions and both adjacencies at the start of one interval.

        Mobility advances straight to it, tick by tick, so the first interval
        sensed may lie past a warm-up whose intervals are never sensed.  The
        model keeps its vehicles in id order, so the ids need no sort.  Equal
        sensing and reception radii give one adjacency for both.  Each
        radius keeps its candidate pairs from one interval to the next (see
        `adjacency`), so a population that stays the same is not tested pair
        by pair again.  The interval's stations are wired once from these rows.
        """
        if self._error is not None:
            raise self._error
        latest = self._latest
        if latest is not None and si_index <= latest.si_index:
            if si_index == latest.si_index:
                return latest
            raise ValueError(
                f"interval {si_index} is older than the latest one sensed "
                f"({latest.si_index}); mobility cannot rewind"
            )
        try:
            t0 = si_index * self.si.si_length
            self.model.advance_to(t0)
            positions = dict(self.model.positions_at(t0))
            ids = list(positions)   # in id order, as the model keeps them
            cs, rx = self.cs_range, self.rx_range
            cs_adj = adjacency(ids, positions, cs, self._candidates[cs])
            rx_adj = cs_adj if rx == cs else adjacency(ids, positions, rx, self._candidates[rx])
        except Exception as exc:
            self._error = exc
            raise
        self._latest = Interval(si_index, ids, positions, cs_adj, rx_adj,
                                Stations(ids, cs_adj, rx_adj))
        return self._latest

    def storm(
        self,
        interval: Interval,
        phase: Phase,
        flooding: bool = False,
        legacy: Optional[Frame] = None,
    ) -> ArenaResult:
        """The control-channel storm of one interval's E1 (status) or E3 (averages) window.

        It runs on the interval's stations.  A failed storm is not kept:
        asking again simulates it again, and fails the same way.
        """
        key = _storm_key(phase, flooding, legacy)
        result = interval.storms.get(key)
        if result is not None:
            return result
        si_index, ids = interval.si_index, interval.ids
        phase_tag, kind = {Phase.E1: (E1_TAG, "bsm"), Phase.E3: (E3_TAG, "avg")}[phase]
        window = phase_window(si_index, phase, self.si)
        arena = ContentionArena(
            channel=CCH, window=window, mac=self.mac, chain_mode=MODE_STANDARD,
            stations=interval.stations, rng=self.stream(si_index, CCH, phase_tag),
            flooding=flooding,
        )
        start = window[0]
        readies = [start + handoff for handoff in handoff_us(arena.rng, self.queue, len(ids))]
        if legacy is not None:
            arena.add_frames([legacy])
            # the origin's own status message is ready after the legacy frame
            readies = [max(ready, legacy.ready_us + 1) if vid == legacy.sender_id else ready
                       for vid, ready in zip(ids, readies)]
        arena.add_frames(list(map(Frame, _message_ids(kind, si_index, ids), ids, readies)))
        interval.storms[key] = result = self.trace_arena(CCH, arena.run())
        return result

    def trace_arena(self, channel: int, result: ArenaResult) -> ArenaResult:
        """Append each frame's tx_start and tx_end rows to the trace, if kept, in start order."""
        if self.trace is not None:
            for rec in result.transmissions:
                self.trace.extend(((rec.start_us, "tx_start", rec.sender_id, channel),
                                   (rec.end_us, "tx_end", rec.sender_id, channel)))
        return result

    def pick_channels(self, si_index: int, ids: Sequence[int], y: int) -> dict[int, int]:
        rng = self.stream(si_index, CCH, SCH_STREAM)
        draws = rng.integers(0, y, size=len(ids)).tolist()
        return {vid: 1 + d for vid, d in zip(ids, draws)}

    def run_interval(
        self, si_index: int, y: int, flooding: bool = False, legacy: Optional[Frame] = None,
    ) -> SiSnapshot:
        """One control interval at channel count y: the channel picks and the status storm.

        A `legacy` frame joins the status storm.  Sensing, the storms, who
        heard each status broadcast, the reach samples and the picks are kept
        on the interval, so running the latest interval again differs only by
        that frame, and the picks of one y serve both flooding modes.  The
        snapshot elects when its election is first read.
        """
        interval = self.sense(si_index)
        ids = interval.ids
        e1 = self.storm(interval, Phase.E1, flooding, legacy)
        key = _storm_key(Phase.E1, flooding, legacy)
        heard = interval.heard.get(key)
        if heard is None:
            heard = interval.heard[key] = status_heard(si_index, ids, e1)
            others = len(ids) - 1
            interval.reach[key] = [len(heard.get(v, ())) / others for v in ids] if others else []
        sch = interval.picks.get(y)
        if sch is None:
            sch = interval.picks[y] = self.pick_channels(si_index, ids, y)
        return SiSnapshot(interval=interval, sch=sch, e1=e1, heard=heard,
                          reach=interval.reach[key], y=y, world=self)
