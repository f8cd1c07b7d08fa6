"""Independent brute-force oracles used by the test suite.

Each oracle recomputes a quantity the library provides in closed form,
using a method with no shared code: a transition matrix, power iteration
and a slot-by-slot run for the back-off chain, an event-driven M/M/1/B
queue simulation, birth-death sums for queue moments, and exhaustive
search for coordinator election.  `ScanArena` is the reference for the
event-driven contention arena: it rescans every node at every event and
shares only frame intake, back-off draws and flooding with it.  The
per-vehicle coordination tables (`Cfib`, folded one broadcast at a time by
`update_cfib`) and `table_interval_election`, which folds one interval's
heard broadcasts through them, are the reference for the one-pass election
fold `simulation.coordinate`.  `window_by_window_sweep` runs one `ScanArena`
per (window, seed) and is the reference for `experiment.interval_sweep`,
which reads every window off one arena per seed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from mcwave.analytics import QueueParams
from mcwave.coordination import ElectionRow, average_distance_to_sch
from mcwave.experiment import IntervalPoint
from mcwave.mac import MODE_STANDARD, MacParams, frame_airtime
from mcwave.simulation import (
    CCH,
    MESH_TAG,
    ContentionArena,
    Frame,
    Stations,
    TxRecord,
    decode_ratios,
    handoff_us,
)


# ---------------------------------------------------------------------------
# Back-off chain: explicit transition matrix + power iteration
# ---------------------------------------------------------------------------

def single_counter(mac: MacParams, rng: np.random.Generator) -> int:
    """One back-off counter as numpy draws it alone: the reference for counter blocks."""
    return int(rng.integers(0, mac.cw_min + 1))


def backoff_transition_matrix(w0: int, p_b: float, p_a: float, rho: float) -> np.ndarray:
    """Explicit single-stage back-off transition matrix.

    States 0..w0-1 are counter values; state w0 is the idle (no packet)
    state.  During a busy slot (probability p_b) the counter freezes; during
    an idle slot a counter k >= 1 decrements, and a node at counter 0
    transmits, then re-enters uniformly over {0..w0-1} if another packet is
    queued (probability rho) or parks in idle otherwise.  From idle, an
    arrival (probability p_a) enters the chain uniformly.
    """
    n = w0 + 1
    p = np.zeros((n, n))
    for k in range(1, w0):
        p[k, k] = p_b
        p[k, k - 1] = 1.0 - p_b
    # counter 0: freeze while busy, transmit on an idle slot and re-enter
    p[0, 0] += p_b
    for j in range(w0):
        p[0, j] += (1.0 - p_b) * rho / w0
    p[0, w0] = (1.0 - p_b) * (1.0 - rho)
    # idle state: arrivals enter the chain regardless of channel state
    for j in range(w0):
        p[w0, j] = p_a / w0
    p[w0, w0] = 1.0 - p_a
    return p


def power_iteration_stationary(p: np.ndarray, tol: float = 1e-15, max_iter: int = 2_000_000) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix by power iteration."""
    n = p.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = v @ p
        if np.max(np.abs(nxt - v)) < tol:
            return nxt
        v = nxt
    return v


def oracle_backoff_stationary(w0: int, p_b: float, p_a: float, rho: float) -> tuple[np.ndarray, float]:
    """Return (occupancies of counters 0..w0-1, idle occupancy)."""
    pi = power_iteration_stationary(backoff_transition_matrix(w0, p_b, p_a, rho))
    return pi[:w0], pi[w0]


def simulate_chain(decrement: int, w0: int, p_b: float, p_a: float, rho: float,
                   n_slots: int, rng: np.random.Generator) -> float:
    """Empirical per-slot transmission rate of one back-off chain over n_slots.

    Each slot is busy with probability p_b, which freezes the counter; an
    idle slot lowers it by `decrement` (floored at zero), or transmits from
    zero.  After a transmission the next packet is queued with probability
    rho, else the node idles until a Bernoulli(p_a) arrival; it re-enters at
    a counter uniform on {0, ..., w0 - 1}.
    """
    k, in_chain, transmissions, done = int(rng.integers(0, w0)), True, 0, 0
    while done < n_slots:
        count = min(1 << 16, n_slots - done)
        busy = (rng.random(count) < p_b).tolist()
        gates = rng.random(count).tolist()  # arrival / queue-refill draws
        entries = rng.integers(0, w0, count).tolist()
        for i in range(count):
            if not in_chain:
                if gates[i] < p_a:
                    k, in_chain = entries[i], True
            elif busy[i]:
                continue
            elif k:
                k = max(0, k - decrement)
            else:
                transmissions += 1
                if gates[i] < rho:
                    k = entries[i]
                else:
                    in_chain = False
        done += count
    return transmissions / n_slots


# ---------------------------------------------------------------------------
# M/M/1/B: birth-death closed form and discrete-event simulation
# ---------------------------------------------------------------------------

def oracle_mm1b_moments(lam: float, mu: float, capacity: int) -> tuple[float, float]:
    """(E[number in system], E[sojourn of accepted customers]).

    Computed from the birth-death stationary distribution over 0..B and
    Little's law, with no closed-form simplification.
    """
    rho = lam / mu
    weights = [rho ** n for n in range(capacity + 1)]
    total = sum(weights)
    pi = [w / total for w in weights]
    e_b = sum(n * pi[n] for n in range(capacity + 1))
    p_block = pi[capacity]
    accepted_rate = lam * (1.0 - p_block)
    e_q = e_b / accepted_rate
    return e_b, e_q


def simulate_mm1b(lam: float, mu: float, capacity: int, n_arrivals: int, seed: int) -> tuple[float, float]:
    """Event-driven M/M/1/B run; returns (mean number in system, mean sojourn).

    The loop runs over Python floats, which iterate faster than numpy scalars.
    """
    rng = np.random.default_rng(seed)
    interarrivals = rng.exponential(1.0 / lam, n_arrivals).tolist()
    services = rng.exponential(1.0 / mu, n_arrivals).tolist()
    t = 0.0
    n = 0
    area = 0.0
    accepted = 0
    total_sojourn = 0.0
    in_system: deque[float] = deque()   # arrival times, first in first out
    i_srv = 0
    next_departure = math.inf
    arrival_time = 0.0
    for gap in interarrivals:
        arrival_time += gap
        while next_departure <= arrival_time:
            area += n * (next_departure - t)
            t = next_departure
            n -= 1
            total_sojourn += t - in_system.popleft()
            if n > 0:
                next_departure = t + services[i_srv]
                i_srv += 1
            else:
                next_departure = math.inf
        area += n * (arrival_time - t)
        t = arrival_time
        if n < capacity:
            n += 1
            in_system.append(arrival_time)
            accepted += 1
            if n == 1:
                next_departure = t + services[i_srv]
                i_srv += 1
    while n > 0:
        area += n * (next_departure - t)
        t = next_departure
        n -= 1
        total_sojourn += t - in_system.popleft()
        if n > 0:
            next_departure = t + services[i_srv]
            i_srv += 1
        else:
            next_departure = math.inf
    return area / t, total_sojourn / accepted


# ---------------------------------------------------------------------------
# Coordinator election: exhaustive search
# ---------------------------------------------------------------------------

def oracle_elect(
    positions: dict[int, tuple[float, float]],
    selected: dict[int, int],
    cluster_k: int,
    target_z: int,
) -> tuple[int, float] | None:
    """Exhaustive minimum-average-distance coordinator for cluster k toward z.

    Returns (vehicle id, average distance) or None when no vehicle targets z
    or the cluster is empty.  Ties resolve to the lowest vehicle id.
    """
    members = sorted(v for v, sch in selected.items() if sch == cluster_k)
    targets = [v for v, sch in selected.items() if sch == target_z]
    if not members or not targets:
        return None
    best: tuple[float, int] | None = None
    for m in members:
        mx, my = positions[m]
        dists = [math.dist((mx, my), positions[t]) for t in targets]
        avg = sum(dists) / len(dists)
        if best is None or (avg, m) < best:
            best = (avg, m)
    return best[1], best[0]


# ---------------------------------------------------------------------------
# Coordinator election: per-vehicle coordination tables
# ---------------------------------------------------------------------------

Position = tuple[float, float]


class CoordinatorAssignment(NamedTuple):
    """One member's self-election towards one foreign channel, as its own table decides it."""

    from_sch: int
    to_sch: int
    coordinator: int
    lad: float


@dataclass(frozen=True, slots=True)
class Bsm:
    """One status broadcast.

    Early-window broadcasts carry position and channel choice only
    (avg_distances is None); exchange-window broadcasts add the sender's
    per-channel average distances.
    """

    sender_id: int
    position: Position
    selected_sch: int
    timestamp_us: int
    avg_distances: Optional[Mapping[int, float]] = None


@dataclass(slots=True)
class CfibEntry:
    """One channel's row of a vehicle's fitness table."""

    sch_z: int
    own_avg: Optional[float] = None
    peer_avgs: dict[int, float] = field(default_factory=dict)
    fitness: Optional[int] = None


@dataclass(slots=True)
class Cfib:
    """A vehicle's coordination table: per-channel averages and ranks.

    peer_reports keeps the freshest heard broadcast per sender so duplicate
    or reordered broadcasts fold in idempotently.
    """

    owner_id: int
    owner_sch: int
    entries: dict[int, CfibEntry] = field(default_factory=dict)
    peer_reports: dict[int, tuple[int, int, dict[int, float]]] = field(default_factory=dict)

    def entry(self, z: int) -> CfibEntry:
        if z not in self.entries:
            self.entries[z] = CfibEntry(sch_z=z)
        return self.entries[z]


def _recompute(cfib: Cfib) -> None:
    """Rebuild per-channel peer lists and fitness ranks from the reports.

    Fitness towards z is 1 + the number of same-cluster peers whose
    (average, id) pair is strictly smaller, so rank 1 means "I believe I am
    the coordinator"; the id component makes ties deterministic.
    """
    channels = set(cfib.entries)
    for _, _, avgs in cfib.peer_reports.values():
        channels.update(avgs)
    for z in channels:
        entry = cfib.entry(z)
        entry.peer_avgs = {
            sender: avgs[z]
            for sender, (_, _, avgs) in cfib.peer_reports.items()
            if z in avgs
        }
        if entry.own_avg is None:
            entry.fitness = None
            continue
        own_key = (entry.own_avg, cfib.owner_id)
        rank = 1
        for sender, (_, sender_sch, avgs) in cfib.peer_reports.items():
            if sender_sch != cfib.owner_sch or z not in avgs:
                continue
            if (avgs[z], sender) < own_key:
                rank += 1
        entry.fitness = rank


def set_own_averages(cfib: Cfib, own_avgs: Mapping[int, Optional[float]]) -> Cfib:
    """Record the owner's computed averages and refresh the ranks."""
    for z, avg in own_avgs.items():
        if z == cfib.owner_sch:
            continue
        cfib.entry(z).own_avg = avg
    _recompute(cfib)
    return cfib


def update_cfib(cfib: Cfib, incoming: Bsm,
                own_avgs: Optional[Mapping[int, Optional[float]]] = None) -> Cfib:
    """Fold one heard averages-broadcast into the table; freshest wins.

    A sender's newer broadcast replaces its older contribution wholesale; a
    stale duplicate changes nothing, so re-applying a broadcast is a no-op.
    """
    if incoming.avg_distances is None:
        raise ValueError("update_cfib needs a broadcast that carries avg_distances")
    if own_avgs is not None:
        for z, avg in own_avgs.items():
            if z != cfib.owner_sch:
                cfib.entry(z).own_avg = avg
    previous = cfib.peer_reports.get(incoming.sender_id)
    if previous is None or previous[0] <= incoming.timestamp_us:
        cfib.peer_reports[incoming.sender_id] = (
            incoming.timestamp_us,
            incoming.selected_sch,
            dict(incoming.avg_distances),
        )
    _recompute(cfib)
    return cfib


@dataclass(frozen=True, slots=True)
class ClusterView:
    """The members sharing one service channel, as seen by the caller."""

    sch: int
    members: tuple[int, ...]
    advertised_y: int

    def __post_init__(self) -> None:
        if not 1 <= self.advertised_y <= 6:
            raise ValueError("advertised_y must lie in [1, 6]")


def elect_from_tables(
    cluster: ClusterView,
    cfibs: Mapping[int, Cfib],
) -> list[CoordinatorAssignment]:
    """One cluster's self-election: each member whose own table ranks it first towards z."""
    assignments: list[CoordinatorAssignment] = []
    channels = [z for z in range(1, cluster.advertised_y + 1) if z != cluster.sch]
    for member_id in sorted(cluster.members):
        cfib = cfibs.get(member_id)
        if cfib is None:
            continue
        for z in channels:
            entry = cfib.entries.get(z)
            if entry is None or entry.own_avg is None:
                continue
            if entry.fitness == 1:
                assignments.append(
                    CoordinatorAssignment(
                        from_sch=cluster.sch,
                        to_sch=z,
                        coordinator=member_id,
                        lad=entry.own_avg,
                    )
                )
    return assignments


def table_interval_election(
    si_index: int,
    ids: list[int],
    positions: dict[int, Position],
    sch: dict[int, int],
    y: int,
    e1_reached: dict[str, set[int]],
    e3_reached: dict[str, set[int]],
    e3_first_delivery: dict[tuple[str, int], int],
) -> tuple[
    dict[int, dict[int, Optional[float]]],
    dict[int, dict[int, int]],
    list[CoordinatorAssignment],
    list[ElectionRow],
]:
    """One interval's election through a status table and a `Cfib` per vehicle.

    Returns each vehicle's own averages towards every foreign channel (None
    where it heard nobody there), its heard status senders counted by
    channel, the assignments and the election rows.
    """
    tables: dict[int, dict[int, tuple[Position, int]]] = {v: {} for v in ids}
    for msg_id, receivers in e1_reached.items():
        if not msg_id.startswith("bsm-"):
            continue
        sender = int(msg_id.rsplit("-", 1)[1])
        for r in receivers:
            tables[r][sender] = (positions[sender], sch[sender])

    own_avgs: dict[int, dict[int, Optional[float]]] = {}
    for vid in ids:
        peers = list(tables[vid].values())
        own_avgs[vid] = {
            z: average_distance_to_sch(positions[vid], [p for p, sch in peers if sch == z])
            for z in range(1, y + 1)
            if z != sch[vid]
        }

    heard: dict[int, list[tuple[str, int]]] = {v: [] for v in ids}
    for msg_id, receivers in e3_reached.items():
        sender = int(msg_id.rsplit("-", 1)[1])
        for r in receivers:
            heard[r].append((msg_id, sender))
    reported = {
        vid: {z: d for z, d in avgs.items() if d is not None}
        for vid, avgs in own_avgs.items()
    }
    cfibs: dict[int, Cfib] = {}
    for vid in ids:
        cfib = Cfib(owner_id=vid, owner_sch=sch[vid])
        for msg_id, sender in heard[vid]:
            update_cfib(cfib, Bsm(
                sender_id=sender, position=positions[sender], selected_sch=sch[sender],
                timestamp_us=e3_first_delivery[(msg_id, vid)], avg_distances=reported[sender],
            ))
        set_own_averages(cfib, own_avgs[vid])
        cfibs[vid] = cfib

    assignments: list[CoordinatorAssignment] = []
    rows: list[ElectionRow] = []
    for k in range(1, y + 1):
        members = tuple(v for v in ids if sch[v] == k)
        if not members:
            continue
        elected = elect_from_tables(ClusterView(sch=k, members=members, advertised_y=y), cfibs)
        assignments.extend(elected)
        by_target: dict[int, list[CoordinatorAssignment]] = {}
        for a in elected:
            by_target.setdefault(a.to_sch, []).append(a)
        for z in sorted(by_target):
            dups = len(by_target[z]) - 1
            for a in sorted(by_target[z], key=lambda a: a.coordinator):
                rows.append(ElectionRow(
                    si_index=si_index, cluster_k=k, target_z=z,
                    coordinator_id=a.coordinator, lad_m=a.lad,
                    duplicates_count=dups,
                ))

    neighbor_counts: dict[int, dict[int, int]] = {}
    for vid in ids:
        counts: dict[int, int] = {}
        for _, (_pos, z) in sorted(tables[vid].items()):
            counts[z] = counts.get(z, 0) + 1
        neighbor_counts[vid] = counts
    return own_avgs, neighbor_counts, assignments, rows


# ---------------------------------------------------------------------------
# Broadcast contention: scan every node at every event
# ---------------------------------------------------------------------------

@dataclass
class ScanResult:
    """`ScanArena`'s result: `ArenaResult`'s fields, with the deliveries tallied as they happened.

    It also lists the senders whose own frame someone decoded, among those
    with receivers: the senders `ptr` counts.
    """

    transmissions: list[TxRecord]
    first_delivery: dict[tuple[str, int], int]
    ptr: Optional[float]
    successful_senders: set[int]
    pending_senders: set[int]


class ScanArena(ContentionArena):
    """Reference contention loop that re-examines every node at every event.

    Each event time rescans all listeners in id order, tests carrier sense
    against every active transmission, and recomputes airtimes; reception
    checks each receiver's own transmit intervals and the senders it lists in
    each frame's `concurrent`, where `ContentionArena` keeps only their count.
    It tallies each first delivery as it happens, where `ArenaResult` derives
    them from the transmissions when read.  It shares only its stations
    (the listeners, their sensing rows and each sender's receivers in
    range), frame intake, back-off draws and flooding with
    `ContentionArena`, whose event-driven loop must reproduce it exactly.
    """

    def _airtime_us(self, frame: Frame) -> int:
        return max(1, int(round(frame_airtime(self.mac))))

    def run(self) -> ScanResult:
        inf = math.inf
        self.cs_adj = self.stations.cs_adj
        self.in_range = {nid: frozenset(node.nid for node in receivers)
                         for nid, receivers in self.stations.receivers.items()}
        self._first_delivery: dict[tuple[str, int], int] = {}
        self._tx_intervals: dict[int, list[tuple[int, int]]] = {nid: [] for nid in self._nodes}
        # latest end each node sensed, or its own once that ends
        self._busy_until = dict.fromkeys(self._nodes, -1)
        # when each node's post-burst spacing ends
        self._resume = dict.fromkeys(self._nodes, self.window_start)
        # when each node's own latest frame ends
        self._tx_until = dict.fromkeys(self._nodes, -1)
        # where each node's countdown started, while it counts down
        self._anchor: dict[int, Optional[int]] = dict.fromkeys(self._nodes)
        # frames in the burst each node sensed last
        self._busy_count = dict.fromkeys(self._nodes, 0)
        order = sorted(self._nodes)
        active: list[TxRecord] = []
        t = self.window_start
        while True:
            fires: dict[int, int] = {}
            next_ready = inf
            for nid in order:
                node = self._nodes[nid]
                if node.head is None and node.queue:
                    node.head = node.queue.pop(0)
                    node.remaining = None
                    self._anchor[nid] = None
                if node.head is None or self._tx_until[nid] > t:
                    continue
                ready_at = max(node.head.ready_us, self.window_start)
                if ready_at > t:
                    next_ready = min(next_ready, ready_at)
                    continue
                if any(rec.sender_id in self.cs_adj[nid] for rec in active):
                    continue  # blocked; re-examined when a burst ends
                if node.remaining is None:
                    node.remaining = self._draw_slots()
                if self._anchor[nid] is None:
                    self._anchor[nid] = max(t, self._resume[nid], ready_at)
                fire = self._anchor[nid] + node.remaining * self.sigma
                if fire + self._airtime_us(node.head) > self.window_end:
                    continue  # cannot complete inside the window
                fires[nid] = fire
            next_end = min((rec.end_us for rec in active), default=inf)
            t_next = min(min(fires.values(), default=inf), next_ready, next_end)
            if t_next > self.window_end or t_next == inf:
                break
            t = int(t_next)

            ended = [rec for rec in active if rec.end_us == t]
            if ended:
                active = [rec for rec in active if rec.end_us > t]
                for rec in sorted(ended, key=lambda r: (r.sender_id, r.frame.msg_id)):
                    self._resolve_reception(rec)
                    self._after_own_tx(rec, active, t)
                for nid in order:
                    node = self._nodes[nid]
                    if self._tx_until[nid] > t or self._busy_until[nid] != t:
                        continue
                    spacing = self.difs if self._busy_count[nid] == 1 else self.eifs
                    self._resume[nid] = t + spacing
                    self._anchor[nid] = None

            starters = sorted(nid for nid, f in fires.items() if f == t)
            starters = [nid for nid in starters if self._tx_until[nid] <= t]
            if starters:
                self._start_transmissions(starters, active, t)

        pending = {
            nid
            for nid, node in self._nodes.items()
            if (node.head is not None and node.head.ready_us < self.window_end)
            or any(f.ready_us < self.window_end for f in node.queue)
        }
        return self._scan_result(pending)

    def _start_transmissions(self, starters: list[int], active: list[TxRecord], t: int) -> None:
        new_recs: list[TxRecord] = []
        for nid in starters:
            node = self._nodes[nid]
            frame = node.head
            end = t + self._airtime_us(frame)
            # concurrent lists the sender of every overlapping frame
            rec = TxRecord(sender_id=nid, start_us=t, end_us=end, frame=frame, concurrent=[])
            rec.in_range_count = len(self.in_range[nid])
            new_recs.append(rec)
            node.head = None
            node.remaining = None
            self._anchor[nid] = None
            self._tx_until[nid] = end
            self._tx_intervals[nid].append((t, end))
        for rec in new_recs:
            for other in active:
                other.concurrent.append(rec.sender_id)
                rec.concurrent.append(other.sender_id)
        for i, first in enumerate(new_recs):
            for second in new_recs[i + 1:]:
                first.concurrent.append(second.sender_id)
                second.concurrent.append(first.sender_id)
        active.extend(new_recs)
        self._all_tx.extend(new_recs)

        for nid in sorted(self._nodes):
            node = self._nodes[nid]
            if nid in starters or self._tx_until[nid] > t:
                continue
            sensed = [rec for rec in new_recs if rec.sender_id in self.cs_adj[nid]]
            if not sensed:
                continue
            if self._anchor[nid] is not None:
                done = (t - self._anchor[nid]) // self.sigma
                node.remaining = max(0, node.remaining - done)
                self._anchor[nid] = None
            busy_until = self._busy_until[nid]
            if t <= busy_until:
                self._busy_count[nid] += len(sensed)
            else:
                self._busy_count[nid] = len(sensed)
            self._busy_until[nid] = max(busy_until, max(rec.end_us for rec in sensed))

    def _after_own_tx(self, rec: TxRecord, active: list[TxRecord], t: int) -> None:
        node = self._nodes[rec.sender_id]
        # with symmetric sensing every frame the sender senses started with its
        # own and has ended with it, which `ContentionArena` relies on
        ongoing = [a.sender_id for a in active if a.sender_id in self.cs_adj[node.nid]]
        assert not ongoing, (node.nid, t, ongoing)
        self._busy_until[node.nid] = t
        self._busy_count[node.nid] = 1

    def _resolve_reception(self, rec: TxRecord) -> None:
        sender = rec.sender_id
        frame = rec.frame
        for receiver in sorted(self.in_range[sender]):
            if any(s < rec.end_us and e > rec.start_us for s, e in self._tx_intervals[receiver]):
                continue
            garbled = any(
                other != sender and other in self.cs_adj[receiver]
                for other in rec.concurrent
            )
            if garbled:
                continue
            rec.received_by.append(receiver)
            key = (frame.msg_id, receiver)
            if key not in self._first_delivery:
                self._first_delivery[key] = rec.end_us
                if self.flooding and not frame.is_rebroadcast:
                    self._maybe_flood(frame, receiver, rec.end_us)

    def _scan_result(self, pending: set[int]) -> ScanResult:
        own_senders = set()
        for nid, node in self._nodes.items():
            frames = [rec.frame for rec in self._all_tx if rec.sender_id == nid]
            if node.head is not None:
                frames.append(node.head)
            frames.extend(node.queue)
            if any(not f.is_rebroadcast for f in frames):
                own_senders.add(nid)
        eligible = {
            nid for nid in own_senders if self.in_range[nid]
        }
        successful = {
            rec.sender_id
            for rec in self._all_tx
            if not rec.frame.is_rebroadcast and rec.received_by
        }
        ptr = len(successful & eligible) / len(eligible) if eligible else None
        return ScanResult(
            transmissions=self._all_tx,
            first_delivery=dict(self._first_delivery),
            ptr=ptr,
            successful_senders=successful & eligible,
            pending_senders=pending,
        )


# ---------------------------------------------------------------------------
# Broadcast-window sweep: one arena per (window, seed)
# ---------------------------------------------------------------------------

def window_by_window_sweep(
    mac: MacParams,
    queue: QueueParams,
    n_nodes: int,
    multiples: Sequence[float],
    seeds: Sequence[int],
    v_us: float,
) -> list[IntervalPoint]:
    """`interval_sweep`'s points, each window simulated from scratch for every seed."""
    points = []
    for m in multiples:
        window_us = int(round(m * v_us))
        ids = list(range(n_nodes))
        everyone = {i: frozenset(ids) - {i} for i in ids}
        attempted = 0
        succeeded = 0
        prr_samples: list[float] = []
        for seed in seeds:
            arena = ScanArena(
                channel=CCH, window=(0, window_us), mac=mac, chain_mode=MODE_STANDARD,
                stations=Stations(ids, everyone, everyone),
                rng=np.random.default_rng([seed, 0, CCH, MESH_TAG]),
            )
            arena.add_frames([Frame(msg_id=f"m-{i}", sender_id=i, ready_us=ready)
                              for i, ready in zip(ids, handoff_us(arena.rng, queue, len(ids)))])
            result = arena.run()
            attempted += len(ids)
            succeeded += len(result.successful_senders)
            prr_samples.extend(decode_ratios(result.transmissions))
        points.append(IntervalPoint(
            window_us=window_us,
            window_over_v=window_us / v_us,
            ptr=succeeded / attempted,
            prr=sum(prr_samples) / len(prr_samples) if prr_samples else 0.0,
            attempted=attempted,
            succeeded=succeeded,
        ))
    return points
