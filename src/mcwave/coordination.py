"""Per-channel average distances and distributed coordinator self-election.

During the control-channel interval every vehicle (1) broadcasts its
position and selected service channel, (2) computes its mean distance to the
vehicles it heard tuned to each *other* channel, and (3) broadcasts those
averages.  Each vehicle then decides autonomously, from the averages it
heard only, whether it is the best-placed relay towards each foreign
channel.  Lost broadcasts can therefore produce duplicate self-elections
for one target channel, or none; that is reported, not rejected.  The
election returns its `elections.csv` rows itself, in file order, with each
row's duplicate count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Optional, Sequence

Position = tuple[float, float]


def average_distance_to_sch(self_pos: Position, peers: Sequence[Position]) -> Optional[float]:
    """Mean distance from self_pos to the peers heard on one channel.

    `peers` holds their positions in the order they were heard; the sum runs
    in that order, which fixes the mean's last bits.  Returns None without
    peers: the caller must not put itself forward as a relay towards an
    audience it cannot locate.
    """
    if not peers:
        return None
    return sum(list(map(math.dist, repeat(self_pos), peers))) / len(peers)


@dataclass(slots=True)
class ElectionRow:
    si_index: int
    cluster_k: int
    target_z: int
    coordinator_id: int
    lad_m: float
    duplicates_count: int


def elect_coordinators(
    si_index: int,
    sch: Mapping[int, int],
    own_avgs: Mapping[int, Mapping[int, Optional[float]]],
    heard: Iterable[tuple[int, Iterable[int]]],
    y: int,
) -> list[ElectionRow]:
    """Run every cluster's autonomous self-election towards every other channel.

    `sch` maps every vehicle to its service channel, and `own_avgs[v]` maps
    a channel z to v's average distance towards it; a missing or None value
    is undefined.  `heard` lists each averages
    broadcast as (sender, the vehicles that received it).  Vehicle v
    self-elects towards z != sch[v] exactly when its own average towards z
    is defined and no broadcast v heard from a sender s on its own channel
    carries a defined average for z with (avg_s[z], s) < (avg_v[z], v); the
    id breaks ties.  With lossless broadcasts this yields one coordinator
    per populated foreign channel; after losses the same channel may
    attract several, and the dissemination layer tolerates the duplicates.

    Returns interval `si_index`'s rows by cluster, then target channel, then
    coordinator id; each counts the other coordinators of its (cluster, target).
    """
    clusters: dict[int, list[int]] = {}   # channel -> its members, ascending
    for v in sorted(sch):
        clusters.setdefault(sch[v], []).append(v)
    member_sets = {k: set(members) for k, members in clusters.items()}
    beaten: set[tuple[int, int]] = set()
    for s, receivers in heard:
        rivals = member_sets[sch[s]].intersection(receivers)
        if not rivals:
            continue
        for z, avg in own_avgs[s].items():
            if avg is None:
                continue
            for r in rivals:
                own = own_avgs[r].get(z)
                # (avg, s) < (own, r), without building either pair
                if own is not None and (avg < own or avg == own and s < r):
                    beaten.add((r, z))

    rows: list[ElectionRow] = []
    channels = range(1, y + 1)
    for k in channels:
        members = clusters.get(k, ())
        for z in channels:
            if z != k:
                winners = [(v, lad) for v in members
                           if (lad := own_avgs[v].get(z)) is not None and (v, z) not in beaten]
                rows.extend(ElectionRow(si_index, k, z, v, lad, len(winners) - 1)
                            for v, lad in winners)
    return rows
