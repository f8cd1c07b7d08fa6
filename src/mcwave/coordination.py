"""Per-channel average distances and distributed coordinator self-election.

During the control-channel interval every vehicle (1) broadcasts its
position and selected service channel, (2) computes its mean distance to the
vehicles it heard tuned to each *other* channel, and (3) broadcasts those
averages.  Each vehicle then decides autonomously, from the averages it
heard only, whether it is the best-placed relay towards each foreign
channel.  Lost broadcasts can therefore produce duplicate self-elections
for one target channel, or none; that is reported, not rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

Position = tuple[float, float]


def average_distance_to_sch(
    self_pos: Position,
    peers: Iterable[tuple[Position, int]],
    z: int,
) -> Optional[float]:
    """Mean distance from self_pos to the peers tuned to channel z.

    Returns None when no peer targets z: the caller must not put itself
    forward as a relay towards an audience it cannot locate.
    """
    distances = [math.dist(self_pos, pos) for pos, sch in peers if sch == z]
    if not distances:
        return None
    return sum(distances) / len(distances)


@dataclass(frozen=True, slots=True)
class CoordinatorAssignment:
    from_sch: int
    to_sch: int
    coordinator: int
    lad: float


def elect_coordinators(
    sch: Mapping[int, int],
    own_avgs: Mapping[int, Mapping[int, Optional[float]]],
    heard: Iterable[tuple[int, Iterable[int]]],
    y: int,
) -> list[CoordinatorAssignment]:
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

    Assignments come out by cluster, then member id, then target channel.
    """
    beaten: set[tuple[int, int]] = set()
    for s, receivers in heard:
        k = sch[s]
        offers = [(z, avg) for z, avg in own_avgs[s].items() if avg is not None]
        if not offers:
            continue
        for r in receivers:
            if sch[r] != k:
                continue
            mine = own_avgs[r]
            for z, avg in offers:
                own = mine.get(z)
                if own is not None and (avg, s) < (own, r):
                    beaten.add((r, z))

    members: dict[int, list[int]] = {}
    for v in sorted(sch):
        members.setdefault(sch[v], []).append(v)
    assignments: list[CoordinatorAssignment] = []
    for k in range(1, y + 1):
        for v in members.get(k, ()):
            mine = own_avgs[v]
            for z in range(1, y + 1):
                if z == k:
                    continue
                lad = mine.get(z)
                if lad is not None and (v, z) not in beaten:
                    assignments.append(CoordinatorAssignment(
                        from_sch=k, to_sch=z, coordinator=v, lad=lad,
                    ))
    return assignments


def duplicates_by_target(assignments: Iterable[CoordinatorAssignment]) -> dict[tuple[int, int], int]:
    """Count surplus coordinators per (cluster, target) pair for reporting."""
    counts: dict[tuple[int, int], int] = {}
    for a in assignments:
        key = (a.from_sch, a.to_sch)
        counts[key] = counts.get(key, 0) + 1
    return {key: max(0, n - 1) for key, n in counts.items()}
