"""Shared scenario builders for the test suite.

These helpers construct the lossless-exchange coordination state used by
both the unit tests and the acceptance suite: every vehicle hears every
other vehicle's broadcasts, so every vehicle knows every average.
"""

from __future__ import annotations

import numpy as np

from mcwave.coordination import average_distance_to_sch, elect_coordinators
from mcwave.mobility import RoadNetwork

from oracles import Bsm, Cfib, set_own_averages, update_cfib

#: the header of `metrics.csv`, as README documents it
METRICS_HEADER = ("seed,sweep_point,scheme,y,flooding,total_delay_us,switch_count,prr,ptr,"
                  "residual_wait_us,unreached_channels,per_channel_delays,reachability_samples")


def ascending_rows(adj: dict[int, list[int]]) -> dict[int, set[int]]:
    """Each adjacency row as a set, once it is checked to be a list of ascending ids."""
    for vid, row in adj.items():
        assert type(row) is list and row == sorted(row), (vid, row)
    return {vid: set(row) for vid, row in adj.items()}


def reached_by_message(result) -> dict[str, set[int]]:
    """An arena result's receivers by message, each message at its first delivery."""
    reached: dict[str, set[int]] = {}
    for msg_id, receiver in result.first_delivery:
        reached.setdefault(msg_id, set()).add(receiver)
    return reached


def heard_counts(heard_on, ids) -> dict[int, dict[int, int]]:
    """Each vehicle's entries in a status table (`SiSnapshot.heard_on`), counted by channel."""
    return {v: {z: len(peers_of[v]) for z, peers_of in heard_on.items() if v in peers_of}
            for v in ids}


def on_network(net: RoadNetwork, x: float, y: float, tol: float = 1e-6) -> bool:
    """True when (x, y) lies on one of the grid's streets."""
    if not (-tol <= x <= net.width + tol and -tol <= y <= net.height + tol):
        return False
    xs, ys = net.streets
    return any(abs(x - sx) <= tol for sx in xs) or any(abs(y - sy) <= tol for sy in ys)


def random_channel_scenario(
    rng: np.random.Generator,
    n_vehicles: int = 20,
    y: int = 3,
    extent: float = 1500.0,
) -> tuple[dict[int, tuple[float, float]], dict[int, int]]:
    """Random positions in a square and uniform channel choices over 1..y."""
    positions = {
        v: (float(rng.uniform(0.0, extent)), float(rng.uniform(0.0, extent)))
        for v in range(n_vehicles)
    }
    selected = {v: int(rng.integers(1, y + 1)) for v in range(n_vehicles)}
    return positions, selected


def own_average_tables(
    positions: dict[int, tuple[float, float]],
    selected: dict[int, int],
    y: int,
) -> dict[int, dict[int, float | None]]:
    """Each vehicle's mean distance to every other channel's members."""
    tables: dict[int, dict[int, float | None]] = {}
    for v, pos in positions.items():
        peers = [(positions[u], selected[u]) for u in positions if u != v]
        tables[v] = {
            z: average_distance_to_sch(pos, [p for p, sch in peers if sch == z])
            for z in range(1, y + 1)
            if z != selected[v]
        }
    return tables


def complete_cfibs(
    positions: dict[int, tuple[float, float]],
    selected: dict[int, int],
    y: int,
) -> dict[int, Cfib]:
    """Every vehicle's fitness table after a lossless status exchange."""
    own = own_average_tables(positions, selected, y)
    cfibs: dict[int, Cfib] = {}
    for v in positions:
        cfib = Cfib(owner_id=v, owner_sch=selected[v])
        set_own_averages(cfib, own[v])
        for u in positions:
            if u == v:
                continue
            reported = {z: a for z, a in own[u].items() if a is not None}
            update_cfib(
                cfib,
                Bsm(
                    sender_id=u,
                    position=positions[u],
                    selected_sch=selected[u],
                    timestamp_us=0,
                    avg_distances=reported,
                ),
            )
        cfibs[v] = cfib
    return cfibs


def elect_all_clusters(
    positions: dict[int, tuple[float, float]],
    selected: dict[int, int],
    y: int,
) -> dict[tuple[int, int], list[tuple[int, float]]]:
    """Run the self-election of every cluster; map (cluster, target) to winners."""
    own = own_average_tables(positions, selected, y)
    heard = [(s, [u for u in positions if u != s]) for s in positions]
    winners: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for row in elect_coordinators(0, selected, own, heard, y):
        winners.setdefault((row.cluster_k, row.target_z), []).append(
            (row.coordinator_id, row.lad_m))
    return winners
