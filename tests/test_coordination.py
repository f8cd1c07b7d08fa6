"""Status-exchange bookkeeping and distributed coordinator self-election."""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcwave.coordination import average_distance_to_sch, elect_coordinators
from mcwave.simulation import coordinate, status_table

from helpers import complete_cfibs, elect_all_clusters, heard_counts, random_channel_scenario
from oracles import (
    Bsm,
    Cfib,
    ClusterView,
    elect_from_tables,
    oracle_elect,
    set_own_averages,
    table_interval_election,
    update_cfib,
)


def test_average_distance_requires_an_audience():
    assert average_distance_to_sch((0.0, 0.0), [(3.0, 4.0), (0.0, 8.0)]) == pytest.approx(
        (5.0 + 8.0) / 2)
    assert average_distance_to_sch((0.0, 0.0), []) is None


def test_update_requires_an_averages_broadcast():
    cfib = Cfib(owner_id=1, owner_sch=1)
    bare = Bsm(sender_id=2, position=(0.0, 0.0), selected_sch=2, timestamp_us=0)
    with pytest.raises(ValueError, match="avg_distances"):
        update_cfib(cfib, bare)


def test_update_is_idempotent_and_freshest_wins():
    cfib = Cfib(owner_id=1, owner_sch=1)
    set_own_averages(cfib, {2: 40.0})
    early = Bsm(sender_id=2, position=(0.0, 0.0), selected_sch=1,
                timestamp_us=10, avg_distances={2: 50.0})
    update_cfib(cfib, early)
    once = copy.deepcopy(cfib)
    update_cfib(cfib, early)  # replaying the same broadcast changes nothing
    assert cfib == once
    late = Bsm(sender_id=2, position=(0.0, 0.0), selected_sch=1,
               timestamp_us=20, avg_distances={2: 30.0})
    update_cfib(cfib, late)
    assert cfib.entries[2].peer_avgs[2] == 30.0
    update_cfib(cfib, early)  # stale rebroadcast must not roll the table back
    assert cfib.entries[2].peer_avgs[2] == 30.0


def test_own_channel_never_enters_the_table():
    cfib = Cfib(owner_id=7, owner_sch=2)
    set_own_averages(cfib, {1: 12.0, 2: 99.0, 3: 15.0})
    assert 2 not in cfib.entries
    assert cfib.entries[1].own_avg == 12.0


def test_rank_one_goes_to_the_smallest_average():
    # two cluster-1 vehicles compete to reach channel 2
    a = Cfib(owner_id=1, owner_sch=1)
    b = Cfib(owner_id=2, owner_sch=1)
    set_own_averages(a, {2: 10.0})
    set_own_averages(b, {2: 20.0})
    update_cfib(a, Bsm(2, (0.0, 0.0), 1, 0, {2: 20.0}))
    update_cfib(b, Bsm(1, (0.0, 0.0), 1, 0, {2: 10.0}))
    assert a.entries[2].fitness == 1
    assert b.entries[2].fitness == 2
    view = ClusterView(sch=1, members=(1, 2), advertised_y=2)
    winners = elect_from_tables(view, {1: a, 2: b})
    assert [(w.coordinator, w.to_sch) for w in winners] == [(1, 2)]


def test_equal_averages_tie_break_on_the_lower_id():
    a = Cfib(owner_id=4, owner_sch=1)
    b = Cfib(owner_id=9, owner_sch=1)
    set_own_averages(a, {2: 25.0})
    set_own_averages(b, {2: 25.0})
    update_cfib(a, Bsm(9, (0.0, 0.0), 1, 0, {2: 25.0}))
    update_cfib(b, Bsm(4, (0.0, 0.0), 1, 0, {2: 25.0}))
    winners = elect_from_tables(ClusterView(1, (4, 9), 2), {4: a, 9: b})
    assert [(w.coordinator, w.to_sch) for w in winners] == [(4, 2)]


def test_lost_broadcasts_can_produce_duplicate_self_elections():
    # vehicle 2 never hears vehicle 1, so both believe they rank first
    a = Cfib(owner_id=1, owner_sch=1)
    b = Cfib(owner_id=2, owner_sch=1)
    set_own_averages(a, {2: 10.0})
    set_own_averages(b, {2: 20.0})
    update_cfib(a, Bsm(2, (0.0, 0.0), 1, 0, {2: 20.0}))
    winners = elect_from_tables(ClusterView(1, (1, 2), 2), {1: a, 2: b})
    assert sorted(w.coordinator for w in winners) == [1, 2]
    assert Counter((w.from_sch, w.to_sch) for w in winners) == {(1, 2): 2}


def test_foreign_cluster_reports_do_not_affect_the_rank():
    a = Cfib(owner_id=1, owner_sch=1)
    set_own_averages(a, {2: 50.0})
    # a cluster-3 vehicle is closer to channel 2, but competes elsewhere
    update_cfib(a, Bsm(6, (0.0, 0.0), 3, 0, {2: 5.0}))
    assert a.entries[2].fitness == 1


def test_cluster_view_validates_channel_count():
    with pytest.raises(ValueError, match="advertised_y"):
        ClusterView(sch=1, members=(1,), advertised_y=0)
    with pytest.raises(ValueError, match="advertised_y"):
        ClusterView(sch=1, members=(1,), advertised_y=7)


def test_lossless_exchange_elects_the_exhaustive_minimizer():
    rng = np.random.default_rng(42)
    for _ in range(10):
        positions, selected = random_channel_scenario(rng, n_vehicles=12, y=3)
        winners = elect_all_clusters(positions, selected, 3)
        for k in range(1, 4):
            for z in range(1, 4):
                if k == z:
                    continue
                best = oracle_elect(positions, selected, k, z)
                got = winners.get((k, z))
                if best is None:
                    assert got is None
                else:
                    assert got is not None and len(got) == 1
                    vid, avg = got[0]
                    assert vid == best[0]
                    assert avg == pytest.approx(best[1])


def test_complete_tables_agree_across_the_cluster():
    rng = np.random.default_rng(7)
    positions, selected = random_channel_scenario(rng, n_vehicles=8, y=3)
    cfibs = complete_cfibs(positions, selected, 3)
    members = [v for v, sch in selected.items() if sch == 1]
    for z in (2, 3):
        views = {
            frozenset({**cfibs[m].entries[z].peer_avgs,
                       m: cfibs[m].entries[z].own_avg}.items())
            for m in members
            if cfibs[m].entries.get(z) and cfibs[m].entries[z].own_avg is not None
        }
        assert len(views) <= 1  # everyone reconstructs the same average table


@st.composite
def heard_graph(draw, kind: str, si: int, ids: list[int], self_heard: bool) -> dict[str, set[int]]:
    """Which vehicles received each sender's broadcast, with lost senders and links."""
    mode = draw(st.sampled_from(["lossy", "lossless", "empty"]))
    if mode == "empty":
        return {}
    senders = draw(st.permutations(ids))
    reached: dict[str, set[int]] = {}
    for s in senders:
        others = [v for v in ids if v != s or self_heard]
        receivers = [v for v in others if mode == "lossless" or draw(st.integers(0, 3))]
        if receivers:
            reached[f"{kind}-{si}-{s}"] = set(receivers)
    return reached


@st.composite
def interval_inputs(draw) -> tuple:
    si = draw(st.integers(0, 30))
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=2, max_size=14)))
    y = draw(st.integers(1, 6))
    on_grid = st.builds(lambda x, y: (100.0 * x, 100.0 * y), st.integers(0, 3), st.integers(0, 3))
    anywhere = st.tuples(st.floats(0.0, 1_000.0), st.floats(0.0, 1_000.0))
    positions = {v: draw(st.one_of(on_grid, anywhere)) for v in ids}  # the grid makes ties
    sch = {v: draw(st.integers(1, y)) for v in ids}
    # a flooded status storm can deliver a vehicle's own broadcast back to it
    e1 = draw(heard_graph("bsm", si, ids, self_heard=draw(st.booleans())))
    if draw(st.booleans()):  # a legacy frame in the status storm is no status report
        e1[f"em-1-{si}"] = set(draw(st.lists(st.sampled_from(ids), min_size=1, unique=True)))
    # the averages storm never floods, but a vehicle hearing itself must not beat itself
    e3 = draw(heard_graph("avg", si, ids, self_heard=draw(st.booleans())))
    first = {(m, r): draw(st.integers(0, 5)) for m, rs in e3.items() for r in rs}
    return si, ids, positions, sch, y, e1, e3, first


@settings(derandomize=True, max_examples=300, deadline=None)
@given(inputs=interval_inputs())
def test_one_pass_election_matches_the_coordination_tables(inputs):
    si, ids, positions, sch, y, e1, e3, first = inputs
    # each broadcast as (sender, its receivers), in the order the tables hear
    # them: the status storm as `status_heard` reads it, less the legacy frame
    status = [(int(m.rsplit("-", 1)[1]), receivers) for m, receivers in e1.items()
              if m.startswith("bsm-")]
    heard = [(int(m.rsplit("-", 1)[1]), receivers) for m, receivers in e3.items()]
    table = status_table(sch, positions, status)
    rows = coordinate(si, positions, sch, y, table, heard)
    own, counts, _assignments, want_rows = table_interval_election(
        si, ids, positions, sch, y, e1, e3, first)
    assert rows == want_rows
    # wsd ranks channels by the same table's entries
    assert heard_counts(table, ids) == counts
    # the election alone, with every undefined average given as None
    assert elect_coordinators(si, sch, own, heard, y) == want_rows


# each row as (cluster, target, coordinator, duplicates), in elections.csv order
@pytest.mark.parametrize("sch, own, heard, rows", [
    # the smaller average wins
    ({1: 1, 2: 1}, {1: {2: 10.0}, 2: {2: 20.0}}, [(1, [2]), (2, [1])], [(1, 2, 1, 0)]),
    # equal averages: the lower id wins
    ({4: 1, 9: 1}, {4: {2: 25.0}, 9: {2: 25.0}}, [(4, [9]), (9, [4])], [(1, 2, 4, 0)]),
    # vehicle 2 never hears vehicle 1, so both self-elect, each a duplicate of the other
    ({1: 1, 2: 1}, {1: {2: 10.0}, 2: {2: 20.0}}, [(2, [1])], [(1, 2, 1, 1), (1, 2, 2, 1)]),
    # a closer vehicle on another channel competes in its own cluster only
    ({1: 1, 6: 3}, {1: {2: 50.0}, 6: {2: 5.0}}, [(6, [1]), (1, [6])],
     [(1, 2, 1, 0), (3, 2, 6, 0)]),
    # no average towards a channel, no self-election towards it; rows go by
    # target before coordinator
    ({1: 1, 2: 1}, {1: {2: None, 3: 8.0}, 2: {2: 30.0}}, [(1, [2]), (2, [1])],
     [(1, 2, 2, 0), (1, 3, 1, 0)]),
])
def test_self_election_rules(sch, own, heard, rows):
    elected = elect_coordinators(0, sch, own, heard, 3)
    assert [(r.cluster_k, r.target_z, r.coordinator_id, r.duplicates_count)
            for r in elected] == rows
