"""Per-interval world stepping: snapshots, adjacency, channel choice, replay."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcwave import simulation
from mcwave.config import default_config
from mcwave.engine import Phase, phase_window, si_phase
from mcwave.experiment import build_world, interval_sweep, run_sweep
from mcwave.mac import MacParams
from mcwave.simulation import ArenaResult, Frame, TxRecord, adjacency, decode_ratios, handoff_us

from helpers import ascending_rows, heard_counts, reached_by_message
from oracles import table_interval_election, window_by_window_sweep

Y = default_config().scheme.advertised_y


def test_adjacency_is_symmetric_and_excludes_self():
    ids = [1, 2, 3]
    positions = {1: (0.0, 0.0), 2: (50.0, 0.0), 3: (500.0, 0.0)}
    adj = ascending_rows(adjacency(ids, positions, radius=100.0))
    assert adj[1] == {2}
    assert adj[2] == {1}
    assert adj[3] == set()
    for a in ids:
        assert a not in adj[a]
        for b in adj[a]:
            assert a in adj[b]


def test_adjacency_grows_with_radius():
    ids = [1, 2, 3]
    positions = {1: (0.0, 0.0), 2: (50.0, 0.0), 3: (500.0, 0.0)}
    near = ascending_rows(adjacency(ids, positions, radius=100.0))
    far = ascending_rows(adjacency(ids, positions, radius=1000.0))
    for v in ids:
        assert near[v] <= far[v]


def test_adjacency_matches_pairwise_distances():
    rng = np.random.default_rng(4)
    ids = [int(i) for i in rng.choice(1000, size=60, replace=False)]
    positions = {i: (float(x), float(y)) for i, (x, y) in zip(ids, rng.uniform(0, 900, (60, 2)))}
    adj = ascending_rows(adjacency(ids, positions, radius=150.0))
    for a in ids:
        (ax, ay) = positions[a]
        assert adj[a] == frozenset(
            b for b in ids
            if b != a and (ax - positions[b][0]) ** 2 + (ay - positions[b][1]) ** 2 <= 150.0 ** 2
        )


def test_a_block_of_handoffs_is_single_draws_in_turn():
    queue = default_config().queue
    for seed in range(12):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        k = 1 + 5 * seed
        singles = [b.exponential(1.0 / queue.mu) for _ in range(k)]
        assert handoff_us(a, queue, k) == [max(0, int(round(x * 1_000_000))) for x in singles]
        assert a.bit_generator.state == b.bit_generator.state


def test_a_large_handoff_block_rounds_as_each_value_would():
    # the block is rounded at once with np.rint, half to even as round() does
    queue = default_config().queue
    a, b = np.random.default_rng(29), np.random.default_rng(29)
    count = 20_000
    draws = b.exponential(1.0 / queue.mu, size=count).tolist()
    handoffs = handoff_us(a, queue, count)
    assert handoffs == [max(0, int(round(x * 1_000_000))) for x in draws]
    assert all(type(h) is int for h in handoffs)
    assert a.bit_generator.state == b.bit_generator.state


def test_interval_snapshot_is_internally_consistent():
    world = build_world(default_config())
    snap = world.run_interval(6, Y)
    assert snap.interval.si_index == 6
    assert sorted(snap.interval.ids) == snap.interval.ids
    assert set(world.sense(6).positions) == set(snap.interval.ids)
    y = snap.y
    assert all(1 <= ch <= y for ch in snap.sch.values())
    cs_adj, rx_adj = ascending_rows(snap.interval.cs_adj), ascending_rows(snap.interval.rx_adj)
    for v in snap.interval.ids:
        assert v not in cs_adj[v]
        for u in cs_adj[v]:
            assert v in cs_adj[u]
        # decoding requires more power than sensing, never less
        assert rx_adj[v] <= cs_adj[v]
    for row in snap.election:
        assert row.cluster_k != row.target_z
        assert 1 <= row.target_z <= y
        assert snap.sch[row.coordinator_id] == row.cluster_k
        assert row.si_index == 6
        assert row.duplicates_count >= 0


def test_a_snapshot_elects_when_first_read_after_the_backdrop_moves_on(monkeypatch):
    cfg = default_config()
    storms = []
    real_run = simulation.ContentionArena.run

    def count_storms(arena):
        storms.append(si_phase(arena.window_start, cfg.si))
        return real_run(arena)

    monkeypatch.setattr(simulation.ContentionArena, "run", count_storms)
    world = build_world(cfg)
    snaps = [world.run_interval(7, y) for y in (3, 5)]
    # stepping an interval runs its status storm, once for both channel counts, and no averages storm
    assert storms == [Phase.E1]
    world.sense(8)   # as legacy's re-run of the next interval moves the world on
    elected = snaps[0].election
    assert snaps[0].election is elected
    snaps[1].election
    # the channel counts share the interval's one averages storm
    assert storms == [Phase.E1, Phase.E3]
    fresh = build_world(cfg).run_interval(7, 3)
    assert elected == fresh.election


def test_a_wsd_only_sweep_simulates_no_averages_storm(monkeypatch):
    cfg = default_config()
    storms = []
    real_run = simulation.ContentionArena.run

    def count_storms(arena):
        storms.append(si_phase(arena.window_start, cfg.si))
        return real_run(arena)

    monkeypatch.setattr(simulation.ContentionArena, "run", count_storms)
    wsd = run_sweep(cfg, seeds=[1], schemes=["wsd"])
    # wsd reads only the origin's neighbour counts, which the status storm gives
    assert Phase.E3 not in storms
    assert storms.count(Phase.E1) == cfg.experiment.measured_sis
    assert Phase.SCHI in storms and not wsd.failures
    storms.clear()
    both = run_sweep(cfg, seeds=[1], schemes=["cmd", "wsd"])
    # cmd reads the emergency interval's election, and so runs its one averages storm
    assert storms.count(Phase.E3) == 1
    # the storm wsd skips changes none of its numbers
    assert both.table.rows[1] == wsd.table.rows[0]
    assert both.analytic_rows[1] == wsd.analytic_rows[0]


@pytest.mark.parametrize("flooding", [False, True])
def test_heard_on_matches_the_status_tables(flooding):
    world = build_world(default_config())
    snap = world.run_interval(7, Y, flooding)
    interval = snap.interval
    e3 = world.storm(interval, Phase.E3)
    _own, counts, _assignments, _rows = table_interval_election(
        7, interval.ids, interval.positions, snap.sch, Y, reached_by_message(snap.e1),
        reached_by_message(e3), e3.first_delivery)
    assert heard_counts(snap.heard_on, interval.ids) == counts
    assert any(counts.values())


def test_status_heard_reads_this_intervals_status_broadcasts_by_sender():
    def tx(sender, t, msg_id, received_by, relay=False):
        return TxRecord(sender, t, t + 10, Frame(msg_id, sender, t, relay),
                        received_by=received_by)

    e1 = ArenaResult(transmissions=[
        tx(3, 0, "em-1-7", [1, 2]),          # a legacy frame is no status report
        tx(2, 10, "bsm-7-2", []),            # decoded by none: 2 joins at a later frame
        tx(1, 20, "avg-7-1", [2]),           # nor is another storm's message
        tx(4, 30, "bsm-6-4", [2]),           # nor another interval's
        tx(1, 40, "bsm-7-1", [3, 2]),
        tx(4, 50, "bsm-7-4", [3]),
        tx(2, 60, "bsm-7-1", [4, 1], True),  # 2 floods 1's status back to 1, and on to 4
        tx(3, 70, "bsm-7-1", [2], True),
        tx(2, 80, "bsm-7-2", [1]),
    ], ptr=None, pending_senders=set())
    heard = simulation.status_heard(7, [1, 2, 3, 4], e1)
    # senders in the order of their first delivery, receivers unioned over the flood
    assert list(heard.items()) == [(1, {1, 2, 3, 4}), (4, {3}), (2, {1})]


@pytest.mark.parametrize("flooding", [False, True])
def test_a_snapshot_reads_its_status_storm_once_by_sender(flooding):
    world = build_world(default_config())
    snap = world.run_interval(7, Y, flooding)
    ids = snap.interval.ids
    by_message = reached_by_message(snap.e1)
    # first deliveries come in transmission order, so senders join in that order
    assert [f"bsm-7-{s}" for s in snap.heard] == list(by_message)
    assert all(snap.heard[s] == by_message[f"bsm-7-{s}"] for s in snap.heard)
    assert snap.reach == [len(snap.heard.get(v, ())) / (len(ids) - 1) for v in ids]
    assert world.run_interval(7, Y + 1, flooding).heard is snap.heard


def test_members_of_partitions_the_population():
    world = build_world(default_config())
    snap = world.run_interval(8, Y)
    seen: set[int] = set()
    for ch in range(1, Y + 1):
        members = snap.members_of(ch)
        assert all(snap.sch[v] == ch for v in members)
        assert not (set(members) & seen)
        seen.update(members)
    assert seen == set(snap.interval.ids)


def test_same_seed_replays_the_same_interval():
    a = build_world(default_config())
    b = build_world(default_config())
    snap_a = a.run_interval(7, Y)
    snap_b = b.run_interval(7, Y)
    assert snap_a.interval.ids == snap_b.interval.ids
    assert a.sense(7).positions == b.sense(7).positions
    assert snap_a.sch == snap_b.sch
    assert snap_a.election == snap_b.election
    assert snap_a.e1.ptr == snap_b.e1.ptr
    assert decode_ratios(snap_a.e1.transmissions) == decode_ratios(snap_b.e1.transmissions)


def test_different_seeds_diverge():
    cfg = default_config()
    a = build_world(cfg)
    cfg_b = dataclasses.replace(cfg, experiment=dataclasses.replace(cfg.experiment, seed=99))
    b = build_world(cfg_b)
    a.run_interval(7, Y)
    b.run_interval(7, Y)
    assert a.sense(7).positions != b.sense(7).positions


def test_broadcast_results_stay_within_probability_bounds():
    world = build_world(default_config())
    snap = world.run_interval(9, Y)
    for sample in decode_ratios(snap.e1.transmissions):
        assert 0.0 <= sample <= 1.0
    if snap.e1.ptr is not None:
        assert 0.0 <= snap.e1.ptr <= 1.0
    assert len(snap.reach) == len(snap.interval.ids)
    assert all(0.0 <= r <= 1.0 for r in snap.reach)


def test_channel_choice_is_uniform_over_advertised_channels():
    world = build_world(default_config())
    counts = {ch: 0 for ch in range(1, Y + 1)}
    for si in range(6, 26):
        for ch in world.run_interval(si, Y).sch.values():
            counts[ch] += 1
    total = sum(counts.values())
    assert total > 0
    for ch, n in counts.items():
        assert n / total == pytest.approx(1.0 / Y, abs=0.12)


def test_rerunning_the_latest_interval_reuses_its_sensing(monkeypatch):
    world = build_world(default_config())
    snap = world.run_interval(7, Y)
    positions = world.sense(7).positions
    calls = []
    monkeypatch.setattr(simulation, "adjacency", lambda *a: calls.append(a))
    monkeypatch.setattr(world.model, "advance_to", lambda t: calls.append(t))
    again = world.run_interval(7, Y)
    assert calls == []
    assert world.sense(7).positions == positions and again.sch == snap.sch
    assert again.interval.cs_adj == snap.interval.cs_adj
    assert again.interval.rx_adj == snap.interval.rx_adj
    assert again.election == snap.election
    assert again.e1.first_delivery == snap.e1.first_delivery
    # a re-run with an injected frame differs from the plain run by that frame only
    origin = snap.interval.ids[0]
    start = phase_window(7, Phase.E1, world.si)[0]
    frame = Frame(msg_id="em-x", sender_id=origin, ready_us=start)
    legacy = world.run_interval(7, Y, legacy=frame)
    assert calls == []
    assert any(rec.frame.msg_id == "em-x" for rec in legacy.e1.transmissions)


def _count_adjacency(monkeypatch):
    calls = []
    real = simulation.adjacency

    def counting(ids, positions, radius, candidates=None):
        calls.append(radius)
        return real(ids, positions, radius, candidates)

    monkeypatch.setattr(simulation, "adjacency", counting)
    return calls


def test_equal_radii_build_one_adjacency(monkeypatch):
    calls = _count_adjacency(monkeypatch)
    world = build_world(default_config())
    snap = world.run_interval(7, Y)
    assert calls == [world.cs_range]
    assert snap.interval.rx_adj is snap.interval.cs_adj


def test_distinct_radii_build_both_adjacencies(monkeypatch):
    base = default_config()
    cfg = dataclasses.replace(base, radio=dataclasses.replace(base.radio, rx_sensitivity=-80.0))
    calls = _count_adjacency(monkeypatch)
    world = build_world(cfg)
    snap = world.run_interval(7, Y)
    assert world.rx_range < world.cs_range
    assert calls == [world.cs_range, world.rx_range]
    assert snap.interval.rx_adj != snap.interval.cs_adj
    cs_adj, rx_adj = ascending_rows(snap.interval.cs_adj), ascending_rows(snap.interval.rx_adj)
    for v in snap.interval.ids:
        assert rx_adj[v] <= cs_adj[v]


def _record_arenas(monkeypatch):
    """Each arena built, in build order."""
    arenas = []
    real = simulation.ContentionArena.__init__

    def recording(arena, **kwargs):
        real(arena, **kwargs)
        arenas.append(arena)

    monkeypatch.setattr(simulation.ContentionArena, "__init__", recording)
    return arenas


def _wiring(stations: simulation.Stations) -> dict[int, tuple[list[int], bool]]:
    """Per station, the ids of those that sense it, and whether its receivers are that list."""
    return {nid: ([n.nid for n in sensed_by], stations.receivers[nid] is sensed_by)
            for nid, sensed_by in stations.sensed_by.items()}


def test_adjacency_rows_list_neighbours_in_ascending_id_order():
    rng = np.random.default_rng(3)
    ids = [int(i) for i in rng.permutation(40)]
    positions = {i: (float(rng.uniform(0, 400)), float(rng.uniform(0, 40))) for i in ids}
    adj = adjacency(ids, positions, radius=120.0)
    assert list(adj) == sorted(ids)
    ascending_rows(adj)


#: a move as a share of half the skin, measured from where the candidates were found
NEAR_HALF_SKIN = [0.0, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5]


@settings(max_examples=150, deadline=None)
@given(
    start=st.lists(st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 400.0)), max_size=12),
    radii=st.tuples(st.floats(10.0, 250.0), st.floats(10.0, 250.0)),
    steps=st.lists(st.tuples(st.sampled_from(["drift", "jump", "land", "add", "nan", "stay"]),
                             st.integers(0, 1 << 16), st.sampled_from(NEAR_HALF_SKIN),
                             st.floats(0.0, 2 * math.pi)), max_size=10),
)
@example(start=[], radii=(100.0, 100.0), steps=[("stay", 0, 0.0, 0.0)] * 3)
@example(start=[(0.0, 0.0)], radii=(100.0, 50.0), steps=[("drift", 1, 0.0, 0.0)] * 3)
# a pair exactly one radius apart, tested on its candidates from the third call
@example(start=[(0.0, 0.0), (100.0, 0.0)], radii=(100.0, 60.0), steps=[("stay", 0, 0.0, 0.0)] * 2)
# a vehicle found at NaN comes back next to another
@example(start=[(0.0, 0.0), (300.0, 0.0)], radii=(100.0, 60.0),
         steps=[("nan", 1, 0.0, 0.0), ("stay", 0, 0.0, 0.0), ("land", 1, 0.5, 0.0)])
def test_rows_from_kept_candidates_equal_every_pair_tested(start, radii, steps):
    positions = dict(enumerate(start))
    records = [simulation.Candidates() for _ in radii]

    def check():
        ids = list(positions)
        for radius, record in zip(radii, records):
            assert adjacency(ids, positions, radius, record) == adjacency(ids, positions, radius)

    check()
    for kind, which, share, angle in steps:
        ids = list(positions)
        if kind == "drift" and ids:
            # every vehicle moves up to a tenth of the skin, seeded by `which`
            moves = np.random.default_rng(which).uniform(-0.1, 0.1, (len(ids), 2))
            for vid, (dx, dy) in zip(ids, moves * simulation.SENSING_SKIN):
                x, y = positions[vid]
                positions[vid] = (x + dx, y + dy)
        elif kind == "jump" and ids:
            # one vehicle lands `share` of half the skin from where the first
            # radius's candidates were found, or from where it is
            i = which % len(ids)
            then = records[0].xy
            x, y = positions[ids[i]] if then is None else then[2 * i:2 * i + 2].tolist()
            step = share * simulation.SENSING_SKIN / 2
            positions[ids[i]] = (x + step * math.cos(angle), y + step * math.sin(angle))
        elif kind == "land" and ids:
            positions[ids[which % len(ids)]] = (which % 400, share * 100)
        elif kind == "add":
            positions[max(positions, default=-1) + 1] = (which % 400, share * 100)
        elif kind == "nan" and ids:
            positions[ids[which % len(ids)]] = (math.nan, 0.0)
        check()


@pytest.mark.parametrize("share", [1 - 1e-6, 1.0, 1 + 1e-6])
def test_a_pair_closing_from_past_radius_plus_skin_is_found(share):
    # each vehicle closes by `share` of half the skin on a pair that was just
    # beyond radius + skin when the candidates were found
    radius, skin = 100.0, simulation.SENSING_SKIN
    record = simulation.Candidates()
    apart = {0: (0.0, 0.0), 1: (radius + skin + 1e-9, 0.0)}
    for _ in range(2):   # first sighting, then the candidates are found: none
        assert adjacency([0, 1], apart, radius, record) == {0: [], 1: []}
    assert record.pairs is not None and len(record.pairs) == 0
    step = share * skin / 2
    closer = {0: (step, 0.0), 1: (radius + skin + 1e-9 - step, 0.0)}
    rows = adjacency([0, 1], closer, radius, record)
    assert rows == adjacency([0, 1], closer, radius)
    assert rows == ({0: [1], 1: [0]} if share > 1 else {0: [], 1: []})


def test_a_static_world_tests_every_pair_at_most_twice_in_twenty_intervals(monkeypatch):
    base = default_config()
    world = build_world(dataclasses.replace(
        base, mobility=dataclasses.replace(base.mobility, vehicle_count=200, spawn_process=0.0)))
    passes = []
    real = simulation._pairs_within
    monkeypatch.setattr(simulation, "_pairs_within", lambda *args: passes.append(1) or real(*args))
    sensed = 0
    for si in range(5, 25):
        before = len(passes)
        interval = world.sense(si)
        sensed += len(passes) - before
        assert len(interval.ids) == 200
        assert interval.cs_adj == adjacency(interval.ids, interval.positions, world.cs_range)
    assert sensed <= 2


def test_every_storm_of_an_interval_wires_from_the_rows_sensed_once(monkeypatch):
    calls = _count_adjacency(monkeypatch)
    arenas = _record_arenas(monkeypatch)
    world = build_world(default_config())
    snap = world.run_interval(7, Y)
    snap.election   # the averages storm
    world.run_interval(7, Y, flooding=True)
    frame = Frame(msg_id="em-x", sender_id=snap.interval.ids[0],
                  ready_us=phase_window(7, Phase.E1, world.si)[0])
    world.run_interval(7, Y, legacy=frame)
    interval = world.sense(7)
    assert calls == [world.cs_range]
    windows = [(si_phase(arena.window_start, world.si), arena.flooding) for arena in arenas]
    assert windows == [(Phase.E1, False), (Phase.E3, False), (Phase.E1, True), (Phase.E1, False)]
    # all four storms run on the interval's one stations object
    assert all(arena.stations is interval.stations for arena in arenas)
    assert interval.stations.cs_adj is interval.cs_adj
    # every vehicle listens, so each one's listeners are its whole row,
    # and with equal radii its receivers are the same list
    assert _wiring(interval.stations) == {v: (list(interval.cs_adj[v]), True)
                                          for v in interval.ids}


def test_the_broadcast_window_sweep_builds_one_clique_per_call(monkeypatch):
    arenas = _record_arenas(monkeypatch)
    cfg = default_config()
    for _call in range(2):
        interval_sweep(cfg.mac, cfg.queue, 5, multiples=(0.25, 1, 0.5), seeds=range(3),
                       v_us=8_000.0)
    # one arena per seed, at the widest window, answers every window
    assert len(arenas) == 2 * 3
    assert all((arena.window_start, arena.window_end) == (0, 8_000) for arena in arenas)
    first, second = arenas[:3], arenas[3:]
    for calls in (first, second):
        # one stations object per call, shared by its arenas
        assert all(arena.stations is calls[0].stations for arena in calls)
        assert _wiring(calls[0].stations) == {
            i: ([j for j in range(5) if j != i], True) for i in range(5)}
    assert first[0].stations is not second[0].stations


@pytest.mark.parametrize("multiples,seeds,argument", [
    ((0.5, 1), range(0), "seeds"),
    ((), range(3), "multiples"),
    ((1, 0.00001), range(3), "multiples"),
    ((1, -0.5), range(3), "multiples"),
    ((1, math.inf), range(3), "multiples"),
    ((1, -math.inf), range(3), "multiples"),
    ((1, math.nan), range(3), "multiples"),
    ((1, 1e305), range(3), "multiples"),
    ((1,), range(3), ("v_us", 0.0)),
    ((1,), range(3), ("v_us", -100.0)),
    ((1,), range(3), ("v_us", math.nan)),
    ((1,), range(3), ("v_us", math.inf)),
])
def test_the_broadcast_window_sweep_rejects_an_empty_or_windowless_input(
        multiples, seeds, argument):
    # `argument` names the input blamed; ("v_us", value) also sets V
    argument, v_us = argument if isinstance(argument, tuple) else (argument, 8_000.0)
    cfg = default_config()
    with pytest.raises(ValueError, match=argument):
        interval_sweep(cfg.mac, cfg.queue, 5, multiples=multiples, seeds=seeds, v_us=v_us)


def test_the_broadcast_window_sweep_refuses_two_multiples_that_round_to_one_window():
    cfg = default_config()
    with pytest.raises(ValueError, match=r"^multiples: 0\.5 and 0\.50001 x V both round to "
                                         r"the window of 4000 us$"):
        interval_sweep(cfg.mac, cfg.queue, 5, multiples=(1, 0.5, 0.50001), seeds=range(2),
                       v_us=8_000.0)
    # a multiple given twice is the same window asked for twice, and gives its row twice
    points = interval_sweep(cfg.mac, cfg.queue, 5, multiples=(0.5, 1, 0.5), seeds=range(2),
                            v_us=8_000.0)
    assert points[0] == points[2]
    assert [pt.window_us for pt in points] == [4_000, 8_000, 4_000]


@pytest.mark.parametrize("n_nodes", [0, 1])
def test_the_broadcast_window_sweep_rejects_fewer_than_two_stations(n_nodes):
    # no station would have a receiver: 0 divided by zero, 1 read ptr = prr = 0
    cfg = default_config()
    with pytest.raises(ValueError, match="n_nodes"):
        interval_sweep(cfg.mac, cfg.queue, n_nodes, multiples=(1,), seeds=range(3), v_us=8_000.0)


#: multiples of V = 8000 us; 0.03 and 0.06 give windows shorter than one airtime
SWEEP_MULTIPLES = (0.03, 0.06, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n_nodes=st.integers(2, 20),
    multiples=st.lists(st.one_of(st.sampled_from(SWEEP_MULTIPLES), st.floats(0.01, 2.5)),
                       min_size=1, max_size=4),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    cw_min=st.sampled_from([0, 3, 15]),
)
# at seed 0, 13 stations and V = 8000 us, a decoded frame ends at 3000 us (0.375 V)
# and three overlapping ones at 4855 us (0.606875 V): each window keeps them
@example(n_nodes=13, multiples=[2.0, 0.375, 0.06, 0.375], seeds=[0, 1], cw_min=15)
@example(n_nodes=13, multiples=[0.606875], seeds=[0], cw_min=15)
def test_the_broadcast_window_sweep_matches_one_arena_per_window_and_seed(
        n_nodes, multiples, seeds, cw_min):
    mac, queue = MacParams(cw_min=cw_min), default_config().queue
    swept = interval_sweep(mac, queue, n_nodes, multiples, seeds, v_us=8_000.0)
    reference = window_by_window_sweep(mac, queue, n_nodes, multiples, seeds, v_us=8_000.0)
    assert list(map(repr, swept)) == list(map(repr, reference))
