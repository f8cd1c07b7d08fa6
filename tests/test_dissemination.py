"""Emergency-dissemination building blocks: waits, visit order, arena flooding."""

from __future__ import annotations

import dataclasses

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcwave import experiment
from mcwave.config import default_config
from mcwave.dissemination import (
    FLOODING_MODES,
    EmergencyMessage,
    SchemeConfig,
    legacy_wait,
    wsd_schedule,
)
from mcwave.engine import SI_PRESETS
from mcwave.mac import MODE_EMERGENCY, MacParams
from mcwave.simulation import ArenaResult, ContentionArena, Frame, Stations

STD = SI_PRESETS["std-50"]


# ---------------------------------------------------------------------------
# Configuration objects
# ---------------------------------------------------------------------------


def test_scheme_config_validation():
    SchemeConfig(scheme="wsd", switching_delay_us=0, flooding="shbf", advertised_y=6)
    with pytest.raises(ValueError, match="scheme.scheme"):
        SchemeConfig(scheme="gossip")
    with pytest.raises(ValueError, match="switching_delay"):
        SchemeConfig(switching_delay_us=-1)
    with pytest.raises(ValueError, match="flooding"):
        SchemeConfig(flooding="everything")
    with pytest.raises(ValueError, match="advertised_y"):
        SchemeConfig(advertised_y=0)
    assert FLOODING_MODES == ("none", "shbf")


def test_emergency_message_is_immutable():
    msg = EmergencyMessage(origin_id=3, invocation_time_us=61_000, msg_id="em-1")
    with pytest.raises(AttributeError):
        msg.origin_id = 4


# ---------------------------------------------------------------------------
# Legacy wait until the next control interval
# ---------------------------------------------------------------------------


def test_wait_from_service_interval_lands_after_the_next_guard():
    # invoked at 60 ms, inside interval 0's service window: the broadcast
    # cannot start before interval 1's control window opens at 104 ms
    assert legacy_wait(60_000, STD) == 104_000
    assert legacy_wait(99_999, STD) == 104_000
    # same rule one interval later
    assert legacy_wait(160_000, STD) == 204_000


def test_wait_during_control_interval_is_immediate():
    assert legacy_wait(10_000, STD) == 10_000   # broadcast slot is running
    assert legacy_wait(49_999, STD) == 49_999   # last control microsecond
    assert legacy_wait(1_000, STD) == 1_000     # guard time counts as control side


@given(t=st.integers(min_value=0, max_value=10**8))
def test_wait_never_moves_backwards_and_lands_on_the_control_side(t):
    start = legacy_wait(t, STD)
    assert start >= t
    assert start % STD.si_length < STD.cchi


# ---------------------------------------------------------------------------
# Sequential visit ordering
# ---------------------------------------------------------------------------


def test_visit_order_prefers_fast_and_crowded_channels():
    stats = {1: (2000.0, 4), 2: (1000.0, 1), 3: (1000.0, 4)}
    # ratios: 500, 1000, 250 -> channel 3 first, then 1, then 2
    assert wsd_schedule(stats) == [3, 1, 2]


def test_visit_order_skips_empty_channels_and_breaks_ties_low():
    stats = {1: (1000.0, 2), 2: (0.0, 0), 3: (1000.0, 2), 4: (500.0, 1)}
    assert wsd_schedule(stats) == [1, 3, 4]  # 1 and 3 tie at 500; 4 at 500 too
    assert wsd_schedule({2: (0.0, 0)}) == []


@given(
    stats=st.dictionaries(
        st.integers(min_value=1, max_value=6),
        st.tuples(st.floats(min_value=0.0, max_value=1e5),
                  st.integers(min_value=0, max_value=30)),
        max_size=6,
    )
)
def test_visit_order_is_sorted_by_delay_over_population(stats):
    order = wsd_schedule(stats)
    assert set(order) == {ch for ch, (_, n) in stats.items() if n > 0}
    keys = [(stats[ch][0] / stats[ch][1], ch) for ch in order]
    assert keys == sorted(keys)


def test_wsd_stops_before_a_visit_that_would_start_after_the_service_interval(monkeypatch):
    # a switch as long as the whole SCHI lands every visit past its end, so
    # the origin never leaves its own channel
    base = default_config()
    assert base.si.schi == 50_000
    cfg = dataclasses.replace(
        base, scheme=dataclasses.replace(base.scheme, scheme="wsd", switching_delay_us=50_000),
    )
    seen = {}
    run_scheme = experiment.run_scheme

    def spy(scheme, snap, emergency, advance):
        origin = emergency.origin_id
        seen["own"] = snap.sch[origin]
        seen["populated"] = {ch for ch in range(1, scheme.advertised_y + 1)
                             if any(v != origin for v in snap.members_of(ch))}
        return run_scheme(scheme, snap, emergency, advance)

    monkeypatch.setattr(experiment, "run_scheme", spy)
    report = experiment.run_experiment(cfg).report
    others = seen["populated"] - {seen["own"]}
    assert others   # there were channels to visit
    assert report.switch_count == 0
    assert set(report.per_channel_delays_us) <= {seen["own"]}
    assert others <= set(report.unreached_channels)


# ---------------------------------------------------------------------------
# Single-hop blind flooding in the contention arena
# ---------------------------------------------------------------------------


def flood(links: dict[int, set[int]], senders: dict[int, int],
          flood_exclude: tuple[int, ...] = ()) -> ArenaResult:
    """Run a flooding arena in which each sender airs one original copy of em-x.

    `links` lists who hears whom (symmetric, for sensing and reception
    alike); `senders` maps each original sender to its frame's ready time.
    """
    adj = {v: frozenset(links.get(v, ())) for v in sorted(set(links) | set(senders))}
    arena = ContentionArena(
        channel=1, window=(0, 200_000), mac=MacParams(), chain_mode=MODE_EMERGENCY,
        stations=Stations(adj, adj, adj), rng=np.random.default_rng(0),
        flooding=True, flood_exclude=flood_exclude,
    )
    arena.add_frames([Frame(msg_id="em-x", sender_id=sender, ready_us=ready)
                      for sender, ready in senders.items()])
    result = arena.run()
    assert not result.pending_senders
    return result


def relays(result: ArenaResult) -> list:
    return [rec for rec in result.transmissions if rec.frame.is_rebroadcast]


def test_first_reception_triggers_one_relay_per_receiver():
    result = flood({1: {2, 3}, 2: {1}, 3: {1}}, senders={1: 0})
    (origin,) = [rec for rec in result.transmissions if not rec.frame.is_rebroadcast]
    assert origin.received_by == [2, 3]
    out = relays(result)
    assert sorted(rec.sender_id for rec in out) == [2, 3]
    assert all(rec.frame.msg_id == "em-x" for rec in out)
    assert all(rec.frame.ready_us == origin.end_us for rec in out)


def test_copies_of_a_rebroadcast_are_not_relayed_again():
    # a line 1 - 2 - 3: vehicle 3 first gets the message from 2's relay
    result = flood({1: {2}, 2: {1, 3}, 3: {2}}, senders={1: 0})
    (relay,) = relays(result)
    assert relay.sender_id == 2 and relay.received_by == [1, 3]
    assert ("em-x", 3) in result.first_delivery


def test_origin_and_prior_relays_stay_silent():
    # 2 is told not to flood; 3 hears the message from 1, then again from 4
    links = {1: {2, 3}, 2: {1}, 3: {1, 4}, 4: {3}}
    result = flood(links, senders={1: 0, 4: 50_000}, flood_exclude=(2,))
    assert [rec.sender_id for rec in relays(result)] == [3]
    late = next(rec for rec in result.transmissions if rec.sender_id == 4)
    assert 3 in late.received_by
    assert ("em-x", 1) in result.first_delivery and ("em-x", 2) in result.first_delivery


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    edges=st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25),
    senders=st.dictionaries(st.integers(0, 9), st.integers(0, 20_000), min_size=1, max_size=3),
    exclude=st.sets(st.integers(0, 9), max_size=3),
)
def test_relay_set_is_bounded_by_new_receivers(edges, senders, exclude):
    links: dict[int, set[int]] = {v: set() for v in range(10)}
    for a, b in edges:
        if a != b:
            links[a].add(b)
            links[b].add(a)
    result = flood(links, senders, flood_exclude=tuple(sorted(exclude)))
    out = relays(result)
    relayed = [rec.sender_id for rec in out]
    assert len(relayed) == len(set(relayed))  # at most one relay per vehicle
    assert not set(relayed) & exclude
    for rec in out:
        assert rec.frame.ready_us == result.first_delivery[("em-x", rec.sender_id)]
    for (_, v), t in result.first_delivery.items():
        heard = {r.frame.is_rebroadcast for r in result.transmissions
                 if r.end_us == t and v in r.received_by}
        if v not in exclude and heard == {False}:
            assert v in relayed  # a first delivery of an original copy is relayed
        if heard == {True}:
            assert v not in relayed  # a first delivery of a relay is not
