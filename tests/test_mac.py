"""Frame timing, MAC parameters, and the back-off rules the contention arena runs."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcwave.analytics import transmission_probability
from mcwave.mac import (
    MODE_EMERGENCY,
    MODE_STANDARD,
    MacParams,
    draw_counter,
    frame_airtime,
)
from mcwave.simulation import ContentionArena, Frame, Stations

from oracles import simulate_chain, single_counter


def test_frame_airtime_matches_payload_over_rate():
    m = MacParams()
    assert frame_airtime(m) == pytest.approx(1600.0 / 3.0)  # 200 B at 3 Mb/s
    assert frame_airtime(MacParams(payload_s=300)) == pytest.approx(800.0)
    assert frame_airtime(MacParams(payload_s=0)) == 0.0


def test_interframe_spaces_derive_from_slot_time():
    m = MacParams()
    assert m.difs == 64            # sifs + 2 slots
    assert m.eifs_us == pytest.approx(32 + 64 + 1600.0 / 3.0)


def test_mac_params_validation():
    with pytest.raises(ValueError, match="mac.cw_min"):
        MacParams(cw_min=-1)
    with pytest.raises(ValueError, match="mac.data_rate"):
        MacParams(data_rate=0.0)


def test_draw_backoff_covers_the_whole_window():
    m = MacParams(cw_min=15)
    rng = np.random.default_rng(0)
    seen = set(draw_counter(m, rng, 2_000))
    assert seen == set(range(16))


def test_a_block_of_counters_is_single_draws_in_turn():
    # a block must hold the values of single draws and leave the generator
    # where they do, whether or not it holds a spare 32-bit half beforehand
    for cw_min in (0, 1, 15, 255, 1023):
        m = MacParams(cw_min=cw_min)
        for seed in range(12):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            if seed % 2:
                assert draw_counter(m, a, 1) == [single_counter(m, b)]
            k = 1 + 7 * seed
            assert draw_counter(m, a, k) == [single_counter(m, b) for _ in range(k)]
            assert a.bit_generator.state == b.bit_generator.state


def arena(mode: str, n: int, seed: int, mac: MacParams = MacParams(),
          window: tuple[int, int] = (0, 10_000), ready_us: int = 0) -> ContentionArena:
    """n stations that all sense and hear each other, one frame each."""
    everyone = {i: frozenset(j for j in range(n) if j != i) for i in range(n)}
    out = ContentionArena(channel=1, window=window, mac=mac, chain_mode=mode,
                          stations=Stations(range(n), everyone),
                          rng=np.random.default_rng(seed))
    out.add_frames([Frame(msg_id=f"m-{i}", sender_id=i, ready_us=ready_us) for i in range(n)])
    return out


def test_draw_backoff_takes_the_same_draws_as_draw_counter():
    m = MacParams(cw_min=15)
    for mode in (MODE_STANDARD, MODE_EMERGENCY):
        a, b = arena(mode, 0, seed=3, mac=m), np.random.default_rng(3)
        for _ in range(100):
            k = single_counter(m, b)
            assert a._draw_slots() == (k if mode == MODE_STANDARD else (k + 1) // 2)
        assert a.rng.random() == b.random()


def test_standard_step_freezes_on_busy_and_counts_down_when_idle():
    # the later station's countdown freezes under the earlier frame and
    # resumes one DIFS after it with the slots it had left
    m = MacParams()
    frozen = 0
    for seed in range(40):
        a = arena(MODE_STANDARD, 2, seed)
        rng = copy.deepcopy(a.rng)
        lo, hi = sorted(single_counter(m, rng) for _ in range(2))
        first, second = a.run().transmissions
        assert first.start_us == lo * m.sigma
        if lo < hi:
            assert second.start_us == first.end_us + m.difs + (hi - lo) * m.sigma
            frozen += 1
        else:  # the same slot: both fire together and collide
            assert second.start_us == first.start_us
    assert frozen > 30


def test_emergency_step_halves_the_countdown():
    # a lone emergency sender fires ceil(k/2) idle slots after the window opens
    m = MacParams()
    parities = set()
    for seed in range(40):
        a = arena(MODE_EMERGENCY, 1, seed, window=(1_000, 5_000), ready_us=500)
        k = single_counter(m, copy.deepcopy(a.rng))
        (rec,) = a.run().transmissions
        assert rec.start_us == 1_000 + math.ceil(k / 2) * m.sigma
        parities.add(k % 2)
    assert parities == {0, 1}


@given(n=st.integers(min_value=1, max_value=8), seed=st.integers(0, 2**16),
       cw_min=st.sampled_from([0, 1, 15, 255]))
@settings(max_examples=60, deadline=None)
def test_counter_never_goes_negative_and_always_terminates(n, seed, cw_min):
    # stations that all sense each other: each frame airs once, and none
    # starts inside another's frame unless both fire in the same slot
    result = arena(MODE_EMERGENCY, n, seed, mac=MacParams(cw_min=cw_min),
                   window=(0, 1_000_000)).run()
    recs = result.transmissions
    assert sorted(rec.sender_id for rec in recs) == list(range(n))
    assert not result.pending_senders
    for a, b in zip(recs, recs[1:]):
        assert b.start_us == a.start_us or b.start_us >= a.end_us


@pytest.mark.parametrize(
    "w0,p_b,rho,p_a",
    [(16, 0.0, 1.0, 1.0), (16, 0.3, 1.0, 1.0), (8, 0.3, 0.2, 0.3)],
)
def test_chain_long_run_transmission_rate_tracks_closed_form(w0, p_b, rho, p_a):
    frac = simulate_chain(1, w0, p_b, p_a, rho, 300_000, np.random.default_rng(123))
    tau = transmission_probability(w0, p_b, p_a, rho)
    assert frac == pytest.approx(tau, rel=0.05)


def test_emergency_chain_transmits_more_often_than_standard():
    kwargs = dict(w0=16, p_b=0.3, p_a=1.0, rho=1.0, n_slots=200_000)
    std = simulate_chain(1, rng=np.random.default_rng(5), **kwargs)
    em = simulate_chain(2, rng=np.random.default_rng(5), **kwargs)
    assert em > std
