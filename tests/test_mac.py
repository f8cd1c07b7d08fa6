"""Back-off chain mechanics, frame timing, and channel-window classification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcwave.analytics import transmission_probability
from mcwave.mac import (
    MODE_EMERGENCY,
    MODE_STANDARD,
    PHASE_COUNTING,
    PHASE_TRANSMITTING,
    BackoffState,
    ContentionParams,
    MacParams,
    airtime_slots,
    channel_activity,
    draw_backoff,
    draw_counter,
    emergency_backoff_step,
    frame_airtime,
    simulate_chain,
    standard_backoff_step,
)


def test_frame_airtime_matches_payload_over_rate():
    m = MacParams()
    assert frame_airtime(m) == pytest.approx(1600.0 / 3.0)  # 200 B at 3 Mb/s
    assert frame_airtime(m, payload_bytes=300) == pytest.approx(800.0)
    assert frame_airtime(m, payload_bytes=0) == 0.0


def test_interframe_spaces_derive_from_slot_time():
    m = MacParams()
    assert m.difs == 64            # sifs + 2 slots
    assert m.eifs_us == pytest.approx(32 + 64 + 1600.0 / 3.0)
    assert MacParams(eifs=700).eifs_us == 700.0


def test_mac_params_validation():
    with pytest.raises(ValueError, match="mac.cw_min"):
        MacParams(cw_min=-1)
    with pytest.raises(ValueError, match="mac.cw_min must not exceed"):
        MacParams(cw_min=512, cw_max=256)
    with pytest.raises(ValueError, match="mac.data_rate"):
        MacParams(data_rate=0.0)


def test_contention_params_validation():
    with pytest.raises(ValueError, match="contention.n_contenders"):
        ContentionParams(n_contenders=0)
    with pytest.raises(ValueError, match="contention.p_b"):
        ContentionParams(p_b=1.5)


def test_draw_backoff_covers_the_whole_window():
    m = MacParams(cw_min=15)
    rng = np.random.default_rng(0)
    seen = {draw_backoff(MODE_STANDARD, m, rng).counter_k for _ in range(2_000)}
    assert seen == set(range(16))


def test_draw_backoff_takes_the_same_draws_as_draw_counter():
    m = MacParams(cw_min=15)
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    for mode in (MODE_STANDARD, MODE_EMERGENCY) * 100:
        assert draw_backoff(mode, m, a).counter_k == draw_counter(m, b)
    assert a.random() == b.random()


def test_standard_step_freezes_on_busy_and_counts_down_when_idle():
    s = BackoffState(mode=MODE_STANDARD, counter_k=2, w0=16)
    standard_backoff_step(s, channel_busy=True)
    assert s.counter_k == 2 and s.frozen
    standard_backoff_step(s, channel_busy=False)
    standard_backoff_step(s, channel_busy=False)
    assert s.counter_k == 0 and s.phase == PHASE_COUNTING
    standard_backoff_step(s, channel_busy=False)  # zero-counter idle slot transmits
    assert s.phase == PHASE_TRANSMITTING


def test_emergency_step_halves_the_countdown():
    s = BackoffState(mode=MODE_EMERGENCY, counter_k=5, w0=16)
    idle_slots = 0
    while s.phase == PHASE_COUNTING:
        emergency_backoff_step(s, channel_busy=False)
        idle_slots += 1
    assert idle_slots == 4  # ceil(5 / 2) countdown slots + the transmitting slot


def test_step_functions_reject_mismatched_modes():
    s = BackoffState(mode=MODE_STANDARD, counter_k=1, w0=16)
    with pytest.raises(ValueError):
        emergency_backoff_step(s, channel_busy=False)


@given(k=st.integers(min_value=0, max_value=255), busy_seed=st.integers(0, 2**16))
@settings(max_examples=60)
def test_counter_never_goes_negative_and_always_terminates(k, busy_seed):
    rng = np.random.default_rng(busy_seed)
    s = BackoffState(mode=MODE_EMERGENCY, counter_k=k, w0=256)
    for _ in range(10_000):
        if s.phase == PHASE_TRANSMITTING:
            break
        emergency_backoff_step(s, channel_busy=bool(rng.random() < 0.4))
        assert s.counter_k >= 0
    else:
        pytest.fail("countdown did not terminate")


@pytest.mark.parametrize(
    "w0,p_b,rho,p_a",
    [(16, 0.0, 1.0, 1.0), (16, 0.3, 1.0, 1.0), (8, 0.3, 0.2, 0.3)],
)
def test_chain_long_run_transmission_rate_tracks_closed_form(w0, p_b, rho, p_a):
    frac = simulate_chain(
        MODE_STANDARD, MacParams(), p_b, p_a, rho,
        300_000, np.random.default_rng(123), w0_override=w0,
    )
    tau = transmission_probability(w0, p_b, p_a, rho)
    assert frac == pytest.approx(tau, rel=0.05)


def test_emergency_chain_transmits_more_often_than_standard():
    kwargs = dict(params=MacParams(), p_b=0.3, p_a=1.0, rho=1.0, n_slots=200_000)
    std = simulate_chain(MODE_STANDARD, rng=np.random.default_rng(5), **kwargs)
    em = simulate_chain(MODE_EMERGENCY, rng=np.random.default_rng(5), **kwargs)
    assert em > std


def test_channel_activity_classification():
    assert channel_activity([]).kind == "idle"
    assert channel_activity([(1, 0.0, 5.0)]).kind == "success"
    overlap = channel_activity([(1, 0.0, 5.0), (2, 3.0, 8.0)])
    assert overlap.kind == "collision"
    assert overlap.tx_ids == (1, 2)
    disjoint = channel_activity([(1, 0.0, 5.0), (2, 6.0, 8.0)])
    assert disjoint.kind == "success"
    # overlapping but no common receiver hears both: hidden pair, no collision
    hidden = channel_activity([(1, 0.0, 5.0), (2, 3.0, 8.0)], sensed_by_common_receiver=[])
    assert hidden.kind == "success"


def test_airtime_slots_rounds_up_to_whole_slots():
    m = MacParams()
    assert airtime_slots(m) == 34  # 533.33 us over 16 us slots
    assert airtime_slots(m, payload_bytes=1) == 1
