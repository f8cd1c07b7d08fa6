"""Closed-form layer: back-off chain, slot mix, queueing, delay composition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcwave.analytics import (
    MacParams,
    QueueParams,
    expected_contention_delay,
    expected_queue_length,
    hop_delay,
    optimal_decision_interval,
    queueing_delay,
    saturated_fixed_point,
    slot_duration,
    slot_probabilities,
    stationary_distribution,
    total_dissemination_delay,
    transmission_probability,
)
from mcwave.radio import RadioParams, TrafficParams

from oracles import oracle_backoff_stationary, oracle_mm1b_moments

# ---------------------------------------------------------------------------
# Single-stage back-off chain
# ---------------------------------------------------------------------------


def test_transmission_probability_closed_form():
    # saturated, never-busy chain: tau = 2 / (w0 + 1)
    assert transmission_probability(15, 0.0, 1.0, 1.0) == pytest.approx(0.125)
    # the general form composes the busy-stretched countdown and the idle dwell
    w0, p_b, p_a, rho = 8, 0.3, 0.3, 0.2
    expected = 1.0 / ((w0 + 1) / (2 * (1 - p_b)) + (1 - rho) / p_a)
    assert transmission_probability(w0, p_b, p_a, rho) == pytest.approx(expected)


def test_stationary_distribution_matches_power_iteration_spot_check():
    for (w0, p_b, p_a, rho) in [(8, 0.3, 1.0, 1.0), (15, 0.0, 0.3, 0.2), (32, 0.7, 1.0, 0.2)]:
        dist = stationary_distribution(w0, p_b, p_a, rho)
        occ, idle = oracle_backoff_stationary(w0, p_b, p_a, rho)
        assert np.max(np.abs(np.asarray(dist.occupancy) - occ)) < 1e-9
        assert dist.idle == pytest.approx(idle, abs=1e-9)
        assert dist.b0 == pytest.approx(transmission_probability(w0, p_b, p_a, rho))


@given(
    w0=st.integers(min_value=2, max_value=64),
    p_b=st.floats(min_value=0.0, max_value=0.95),
    p_a=st.floats(min_value=0.05, max_value=1.0),
    rho=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=80)
def test_stationary_mass_sums_to_one_and_tau_is_a_probability(w0, p_b, p_a, rho):
    dist = stationary_distribution(w0, p_b, p_a, rho)
    assert sum(dist.occupancy) + dist.idle == pytest.approx(1.0, abs=1e-12)
    assert all(mass >= 0.0 for mass in dist.occupancy)
    assert 0.0 < dist.b0 <= 1.0


def test_chain_inputs_are_validated():
    with pytest.raises(ValueError):
        transmission_probability(0, 0.0, 1.0, 1.0)  # window must be positive
    with pytest.raises(ValueError):
        transmission_probability(8, 1.0, 1.0, 1.0)  # permanently busy channel
    with pytest.raises(ValueError):
        transmission_probability(8, 0.0, 0.0, 0.5)  # no arrivals, empty queue


# ---------------------------------------------------------------------------
# Slot mix and per-slot duration
# ---------------------------------------------------------------------------


def test_slot_probabilities_decompose_busy_into_success_and_collision():
    probs = slot_probabilities(0.125, 5)
    assert 1 - probs.p_busy == pytest.approx((1 - 0.125) ** 5)
    assert probs.p_success == pytest.approx(5 * 0.125 * (1 - 0.125) ** 4)
    assert probs.p_coll == pytest.approx(probs.p_busy - probs.p_success)


@given(tau=st.floats(min_value=1e-4, max_value=0.999), n=st.integers(min_value=0, max_value=60))
@settings(max_examples=80)
def test_slot_probability_mix_is_a_distribution(tau, n):
    probs = slot_probabilities(tau, n)
    p_idle = 1 - probs.p_busy
    assert p_idle == pytest.approx((1 - tau) ** n, abs=1e-12)
    assert p_idle + probs.p_success + probs.p_coll == pytest.approx(1.0, abs=1e-9)
    assert min(p_idle, probs.p_success, probs.p_coll) >= -1e-12


def test_slot_duration_weights_the_three_outcomes():
    e_t, difs, eifs = 1600 / 3, 64, 629.3333333333334
    t_success, t_coll = difs + 16 + e_t, eifs + 16 + e_t
    # a lone contender never collides; a pair collides when both transmit
    lone = slot_duration(slot_probabilities(0.125, 1), sigma=16, e_t=e_t, difs=difs, eifs=eifs)
    assert lone.t_slot == pytest.approx(0.875 * 16 + 0.125 * t_success)
    pair = slot_duration(slot_probabilities(0.125, 2), sigma=16, e_t=e_t, difs=difs, eifs=eifs)
    assert pair.t_slot == pytest.approx(
        0.875 ** 2 * 16 + 2 * 0.125 * 0.875 * t_success + 0.125 ** 2 * t_coll
    )


def test_expected_contention_delay_is_half_the_window_in_slots():
    assert expected_contention_delay(15, 16.0) == pytest.approx(112.0)
    assert expected_contention_delay(15, 90.0) == pytest.approx(7 * 90.0)


# ---------------------------------------------------------------------------
# Finite queue
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rho,b", [(0.3, 1), (0.7, 5), (0.9, 20)])
def test_queue_moments_match_birth_death_oracle(rho, b):
    e_b_oracle, e_q_oracle = oracle_mm1b_moments(rho * 1e4, 1e4, b)
    assert expected_queue_length(rho, b) == pytest.approx(e_b_oracle, rel=1e-12)
    assert queueing_delay(rho * 1e4, 1e4, b) == pytest.approx(e_q_oracle, rel=1e-12)


def test_saturated_queue_uses_the_degenerate_branch():
    # at rho = 1 every state is equally likely: E[b] = B/2, delay = (B+1)/(2 mu)
    assert expected_queue_length(1.0, 20) == pytest.approx(10.0)
    assert queueing_delay(1e4, 1e4, 20) == pytest.approx(21 / (2 * 1e4))
    assert queueing_delay(1e4, 1e4, 1) == pytest.approx(2 / (2 * 1e4))
    # the other end needs no branch: at rho = 0 the general form is exactly 0
    assert expected_queue_length(0.0, 1) == 0.0
    assert expected_queue_length(0.0, 20) == 0.0


def test_default_queue_point_value():
    q = QueueParams()
    assert queueing_delay(q.lambda_, q.mu, q.b_capacity) == pytest.approx(
        100.1001001001e-6, rel=1e-9
    )


def test_queue_params_validation():
    with pytest.raises(ValueError):
        QueueParams(lambda_=-1.0)
    with pytest.raises(ValueError):
        QueueParams(b_capacity=0)


# ---------------------------------------------------------------------------
# Per-hop delay composition
# ---------------------------------------------------------------------------


def test_hop_delay_composes_queue_contention_and_airtime():
    db = hop_delay(QueueParams(), MacParams(), 1)
    assert db.e_d == db.e_q + db.e_c + db.e_t
    assert db.e_t == pytest.approx(1600 / 3 * 1e-6)
    assert db.e_q == pytest.approx(100.1001001001e-6)
    # a lone sender keeps the nominal rate and counts down through empty slots
    assert db.tau == pytest.approx(0.125)
    assert db.t_slot == pytest.approx(16e-6)
    assert db.e_c == pytest.approx(7 * 16e-6)
    # even when that rate is 1 (cw_min = 1)
    assert hop_delay(QueueParams(), MacParams(cw_min=1), 1).t_slot == pytest.approx(16e-6)


def test_more_contenders_stretch_every_component_but_the_airtime():
    lone = hop_delay(QueueParams(), MacParams(), 1)
    crowd = hop_delay(QueueParams(), MacParams(), 20)
    assert crowd.e_c > lone.e_c
    assert crowd.t_slot > lone.t_slot
    assert crowd.e_t == lone.e_t
    assert crowd.e_q == lone.e_q
    assert crowd.e_d > lone.e_d


def test_hop_delay_per_contender_falls_with_the_crowd():
    # wsd visits channels in ascending e_d / count order, so a strictly falling
    # ratio means it visits the most crowded channel first
    q, m = QueueParams(), MacParams()
    ratios = [hop_delay(q, m, c + 1).e_d / c for c in range(1, 101)]
    assert all(later < earlier for earlier, later in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("w0", [1, 3, 7, 15, 31, 63])
def test_saturated_fixed_point_is_self_consistent(w0):
    # past n ~ 1.4 w0 plain iteration of the map would fall into a two-cycle,
    # so the fixed point is bisected for every n
    taus = []
    for n in range(1, 101):
        tau, p_b = saturated_fixed_point(w0, n)
        assert p_b == pytest.approx(1 - (1 - tau) ** (n - 1), abs=1e-10)
        assert tau == pytest.approx(transmission_probability(w0, p_b, 1.0, 1.0), abs=1e-10)
        assert 0.0 < tau <= 2 / (w0 + 1)
        taus.append(tau)
    # a larger crowd keeps the channel busier, so each station sends less
    assert all(later < earlier for earlier, later in zip(taus, taus[1:]))


def test_saturated_fixed_point_of_a_lone_station_is_the_nominal_rate():
    for w0 in (1, 7, 15, 31):
        assert saturated_fixed_point(w0, 1) == (2 / (w0 + 1), 0.0)
    with pytest.raises(ValueError):
        saturated_fixed_point(15, 0)


def test_optimal_decision_interval_scales_with_density_and_slot():
    t = TrafficParams(beta=0.025)
    r = RadioParams()
    v = optimal_decision_interval(t, r, 788.7228938978321)
    assert v == pytest.approx(13.4390964656 * 788.7228938978321, rel=1e-9)
    # doubling the density doubles the window
    assert optimal_decision_interval(TrafficParams(beta=0.05), r, 788.7228938978321) == pytest.approx(2 * v)


# ---------------------------------------------------------------------------
# Scheme-level dissemination delay
# ---------------------------------------------------------------------------


def test_single_channel_collapses_to_one_hop():
    assert total_dissemination_delay("cmd", 1, 2000.0, 2000.0) == 2000.0
    assert total_dissemination_delay("wsd", 1, 2000.0, 2000.0) == 2000.0


def test_parallel_relay_flattens_the_channel_count():
    for y in (3, 4, 5, 6):
        assert total_dissemination_delay("cmd", y, 2000.0, 2000.0) == pytest.approx(6000.0)


def test_sequential_sweep_grows_linearly():
    assert total_dissemination_delay("wsd", 3, 2000.0, 2000.0) == pytest.approx(10000.0)
    assert total_dissemination_delay("wsd", 5, 2000.0, 2000.0) == pytest.approx(18000.0)


@given(
    y=st.integers(min_value=2, max_value=6),
    e_d=st.floats(min_value=100.0, max_value=10_000.0),
    t_sw=st.floats(min_value=0.0, max_value=5_000.0),
)
def test_sequential_minus_parallel_gap_identity(y, e_d, t_sw):
    gap = total_dissemination_delay("wsd", y, e_d, t_sw) - total_dissemination_delay(
        "cmd", y, e_d, t_sw
    )
    assert gap == pytest.approx((y - 2) * (e_d + t_sw))


def test_uncoordinated_scheme_pays_the_interval_wait():
    got = total_dissemination_delay(
        "legacy", 3, 2000.0, 2000.0, residual_wait=25_000.0, guard=4_000.0
    )
    assert got == pytest.approx(25_000.0 + 4_000.0 + 2_000.0)
    # the wait applies even when only one channel exists
    got_one = total_dissemination_delay(
        "legacy", 1, 2000.0, 2000.0, residual_wait=25_000.0, guard=4_000.0
    )
    assert got_one == pytest.approx(31_000.0)


def test_unknown_scheme_is_rejected():
    with pytest.raises(ValueError):
        total_dissemination_delay("broadcast", 3, 2000.0, 2000.0)
