"""Dual-slope propagation, sensing ranges, and density coupling."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcwave.radio import (
    RadioParams,
    RangeBranchError,
    TrafficParams,
    carrier_sense_range,
    critical_distance,
    far_branch_range,
    near_branch_range,
    received_power_db,
    sensing_range,
    vehicles_in_cs_range,
)
from mcwave.simulation import Candidates, adjacency

from helpers import ascending_rows

DEFAULT = RadioParams()


def test_critical_distance_from_antenna_geometry():
    # 4 h_t h_r / wavelength with 1.5 m antennas at 5.9 GHz
    assert critical_distance(DEFAULT) == pytest.approx(177.1225345502, abs=1e-6)


def test_power_anchors_at_reference_distance():
    assert received_power_db(DEFAULT, DEFAULT.d0) == pytest.approx(DEFAULT.pr_d0)
    # inside the reference distance the anchor power applies unchanged
    assert received_power_db(DEFAULT, 1.0) == pytest.approx(DEFAULT.pr_d0)


def test_power_follows_near_slope_then_steeper_far_slope():
    assert received_power_db(DEFAULT, 100.0) == pytest.approx(-79.0)  # -60 - 19*log10(10)
    d_c = critical_distance(DEFAULT)
    at_dc = received_power_db(DEFAULT, d_c)
    # one decade past the breakpoint drops by 10*gamma2 dB
    assert received_power_db(DEFAULT, 10 * d_c) == pytest.approx(at_dc - 38.0)


@given(
    d1=st.floats(min_value=10.0, max_value=5_000.0),
    d2=st.floats(min_value=10.0, max_value=5_000.0),
)
def test_deterministic_power_is_monotone_decreasing(d1, d2):
    lo, hi = sorted((d1, d2))
    assert received_power_db(DEFAULT, lo) >= received_power_db(DEFAULT, hi)


def test_power_rejects_zero_distance():
    with pytest.raises(ValueError, match="distance must be positive"):
        received_power_db(DEFAULT, 0.0)


def test_sensing_range_solves_the_carrier_sense_threshold():
    r = sensing_range(DEFAULT)
    assert r == pytest.approx(191.4395416996, abs=1e-6)
    assert received_power_db(DEFAULT, r) == pytest.approx(DEFAULT.c_th, abs=1e-9)
    assert received_power_db(DEFAULT, r + 0.01) < DEFAULT.c_th


@given(
    d0=st.floats(1.0, 20.0), h_t=st.floats(1.0, 3.0), h_r=st.floats(1.0, 3.0),
    pr_d0=st.floats(-75.0, -45.0), c_th=st.floats(-100.0, -60.0),
    gamma1=st.floats(1.5, 2.5), gamma2=st.floats(2.5, 4.5),
)
def test_sensing_range_solves_the_threshold_on_either_branch(d0, h_t, h_r, pr_d0, c_th,
                                                             gamma1, gamma2):
    # near and far branch alike, and no radius when even d0 hears less than c_th
    p = RadioParams(d0=d0, pr_d0=pr_d0, c_th=c_th, gamma1=gamma1, gamma2=gamma2,
                    h_t=h_t, h_r=h_r)
    r = sensing_range(p)
    if pr_d0 < c_th:
        assert r == 0.0
    else:
        assert received_power_db(p, r) == pytest.approx(c_th, abs=1e-9)


def test_receives_is_a_sharp_disc_in_deterministic_mode():
    # the simulator senses, and may decode, exactly the vehicles inside the sensing radius
    r = sensing_range(DEFAULT)
    positions = {0: (0.0, 0.0), 1: (r - 0.5, 0.0), 2: (0.0, -(r + 0.5))}
    assert ascending_rows(adjacency([0, 1, 2], positions, r, Candidates()))[0] == {1}


def test_expected_sensing_range_uses_far_branch_by_default():
    # with 5.6 dB folded in, the near branch lands beyond the breakpoint,
    # so the far branch (steeper exponent) is the self-consistent one
    d_c = critical_distance(DEFAULT)
    assert near_branch_range(DEFAULT) > d_c
    r = carrier_sense_range(DEFAULT)
    assert r == pytest.approx(far_branch_range(DEFAULT))
    assert r == pytest.approx(268.7819293120, abs=1e-6)
    assert r > d_c


def test_literal_far_branch_reuses_the_near_exponent():
    literal = dataclasses.replace(DEFAULT, gamma2=DEFAULT.gamma1)
    assert carrier_sense_range(literal) == pytest.approx(407.8742758969, abs=1e-6)


def test_shadowing_widens_the_expected_range():
    off = dataclasses.replace(DEFAULT, x_sigma1=0.0, x_sigma2=0.0)
    assert DEFAULT.x_sigma1 > 0 and DEFAULT.x_sigma2 > 0
    assert carrier_sense_range(DEFAULT) > carrier_sense_range(off)


def test_near_branch_applies_when_threshold_sits_close():
    close = dataclasses.replace(DEFAULT, c_th=-70.0, x_sigma1=0.0, x_sigma2=0.0)
    r = carrier_sense_range(close)
    assert r == pytest.approx(near_branch_range(close))
    assert r <= critical_distance(close)


def test_branch_contradiction_is_reported():
    # threshold so close that even the far branch lands inside the breakpoint
    broken = dataclasses.replace(DEFAULT, c_th=-70.0)
    with pytest.raises(RangeBranchError, match="branch inconsistency"):
        # near branch overshoots d_c (shadowing offset), far branch undershoots it
        carrier_sense_range(dataclasses.replace(broken, x_sigma1=20.0, x_sigma2=0.0))


def test_vehicle_count_in_sensing_range_covers_both_directions():
    assert vehicles_in_cs_range(TrafficParams(beta=0.025), 268.7819293120) == pytest.approx(
        13.4390964656, abs=1e-6
    )
    assert vehicles_in_cs_range(TrafficParams(beta=0.0), 500.0) == 0.0
    with pytest.raises(ValueError):
        vehicles_in_cs_range(TrafficParams(), -1.0)


def test_radio_params_validation():
    with pytest.raises(ValueError, match="radio.d0"):
        RadioParams(d0=0.0)
