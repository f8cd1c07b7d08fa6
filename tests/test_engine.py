"""Synchronization-interval timeline: presets and phase partition."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcwave.engine import (
    DEFAULT_PRESET,
    SI_PRESETS,
    Phase,
    SyncIntervalConfig,
    phase_window,
    si_index,
    si_phase,
)

PRESET_IDS = list(SI_PRESETS)
PRESETS = [SI_PRESETS[name] for name in PRESET_IDS]


def test_presets_are_internally_consistent():
    for si in PRESETS:
        assert si.guard + si.e1 + si.e2 + si.e3 == si.cchi
        assert si.cchi + si.schi == si.si_length


def test_default_preset_splits_the_interval_evenly():
    si = SI_PRESETS[DEFAULT_PRESET]
    assert DEFAULT_PRESET == "std-50"
    assert si.cchi == si.schi == 50_000
    assert si.si_length == 100_000
    assert (si.guard, si.e1, si.e2, si.e3) == (4_000, 26_000, 5_000, 15_000)


def test_legacy_preset_keeps_long_exchange_slot():
    si = SI_PRESETS["paper-literal"]
    assert (si.guard, si.e1, si.e2, si.e3) == (4_000, 26_000, 5_000, 20_000)
    assert (si.cchi, si.schi) == (55_000, 45_000)


def test_non_positive_slot_is_rejected():
    with pytest.raises(ValueError, match=r"si\.guard"):
        SyncIntervalConfig(guard=0, e1=30_000, e2=5_000, e3=15_000, schi=50_000)


@pytest.mark.parametrize("si", PRESETS, ids=PRESET_IDS)
def test_phase_boundaries_are_half_open(si):
    assert si_phase(0, si) is Phase.GUARD
    assert si_phase(si.guard - 1, si) is Phase.GUARD
    assert si_phase(si.guard, si) is Phase.E1
    assert si_phase(phase_window(0, Phase.E2, si)[0] - 1, si) is Phase.E1
    assert si_phase(phase_window(0, Phase.E2, si)[0], si) is Phase.E2
    assert si_phase(phase_window(0, Phase.E3, si)[0], si) is Phase.E3
    assert si_phase(phase_window(0, Phase.SCHI, si)[0], si) is Phase.SCHI
    assert si_phase(si.si_length - 1, si) is Phase.SCHI
    assert si_phase(si.si_length, si) is Phase.GUARD  # next interval wraps


@pytest.mark.parametrize("si", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("index", [0, 7])
def test_phase_windows_tile_the_interval(si, index):
    windows = [phase_window(index, phase, si) for phase in Phase]
    assert windows[0][0] == index * si.si_length
    for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
        assert prev_end == next_start
    assert windows[-1][1] == (index + 1) * si.si_length
    lengths = [end - start for start, end in windows]
    assert lengths == [si.guard, si.e1, si.e2, si.e3, si.schi]


@given(t=st.integers(min_value=0, max_value=10**9))
def test_each_instant_lands_inside_its_own_phase_window(t):
    si = SI_PRESETS[DEFAULT_PRESET]
    start, end = phase_window(si_index(t, si), si_phase(t, si), si)
    assert start <= t < end


def test_si_index_counts_whole_intervals():
    si = SI_PRESETS[DEFAULT_PRESET]
    assert si_index(0, si) == 0
    assert si_index(si.si_length - 1, si) == 0
    assert si_index(si.si_length, si) == 1
    assert si_index(5 * si.si_length + 123, si) == 5
