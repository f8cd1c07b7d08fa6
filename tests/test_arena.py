"""Contention arena: equivalence with the scan reference and its invariants."""

from __future__ import annotations

import ast
import gc
import heapq
from collections import Counter
from copy import deepcopy
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcwave import simulation
from mcwave.config import default_config
from mcwave.engine import Phase, phase_window
from mcwave.experiment import build_world, run_experiment, run_sweep
from mcwave.mac import MODE_EMERGENCY, MODE_STANDARD, MacParams
from mcwave.simulation import (
    ArenaResult,
    ContentionArena,
    Frame,
    Stations,
    TxRecord,
    _Node,
    adjacency,
    decode_ratios,
)

import oracles
from helpers import ascending_rows
from oracles import ScanArena, single_counter


@dataclass(frozen=True)
class ArenaSpec:
    ids: list[int]
    listeners: list[int]
    cs_adj: dict[int, frozenset[int]]
    rx_adj: dict[int, frozenset[int]]
    window: tuple[int, int]
    mac: MacParams
    chain_mode: str
    flooding: bool
    flood_exclude: list[int]
    frames: list[Frame]
    seed: int

    def stations(self) -> Stations:
        return Stations(self.listeners, self.cs_adj, self.rx_adj)

    def build(self, cls: type[ContentionArena] = ContentionArena,
              stations: Optional[Stations] = None) -> ContentionArena:
        """An arena of this spec, on fresh stations unless it is given some."""
        arena = cls(
            channel=1, window=self.window, mac=self.mac, chain_mode=self.chain_mode,
            stations=self.stations() if stations is None else stations,
            rng=np.random.default_rng(self.seed), flooding=self.flooding,
            flood_exclude=self.flood_exclude,
        )
        arena.add_frames(self.frames)
        return arena


@st.composite
def arena_specs(draw) -> ArenaSpec:
    ids = sorted(draw(st.sets(st.integers(0, 30), min_size=2, max_size=10)))
    positions = {
        i: (draw(st.floats(0.0, 600.0)), draw(st.floats(0.0, 40.0))) for i in ids
    }
    listeners = ids
    if draw(st.booleans()):
        listeners = sorted(draw(st.sets(st.sampled_from(ids), min_size=1)))
    rx_radius = draw(st.floats(50.0, 500.0))
    rx_adj = adjacency(ids, positions, rx_radius)
    # equal radii give one adjacency, so each station one row object for
    # both, as `World.sense` does
    cs_adj = (rx_adj if draw(st.booleans())
              else adjacency(ids, positions, rx_radius * draw(st.floats(0.5, 2.0))))
    start = draw(st.integers(0, 2_000))
    window = (start, start + draw(st.one_of(st.integers(0, 1_500), st.integers(1_500, 8_000))))
    mac = MacParams(cw_min=draw(st.sampled_from([0, 3, 15])),
                    payload_s=draw(st.sampled_from([20, 200, 500])))
    frames = []
    for sender in listeners:
        for k in range(draw(st.integers(0, 3))):
            frames.append(Frame(
                msg_id=f"m-{sender}-{k}", sender_id=sender,
                ready_us=draw(st.one_of(st.integers(start - 500, start + 1_000),
                                        st.integers(start, window[1] + 500))),
            ))
    return ArenaSpec(
        ids=ids, listeners=listeners, cs_adj=cs_adj, rx_adj=rx_adj,
        window=window, mac=mac,
        chain_mode=draw(st.sampled_from([MODE_STANDARD, MODE_EMERGENCY])),
        flooding=draw(st.booleans()),
        flood_exclude=sorted(draw(st.sets(st.sampled_from(ids), max_size=2))),
        frames=frames, seed=draw(st.integers(0, 2**32 - 1)),
    )


def overlaps(rec: TxRecord) -> int:
    """Frames that overlapped rec: the arena's count, or the length of the scan's list."""
    return rec.concurrent if isinstance(rec.concurrent, int) else len(rec.concurrent)


def records(transmissions: list[TxRecord]) -> list[tuple]:
    return [(rec.sender_id, rec.start_us, rec.end_us, rec.frame.msg_id, overlaps(rec),
             rec.received_by) for rec in transmissions]


def summary(arena: ContentionArena, result: ArenaResult) -> tuple:
    return (
        records(result.transmissions),
        result.first_delivery,
        result.pending_senders,
        result.ptr,
        decode_ratios(result.transmissions),
        arena.rng.bit_generator.state,
    )


def run_summary(spec: ArenaSpec, cls: type[ContentionArena] = ContentionArena) -> tuple:
    arena = spec.build(cls)
    return summary(arena, arena.run())


def clique_spec() -> ArenaSpec:
    """13 stations that all sense and decode each other, one frame each.

    When a frame ends every other station resumes at once, and the next start
    freezes them all again before most of them could start.
    """
    ids = list(range(13))
    rows = {i: frozenset(ids[:i] + ids[i + 1:]) for i in ids}
    return ArenaSpec(
        ids=ids, listeners=ids, cs_adj=rows, rx_adj=rows, window=(0, 8_000), mac=MacParams(),
        chain_mode=MODE_STANDARD, flooding=False, flood_exclude=[],
        frames=[Frame(msg_id=f"m-{i}", sender_id=i, ready_us=(37 * i) % 150) for i in ids],
        seed=5,
    )


def joint_ends_spec() -> ArenaSpec:
    """Frames that end in the same microsecond while a listener still senses another.

    With zero back-off 0 and 1 start together twice, each sensing the other
    while it transmits, so their frames end together; 3, which only 2
    senses, starts in between, and 2 still senses it when they end.
    """
    cs = {0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2}}
    rows = {i: frozenset(row) for i, row in cs.items()}
    ready = [(0, 100), (1, 100), (2, 150), (3, 300), (0, 200), (1, 400)]
    return ArenaSpec(
        ids=[0, 1, 2, 3], listeners=[0, 1, 2, 3], cs_adj=rows, rx_adj=rows, window=(0, 5_000),
        mac=MacParams(cw_min=0), chain_mode=MODE_STANDARD, flooding=False, flood_exclude=[],
        frames=[Frame(msg_id=f"m-{s}-{r}", sender_id=s, ready_us=r) for s, r in ready],
        seed=0,
    )


def end_meets_start_spec() -> ArenaSpec:
    """A frame ends in the microsecond another starts, beside a listener of both.

    0 and 2 cannot sense each other, and 1 senses both.  0's frame ends at
    1274 as 2's next frame starts, so 1, which drew its counter long before,
    must not resume before that start freezes it again.
    """
    rows = {0: frozenset({1}), 1: frozenset({0, 2}), 2: frozenset({1})}
    ready = [(0, 160), (1, 120), (1, 0), (2, 320), (2, 310)]
    return ArenaSpec(
        ids=[0, 1, 2], listeners=[0, 1, 2], cs_adj=rows, rx_adj=rows, window=(0, 4_000),
        mac=MacParams(cw_min=7), chain_mode=MODE_STANDARD, flooding=False, flood_exclude=[],
        frames=[Frame(msg_id=f"m-{s}-{r}", sender_id=s, ready_us=r) for s, r in ready],
        seed=9,
    )


def wide_reception_spec() -> ArenaSpec:
    """A reception radius wider than the sensing radius, on a line 100 m apart.

    0 and 3 cannot sense each other and start together.  Of 0's receivers, 1
    senses only 0 and keeps it, and 2 senses only 3 and loses it; of 3's, 1
    senses only 0 and loses it, and 5 senses nothing and keeps it.
    """
    ids = list(range(6))
    positions = {i: (100.0 * i, 0.0) for i in ids}
    ready = [(0, 100), (3, 100), (1, 1_000), (5, 1_000), (4, 1_200)]
    return ArenaSpec(
        ids=ids, listeners=ids,
        cs_adj=adjacency(ids, positions, 150.0), rx_adj=adjacency(ids, positions, 250.0),
        window=(0, 5_000), mac=MacParams(cw_min=0), chain_mode=MODE_STANDARD,
        flooding=False, flood_exclude=[],
        frames=[Frame(msg_id=f"m-{s}", sender_id=s, ready_us=r) for s, r in ready],
        seed=0,
    )


def hand_arena(cs_adj: dict[int, set[int]], rx_adj: dict[int, set[int]],
               frames: list[tuple[int, int]], payload_s: int = 200) -> ArenaSpec:
    """Zero back-off, so each (sender, ready_us) frame starts when ready.

    Passing one dict for both adjacencies gives each station one row object,
    as equal radii do in a world.
    """
    ids = sorted(cs_adj)
    cs_rows = {i: frozenset(row) for i, row in cs_adj.items()}
    return ArenaSpec(
        ids=ids, listeners=ids, cs_adj=cs_rows,
        rx_adj=cs_rows if rx_adj is cs_adj else {i: frozenset(row) for i, row in rx_adj.items()},
        window=(0, 5_000), mac=MacParams(cw_min=0, payload_s=payload_s),
        chain_mode=MODE_STANDARD, flooding=False, flood_exclude=[],
        frames=[Frame(msg_id=f"m-{sender}", sender_id=sender, ready_us=ready)
                for sender, ready in frames],
        seed=0,
    )


def start_as_another_ends_spec() -> ArenaSpec:
    """1 starts in the microsecond 0's 533 us frame ends; 2 senses both.

    0 and 1 cannot sense each other.  A start at another frame's end does
    not overlap it, so 2 decodes both frames; it does extend 2's burst, so
    2, ready while 1's frame is on air, waits EIFS after that frame, not DIFS.
    """
    line = {0: {2}, 1: {2}, 2: {0, 1}}
    return hand_arena(cs_adj=line, rx_adj=line, frames=[(0, 100), (1, 633), (2, 700)])


def hidden_receiver_hears_a_start_spec() -> ArenaSpec:
    """1 decodes 0 without sensing it, and senses 2, which starts mid-frame.

    Neither 0 nor its other receiver 3 senses 2, so only 1 loses 0's frame.
    """
    return hand_arena(
        cs_adj={0: {3}, 1: {2}, 2: {1}, 3: {0}},
        rx_adj={0: {1, 3}, 1: {0, 2}, 2: {1}, 3: {0}},
        frames=[(0, 100), (2, 300)],
    )


def hidden_receiver_starts_spec() -> ArenaSpec:
    """Two receivers of 0 that sense nothing start on their own around its frame.

    3 starts before 0 and is still on air when 0 starts; 1 starts while 0's
    frame is on air.  Only 2, which senses 0, decodes it.
    """
    return hand_arena(
        cs_adj={0: {2}, 1: set(), 2: {0}, 3: set()},
        rx_adj={0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}},
        frames=[(3, 0), (0, 100), (1, 300)],
    )


def flood_to_a_staged_node_spec() -> ArenaSpec:
    """A flood copy is queued to a node in the instant it resumes in place.

    With seed 9 the two stations draw 6 and 13 slots.  0 starts at 96 us and
    freezes 1 with 7 slots left; 1 decodes 0's frame when it ends at 629, so
    its copy of m-0 is queued there, and 1, freed at that instant with its
    own frame ready, stages its start at 629 + DIFS 64 + 7 slots = 805 us.
    """
    pair = {0: {1}, 1: {0}}
    return replace(hand_arena(cs_adj=pair, rx_adj=pair, frames=[(0, 0), (1, 0)]),
                   mac=MacParams(), flooding=True, flood_exclude=[0], seed=9)


def joint_ends_resume_spec() -> ArenaSpec:
    """A listener with a drawn counter senses two frames that start in the same microsecond.

    With seed 142 the stations draw 0, 0, 8 and 1 slots.  0 and 1 start at
    0 and freeze 2, which senses both, with its 8 slots left; both frames
    end at 533, and 2 resumes in place at 533 + EIFS 629 + 8 slots = 1290 us.
    3, which 2 does not sense, starts at 616 while 2's start is staged.
    """
    rows = {0: {2}, 1: {2}, 2: {0, 1}, 3: set()}
    return replace(hand_arena(cs_adj=rows, rx_adj=rows, frames=[(0, 0), (1, 0), (2, 0), (3, 600)]),
                   mac=MacParams(), seed=142)


def woken_after_several_ends_spec() -> ArenaSpec:
    """3 senses 0, 1 and 2, whose frames each end before 3's frame is ready.

    Each end frees 3, whose head is not ready until 1850 us; its start
    waits for DIFS after 2's frame (1300 to 1833 us): 1833 + 64 = 1897.
    """
    star = {0: {3}, 1: {3}, 2: {3}, 3: {0, 1, 2}}
    return hand_arena(cs_adj=star, rx_adj=star, frames=[(0, 100), (1, 700), (2, 1300), (3, 1850)])


def next_frame_ready_on_air_spec() -> ArenaSpec:
    """0's second frame is ready at 300 us, while its first (100 to 633 us) is on air.

    0 takes it up when its first frame ends, and starts it after DIFS, at
    697, together with 1, whose frame came ready at 400 while it sensed 0's.
    """
    pair = {0: {1}, 1: {0}}
    spec = hand_arena(cs_adj=pair, rx_adj=pair, frames=[(0, 100), (1, 400)])
    return replace(spec, frames=[*spec.frames, Frame(msg_id="m-0-next", sender_id=0, ready_us=300)])


def ready_mid_burst_spec() -> ArenaSpec:
    """2 senses 0 and 1, whose frames overlap, and its own frame comes ready inside that burst.

    0 is on air from 100 to 633 us and 1 from 400 to 933; 2's frame is
    ready at 700, while it senses 1's, so its wake then is dropped.  1's
    end frees it, and it starts EIFS after the burst: 933 + 629 = 1562.
    """
    line = {0: {2}, 1: {2}, 2: {0, 1}}
    return hand_arena(cs_adj=line, rx_adj=line, frames=[(0, 100), (1, 400), (2, 700)])


def wake_past_the_window_spec() -> ArenaSpec:
    """In a 10-station clique, one frame comes ready at 1 us, the window's last microsecond.

    It cannot finish inside the window, yet its station still wakes when it
    comes ready and draws its counter then, which moves the generator.
    """
    ids = list(range(10))
    rows = {i: frozenset(ids[:i] + ids[i + 1:]) for i in ids}
    return ArenaSpec(
        ids=ids, listeners=ids, cs_adj=rows, rx_adj=rows, window=(0, 1),
        mac=MacParams(cw_min=3, payload_s=20), chain_mode=MODE_STANDARD, flooding=False,
        flood_exclude=[], frames=[Frame(msg_id="m-0", sender_id=0, ready_us=1)], seed=0,
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spec=arena_specs())
@example(spec=clique_spec())
@example(spec=joint_ends_spec())
@example(spec=end_meets_start_spec())
@example(spec=wide_reception_spec())
@example(spec=start_as_another_ends_spec())
@example(spec=hidden_receiver_hears_a_start_spec())
@example(spec=hidden_receiver_starts_spec())
@example(spec=flood_to_a_staged_node_spec())
@example(spec=joint_ends_resume_spec())
@example(spec=woken_after_several_ends_spec())
@example(spec=next_frame_ready_on_air_spec())
@example(spec=ready_mid_burst_spec())
@example(spec=wake_past_the_window_spec())
def test_event_driven_arena_matches_the_scan_reference(spec):
    assert run_summary(spec) == run_summary(spec, ScanArena)


def test_the_scan_reference_keeps_its_own_contention_state():
    # it shares frame intake and back-off draws with `ContentionArena`, so
    # it reads the node state those keep, and keeps the rest itself: a
    # timing field read by both loops would go unchecked
    shared = {"nid", "queue", "head", "remaining"}
    tree = ast.parse(Path(oracles.__file__).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & set(_Node.__slots__) <= shared


def test_a_clique_schedules_few_starts_it_then_discards(monkeypatch):
    # every start freezes all the other stations, so a start scheduled for
    # each of them when a frame ends would be discarded at the next start
    pushes = 0

    def counting_push(heap, item):
        nonlocal pushes
        pushes += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(simulation, "heapq",
                        SimpleNamespace(heappush=counting_push, heappop=heapq.heappop))
    spec = clique_spec()
    result = spec.build().run()
    assert len(result.transmissions) == len(spec.frames) == 13
    assert 0 < pushes <= 2 * len(spec.frames) + len(result.transmissions)


def test_a_listener_freed_by_two_frames_ending_together_resumes_once(monkeypatch):
    # 2 is visited once for each of the two frames that free it at 533; it
    # stages its start once, so 3's start moves it to the heap once
    spec = joint_ends_resume_spec()
    assert receptions(spec) == [(0, 0, 1, []), (1, 0, 1, []), (3, 616, 0, []), (2, 1290, 0, [0, 1])]
    pushed = []

    def recording_push(heap, item):
        pushed.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(simulation, "heapq",
                        SimpleNamespace(heappush=recording_push, heappop=heapq.heappop))
    spec.build().run()
    assert pushed.count((1290, 2)) == 1


def test_a_listener_freed_before_its_frame_is_ready_wakes_once(monkeypatch):
    # the three ends re-examine 3 before its head is ready; each finds the
    # wake at 1850 already scheduled, so none pushes another
    spec = woken_after_several_ends_spec()
    assert receptions(spec) == [
        (0, 100, 0, [3]), (1, 700, 0, [3]), (2, 1300, 0, [3]), (3, 1897, 0, [0, 1, 2])]
    pushed = []

    def recording_push(heap, item):
        pushed.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(simulation, "heapq",
                        SimpleNamespace(heappush=recording_push, heappop=heapq.heappop))
    spec.build().run()
    assert pushed.count((1850, 3)) == 1


def receptions(spec: ArenaSpec) -> list[tuple[int, int, int, list[int]]]:
    """(sender, start, overlaps, received_by) of each frame; the scan reference agrees."""
    assert run_summary(spec) == run_summary(spec, ScanArena)
    arena = spec.build()
    return [(rec.sender_id, rec.start_us, rec.concurrent, rec.received_by)
            for rec in arena.run().transmissions]


def test_a_lone_frame_reaches_every_receiver():
    # 2 senses nothing and 3 does not sense the sender: a lone frame needs neither
    spec = hand_arena(
        cs_adj={0: {1}, 1: {0}, 2: set(), 3: set()},
        rx_adj={0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}},
        frames=[(0, 100)],
    )
    assert receptions(spec) == [(0, 100, 0, [1, 2, 3])]


def test_a_start_mid_air_garbles_only_the_receivers_that_sense_it():
    # 3 cannot sense 0, so it starts while 0's 1333 us frame is on air; of
    # 0's receivers only 2 senses 3, and 2 was busy with 0 when 3 started
    spec = hand_arena(
        cs_adj={0: {1, 2}, 1: {0}, 2: {0, 3}, 3: {2}},
        rx_adj={0: {1, 2}, 1: {0}, 2: {0, 3}, 3: {2}},
        frames=[(0, 0), (3, 300)], payload_s=500,
    )
    assert receptions(spec) == [(0, 0, 1, [1]), (3, 300, 1, [])]


def test_frames_starting_in_the_same_microsecond_overlap():
    # 2 senses both senders and decodes neither; 3 senses only 0, whose own
    # start does not garble it
    spec = hand_arena(
        cs_adj={0: {1, 2, 3}, 1: {0, 2}, 2: {0, 1}, 3: {0}},
        rx_adj={0: {2, 3}, 1: {2}, 2: {0, 1}, 3: {0}},
        frames=[(0, 100), (1, 100)],
    )
    assert receptions(spec) == [(0, 100, 1, [3]), (1, 100, 1, [])]


def test_a_start_as_another_frame_ends_is_no_overlap_but_extends_the_burst():
    # 2 resumes 1166 + EIFS 629 us after 1's frame; DIFS would give 1230
    assert receptions(start_as_another_ends_spec()) == [
        (0, 100, 0, [2]), (1, 633, 0, [2]), (2, 1795, 0, [0, 1])]


def test_a_hidden_receiver_loses_a_frame_to_a_start_only_it_senses():
    assert receptions(hidden_receiver_hears_a_start_spec()) == [
        (0, 100, 1, [3]), (2, 300, 1, [1])]


def test_a_hidden_receiver_loses_a_frame_to_its_own_start():
    # 3's frame reaches 0, which does not sense 3 and starts before it ends
    assert receptions(hidden_receiver_starts_spec()) == [
        (3, 0, 2, []), (0, 100, 2, [2]), (1, 300, 2, [])]


def test_a_flood_copy_queued_to_a_staged_node_keeps_its_staged_start():
    # 1 sends its own frame at the staged 805 us, then its copy after a
    # fresh 15-slot counter: 1338 + DIFS 64 + 240 = 1642 us
    spec = flood_to_a_staged_node_spec()
    assert receptions(spec) == [(0, 96, 0, [1]), (1, 805, 0, [0]), (1, 1642, 0, [0])]
    result = spec.build().run()
    assert [(rec.frame.msg_id, rec.frame.is_rebroadcast) for rec in result.transmissions] == [
        ("m-0", False), ("m-1", False), ("m-0", True)]


@st.composite
def clique_specs(draw) -> ArenaSpec:
    """Stations that all sense and decode each other, with 1-3 frames each."""
    ids = list(range(draw(st.integers(2, 12))))
    rows = {i: frozenset(ids[:i] + ids[i + 1:]) for i in ids}
    frames = [
        Frame(msg_id=f"m-{sender}-{k}", sender_id=sender,
              ready_us=draw(st.integers(-200, 4_000)))
        for sender in ids
        for k in range(draw(st.integers(1, 3)))
    ]
    return ArenaSpec(
        ids=ids, listeners=ids, cs_adj=rows, rx_adj=rows,
        window=(0, draw(st.integers(0, 16_000))),
        mac=MacParams(cw_min=draw(st.sampled_from([0, 3, 15])),
                      payload_s=draw(st.sampled_from([20, 200, 500]))),
        chain_mode=draw(st.sampled_from([MODE_STANDARD, MODE_EMERGENCY])),
        flooding=False, flood_exclude=[], frames=frames,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def cut(spec: ArenaSpec, window_end: int) -> tuple[list[tuple], list[tuple]]:
    """The run at (0, window_end), and the records of spec's run that end by then."""
    narrow = replace(spec, window=(0, window_end)).build().run()
    wide = spec.build().run()
    return (records(narrow.transmissions),
            records([rec for rec in wide.transmissions if rec.end_us <= window_end]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spec=clique_specs(), share=st.floats(0.0, 1.0))
def test_a_clique_run_is_the_wider_run_cut_at_its_window(spec, share):
    # what lets the broadcast-window sweep read every window off one arena
    run, prefix = cut(spec, int(share * spec.window[1]))
    assert run == prefix


def test_a_hidden_start_after_the_cut_garbles_a_frame_that_ends_before_it():
    # 0 and 2 cannot sense each other; 2's frame starts while 0's is on air
    # and ends after 0's, so a window that closes when 0's frame ends keeps
    # 2 silent, and 1 decodes 0's frame there but not in the wider run
    line = {0: {1}, 1: {0, 2}, 2: {1}}
    spec = hand_arena(cs_adj=line, rx_adj=line, frames=[(0, 100), (2, 500)])
    run, prefix = cut(spec, 100 + spec.build().airtime)
    assert run == [(0, 100, 633, "m-0", 0, [1])]
    assert prefix == [(0, 100, 633, "m-0", 1, [])]


def check_invariants(result: ArenaResult, window: tuple[int, int],
                     cs_adj: dict[int, list[int]],
                     rx_adj: dict[int, list[int]]) -> None:
    start, end = window
    cs_adj, rx_adj = ascending_rows(cs_adj), ascending_rows(rx_adj)
    txs = result.transmissions
    for rec in txs:
        assert start <= rec.start_us < rec.end_us <= end
        for other in txs:
            if other.sender_id in cs_adj[rec.sender_id]:
                # no node starts while it senses an ongoing transmission
                assert not other.start_us < rec.start_us < other.end_us
        assert set(rec.received_by) <= rx_adj[rec.sender_id]
    for (msg_id, receiver), t in result.first_delivery.items():
        assert t <= end
        assert any(
            rec.frame.msg_id == msg_id and rec.end_us == t and receiver in rec.received_by
            for rec in txs
        )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spec=arena_specs())
def test_arena_invariants_hold(spec):
    arena = spec.build()
    check_invariants(arena.run(), spec.window, spec.cs_adj, spec.rx_adj)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(spec=arena_specs())
def test_same_seed_gives_the_same_arena_result(spec):
    assert run_summary(spec) == run_summary(spec)


def test_world_storms_keep_the_arena_invariants():
    cfg = default_config()
    world = build_world(cfg)
    snap = world.run_interval(6, cfg.scheme.advertised_y)
    e3 = world.storm(snap.interval, Phase.E3)
    for phase, result in ((Phase.E1, snap.e1), (Phase.E3, e3)):
        assert result.transmissions
        check_invariants(result, phase_window(6, phase, world.si),
                         snap.interval.cs_adj, snap.interval.rx_adj)


def test_unknown_back_off_mode_is_rejected():
    with pytest.raises(ValueError, match="back-off mode"):
        ContentionArena(
            channel=1, window=(0, 1000), mac=MacParams(), chain_mode="turbo",
            stations=Stations([0], {0: frozenset()}, {0: frozenset()}),
            rng=np.random.default_rng(0),
        )


def _stream_case(case: str, mode: str) -> tuple[ContentionArena, int]:
    """An arena for the stream-contract test, and the frames it starts with."""
    n = 12
    everyone = {i: frozenset(j for j in range(n) if j != i) for i in range(n)}
    # on a line each station senses and decodes only the two either side of it
    line = {i: frozenset(j for j in range(n) if 0 < abs(i - j) <= 2) for i in range(n)}
    adj, window, flooding, per_sender = {
        "every-frame-sends": (everyone, (0, 100_000), False, 1),
        "window-closes": (everyone, (0, 4_000), False, 2),
        "flooding-adds-frames": (line, (0, 100_000), True, 1),
    }[case]
    senders = range(0, n, 2) if flooding else range(n)
    arena = ContentionArena(
        channel=1, window=window, mac=MacParams(), chain_mode=mode,
        stations=Stations(range(n), adj, adj), rng=np.random.default_rng(11), flooding=flooding,
    )
    arena.add_frames([Frame(msg_id=f"m-{i}-{k}", sender_id=i, ready_us=100 * i + 50 * k)
                      for i in senders for k in range(per_sender)])
    return arena, len(senders) * per_sender


@pytest.mark.parametrize("mode", [MODE_STANDARD, MODE_EMERGENCY])
@pytest.mark.parametrize("case", ["every-frame-sends", "window-closes", "flooding-adds-frames"])
def test_rng_after_a_run_is_where_single_counter_draws_leave_it(case, mode):
    # counters come off the stream in blocks, yet the counters a run uses
    # must be those that one single draw per counter would give
    arena, frames = _stream_case(case, mode)
    slots: list[int] = []
    draw_slots = arena._draw_slots

    def counting() -> int:
        slots.append(draw_slots())
        return slots[-1]

    arena._draw_slots = counting
    result = arena.run()
    if case == "every-frame-sends":
        assert len(slots) == len(result.transmissions) == frames
    elif case == "window-closes":
        assert result.pending_senders and 0 < len(slots) < frames
    else:
        assert any(rec.frame.is_rebroadcast for rec in result.transmissions)
        assert len(slots) > frames
    single = np.random.default_rng(11)
    counters = [single_counter(arena.mac, single) for _ in slots]
    assert slots == (counters if mode == MODE_STANDARD else [(k + 1) // 2 for k in counters])


def then_other_frames(spec: ArenaSpec) -> ArenaSpec:
    """Another arena on spec's stations: other frames, another stream, a later window."""
    start, end = spec.window
    return replace(spec, window=(start + 50, end + 700), seed=spec.seed + 1, frames=[
        Frame(msg_id=f"n-{frame.sender_id}-{k}", sender_id=frame.sender_id,
              ready_us=frame.ready_us + 40 * k)
        for k, frame in enumerate(reversed(spec.frames))
    ])


@pytest.mark.parametrize("spec", [
    flood_to_a_staged_node_spec(),                                   # flooding
    replace(clique_spec(), window=(0, 2_500)),                       # frames left pending
    replace(joint_ends_resume_spec(), chain_mode=MODE_EMERGENCY),
    wide_reception_spec(),                                           # unequal radii
], ids=["flooding", "window-closes", "emergency", "unequal-radii"])
def test_an_arena_on_used_stations_runs_as_on_fresh_ones(spec):
    stations = spec.stations()
    first = spec.build(stations=stations).run()
    kept = deepcopy(first)
    assert first.transmissions
    other = then_other_frames(spec)
    again, fresh = other.build(stations=stations), other.build()
    second, expected = again.run(), fresh.run()
    # every TxRecord field, ptr and pending_senders
    assert second == expected
    assert summary(again, second) == summary(fresh, expected)
    # the result was read off the nodes before the run returned
    assert first == kept


def test_a_run_arena_leaves_no_node_cycles():
    # no node refers to another, so dropping the stations after their
    # arenas have run must free every node without the cycle collector
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        spec = wide_reception_spec()
        stations = spec.stations()
        assert any(stations.sensed_by.values()) and any(stations.receivers.values())
        results = [s.build(stations=stations).run() for s in (spec, then_other_frames(spec))]
        assert all(result.transmissions for result in results)
        del stations, results
        gc.collect()
        cyclic = [obj for obj in gc.garbage if isinstance(obj, _Node)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert cyclic == []


def cyclic_garbage(work: Callable[[], None]) -> Counter:
    """The types of the objects only the cycle collector frees once `work` has run."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_whole_runs_make_no_reference_cycles():
    # the premise of running each seed with the cycle collector paused: a
    # sweep over the golden grid's first seeds and a static dense run leave
    # nothing that only the collector could free
    base = default_config()
    static = replace(base, mobility=replace(base.mobility, vehicle_count=100, spawn_process=0.0))

    def work() -> None:
        sweep = run_sweep(base, seeds=[1, 2], schemes=("cmd", "wsd", "legacy"), ys=(3, 5),
                          floodings=("none", "shbf"))
        dense = run_experiment(static)
        assert len(sweep.table.rows) == 24 and not sweep.failures
        assert dense.report.total_delay_us is not None

    cyclic = cyclic_garbage(work)
    assert not cyclic, f"objects only the cycle collector frees: {dict(cyclic)}"


def test_failed_runs_make_no_reference_cycles():
    # at this arrival rate no vehicle is on the road when the emergency fires,
    # so every run fails: neither a failed sweep cell nor a raised run may
    # leave its error's traceback holding the frames that hold the error
    base = default_config()
    slow = replace(base, mobility=replace(base.mobility, spawn_process=0.05))
    messages = []

    def work() -> None:
        sweep = run_sweep(slow, seeds=[1, 2], schemes=("cmd", "legacy"), ys=(3,))
        assert not sweep.table.rows and len(sweep.failures) == 4
        try:
            run_experiment(slow)
        except ValueError as exc:
            messages.append(str(exc))

    cyclic = cyclic_garbage(work)
    assert len(messages) == 1
    assert messages[0].startswith("interval 15: no vehicle is on the road")
    assert not cyclic, f"objects only the cycle collector frees: {dict(cyclic)}"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(spec=arena_specs())
def test_stations_wire_each_listener_from_its_rows(spec):
    stations = spec.stations()
    assert list(stations.nodes) == spec.listeners
    for nid in spec.listeners:
        assert [n.nid for n in stations.sensed_by[nid]] == [
            v for v in spec.cs_adj[nid] if v in spec.listeners]
        assert [n.nid for n in stations.receivers[nid]] == [
            v for v in spec.rx_adj[nid] if v in spec.listeners]
        # one row object for both, as with equal radii, gives one list
        shared = spec.rx_adj[nid] is spec.cs_adj[nid]
        assert (stations.receivers[nid] is stations.sensed_by[nid]) == shared


@settings(derandomize=True, max_examples=100, deadline=None)
@given(spec=arena_specs())
def test_stations_build_sensing_sets_only_where_the_radii_differ(spec):
    # the hidden-receiver test asks `sid in cs_adj[nid]`: a set per listener,
    # needed only where some station's receivers are not its sensing list
    stations = spec.stations()
    if spec.rx_adj is spec.cs_adj:
        assert stations.cs_adj is spec.cs_adj
    else:
        assert stations.cs_adj == {nid: set(spec.cs_adj[nid]) for nid in spec.listeners}


@st.composite
def topologies(draw) -> tuple:
    """Stations, one more that does not listen, positions, radii, and whether rows are shared."""
    ids = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=12)))
    positions = {i: (draw(st.floats(0.0, 600.0)), draw(st.floats(0.0, 40.0))) for i in ids}
    # the extra station sits where the first does, so it is in the first's rows
    extra = ids[-1] + 1
    positions[extra] = positions[ids[0]]
    rx_radius = draw(st.floats(50.0, 500.0))
    shared = draw(st.booleans())
    cs_radius = rx_radius if shared else rx_radius * draw(st.floats(0.5, 2.0))
    return ids, extra, positions, rx_radius, cs_radius, shared


@settings(derandomize=True, max_examples=100, deadline=None)
@given(topology=topologies())
def test_stations_wired_for_every_vehicle_match_the_listener_filter(topology):
    ids, extra, positions, rx_radius, cs_radius, shared = topology

    def rows(members: list[int]) -> tuple[dict, dict]:
        rx_adj = adjacency(members, positions, rx_radius)
        return (rx_adj if shared else adjacency(members, positions, cs_radius)), rx_adj

    def wiring(stations: Stations) -> tuple[dict, dict]:
        return ({nid: [n.nid for n in row] for nid, row in stations.sensed_by.items()},
                {nid: [n.nid for n in row] for nid, row in stations.receivers.items()})

    # every station in the rows listens, or the rows list one that does not
    everyone = Stations(ids, *rows(ids))
    filtered = Stations(ids, *rows([*ids, extra]))
    assert wiring(everyone) == wiring(filtered)
    for stations in (everyone, filtered):
        for nid in ids:
            assert (stations.receivers[nid] is stations.sensed_by[nid]) == shared
