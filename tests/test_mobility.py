"""Manhattan-grid geometry and the tick-driven vehicle population."""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest

from mcwave.mobility import (
    MobilityConfig,
    MobilityModel,
    RoadNetwork,
    VehicleState,
    spawn_vehicle,
    step,
)
from mcwave.simulation import MOBILITY_STREAM

from helpers import on_network

#: sha256 of the repr of a static 200-vehicle population's positions at
#: ticks 0..24, drawn from seed 1's mobility stream as a world draws them
TRAJECTORY_SHA256 = "4d289b210653710c6d7cdddd8d188e65365cbf9ac996a9f3065d5787a23974a6"

#: sha256 of the repr of a spawned population's (id, x, y, heading) at ticks
#: 1..40 on a 4 x 5 grid that turns freely, plus the generator's final state
FREE_TURN_TRAJECTORY_SHA256 = "5d2c4e879264d0e999e4814bee36e2af574339f649050cffafb2d8bfdc59ae9d"


def default_net() -> RoadNetwork:
    return RoadNetwork(width=1500.0, height=1500.0, horizontal_streets=2, vertical_streets=2)


def test_default_grid_matches_target_scenario():
    net = default_net()
    assert net.total_length == pytest.approx(6_000.0)
    assert net.streets[0] == (0.0, 1500.0)
    assert net.streets[1] == (0.0, 1500.0)


def test_single_street_layouts_are_rejected():
    with pytest.raises(ValueError, match="network.horizontal_streets"):
        RoadNetwork(width=100.0, height=100.0, horizontal_streets=1, vertical_streets=3)
    with pytest.raises(ValueError, match="network.width"):
        RoadNetwork(width=-5.0, height=100.0, horizontal_streets=2, vertical_streets=2)


def test_streets_under_a_metre_apart_are_rejected():
    # on such a grid the walk would never end a step
    with pytest.raises(ValueError, match=re.escape(
            "network.width / (network.vertical_streets - 1) is 1e-10 m; "
            "streets must lie at least 1 m apart")):
        RoadNetwork(width=1e-10, height=1e-10, horizontal_streets=2, vertical_streets=2)
    with pytest.raises(ValueError, match=re.escape(
            "network.height / (network.horizontal_streets - 1) is 0.875 m")):
        RoadNetwork(width=1500.0, height=3.5, horizontal_streets=5, vertical_streets=2)
    # streets exactly 1 m apart are accepted, and their vehicles walk
    net = RoadNetwork(width=2.0, height=1.0, horizontal_streets=2, vertical_streets=3)
    model = MobilityModel(net, MobilityConfig(vehicle_count=5, spawn_process=0.0),
                          np.random.default_rng(0))
    model.advance_to(3_000_000)
    assert all(on_network(net, x, y) for _, (x, y) in model.positions_at(3_000_000))


def test_on_network_accepts_street_points_only():
    net = default_net()
    assert on_network(net, 0.0, 700.0)        # west vertical street
    assert on_network(net, 700.0, 1500.0)     # north horizontal street
    assert not on_network(net, 700.0, 700.0)  # interior of the block
    assert not on_network(net, 1600.0, 0.0)   # outside the bounding box


def test_mobility_config_validation():
    with pytest.raises(ValueError, match="mobility.mean_speed"):
        MobilityConfig(mean_speed=0.0)
    with pytest.raises(ValueError, match="mobility.turn_probability"):
        MobilityConfig(turn_probability=1.5)


def test_spawned_vehicles_start_on_the_network():
    net = default_net()
    cfg = MobilityConfig()
    rng = np.random.default_rng(3)
    for vid in range(200):
        v = spawn_vehicle(vid, net, cfg, rng)
        assert on_network(net, v.x, v.y)
        assert 0.9 * cfg.mean_speed <= v.speed <= 1.1 * cfg.mean_speed


def test_step_preserves_network_membership_and_speed():
    net = default_net()
    cfg = MobilityConfig()
    rng = np.random.default_rng(11)
    v = spawn_vehicle(0, net, cfg, rng)
    dt = 0.1
    for _ in range(500):
        before = (v.x, v.y)
        step(v, dt, net, cfg, rng)
        assert on_network(net, v.x, v.y)
        # straight-line displacement never exceeds the path length travelled
        assert math.dist(before, (v.x, v.y)) <= v.speed * dt + 1e-6


def test_straight_runs_cover_exactly_speed_times_dt():
    net = default_net()
    cfg = MobilityConfig(turn_probability=0.0)
    v = VehicleState(id=0, x=100.0, y=0.0, heading="E", speed=10.0)
    step(v, 1.0, net, cfg, np.random.default_rng(0))
    assert v.x == pytest.approx(110.0)
    assert v.y == 0.0


def test_boundary_turn_is_forced_and_stays_on_grid():
    net = default_net()
    cfg = MobilityConfig(turn_probability=0.0)  # only forced turns can occur
    v = VehicleState(id=0, x=1490.0, y=0.0, heading="E", speed=10.0)
    rng = np.random.default_rng(5)
    step(v, 2.0, net, cfg, rng)  # reaches the corner, then must turn
    assert on_network(net, v.x, v.y)
    assert v.heading != "E"


def test_population_spawns_up_to_the_cap():
    net = default_net()
    cfg = MobilityConfig(vehicle_count=50, spawn_process=25.0)
    model = MobilityModel(net, cfg, np.random.default_rng(1))
    model.advance_to(10_000_000)  # 10 s of arrivals at 25/s
    positions = model.positions_at(10_000_000)
    assert len(positions) == 50
    assert all(on_network(net, x, y) for _, (x, y) in positions)


def test_a_population_needs_a_vehicle():
    with pytest.raises(ValueError, match="vehicle_count must be at least 1"):
        MobilityConfig(vehicle_count=0)
    assert MobilityConfig(vehicle_count=1).vehicle_count == 1


def test_zero_rate_spawns_everyone_at_time_zero():
    net = default_net()
    cfg = MobilityConfig(vehicle_count=12, spawn_process=0.0)
    model = MobilityModel(net, cfg, np.random.default_rng(2))
    assert len(model.positions_at(0)) == 12


def test_identically_seeded_models_replay_the_same_trajectories():
    net = default_net()
    cfg = MobilityConfig()
    a = MobilityModel(net, cfg, np.random.default_rng(77))
    b = MobilityModel(net, cfg, np.random.default_rng(77))
    a.advance_to(3_000_000)
    b.advance_to(3_000_000)
    assert a.positions_at(3_000_000) == b.positions_at(3_000_000)


def test_positions_at_rejects_times_beyond_the_horizon():
    model = MobilityModel(default_net(), MobilityConfig(), np.random.default_rng(0))
    model.advance_to(200_000)
    with pytest.raises(ValueError, match="beyond the simulated horizon"):
        model.positions_at(10_000_000)


def test_positions_at_rejects_times_before_the_current_tick():
    model = MobilityModel(default_net(), MobilityConfig(), np.random.default_rng(0))
    model.advance_to(300_000)
    assert model.positions_at(399_999) == model.positions_at(300_000)
    with pytest.raises(ValueError, match="cannot rewind"):
        model.positions_at(200_000)


def test_a_static_population_trajectory_is_pinned():
    # a change that moves a position's last bit fails here, not only
    # through the dense run's output pins
    model = MobilityModel(default_net(), MobilityConfig(vehicle_count=200, spawn_process=0.0),
                          np.random.default_rng([1, MOBILITY_STREAM]))
    ticks = []
    for tick in range(25):
        model.advance_to(tick * model.tick_us)
        ticks.append(model.positions_at(tick * model.tick_us))
    assert hashlib.sha256(repr(ticks).encode()).hexdigest() == TRAJECTORY_SHA256


def test_a_free_turning_trajectory_is_pinned():
    # the default 2 x 2 grid has only corners, so no heading draw happens
    # there; this grid runs free turns, free straights, two-way forced turns
    # at T-junctions and corner turns, and pins the draw order through the
    # generator's final state
    model = MobilityModel(RoadNetwork(1500.0, 1200.0, 4, 5),
                          MobilityConfig(mean_speed=30.0, turn_probability=0.3,
                                         vehicle_count=60, spawn_process=25.0),
                          np.random.default_rng([1, MOBILITY_STREAM]))
    ticks = []
    for tick in range(1, 41):
        model.advance_to(tick * model.tick_us)
        ticks.append([(v.id, v.x, v.y, v.heading) for v in model.vehicles.values()])
    state = model.rng.bit_generator.state
    assert (hashlib.sha256(repr((ticks, state)).encode()).hexdigest()
            == FREE_TURN_TRAJECTORY_SHA256)
