"""Manhattan-grid vehicle mobility.

Vehicles travel along the streets of a rectangular grid at constant
per-vehicle speed, turning probabilistically at intersections and always
turning at the grid boundary so they never leave the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_VECTOR = {"N": (0.0, 1.0), "S": (0.0, -1.0), "E": (1.0, 0.0), "W": (-1.0, 0.0)}
_LEFT = {"N": "W", "W": "S", "S": "E", "E": "N"}
_RIGHT = {"N": "E", "E": "S", "S": "W", "W": "N"}

_SNAP = 1e-9  # numeric slack when matching a coordinate to a street


@dataclass(frozen=True)
class RoadNetwork:
    """Fully connected rectangular street grid, one lane per street.

    The street coordinates are derived once per network, on first read:
    every vehicle step reads them.
    """

    width: float
    height: float
    horizontal_streets: int
    vertical_streets: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("network.width and network.height must be positive")
        if self.horizontal_streets < 2 or self.vertical_streets < 2:
            raise ValueError(
                "network.horizontal_streets and network.vertical_streets must each be >= 2; "
                "a single street per axis has no intersections to turn at"
            )

    @cached_property
    def xs(self) -> tuple[float, ...]:
        """x coordinates of the vertical streets."""
        spacing = self.width / (self.vertical_streets - 1)
        return tuple(i * spacing for i in range(self.vertical_streets))

    @cached_property
    def ys(self) -> tuple[float, ...]:
        """y coordinates of the horizontal streets."""
        spacing = self.height / (self.horizontal_streets - 1)
        return tuple(i * spacing for i in range(self.horizontal_streets))

    @property
    def total_length(self) -> float:
        return self.horizontal_streets * self.width + self.vertical_streets * self.height


@dataclass(frozen=True, slots=True)
class MobilityConfig:
    mean_speed: float = 40.0 / 3.6  # m/s; urban cruising speed
    turn_probability: float = 0.5
    vehicle_count: int = 50
    spawn_process: float = 25.0  # Poisson arrival rate, vehicles/s

    def __post_init__(self) -> None:
        if self.mean_speed <= 0:
            raise ValueError("mobility.mean_speed must be positive")
        if not 0.0 <= self.turn_probability <= 1.0:
            raise ValueError("mobility.turn_probability must lie in [0, 1]")
        if self.vehicle_count < 1:
            raise ValueError("mobility.vehicle_count must be at least 1")
        if self.spawn_process < 0:
            raise ValueError("mobility.spawn_process must be non-negative")


@dataclass(slots=True)
class VehicleState:
    id: int
    x: float
    y: float
    heading: str
    speed: float


def _is_street_x(net: RoadNetwork, x: float) -> bool:
    return any(abs(x - sx) <= _SNAP for sx in net.xs)


def _is_street_y(net: RoadNetwork, y: float) -> bool:
    return any(abs(y - sy) <= _SNAP for sy in net.ys)


def _heading_stays_on_network(net: RoadNetwork, x: float, y: float, heading: str) -> bool:
    """True when a move in `heading` from (x, y) remains on some street."""
    dx, dy = _VECTOR[heading]
    if dy != 0.0:  # needs a vertical street through x, with room in that direction
        if not _is_street_x(net, x):
            return False
        return (y < net.height - _SNAP) if dy > 0 else (y > _SNAP)
    if not _is_street_y(net, y):
        return False
    return (x < net.width - _SNAP) if dx > 0 else (x > _SNAP)


def _next_boundary_distance(net: RoadNetwork, x: float, y: float, heading: str) -> float:
    """Distance along `heading` to the next intersection or grid edge.

    Street coordinates ascend, so the first street met in that direction is
    the nearest one.
    """
    if heading == "E":
        for sx in net.xs:
            if sx > x + _SNAP:
                return sx - x
    elif heading == "W":
        for sx in reversed(net.xs):
            if sx < x - _SNAP:
                return x - sx
    elif heading == "N":
        for sy in net.ys:
            if sy > y + _SNAP:
                return sy - y
    else:
        for sy in reversed(net.ys):
            if sy < y - _SNAP:
                return y - sy
    return math.inf


def _snap_to_grid(net: RoadNetwork, x: float, y: float) -> tuple[float, float]:
    for sx in net.xs:
        if abs(x - sx) <= _SNAP:
            x = sx
            break
    for sy in net.ys:
        if abs(y - sy) <= _SNAP:
            y = sy
            break
    return x, y


def step(
    v: VehicleState,
    dt: float,
    net: RoadNetwork,
    cfg: MobilityConfig,
    rng: np.random.Generator,
) -> None:
    """Advance one vehicle by dt seconds, in place.

    At interior intersections the vehicle turns with probability
    cfg.turn_probability (left/right equiprobable among directions that stay
    on the network); where continuing straight would leave the grid, the turn
    is forced.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y, heading = v.x, v.y, v.heading
    remaining = v.speed * dt
    while remaining > _SNAP:
        boundary = _next_boundary_distance(net, x, y, heading)
        if math.isinf(boundary):  # at the grid edge facing outward: reroute in place
            heading = _choose_heading(net, x, y, heading, cfg, rng)
            continue
        if boundary > remaining:
            dx, dy = _VECTOR[heading]
            x += dx * remaining
            y += dy * remaining
            remaining = 0.0
            break
        dx, dy = _VECTOR[heading]
        x += dx * boundary
        y += dy * boundary
        x, y = _snap_to_grid(net, x, y)
        remaining -= boundary
        heading = _choose_heading(net, x, y, heading, cfg, rng)
    v.x, v.y, v.heading = x, y, heading


def _choose_heading(
    net: RoadNetwork,
    x: float,
    y: float,
    heading: str,
    cfg: MobilityConfig,
    rng: np.random.Generator,
) -> str:
    straight_ok = _heading_stays_on_network(net, x, y, heading)
    turns = [h for h in (_LEFT[heading], _RIGHT[heading])
             if _heading_stays_on_network(net, x, y, h)]
    if straight_ok and not turns:
        return heading
    if not straight_ok:
        if turns:  # forced boundary turn, not a free decision
            return turns[0] if len(turns) == 1 else turns[int(rng.integers(0, 2))]
        return {"N": "S", "S": "N", "E": "W", "W": "E"}[heading]  # dead end: reverse
    if rng.random() >= cfg.turn_probability:
        return heading
    return turns[0] if len(turns) == 1 else turns[int(rng.integers(0, 2))]


def spawn_vehicle(
    vid: int,
    net: RoadNetwork,
    cfg: MobilityConfig,
    rng: np.random.Generator,
) -> VehicleState:
    """New vehicle at a uniformly random on-network point.

    The point is uniform over total street length; the heading runs along the
    chosen street (direction equiprobable); the speed is a constant drawn
    uniformly from [0.9, 1.1] * mean_speed.
    """
    h_total = net.horizontal_streets * net.width
    speed = cfg.mean_speed * rng.uniform(0.9, 1.1)
    if rng.random() < h_total / net.total_length:
        y = net.ys[int(rng.integers(0, net.horizontal_streets))]
        x = rng.uniform(0.0, net.width)
        heading = "E" if rng.random() < 0.5 else "W"
    else:
        x = net.xs[int(rng.integers(0, net.vertical_streets))]
        y = rng.uniform(0.0, net.height)
        heading = "N" if rng.random() < 0.5 else "S"
    return VehicleState(id=vid, x=x, y=y, heading=heading, speed=speed)


class MobilityModel:
    """Poisson-spawned vehicle population advanced on a fixed tick.

    Positions update every tick_us microseconds (default 100 ms).  Only the
    current tick's positions are kept: the model cannot rewind.
    """

    def __init__(
        self,
        net: RoadNetwork,
        cfg: MobilityConfig,
        rng: np.random.Generator,
        tick_us: int = 100_000,
    ) -> None:
        self.net = net
        self.cfg = cfg
        self.rng = rng
        self.tick_us = tick_us
        self.vehicles: dict[int, VehicleState] = {}
        self._tick = 0
        self._next_vid = 0
        if cfg.spawn_process == 0:
            # a static population: everyone is on the road at time zero, and no one arrives
            for _ in range(cfg.vehicle_count):
                self._spawn()
            self._next_spawn_us = math.inf
        else:
            self._next_spawn_us = self._draw_spawn_gap(0)

    def _draw_spawn_gap(self, t_us: int) -> int:
        gap_s = self.rng.exponential(1.0 / self.cfg.spawn_process)
        return t_us + max(1, int(round(gap_s * 1_000_000)))

    def _spawn(self) -> None:
        v = spawn_vehicle(self._next_vid, self.net, self.cfg, self.rng)
        self.vehicles[v.id] = v
        self._next_vid += 1

    def advance_to(self, t_us: int) -> None:
        """Process ticks (movement) and spawn arrivals up to time t_us."""
        while (self._tick + 1) * self.tick_us <= t_us:
            self._tick += 1
            now = self._tick * self.tick_us
            while self._next_spawn_us <= now and self._next_vid < self.cfg.vehicle_count:
                self._spawn()
                self._next_spawn_us = self._draw_spawn_gap(self._next_spawn_us)
            dt = self.tick_us / 1_000_000
            # ids are handed out in spawn order, so the dict is in id order
            for v in self.vehicles.values():
                step(v, dt, self.net, self.cfg, self.rng)

    def positions_at(self, t_us: int) -> list[tuple[int, tuple[float, float]]]:
        """All spawned vehicles' positions at the current tick, which must cover t_us.

        Ids are handed out in spawn order, so the vehicles come in id order.
        """
        tick = t_us // self.tick_us
        if tick > self._tick:
            raise ValueError(f"time {t_us} is beyond the simulated horizon")
        if tick < self._tick:
            raise ValueError(f"time {t_us} is before the current tick; the model cannot rewind")
        return [(vid, (v.x, v.y)) for vid, v in self.vehicles.items()]

