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

# each heading as (axis, direction): axis 0 runs along x, axis 1 along y
_HEADING = {"E": (0, 1.0), "W": (0, -1.0), "N": (1, 1.0), "S": (1, -1.0)}
_TURNS = {"N": ("W", "E"), "E": ("N", "S"), "S": ("E", "W"), "W": ("S", "N")}  # (left, right)
_REVERSE = {"N": "S", "S": "N", "E": "W", "W": "E"}

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
        if self.horizontal_streets < 2 or self.vertical_streets < 2:
            raise ValueError(
                "network.horizontal_streets and network.vertical_streets must each be >= 2; "
                "a single street per axis has no intersections to turn at"
            )
        # the walk matches positions to streets within _SNAP, so on a grid of
        # nanometre blocks no street lies ahead and a step never ends; a NaN
        # size is refused with the rest
        for size, streets in (("width", "vertical_streets"), ("height", "horizontal_streets")):
            spacing = getattr(self, size) / (getattr(self, streets) - 1)
            if not spacing >= 1.0:
                raise ValueError(
                    f"network.{size} / (network.{streets} - 1) is {spacing:g} m; "
                    "streets must lie at least 1 m apart"
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

    @cached_property
    def streets(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Street coordinates by axis of travel: `xs`, then `ys`."""
        return self.xs, self.ys

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


def _snap(streets: tuple[float, ...], c: float) -> float:
    for s in streets:
        if abs(c - s) <= _SNAP:
            return s
    return c


def _heading_stays_on_network(net: RoadNetwork, pos: list[float], heading: str) -> bool:
    """True when a move in `heading` from `pos` remains on some street.

    That needs a street along the heading's axis through the other
    coordinate, with room ahead on it.
    """
    axis, d = _HEADING[heading]
    if not any(abs(pos[1 - axis] - s) <= _SNAP for s in net.streets[1 - axis]):
        return False
    return (pos[axis] < (net.width, net.height)[axis] - _SNAP) if d > 0 else (pos[axis] > _SNAP)


def _next_boundary_distance(streets: tuple[float, ...], c: float, d: float) -> float | None:
    """Distance from c in direction d to the next street (intersection or grid edge).

    Street coordinates ascend, so the first street met ahead is the first
    one above c, and the first met behind is the last one below it.  None
    when no street lies that way: at the grid edge, facing outward.
    """
    if d > 0:
        for s in streets:
            if s > c + _SNAP:
                return s - c
    else:
        for s in reversed(streets):
            if s < c - _SNAP:
                return c - s
    return None


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
    pos, heading = [v.x, v.y], v.heading
    remaining = v.speed * dt
    while remaining > _SNAP:
        axis, d = _HEADING[heading]
        boundary = _next_boundary_distance(net.streets[axis], pos[axis], d)
        if boundary is None:  # at the grid edge facing outward: reroute in place
            heading = _choose_heading(net, pos, heading, cfg, rng)
            continue
        if boundary > remaining:
            pos[axis] += d * remaining
            break
        pos[axis] += d * boundary
        pos = [_snap(streets, c) for streets, c in zip(net.streets, pos)]
        remaining -= boundary
        heading = _choose_heading(net, pos, heading, cfg, rng)
    v.x, v.y = pos
    v.heading = heading


def _choose_heading(
    net: RoadNetwork,
    pos: list[float],
    heading: str,
    cfg: MobilityConfig,
    rng: np.random.Generator,
) -> str:
    straight_ok = _heading_stays_on_network(net, pos, heading)
    turns = [h for h in _TURNS[heading] if _heading_stays_on_network(net, pos, h)]
    if not turns:  # straight on, or at a dead end reverse
        return heading if straight_ok else _REVERSE[heading]
    # a free decision where straight on is allowed, else a forced turn
    if straight_ok and rng.random() >= cfg.turn_probability:
        return heading
    return turns[0] if len(turns) == 1 else turns[int(rng.integers(0, 2))]


def spawn_vehicle(
    vid: int,
    net: RoadNetwork,
    cfg: MobilityConfig,
    rng: np.random.Generator,
) -> VehicleState:
    """New vehicle at a uniformly random on-network point.

    The point is uniform over total street length: the axis of travel is
    drawn by street length, then the street, the offset along it and the
    direction (equiprobable); the speed is a constant drawn uniformly from
    [0.9, 1.1] * mean_speed.
    """
    speed = cfg.mean_speed * rng.uniform(0.9, 1.1)
    axis = 0 if rng.random() < net.horizontal_streets * net.width / net.total_length else 1
    pos = [0.0, 0.0]
    along = net.streets[1 - axis]  # where the streets running along the axis cross the other
    pos[1 - axis] = along[int(rng.integers(0, len(along)))]
    pos[axis] = rng.uniform(0.0, (net.width, net.height)[axis])
    heading = ("EW", "NS")[axis][0 if rng.random() < 0.5 else 1]
    return VehicleState(id=vid, x=pos[0], y=pos[1], heading=heading, speed=speed)


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

