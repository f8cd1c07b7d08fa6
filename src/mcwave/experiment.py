"""Runs, sweeps, and the analytic overlay that sits beside every run.

A *run* is one seeded world: warm-up intervals that only move the vehicles,
measured intervals, one emergency message delivered by the configured scheme.
A *sweep* repeats runs over a grid (scheme, channel count, flooding, seed).
All runs of one seed share one simulated world, so the mobility, sensing and
control-channel storms are simulated once per seed, and the schemes of one
(channel count, flooding, seed) cell share each interval's snapshot, so
scheme comparisons see the same mobility, channel draws and status storms.
Every run also gets a closed-form delay prediction computed from the same
parameters, so simulated and analytic columns line up row by row.
"""

from __future__ import annotations

import dataclasses
import gc
import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .analytics import (
    SCHEME_LEGACY,
    SCHEMES,
    QueueParams,
    hop_delay,
    total_dissemination_delay,
)
from .config import FullConfig
from .coordination import ElectionRow
from .dissemination import (
    DisseminationReport,
    EmergencyMessage,
    run_scheme,
)
from .engine import Phase, phase_window
from .mac import MODE_STANDARD, MacParams
from .radio import carrier_sense_range, vehicles_in_cs_range
from .simulation import (
    CCH,
    EMERGENCY_STREAM,
    MESH_TAG,
    ContentionArena,
    Frame,
    SiSnapshot,
    Stations,
    World,
    decode_ratios,
    handoff_us,
)

# -- analytic overlay --------------------------------------------------------


@dataclass(slots=True)
class AnalyticRow:
    """Closed-form prediction matched to one simulated run."""

    seed: int
    scheme: str
    y: int
    n_contenders: int         # stations the delivery hop contends with (itself included)
    e_q_us: float
    e_c_us: float
    e_t_us: float
    e_d_us: float
    t_slot_us: float
    tau: float
    t_d_us: float             # full-protocol total over all advertised channels
    t_d_matched_us: float     # total re-evaluated at the run's achieved relay depth


def analytic_row(
    cfg: FullConfig,
    legacy_contenders: float,
    residual_wait_us: float,
    relay_depth: Optional[int],
) -> AnalyticRow:
    """Closed-form twin of one run of `cfg`'s scheme.

    The emergency hop on a service channel contends only with its own
    relayers (the service window carries no other traffic), so the hop model
    uses a lone sender there; the legacy broadcast instead fights the full
    control-window status storm, `legacy_contenders` stations rounded, and
    first waits `residual_wait_us` for the control window.
    ``t_d_matched_us`` re-evaluates the scheme total at `relay_depth`, the
    relay depth a run realized, which is what the measured total (last
    *delivered* channel) corresponds to; without one it is ``t_d_us``.
    """
    y = cfg.scheme.advertised_y
    scheme = cfg.scheme.scheme
    if scheme == SCHEME_LEGACY:
        n = max(1, round(legacy_contenders))
    else:
        n = 1
    hop = hop_delay(cfg.queue, cfg.mac, n)
    residual = None
    guard = None
    if scheme == SCHEME_LEGACY:
        residual = residual_wait_us / 1e6
        guard = cfg.si.guard / 1e6
    t_sw = cfg.scheme.switching_delay_us / 1e6
    t_d = total_dissemination_delay(
        scheme, y, hop.e_d, t_sw, residual_wait=residual, guard=guard,
    )
    depth = relay_depth if relay_depth else y
    t_d_matched = total_dissemination_delay(
        scheme, depth, hop.e_d, t_sw, residual_wait=residual, guard=guard,
    )
    return AnalyticRow(
        seed=cfg.experiment.seed, scheme=scheme, y=y, n_contenders=n,
        e_q_us=hop.e_q * 1e6, e_c_us=hop.e_c * 1e6, e_t_us=hop.e_t * 1e6,
        e_d_us=hop.e_d * 1e6, t_slot_us=hop.t_slot * 1e6, tau=hop.tau,
        t_d_us=t_d * 1e6, t_d_matched_us=t_d_matched * 1e6,
    )


def analytic_preview(cfg: FullConfig) -> list[AnalyticRow]:
    """Closed-form rows for all three schemes without running a simulation.

    The legacy scheme's wait uses the mean residual service-window time
    (half the window), and its contender count comes from the density-range
    coupling (vehicles inside one carrier-sense neighbourhood), since no
    measured run exists here.
    """
    b = vehicles_in_cs_range(cfg.traffic, carrier_sense_range(cfg.radio))
    return [
        analytic_row(
            dataclasses.replace(cfg, scheme=dataclasses.replace(cfg.scheme, scheme=scheme)),
            b, cfg.si.schi / 2, None,
        )
        for scheme in SCHEMES
    ]


# -- metric helpers ----------------------------------------------------------


def compute_ptr(ptrs: Iterable[Optional[float]]) -> Optional[float]:
    """Mean packet transmission ratio over windows that had eligible senders.

    Takes each window's `ArenaResult.ptr`; None marks a window without any.
    """
    values = [p for p in ptrs if p is not None]
    return sum(values) / len(values) if values else None


def reachability_cdf(samples: Sequence[float], grid: Sequence[float]) -> list[float]:
    """Empirical P(sample <= g) evaluated on a grid."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("reachability_cdf needs at least one sample")
    return [bisect_right(ordered, g) / n for g in grid]


# -- run artifacts -----------------------------------------------------------


@dataclass(slots=True)
class MetricsRow:
    seed: int
    sweep_point: str
    scheme: str
    y: int
    flooding: str
    total_delay_us: Optional[int]
    switch_count: int
    prr: Optional[float]
    ptr: Optional[float]
    residual_wait_us: Optional[int]
    unreached_channels: int
    per_channel_delays: dict[int, float]      # channel -> mean delivery delay, us
    reachability_samples: list[float]


@dataclass(slots=True)
class MetricsTable:
    rows: list[MetricsRow] = field(default_factory=list)

    def to_csv(self) -> str:
        return _csv(fields(MetricsRow), self.rows)


@dataclass(slots=True)
class RunResult:
    report: DisseminationReport
    metrics: MetricsRow
    analytic: AnalyticRow
    election_rows: list[ElectionRow]
    trace_rows: list[tuple[int, str, int, int]]   # its world's arena rows when traced, else empty


def _fmt(value: Union[int, float, str, dict[int, float], list[float], None]) -> str:
    """Fixed-width cell formatting so emitted files are byte-stable.

    The cell types are those `MetricsRow` declares.  A dict becomes its
    sorted key:value pairs joined by ';', a float list its cells joined by '|'.
    """
    if type(value) is list:
        # float lists, the reach samples among them, in one format with the same bytes
        return "|".join(["%.6f"] * len(value)) % tuple(value)
    if isinstance(value, float):
        # six correctly rounded decimals, as numpy's positional format with
        # precision=6, unique=False, trim="k" writes them, at a third of the cost
        return "%.6f" % value
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return ";".join(f"{k}:{_fmt(v)}" for k, v in sorted(value.items()))


#: the cell format of each plain field type, writing the bytes `_fmt` writes
_PLAIN = {"int": "%d", "float": "%.6f", "str": "%s"}


def _csv(columns: tuple[dataclasses.Field, ...], rows: Iterable) -> str:
    """One line per row of a dataclass: a header of its field names, then its cells.

    Where every field is declared a plain int, float or str, a row is one format.
    """
    names = [f.name for f in columns]
    cells = attrgetter(*names)
    lines = [",".join(names)]
    if all(f.type in _PLAIN for f in columns):
        line = ",".join(_PLAIN[f.type] for f in columns)
        lines.extend(line % cells(r) for r in rows)
    else:
        lines.extend(",".join(map(_fmt, cells(r))) for r in rows)
    return "\n".join(lines) + "\n"


def emit_csv(path: Union[str, Path], text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as fh:
        fh.write(text)
    return path


def elections_csv(rows: Iterable[ElectionRow]) -> str:
    return _csv(fields(ElectionRow), rows)


def analytical_csv(rows: Iterable[AnalyticRow]) -> str:
    return _csv(fields(AnalyticRow), rows)


def interval_csv(points: Iterable[IntervalPoint]) -> str:
    return _csv(fields(IntervalPoint), points)


def trace_csv(rows: Iterable[tuple[int, str, int, int]]) -> str:
    lines = ["time_us,kind,vehicle_id,channel"]
    for t, kind, vid, channel in rows:
        lines.append(f"{t},{kind},{vid},{channel}")
    return "\n".join(lines) + "\n"


# -- single run --------------------------------------------------------------


def draw_emergency(snap: SiSnapshot, cfg: FullConfig) -> EmergencyMessage:
    """Pick the origin and invocation instant inside the service window.

    The draw leaves a configurable completion reserve before the window's
    end so a late invocation still fits one scheme execution; the config
    keeps the reserve shorter than the window.
    """
    si_index, ids = snap.interval.si_index, snap.interval.ids
    if not ids:
        raise ValueError(
            f"interval {si_index}: no vehicle is on the road to send the emergency message")
    rng = snap.world.stream(si_index, CCH, EMERGENCY_STREAM)
    origin = ids[int(rng.integers(len(ids)))]
    start, end = phase_window(si_index, Phase.SCHI, snap.world.si)
    invocation = start + int(rng.integers((end - start) - cfg.experiment.invocation_reserve_us))
    return EmergencyMessage(
        origin_id=origin,
        invocation_time_us=invocation,
        msg_id=f"em-{cfg.experiment.seed}-{si_index}",
    )


def build_world(cfg: FullConfig, trace: Optional[list] = None) -> World:
    """The world of `cfg`'s seed; its arenas' rows are appended to `trace` unless it is None."""
    return World(
        net=cfg.network,
        si=cfg.si,
        mobility=cfg.mobility,
        radio=cfg.radio,
        mac=cfg.mac,
        queue=cfg.queue,
        seed=cfg.experiment.seed,
        trace=trace,
    )


@dataclass(slots=True)
class _SchemeRun:
    """What one scheme has measured so far on a world shared with others."""

    cfg: FullConfig
    sweep_point: str
    elections: bool                    # keep every interval's election rows
    ptrs: list[Optional[float]] = field(default_factory=list)
    election_rows: list[ElectionRow] = field(default_factory=list)
    reach_samples: list[float] = field(default_factory=list)
    report: Optional[DisseminationReport] = None
    mean_cs_degree: float = 0.0
    reruns: dict[int, SiSnapshot] = field(default_factory=dict)  # intervals re-run with its frames
    error: Optional[Exception] = None

    @property
    def key(self) -> tuple[int, bool]:
        """The channel count and flooding mode its intervals are run with."""
        return self.cfg.scheme.advertised_y, self.cfg.scheme.flooding == "shbf"

    def take(self, snap: SiSnapshot) -> None:
        """Fold in one interval; at the emergency interval run the scheme."""
        self.ptrs.append(snap.e1.ptr)
        if self.elections:
            self.election_rows.extend(snap.election)
        self.reach_samples.extend(snap.reach)
        interval = snap.interval
        if interval.si_index != _emergency_si(self.cfg):
            return
        emergency = draw_emergency(snap, self.cfg)
        self.mean_cs_degree = sum(map(len, interval.cs_adj.values())) / len(interval.ids)

        def advance(si_index: int, frame: Frame) -> SiSnapshot:
            self.reruns[si_index] = snap.world.run_interval(si_index, *self.key, frame)
            return self.reruns[si_index]

        self.report = run_scheme(self.cfg.scheme, snap, emergency, advance)

    def result(self, trace_rows: list[tuple[int, str, int, int]]) -> RunResult:
        cfg, report = self.cfg, self.report
        assert report is not None
        per_channel_means = {
            ch: sum(delays) / len(delays)
            for ch, delays in report.per_channel_delays_us.items()
        }
        metrics = MetricsRow(
            seed=cfg.experiment.seed,
            sweep_point=self.sweep_point,
            scheme=cfg.scheme.scheme,
            y=cfg.scheme.advertised_y,
            flooding=cfg.scheme.flooding,
            total_delay_us=report.total_delay_us,
            switch_count=report.switch_count,
            prr=report.prr,
            ptr=compute_ptr(self.ptrs),
            residual_wait_us=report.residual_wait_us,
            unreached_channels=len(report.unreached_channels),
            per_channel_delays=per_channel_means,
            reachability_samples=self.reach_samples,
        )
        return RunResult(
            report=report,
            metrics=metrics,
            analytic=analytic_row(
                cfg, 1.0 + self.mean_cs_degree, report.residual_wait_us or 0, report.relay_depth,
            ),
            election_rows=self.election_rows,
            trace_rows=trace_rows,
        )


def _emergency_si(cfg: FullConfig) -> int:
    """The interval in which `cfg`'s emergency message fires."""
    return cfg.experiment.warmup_sis + cfg.experiment.emergency_si_offset


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep CPython's cyclic collector off over the block, then leave it as found.

    A seed's simulation makes no reference cycles (a test checks whole runs), so
    the collections its allocations would start free nothing, yet scan the run's
    live objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def _run_seed(
    cfgs: Sequence[FullConfig], sweep_points: Sequence[str], elections: bool, trace: bool = False,
) -> list[Union[RunResult, Exception]]:
    """Step one seed's world and run each config's scheme on it.

    The configs must differ only in `scheme.scheme`, `scheme.advertised_y` and
    `scheme.flooding`.  They share one world, so mobility, sensing and the
    control-channel storms are simulated once per interval, and configs with
    the same channel count and flooding mode share each interval's snapshot.
    Only the measured intervals are run: the warm-up intervals only step
    mobility (and its spawn ramp), which the world does when it first senses
    the first measured interval, and every other draw comes off a stream
    keyed by its own interval.  Each interval's plain snapshots are made
    before any scheme takes one, since legacy's scheme runs the next interval
    again with its frame, and mobility cannot rewind.  A run takes its own
    re-run of an interval instead of the plain snapshot.  A scheme's failure
    fails its own run only; a snapshot's failure fails the runs that take it,
    and the world's mobility failure fails them all.  Nothing per interval
    outlives its snapshots beyond what each scheme accumulates.  With `trace`
    the rows of every arena of the seed go to one list, so only a seed of one
    config is traced: `run_experiment`'s.  With `elections` each run keeps the
    election rows of every interval it takes.  The cyclic collector is paused
    throughout, so an error comes without the traceback whose frames hold it.
    """
    exp = cfgs[0].experiment
    runs = [_SchemeRun(cfg, point, elections) for cfg, point in zip(cfgs, sweep_points)]
    rows: Optional[list] = [] if trace else None
    try:
        world = build_world(cfgs[0], rows)
    except Exception as exc:  # noqa: BLE001 - the world failed every run
        for run in runs:
            run.error = exc
    for si in range(exp.warmup_sis, exp.warmup_sis + exp.measured_sis):
        live = [run for run in runs if run.error is None]
        plain: dict[tuple[int, bool], Union[SiSnapshot, Exception]] = {}
        for run in live:
            if si not in run.reruns and run.key not in plain:
                try:
                    plain[run.key] = world.run_interval(si, *run.key)
                except Exception as exc:  # noqa: BLE001 - it fails every run that takes it
                    plain[run.key] = exc
        for run in live:
            snap = run.reruns.pop(si) if si in run.reruns else plain[run.key]
            if isinstance(snap, Exception):
                run.error = snap
                continue
            try:
                run.take(snap)
            except Exception as exc:  # noqa: BLE001 - one scheme fails alone
                run.error = exc
    # ties keep the order the arenas appended them in
    trace_rows = sorted(rows, key=lambda r: (r[0], r[1], r[2])) if rows is not None else []
    results: list[Union[RunResult, Exception]] = []
    for run in runs:
        if run.error is None:
            try:
                results.append(run.result(trace_rows))
                continue
            except Exception as exc:  # noqa: BLE001
                run.error = exc
        results.append(run.error.with_traceback(None))
    return results


def run_experiment(cfg: FullConfig, trace: bool = False) -> RunResult:
    """One seeded world end to end under one scheme; with `trace` it keeps every arena's rows."""
    outcomes = _run_seed([cfg], [""], elections=True, trace=trace)
    if isinstance(outcomes[0], Exception):
        raise outcomes.pop()   # held by no local of this frame, which its traceback holds
    return outcomes[0]


# -- sweeps ------------------------------------------------------------------


@dataclass(slots=True)
class SweepResult:
    table: MetricsTable
    analytic_rows: list[AnalyticRow]
    failures: list[tuple[str, str]]       # (sweep point label, error)


def run_sweep(
    base: FullConfig,
    *,
    seeds: Sequence[int],
    schemes: Optional[Sequence[str]] = None,
    ys: Optional[Sequence[int]] = None,
    floodings: Optional[Sequence[str]] = None,
) -> SweepResult:
    """Grid of runs over (y, scheme, flooding, seed), rows in grid order.

    Seeds are paired across grid cells: the schemes of one (y, flooding,
    seed) cell share each interval's snapshot, and all cells of one seed share
    its mobility, sensing and control-channel storms, so per-seed differences
    between cells isolate the scheme, the channel count and the flooding mode.
    An axis left None takes `base`'s value.
    """
    if not seeds:
        raise ValueError("seeds: a sweep needs at least one seed")
    for name, values in (("schemes", schemes), ("ys", ys), ("floodings", floodings)):
        if values is not None and not values:
            raise ValueError(f"{name}: an empty axis is no sweep; omit it to use the base value")
    schemes = [base.scheme.scheme] if schemes is None else list(schemes)
    ys = [base.scheme.advertised_y] if ys is None else list(ys)
    floodings = [base.scheme.flooding] if floodings is None else list(floodings)

    def label(y: int, scheme: str, flooding: str) -> str:
        return f"y={y}/scheme={scheme}/flooding={flooding}"

    cells = [(y, scheme, flooding) for y in ys for scheme in schemes for flooding in floodings]
    outcomes: dict[tuple[int, str, str, int], Union[tuple[MetricsRow, AnalyticRow], str]] = {}
    for seed in seeds:
        cfgs = [
            dataclasses.replace(
                base,
                scheme=dataclasses.replace(
                    base.scheme, scheme=scheme, flooding=flooding, advertised_y=y,
                ),
                experiment=dataclasses.replace(base.experiment, seed=seed),
            )
            for y, scheme, flooding in cells
        ]
        points = [label(*cell) for cell in cells]
        for cell, outcome in zip(cells, _run_seed(cfgs, points, elections=False)):
            outcomes[(*cell, seed)] = (
                str(outcome) if isinstance(outcome, Exception)
                else (outcome.metrics, outcome.analytic)
            )

    table = MetricsTable()
    analytic_rows: list[AnalyticRow] = []
    failures: list[tuple[str, str]] = []
    for cell in cells:
        for seed in seeds:
            outcome = outcomes[(*cell, seed)]
            if isinstance(outcome, str):
                failures.append((f"{label(*cell)}/seed={seed}", outcome))
                continue
            table.rows.append(outcome[0])
            analytic_rows.append(outcome[1])
    return SweepResult(table=table, analytic_rows=analytic_rows, failures=failures)


# -- broadcast-interval sizing experiment -------------------------------------


@dataclass(slots=True)
class IntervalPoint:
    window_us: int
    window_over_v: float
    ptr: float
    prr: float
    attempted: int
    succeeded: int


def interval_sweep(
    mac: MacParams,
    queue: QueueParams,
    n_nodes: int,
    multiples: Sequence[float],
    seeds: Sequence[int],
    v_us: float,
) -> list[IntervalPoint]:
    """Pooled transmission and reception ratios of n mutually-sensing stations, per window.

    Each multiple m of the broadcast interval V (`v_us`) gives a window of
    round(m * V) us, reported against V.  Two different multiples that round
    to one window are refused, since their rows would read alike; a multiple
    given twice gives its row twice.  Every station holds exactly one
    frame at the window's start; the transmission ratio counts stations whose
    frame aired and was decoded by someone before the window closed, and the
    reception ratio averages `decode_ratios` over the frames that aired, both
    pooled over `seeds`.

    One arena per seed, run at the widest window, answers every window W:
    the run at W is that arena's transmissions that end by W.  This holds
    only because the stations form a clique:

    - every station senses every start, so no frame starts while another is
      on air, except frames that start in the same microsecond;
    - the window end affects only one decision: whether a start can finish
      by then;
    - so, on the same stream, every start that ends by W comes before every
      start that does not, and the run at W is the widest run up to its
      first start that ends after W, with the same receivers and overlap
      counts.

    With hidden nodes this breaks: a start after W - airtime can garble a
    frame that ends by W.  Frames end in start order, so each window's
    frames are a leading slice of `transmissions` and, since every frame has
    n - 1 stations in range, their ratios one of the arena's `decode_ratios`.
    Seeds are pooled in order and each slice keeps its transmission order,
    so every float sums in the order one arena per (window, seed) would sum
    it.  The clique's stations and message ids are built once per call.
    """
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be at least 2, so that every station has a receiver; "
                         f"got {n_nodes}")
    if not seeds:
        raise ValueError("seeds must not be empty")
    if not multiples:
        raise ValueError("multiples must not be empty")
    if not 0 < v_us < math.inf:
        raise ValueError(f"v_us must be a positive, finite number of us; got {v_us}")
    for m in multiples:
        if not 0.5 < m * v_us < math.inf:   # NaN fails too
            raise ValueError(f"multiples: {m} x V rounds to no finite window of 1 us or more")
    windows = [int(round(m * v_us)) for m in multiples]
    first_multiple: dict[int, float] = {}
    for m, window_us in zip(multiples, windows):
        if first_multiple.setdefault(window_us, m) != m:
            raise ValueError(f"multiples: {first_multiple[window_us]} and {m} x V both round "
                             f"to the window of {window_us} us")
    ids = list(range(n_nodes))
    everyone = {i: ids[:i] + ids[i + 1:] for i in ids}
    stations = Stations(ids, everyone, everyone)
    msg_ids = [f"m-{i}" for i in ids]
    succeeded = dict.fromkeys(windows, 0)
    prr_samples: dict[int, list[float]] = {window_us: [] for window_us in windows}
    for seed in seeds:
        arena = ContentionArena(
            channel=CCH,
            window=(0, max(windows)),
            mac=mac,
            chain_mode=MODE_STANDARD,
            stations=stations,
            rng=np.random.default_rng([seed, 0, CCH, MESH_TAG]),
        )
        arena.add_frames(list(map(Frame, msg_ids, ids, handoff_us(arena.rng, queue, len(ids)))))
        transmissions = arena.run().transmissions
        ends = [rec.end_us for rec in transmissions]
        ratios = decode_ratios(transmissions)
        decoded_in_first = list(accumulate(map(bool, ratios), initial=0))
        for window_us, samples in prr_samples.items():
            ended = bisect_right(ends, window_us)
            succeeded[window_us] += decoded_in_first[ended]
            samples.extend(ratios[:ended])
    attempted = n_nodes * len(seeds)
    points = []
    for window_us in windows:
        samples = prr_samples[window_us]
        points.append(IntervalPoint(
            window_us=window_us,
            window_over_v=window_us / v_us,
            ptr=succeeded[window_us] / attempted,
            prr=sum(samples) / len(samples) if samples else 0.0,
            attempted=attempted,
            succeeded=succeeded[window_us],
        ))
    return points
