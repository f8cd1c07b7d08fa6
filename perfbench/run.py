#!/usr/bin/env python3
"""Benchmark of mcwave: three workloads driven through the public API.

    python3 perfbench/run.py --workload sweep-golden --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
With `--trace 0` a run measures the end-to-end metrics.  With `--trace 1` it
measures untraced as usual, replays the first pass traced (per-layer self
time and counters, spans written to perfbench/out/), and runs the first unit
traced once more to check that the counters repeat exactly.  The last line
of standard output is one JSON object; the lines above it name every unit,
its output digest and how that digest compared with perfbench/reference.json.

Every run starts with the workload's documented units (the golden grid, the
n=200 world of seed 1, arena seeds 0..299) and then continues in whole
passes, until `--seconds` have passed, through further units whose digests
are also on record; `--seed` picks their order.  `--held-out` replaces all
units with fresh ones derived from `--seed`; their digests and counters are
printed for byte-for-byte comparison between two commits, since no
reference exists for them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from hostspeed import SpeedSampler, probe_mean
from spans import Tracer, determinism_counts, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
SPAN_DIR = HERE / "out"

SETUP_SAMPLES = 5
SETUP_PROBES = 40
HELD_OUT_BASE = 100_000


@dataclass(slots=True)
class UnitResult:
    index: int
    runs: int                  # runs attempted; contention windows on mesh-interval
    failed: int
    digest: str
    delivered: int = 0
    gaps: list[float] = field(default_factory=list)
    seconds: float = 0.0       # wall time, host probes excluded


def import_mcwave():
    """Import the package from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mcwave
    if Path(mcwave.__file__).resolve().parent != (SRC / "mcwave").resolve():
        raise SystemExit(f"mcwave was imported from {mcwave.__file__}, not from {SRC}")
    from mcwave import experiment
    return experiment


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def delivery_stats(unit: UnitResult, pairs) -> None:
    for metrics, analytic in pairs:
        if metrics.total_delay_us is not None:
            unit.delivered += 1
            ref = analytic.t_d_matched_us
            unit.gaps.append(abs(metrics.total_delay_us - ref) / ref)


class SweepGolden:
    """The golden grid; one unit is every grid cell of one world seed."""

    name = "sweep-golden"
    documented = 6                     # world seeds 1..6
    grid = dict(schemes=("cmd", "wsd", "legacy"), ys=(3, 5), floodings=("none", "shbf"))
    runs_per_unit = 3 * 2 * 2

    def __init__(self) -> None:
        self.exp = import_mcwave()
        from mcwave.config import default_config
        self.cfg = default_config()
        self.si = self.cfg.si
        self.golden_rows: dict[int, list] = {}     # index -> [(MetricsRow, AnalyticRow)]

    def unit(self, index: int) -> UnitResult:
        exp = self.exp
        res = exp.run_sweep(self.cfg, seeds=[index + 1], **self.grid)
        text = res.table.to_csv() + exp.analytical_csv(res.analytic_rows)
        pairs = list(zip(res.table.rows, res.analytic_rows))
        if index < self.documented:
            self.golden_rows.setdefault(index, pairs)
        unit = UnitResult(index, self.runs_per_unit, len(res.failures), sha256(text))
        delivery_stats(unit, pairs)
        return unit

    def golden_digest(self) -> str | None:
        """Digest of the documented sweep, reassembled in run_sweep's grid order."""
        if len(self.golden_rows) < self.documented:
            return None
        g = self.grid
        pairs = sorted(
            (p for rows in self.golden_rows.values() for p in rows),
            key=lambda p: (g["ys"].index(p[0].y), g["schemes"].index(p[0].scheme),
                           g["floodings"].index(p[0].flooding), p[0].seed),
        )
        table = self.exp.MetricsTable(rows=[m for m, _ in pairs])
        return sha256(table.to_csv() + self.exp.analytical_csv([a for _, a in pairs]))


class DenseN200:
    """A static population of 200 vehicles; one unit is one cmd run at y=3."""

    name = "dense-n200"
    documented = 1                     # world seed 1
    runs_per_unit = 1

    def __init__(self) -> None:
        self.exp = import_mcwave()
        from mcwave.config import default_config
        base = default_config()
        self.cfg = dataclasses.replace(
            base,
            mobility=dataclasses.replace(base.mobility, vehicle_count=200, spawn_process=0.0),
            scheme=dataclasses.replace(base.scheme, scheme="cmd", advertised_y=3),
        )
        self.si = self.cfg.si

    def unit(self, index: int) -> UnitResult:
        exp = self.exp
        cfg = dataclasses.replace(
            self.cfg, experiment=dataclasses.replace(self.cfg.experiment, seed=index + 1))
        r = exp.run_experiment(cfg)
        text = (exp.MetricsTable(rows=[r.metrics]).to_csv()
                + exp.elections_csv(r.election_rows) + exp.analytical_csv([r.analytic]))
        unit = UnitResult(index, self.runs_per_unit, 0, sha256(text))
        delivery_stats(unit, [(r.metrics, r.analytic)])
        return unit


class MeshInterval:
    """The broadcast-window sizing sweep; one unit is 300 arena seeds at 6 sizes."""

    name = "mesh-interval"
    documented = 1                     # arena seeds 0..299
    multiples = (0.5, 0.75, 1, 1.25, 1.5, 2)
    block = 300
    runs_per_unit = len(multiples) * block

    def __init__(self) -> None:
        self.exp = import_mcwave()
        from mcwave.analytics import optimal_decision_interval, slot_duration, slot_probabilities
        from mcwave.config import default_config
        from mcwave.mac import frame_airtime
        from mcwave.radio import carrier_sense_range, vehicles_in_cs_range
        cfg = default_config()
        self.si = cfg.si
        self.mac, self.queue = cfg.mac, cfg.queue
        # sizing as in the acceptance criterion on broadcast-window saturation
        self.n = round(vehicles_in_cs_range(cfg.traffic, carrier_sense_range(cfg.radio)))
        probs = slot_probabilities(2.0 / (self.mac.cw_min + 1), self.n)
        t_slot = slot_duration(probs, self.mac.sigma, frame_airtime(self.mac),
                               self.mac.difs, self.mac.eifs_us).t_slot
        self.v_us = optimal_decision_interval(cfg.traffic, cfg.radio, t_slot)

    def unit(self, index: int) -> UnitResult:
        seeds = range(index * self.block, (index + 1) * self.block)
        points = self.exp.interval_sweep(self.mac, self.queue, self.n, multiples=self.multiples,
                                         seeds=seeds, v_us=self.v_us)
        text = "".join(f"{p.window_us},{p.ptr!r},{p.prr!r},{p.attempted},{p.succeeded}\n"
                       for p in points)
        return UnitResult(index, self.runs_per_unit, 0, sha256(text))


WORKLOADS = {w.name: w for w in (SweepGolden, DenseN200, MeshInterval)}


def setup(name: str):
    """Import plus config and reference-value set-up.

    Returns the workload, the set-up seconds and the mean host probe time
    around them.
    """
    before = probe_mean(SETUP_PROBES)
    t0 = time.perf_counter()
    bench = WORKLOADS[name]()
    seconds = time.perf_counter() - t0
    return bench, seconds, (before + probe_mean(SETUP_PROBES)) / 2


def setup_probe(name: str) -> tuple[float, float]:
    """Set-up measured in a fresh interpreter, as a user would pay it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, probe_s = out.stdout.split()
    return float(seconds), float(probe_s)


def unit_indices(bench, seed: int, held_out: bool, pool: int) -> Iterator[int]:
    """The documented units in a seed-chosen order, then the extension pool.

    The extension starts at a seed-chosen offset.  A workload whose pool holds
    only its documented units (sweep-golden: its worlds differ in cost by up
    to 2x, so new worlds would make a run's figure depend on how many passes
    fit) repeats them instead.
    """
    if held_out:
        yield from itertools.count(HELD_OUT_BASE + 1000 * seed)
        return
    order = random.Random(seed).sample(range(bench.documented), bench.documented)
    yield from order
    extension = list(range(bench.documented, pool))
    if not extension:
        yield from itertools.cycle(order)
        return
    start = seed % len(extension)
    yield from itertools.cycle(extension[start:] + extension[:start])


def run_unit(bench, index: int) -> UnitResult:
    try:
        return bench.unit(index)
    except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return UnitResult(index, bench.runs_per_unit, bench.runs_per_unit, "error")


def measure(bench, indices: Iterator[int], seconds: float) -> tuple[list[UnitResult], float, float]:
    """Run whole passes of `bench.documented` units until `seconds` have passed.

    Returns the units, their wall time without the host probes, and the
    mean probe time.
    """
    units: list[UnitResult] = []
    with SpeedSampler() as speed:
        start = time.perf_counter()
        for n, index in enumerate(indices, start=1):
            t0, busy0 = time.perf_counter(), speed.busy_s
            unit = run_unit(bench, index)
            unit.seconds = time.perf_counter() - t0 - (speed.busy_s - busy0)
            units.append(unit)
            if n % bench.documented == 0 and time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start
    return units, wall - speed.busy_s, speed.mean()


def check_outputs(bench, units: list[UnitResult], reference: dict, held_out: bool) -> bool:
    """Print each unit's digest beside its reference; True when all match."""
    expected = reference["units"][bench.name]
    ok = True
    for u in units:
        if held_out:
            verdict = "held-out" if u.failed == 0 else "failed"
            ok &= u.failed == 0
        else:
            match = u.index < len(expected) and u.digest == expected[u.index]
            verdict = "match" if match else "MISMATCH"
            ok &= match
        print(f"unit {bench.name} {u.index} runs={u.runs} failed={u.failed} "
              f"sha256={u.digest} reference={verdict}")
    if isinstance(bench, SweepGolden) and not held_out:
        golden = bench.golden_digest()
        match = golden == reference["golden_sha256"]
        print(f"golden sha256={golden} reference={'match' if match else 'MISMATCH'}")
        ok &= match
    return ok


def traced_passes(bench, units: list[UnitResult], seed: int,
                  reference: dict, held_out: bool) -> tuple[dict[str, float], bool]:
    """Per-layer metrics of a traced replay of the first pass, and whether its
    counters repeat."""
    first_pass = units[:bench.documented]
    indices = [u.index for u in first_pass]
    untraced_wall = sum(u.seconds for u in first_pass)
    tracer = Tracer(mesh=isinstance(bench, MeshInterval), si=bench.si)
    tracer.install()
    try:
        per_unit = []
        start = time.perf_counter()
        for index in indices:
            before = tracer.counts.copy()
            per_unit.append((run_unit(bench, index), tracer.counts - before))
        traced_wall = time.perf_counter() - start
        metrics = layer_metrics(tracer, traced_wall, untraced_wall)
        tracer.write(SPAN_DIR / f"spans-{bench.name}-seed{seed}.csv")
        ok = check_outputs(bench, [u for u, _ in per_unit], reference, held_out)
        for u, counts in per_unit:
            print(f"counters {bench.name} {u.index} {json.dumps(determinism_counts(counts))}")
        tracer.reset()
        run_unit(bench, indices[0])
    finally:
        tracer.uninstall()
    first, again = determinism_counts(per_unit[0][1]), determinism_counts(tracer.counts)
    if first != again:
        diff = {k: (first.get(k), again.get(k)) for k in set(first) | set(again)
                if first.get(k) != again.get(k)}
        print(f"nondeterminism {bench.name} unit {indices[0]}: {json.dumps(diff)}")
        ok = False
    return metrics, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="fresh units derived from --seed, without a reference")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    bench, setup_s, setup_probe_s = setup(args.workload)
    if args.setup_probe:
        print(repr(setup_s), repr(setup_probe_s))
        return 0
    spec = json.loads(SPEC.read_text())
    reference = json.loads(REFERENCE.read_text())
    pool = len(reference["units"][bench.name])
    probe_ref_s = reference["probe_ref_s"]

    samples = [(setup_s, setup_probe_s)]
    if not args.trace:
        samples += [setup_probe(bench.name) for _ in range(SETUP_SAMPLES - 1)]

    indices = unit_indices(bench, args.seed, args.held_out, pool)
    units, wall, probe_s = measure(bench, indices, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(u.runs for u in units)
    failed = sum(u.failed for u in units)
    delivered = sum(u.delivered for u in units)
    gaps = [g for u in units for g in u.gaps]
    correct = check_outputs(bench, units, reference, args.held_out)

    if args.trace:
        values, traced_ok = traced_passes(bench, units, args.seed, reference, args.held_out)
        correct &= traced_ok
        declared = spec["per_layer"]
    else:
        # timings scaled to the reference host speed; see hostspeed.py
        values = {
            "setup_s": statistics.median(t * probe_ref_s / p for t, p in samples),
            "runs_per_s": attempted / wall * probe_s / probe_ref_s,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
        simulated = isinstance(bench, (SweepGolden, DenseN200))
        throughput = "windows_per_s" if isinstance(bench, MeshInterval) else "runs_per_s"
        report = [
            f"setup_s={values['setup_s']:.4f} s (median of {len(samples)}; "
            f"unscaled {statistics.median(t for t, _ in samples):.4f} s)",
            f"{throughput}={values['runs_per_s']:.4f} 1/s (unscaled: {attempted} in {wall:.2f} s; "
            f"host speed {probe_ref_s / probe_s:.3f} of reference)",
            f"peak_rss_mb={peak_rss_mb:.1f} MB",
            f"failed_ratio={failed / attempted:.4f} ratio",
            f"output_ok={int(correct)} flag",
            f"delivered_ratio={delivered / attempted:.4f} ratio ({delivered}/{attempted})"
            if simulated else "delivered_ratio=n/a",
            f"analytic_gap={statistics.fmean(gaps):.4f} ratio (over {len(gaps)} delivered runs)"
            if simulated and gaps else "analytic_gap=n/a",
        ]
        print(f"{bench.name} " + " | ".join(report))

    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
