"""Spans and counters recorded from outside the program, around its public calls.

`Tracer.install` replaces each wrapped function on the module or class its
caller looks it up in, so the program itself is untouched.  A span is
`[name, start, end, parent]`; spans stay in memory until `write` is called.
A layer's self time is the summed duration of its spans minus the time
covered by their direct children.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

LAYERS = (
    "mobility", "adjacency", "arena.e1", "arena.e3", "arena.schi", "arena.mesh",
    "interval", "coordination", "dissemination", "analytics", "experiment",
    "experiment.csv",
)
WINDOWS = ("e1", "e3", "schi", "mesh")

#: counter observers run inside a span of this name; its self time is
#: tracing cost, so it lands in the remainder, not in any layer
OBSERVE = "bench.observe"


class Tracer:
    def __init__(self, mesh: bool, si) -> None:
        self.mesh = mesh
        self.si = si
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list[Any]:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list[Any]) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, owner: Any, attr: str, name: Callable[[tuple], str] | str,
              observe: Optional[Callable[[str, tuple, Any], None]] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            rec = tracer._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(rec)
            tracer.counts[span_name + ".calls"] += 1
            if observe is not None:
                obs = tracer._open(OBSERVE)
                observe(span_name, args, result)
                tracer._close(obs)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every public call the per-layer metrics are read from."""
        from mcwave import experiment, mobility, simulation
        from mcwave.engine import Phase, si_phase

        def arena_window(args: tuple) -> str:
            if self.mesh:
                return "arena.mesh"
            phase = si_phase(args[0].window_start, self.si)
            return {Phase.E1: "arena.e1", Phase.E3: "arena.e3"}.get(phase, "arena.schi")

        self._wrap(mobility.MobilityModel, "advance_to", "mobility")
        self._wrap(mobility.MobilityModel, "positions_at", "mobility", self._vehicles)
        self._wrap(simulation, "adjacency", "adjacency", self._edges)
        self._wrap(simulation.ContentionArena, "run", arena_window, self._arena)
        self._wrap(simulation.World, "run_interval", "interval")
        self._wrap(simulation, "elect_coordinators", "coordination")
        self._wrap(simulation, "average_distance_to_sch", "coordination")
        self._wrap(experiment, "run_scheme", "dissemination", self._switches)
        self._wrap(experiment, "analytic_row", "analytics")
        for fn in ("run_experiment", "run_sweep", "interval_sweep"):
            self._wrap(experiment, fn, "experiment")
        self._wrap(experiment.MetricsTable, "to_csv", "experiment.csv", self._bytes)
        self._wrap(experiment, "analytical_csv", "experiment.csv", self._bytes)
        self._wrap(experiment, "elections_csv", "experiment.csv", self._bytes)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- counter observers ---------------------------------------------------

    def _vehicles(self, name: str, args: tuple, rows: list) -> None:
        self.counts["mobility.vehicles"] += len(rows)
        self.counts["mobility.snapshots"] += 1

    def _edges(self, name: str, args: tuple, adj: dict) -> None:
        self.counts["adjacency.edges"] += sum(len(n) for n in adj.values())

    def _switches(self, name: str, args: tuple, report: Any) -> None:
        self.counts["dissemination.switches"] += report.switch_count

    def _bytes(self, name: str, args: tuple, text: str) -> None:
        self.counts["experiment.csv.bytes"] += len(text.encode())

    def _arena(self, name: str, args: tuple, result: Any) -> None:
        c = self.counts
        for rec in result.transmissions:
            c[name + ".tx"] += 1
            if rec.concurrent:
                c[name + ".collided_tx"] += 1
            if rec.received_by:
                c[name + ".useful_tx"] += 1
        c[name + ".deliveries"] += len(result.first_delivery)
        c[name + ".pending"] += len(result.pending_senders)

    # -- reporting -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        totals: dict[str, float] = {}
        for rec, t in zip(self.spans, own):
            totals[rec[0]] = totals.get(rec[0], 0.0) + t
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer self time, calls and counters of one traced pass."""
    selfs = tracer.self_times()
    c = tracer.counts
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = selfs.get(layer, 0.0)
        out[layer + ".calls"] = c[layer + ".calls"]
    for w in WINDOWS:
        name = "arena." + w
        tx = c[name + ".tx"]
        for key in ("tx", "collided_tx", "deliveries", "pending"):
            out[f"{name}.{key}"] = c[f"{name}.{key}"]
        out[name + ".useful_ratio"] = c[name + ".useful_tx"] / tx if tx else 0.0
        out[name + ".host_us_per_tx"] = selfs.get(name, 0.0) * 1e6 / tx if tx else 0.0
    snaps = c["mobility.snapshots"]
    out["mobility.vehicles_mean"] = c["mobility.vehicles"] / snaps if snaps else 0.0
    out["adjacency.edges"] = c["adjacency.edges"]
    out["dissemination.switches"] = c["dissemination.switches"]
    out["experiment.csv.bytes"] = c["experiment.csv.bytes"]
    attributed = sum(out[layer + ".self_s"] for layer in LAYERS)
    in_roots = sum(rec[2] - rec[1] for rec in tracer.spans if rec[3] < 0)
    remainder = traced_wall_s - in_roots + selfs.get(OBSERVE, 0.0)
    if abs(attributed + remainder - traced_wall_s) > 1e-6:
        unknown = sorted(set(selfs) - set(LAYERS) - {OBSERVE})
        raise RuntimeError(f"self times do not add up to the traced wall time: {unknown}")
    out["traced_wall_s"] = traced_wall_s
    out["untraced_wall_s"] = untraced_wall_s
    out["remainder_s"] = remainder
    out["tracing_overhead_s"] = traced_wall_s - untraced_wall_s
    return out


def determinism_counts(counts: Counter) -> dict[str, int]:
    """The counters that must repeat exactly when the same unit runs again."""
    keep = {"interval.calls", "mobility.vehicles", "mobility.snapshots"}
    return {k: v for k, v in sorted(counts.items())
            if v and (k in keep or k.startswith("arena."))}
