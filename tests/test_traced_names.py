"""The benchmark's tracer finds every program call it wraps by name.

`perfbench/spans.py` replaces functions on the modules and classes their
callers look them up in.  A renamed or bypassed function would otherwise
surface only in a traced benchmark run, as an AttributeError or as a layer
that reads zero.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

from mcwave import experiment, simulation
from mcwave.config import default_config
from mcwave.experiment import build_world

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_every_traced_name_and_restores_it():
    cfg = default_config()
    tracer = load_spans().Tracer(mesh=False, si=cfg.si)
    tracer.install()
    try:
        wrapped = list(tracer._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert current(owner, attr) is not original, attr
        world = build_world(cfg)
        for si in (0, 1):
            # the averages storm and the election run on the first election read
            world.run_interval(si, cfg.scheme.advertised_y).election
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert current(owner, attr) is original, attr
    # the interval steps through the wrapped names, not around them
    assert tracer.counts["interval.calls"] == 2
    assert tracer.counts["coordination.calls"] > 0
    assert tracer.counts["arena.e1.calls"] == 2
    assert tracer.counts["arena.e3.calls"] == 2


def test_a_traced_run_reaches_the_scheme_and_every_interval_through_the_wrapped_names():
    cfg = default_config()
    tracer = load_spans().Tracer(mesh=False, si=cfg.si)
    tracer.install()
    try:
        experiment.run_experiment(cfg)
    finally:
        tracer.uninstall()
    # a scheme path around `experiment.run_scheme`, or an interval stepped
    # around `World.run_interval`, would read zero here
    assert tracer.counts["dissemination.calls"] == 1
    assert tracer.counts["arena.schi.calls"] >= 1
    assert tracer.counts["interval.calls"] == cfg.experiment.measured_sis
    # simulate reads every measured interval's election, outside the interval span
    assert tracer.counts["arena.e3.calls"] == cfg.experiment.measured_sis
    assert tracer.counts["coordination.calls"] > 0
    # the edge observer sums the sizes of the rows `adjacency` returns
    assert tracer.counts["adjacency.edges"] > 0


def test_a_traced_broadcast_window_sweep_runs_every_window_through_the_arena():
    cfg = default_config()
    multiples, seeds = (0.5, 1, 2), range(4)
    tracer = load_spans().Tracer(mesh=True, si=cfg.si)
    tracer.install()
    try:
        points = experiment.interval_sweep(cfg.mac, cfg.queue, 13, multiples=multiples,
                                           seeds=seeds, v_us=8_000.0)
    finally:
        tracer.uninstall()
    # one arena per seed, at the widest window, answers every window; an
    # arena that ran around `ContentionArena.run` would read short here
    assert tracer.counts["arena.mesh.calls"] == len(seeds)
    assert max(p.succeeded for p in points) <= tracer.counts["arena.mesh.tx"]
    assert tracer.counts["arena.mesh.tx"] <= points[0].attempted
    assert tracer.counts["experiment.calls"] == 1
    # the clique is built without `adjacency`, so its observer saw no rows
    assert tracer.counts["adjacency.calls"] == 0


def test_an_election_calls_both_traced_election_names(monkeypatch):
    # the tracer files both names under one `coordination` span, so its
    # count cannot tell whether an election still calls each of them
    calls = Counter()

    def counted(name):
        real = getattr(simulation, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in ("average_distance_to_sch", "elect_coordinators"):
        monkeypatch.setattr(simulation, name, counted(name))
    cfg = default_config()
    build_world(cfg).run_interval(cfg.experiment.warmup_sis, cfg.scheme.advertised_y).election
    assert calls["average_distance_to_sch"] >= 1
    assert calls["elect_coordinators"] >= 1


def test_the_three_csv_writers_run_through_the_wrapped_names():
    cfg = default_config()
    result = experiment.run_experiment(cfg)
    tracer = load_spans().Tracer(mesh=False, si=cfg.si)
    tracer.install()
    try:
        # a run's three tables, written as the benchmark writes them
        experiment.MetricsTable(rows=[result.metrics]).to_csv()
        experiment.elections_csv(result.election_rows)
        experiment.analytical_csv([result.analytic])
    finally:
        tracer.uninstall()
    # a writer that went around its wrapped name would leave the CSV layer reading zero
    assert tracer.counts["experiment.csv.calls"] >= 3
    assert tracer.counts["experiment.csv.bytes"] > 0
