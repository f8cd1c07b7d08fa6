"""Schemes of one sweep cell share one simulated world.

`run_sweep` steps each (y, flooding, seed) world once and runs every scheme
on it; `run_experiment` runs one scheme on its own world.  Both must give
the same bytes, and a failure must stay inside the cell that caused it.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from mcwave import experiment
from mcwave.config import default_config
from mcwave.experiment import (
    MetricsTable,
    analytical_csv,
    elections_csv,
    run_experiment,
    run_sweep,
    trace_csv,
)
from mcwave.simulation import World

GRID = dict(schemes=("cmd", "wsd", "legacy"), ys=(3, 5), floodings=("none", "shbf"))
SEEDS = (1, 2)


def _cell(base, y, scheme, flooding, seed):
    return dataclasses.replace(
        base,
        scheme=dataclasses.replace(base.scheme, scheme=scheme, flooding=flooding, advertised_y=y),
        experiment=dataclasses.replace(base.experiment, seed=seed),
    )


def _grid_order(seeds=SEEDS):
    for y in GRID["ys"]:
        for scheme in GRID["schemes"]:
            for flooding in GRID["floodings"]:
                for seed in seeds:
                    yield y, scheme, flooding, seed


def _sweep_text(sweep) -> str:
    return sweep.table.to_csv() + analytical_csv(sweep.analytic_rows)


def _one_world_per_run_text(base) -> str:
    table = MetricsTable()
    analytic = []
    for y, scheme, flooding, seed in _grid_order():
        label = f"y={y}/scheme={scheme}/flooding={flooding}"
        result = run_experiment(_cell(base, y, scheme, flooding, seed), sweep_point=label)
        table.rows.append(result.metrics)
        analytic.append(result.analytic)
    return table.to_csv() + analytical_csv(analytic)


def _late_emergency_config():
    base = default_config()
    return dataclasses.replace(base, experiment=dataclasses.replace(
        base.experiment, emergency_si_offset=base.experiment.measured_sis - 1))


@pytest.mark.parametrize("base", [default_config(), _late_emergency_config()],
                         ids=["default", "late-emergency"])
def test_shared_world_sweep_matches_one_world_per_run(base):
    # late-emergency: legacy's broadcast lands one interval past the last
    # measured one, so its re-run interval is never stepped plainly
    sweep = run_sweep(base, seeds=SEEDS, **GRID)
    assert not sweep.failures
    assert _sweep_text(sweep) == _one_world_per_run_text(base)


def test_a_failing_scheme_fails_only_its_own_cells(monkeypatch):
    base = default_config()
    kept = run_sweep(base, seeds=SEEDS, **{**GRID, "schemes": ("cmd", "wsd")})
    real = experiment.run_scheme

    def legacy_breaks(cfg, scenario, emergency):
        if cfg.scheme == "legacy":
            raise RuntimeError("legacy broke")
        return real(cfg, scenario, emergency)

    monkeypatch.setattr(experiment, "run_scheme", legacy_breaks)
    sweep = run_sweep(base, seeds=SEEDS, **GRID)
    assert sweep.failures == [
        (f"y={y}/scheme={scheme}/flooding={flooding}/seed={seed}", "legacy broke")
        for y, scheme, flooding, seed in _grid_order() if scheme == "legacy"
    ]
    assert _sweep_text(sweep) == _sweep_text(kept)


def test_a_failing_world_fails_every_cell_on_it(monkeypatch):
    real = World.run_interval

    def seed_2_breaks(self, si_index, legacy_frames=()):
        if self.seed == 2 and si_index == 7:
            raise RuntimeError("world broke")
        return real(self, si_index, legacy_frames)

    monkeypatch.setattr(World, "run_interval", seed_2_breaks)
    sweep = run_sweep(default_config(), seeds=SEEDS, **GRID)
    assert sweep.failures == [
        (f"y={y}/scheme={scheme}/flooding={flooding}/seed={seed}", "world broke")
        for y, scheme, flooding, seed in _grid_order() if seed == 2
    ]
    assert [row.seed for row in sweep.table.rows] == [1] * 12
    with pytest.raises(RuntimeError, match="world broke"):
        run_experiment(_cell(default_config(), 3, "cmd", "none", 2))


#: sha256 of the metrics, elections, analytical and trace CSVs that
#: `mcwave simulate --trace` writes for the default configuration
SIMULATE_SHA256 = {
    "cmd": {
        "metrics": "f8618e374a849cd6903463ab9e6a493f8a4de205e026b4cb10cf5b7b7dfcfba9",
        "elections": "89a42525389b03c05f83c7d31f68169c72495cc7d4e4a8167964c9338d30982e",
        "analytical": "bf240ea94cfe34044d9e0520efcfcb6dcd61e810b7ae058a77d6a87e64d133fc",
        "trace": "54e482a977d9a10fa266b5af3d80b57125cdec9265eade166a06b2b8508cc9eb",
    },
    "legacy": {
        "metrics": "3128594658ed9788270a3033108e0e6df2475db8fe442d64bad0907ddfa4a72e",
        "elections": "422d87dbd4ce8120da0d556abe2b46e459a05849c282eb0e29f5a02806170b03",
        "analytical": "422874fd3ab9d264846bbeaf3f510556138bbbc25526c59fb93a04e0d8b8f2b9",
        "trace": "812feb3d4bdfd9ab24b286c298f7a12533f37ddacf58bbe397b764296f01a6ba",
    },
}


@pytest.mark.parametrize("scheme", sorted(SIMULATE_SHA256))
def test_simulate_outputs_are_pinned(scheme):
    base = default_config()
    cfg = dataclasses.replace(
        base,
        scheme=dataclasses.replace(base.scheme, scheme=scheme),
        experiment=dataclasses.replace(base.experiment, trace=True),
    )
    result = run_experiment(cfg)
    outputs = {
        "metrics": MetricsTable(rows=[result.metrics]).to_csv(),
        "elections": elections_csv(result.election_rows),
        "analytical": analytical_csv([result.analytic]),
        "trace": trace_csv(result.trace_rows),
    }
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}
    assert digests == SIMULATE_SHA256[scheme]
