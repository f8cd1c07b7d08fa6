"""All runs of one seed share one simulated world.

`run_sweep` steps each seed's world once, makes one snapshot per interval
for each (y, flooding) pair and runs every scheme of that cell on it, so all
cells of one seed share that seed's mobility, sensing and control-channel
storms; `run_experiment` runs one scheme on its own world.  Both must give
the same bytes, and a failure must stay inside the cells that caused it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter

import pytest

from mcwave import experiment, simulation
from mcwave.config import default_config
from mcwave.engine import Phase, si_index, si_phase
from mcwave.experiment import (
    MetricsTable,
    analytical_csv,
    elections_csv,
    run_experiment,
    run_sweep,
    trace_csv,
)
from mcwave.mobility import MobilityModel
from mcwave.simulation import World

GRID = dict(schemes=("cmd", "wsd", "legacy"), ys=(3, 5), floodings=("none", "shbf"))
SEEDS = (1, 2)


def _cell(base, y, scheme, flooding, seed):
    return dataclasses.replace(
        base,
        scheme=dataclasses.replace(base.scheme, scheme=scheme, flooding=flooding, advertised_y=y),
        experiment=dataclasses.replace(base.experiment, seed=seed),
    )


def _grid_order(seeds=SEEDS, grid=GRID):
    for y in grid["ys"]:
        for scheme in grid["schemes"]:
            for flooding in grid["floodings"]:
                for seed in seeds:
                    yield y, scheme, flooding, seed


def _sweep_text(sweep) -> str:
    return sweep.table.to_csv() + analytical_csv(sweep.analytic_rows)


def _one_world_per_run_text(base, grid=GRID) -> str:
    table = MetricsTable()
    analytic = []
    for y, scheme, flooding, seed in _grid_order(grid=grid):
        label = f"y={y}/scheme={scheme}/flooding={flooding}"
        result = run_experiment(_cell(base, y, scheme, flooding, seed))
        table.rows.append(dataclasses.replace(result.metrics, sweep_point=label))
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

    def legacy_breaks(cfg, snap, emergency, advance):
        if cfg.scheme == "legacy":
            raise RuntimeError("legacy broke")
        return real(cfg, snap, emergency, advance)

    monkeypatch.setattr(experiment, "run_scheme", legacy_breaks)
    sweep = run_sweep(base, seeds=SEEDS, **GRID)
    assert sweep.failures == [
        (f"y={y}/scheme={scheme}/flooding={flooding}/seed={seed}", "legacy broke")
        for y, scheme, flooding, seed in _grid_order() if scheme == "legacy"
    ]
    assert _sweep_text(sweep) == _sweep_text(kept)


def test_a_failing_world_fails_every_cell_on_it(monkeypatch):
    real = World.run_interval

    def seed_2_breaks(self, si_index, y, flooding=False, legacy=None):
        if self.seed == 2 and si_index == 7:
            raise RuntimeError("world broke")
        return real(self, si_index, y, flooding, legacy)

    monkeypatch.setattr(World, "run_interval", seed_2_breaks)
    sweep = run_sweep(default_config(), seeds=SEEDS, **GRID)
    assert sweep.failures == [
        (f"y={y}/scheme={scheme}/flooding={flooding}/seed={seed}", "world broke")
        for y, scheme, flooding, seed in _grid_order() if seed == 2
    ]
    assert [row.seed for row in sweep.table.rows] == [1] * 12
    with pytest.raises(RuntimeError, match="world broke"):
        run_experiment(_cell(default_config(), 3, "cmd", "none", 2))


def test_delay_sweep_shape_matches_one_world_per_run():
    # three channel counts on one world per seed, as the delay sweep runs them
    grid = dict(schemes=("cmd", "wsd", "legacy"), ys=(3, 4, 5), floodings=("none",))
    sweep = run_sweep(default_config(), seeds=SEEDS, **grid)
    assert not sweep.failures
    assert _sweep_text(sweep) == _one_world_per_run_text(default_config(), grid)


def test_a_failing_world_fails_only_its_own_channel_count(monkeypatch):
    base = default_config()
    kept = run_sweep(base, seeds=SEEDS, **{**GRID, "ys": (3,)})
    real = World.run_interval

    def y_5_breaks(self, si, y, flooding=False, legacy=None):
        if y == 5 and si == 7:
            raise RuntimeError("y=5 broke")
        return real(self, si, y, flooding, legacy)

    monkeypatch.setattr(World, "run_interval", y_5_breaks)
    sweep = run_sweep(base, seeds=SEEDS, **GRID)
    assert sweep.failures == [
        (f"y={y}/scheme={scheme}/flooding={flooding}/seed={seed}", "y=5 broke")
        for y, scheme, flooding, seed in _grid_order() if y == 5
    ]
    assert _sweep_text(sweep) == _sweep_text(kept)


def test_a_failing_backdrop_fails_every_cell_of_its_seed(monkeypatch):
    # seed 2's mobility fails once, at interval 7; the (y, flooding) pairs
    # that ask after the first must get that failure too, not a second try at the step
    base = default_config()
    breaks_at = 7 * base.si.si_length
    real_world = experiment.World
    real_advance = MobilityModel.advance_to
    broken = []

    def build(cfg, trace=None):
        world = real_world(cfg, trace)
        if cfg.experiment.seed == 2:
            world.model.breaks_at = breaks_at
        return world

    def advance_to(self, t_us):
        if getattr(self, "breaks_at", None) == t_us:
            self.breaks_at = None
            broken.append(t_us)
            raise RuntimeError("mobility broke")
        return real_advance(self, t_us)

    monkeypatch.setattr(experiment, "World", build)
    monkeypatch.setattr(MobilityModel, "advance_to", advance_to)
    sweep = run_sweep(base, seeds=SEEDS, **GRID)
    assert broken == [breaks_at]
    assert sweep.failures == [
        (f"y={y}/scheme={scheme}/flooding={flooding}/seed={seed}", "mobility broke")
        for y, scheme, flooding, seed in _grid_order() if seed == 2
    ]
    assert [row.seed for row in sweep.table.rows] == [1] * 12


def _count_control_work(monkeypatch, si_cfg):
    """Count the control-channel storms by (interval, phase, flooding) and the elections by interval."""
    storms, elections = Counter(), Counter()
    real_run = simulation.ContentionArena.run
    real_coordinate = simulation.coordinate

    def count_storms(arena):
        phase = si_phase(arena.window_start, si_cfg)
        if phase in (Phase.E1, Phase.E3):
            storms[si_index(arena.window_start, si_cfg), phase, arena.flooding] += 1
        return real_run(arena)

    def count_elections(interval, *args):
        elections[interval] += 1
        return real_coordinate(interval, *args)

    monkeypatch.setattr(simulation.ContentionArena, "run", count_storms)
    monkeypatch.setattr(simulation, "coordinate", count_elections)
    return storms, elections


def test_a_seed_steps_mobility_and_the_control_storms_once(monkeypatch):
    base = default_config()
    exp = base.experiment
    # skipping the warm-up intervals moves no vehicle: a model sensed at every
    # interval puts each one where the first measured interval finds it
    stepped = World(base).model
    for si in range(exp.warmup_sis + 1):
        stepped.advance_to(si * base.si.si_length)
        every = stepped.positions_at(si * base.si.si_length)
    assert World(base).sense(exp.warmup_sis).positions == dict(every)
    positions_calls = []
    real_positions = MobilityModel.positions_at

    def count_positions(self, t_us):
        positions_calls.append(t_us)
        return real_positions(self, t_us)

    monkeypatch.setattr(MobilityModel, "positions_at", count_positions)
    storms, elections = _count_control_work(monkeypatch, base.si)
    sweep = run_sweep(base, seeds=[1], **GRID)
    assert not sweep.failures
    total_sis = exp.warmup_sis + exp.measured_sis
    emergency_si = exp.warmup_sis + exp.emergency_si_offset
    legacy_si = emergency_si + 1
    # the warm-up intervals are neither sensed nor stormed
    assert positions_calls == [si * base.si.si_length for si in range(exp.warmup_sis, total_sis)]
    # a sweep reads an election only where the emergency fires: one averages
    # storm for the seed there, and one election for each of its four (y, flooding) pairs
    expected = Counter({(emergency_si, Phase.E3, False): 1})
    for si in range(exp.warmup_sis, total_sis):
        for flooding in (False, True):
            # legacy's status storm with its frame is the same at every y,
            # so it is simulated once per flooding mode
            expected[si, Phase.E1, flooding] = 2 if si == legacy_si else 1
    assert storms == expected
    assert elections == Counter({emergency_si: 4})


def test_a_seed_folds_each_status_table_it_reads_once(monkeypatch):
    # cmd's election and wsd's channel ranking read one status table, folded
    # once per (y, flooding) snapshot where the emergency fires; wsd reads it
    # without an election, so a wsd-only sweep runs no averages storm
    base = default_config()
    emergency_si = base.experiment.warmup_sis + base.experiment.emergency_si_offset
    folds, calls = Counter(), []
    real_read, real_fold = simulation.SiSnapshot.heard_on.fget, simulation.status_table

    def count_reads(snap):
        if snap._heard_on is None:   # this read folds the storm
            _phase, flooding, _frames = next(
                key for key, e1 in snap.interval.storms.items() if e1 is snap.e1)
            folds[snap.interval.si_index, snap.y, flooding] += 1
        return real_read(snap)

    def count_folds(*args):
        calls.append(args)
        return real_fold(*args)

    monkeypatch.setattr(simulation.SiSnapshot, "heard_on", property(count_reads))
    monkeypatch.setattr(simulation, "status_table", count_folds)
    storms, elections = _count_control_work(monkeypatch, base.si)
    expected = Counter({(emergency_si, y, flooding): 1
                        for y in GRID["ys"] for flooding in (False, True)})
    for schemes in (GRID["schemes"], ("wsd",)):
        for counter in (folds, calls, storms, elections):
            counter.clear()
        assert not run_sweep(base, seeds=[1], **{**GRID, "schemes": schemes}).failures
        assert folds == expected and len(calls) == len(expected)
    assert not [key for key in storms if key[1] == Phase.E3] and not elections


def test_a_seed_picks_channels_and_samples_reach_once_per_interval(monkeypatch):
    # the picks depend on (interval, y) only, and the status storm's
    # receptions, read once for its reach samples, on that storm only, so
    # both flooding modes share the picks, and every y shares the
    # receptions; each is kept on the interval record
    base = default_config()
    exp = base.experiment
    picks, samples = Counter(), Counter()
    real_pick, real_heard = World.pick_channels, simulation.status_heard

    def count_picks(self, si_index, ids, y):
        picks[si_index, y] += 1
        return real_pick(self, si_index, ids, y)

    def count_samples(si_index, ids, e1):
        samples[si_index] += 1
        return real_heard(si_index, ids, e1)

    monkeypatch.setattr(World, "pick_channels", count_picks)
    monkeypatch.setattr(simulation, "status_heard", count_samples)
    sweep = run_sweep(base, seeds=[1], **GRID)
    assert not sweep.failures
    measured = range(exp.warmup_sis, exp.warmup_sis + exp.measured_sis)
    legacy_si = exp.warmup_sis + exp.emergency_si_offset + 1
    assert picks == Counter({(si, y): 1 for si in measured for y in GRID["ys"]})
    # one status storm per flooding mode, and legacy's re-run storm per mode
    expected = Counter({si: 2 for si in measured})
    expected[legacy_si] += 2
    assert samples == expected


@pytest.mark.parametrize("scheme,base", [
    ("cmd", default_config()), ("legacy", default_config()), ("legacy", _late_emergency_config()),
], ids=["cmd", "legacy", "legacy-late-emergency"])
def test_a_run_elects_in_every_interval_it_steps(monkeypatch, scheme, base):
    # simulate writes every measured interval's election, so each has one
    # averages storm and one election; legacy's re-run interval, past the
    # measured ones when the emergency fires in the last, has its status
    # storm only, since no output reads its election
    exp = base.experiment
    measured = range(exp.warmup_sis, exp.warmup_sis + exp.measured_sis)
    stepped = list(measured)
    legacy_si = exp.warmup_sis + exp.emergency_si_offset + 1
    if scheme == "legacy" and legacy_si not in stepped:
        stepped.append(legacy_si)
    storms, elections = _count_control_work(monkeypatch, base.si)
    result = run_experiment(_cell(base, 3, scheme, "none", 1))
    # elections.csv lists the measured intervals only
    assert {row.si_index for row in result.election_rows} == set(measured)
    expected = Counter({(si, Phase.E1, False): 1 for si in stepped})
    expected.update({(si, Phase.E3, False): 1 for si in measured})
    assert storms == expected
    assert elections == Counter(measured)


def test_a_sweep_never_runs_an_averages_storm_no_output_reads(monkeypatch):
    # the averages storm fails everywhere but at the emergency interval: a
    # sweep never runs it there, while a run, which writes every election, fails
    base = default_config()
    exp = base.experiment
    kept = run_sweep(base, seeds=SEEDS, **GRID)
    real_run = simulation.ContentionArena.run

    def averages_break(arena):
        window = arena.window_start
        if (si_phase(window, base.si) == Phase.E3
                and si_index(window, base.si) != exp.warmup_sis + exp.emergency_si_offset):
            raise RuntimeError("averages broke")
        return real_run(arena)

    monkeypatch.setattr(simulation.ContentionArena, "run", averages_break)
    sweep = run_sweep(base, seeds=SEEDS, **GRID)
    assert not sweep.failures
    assert _sweep_text(sweep) == _sweep_text(kept)
    with pytest.raises(RuntimeError, match="averages broke"):
        run_experiment(_cell(base, 3, "cmd", "none", 1))


def test_the_backdrop_cannot_rewind():
    world = World(default_config())
    latest = world.sense(6)
    assert world.storm(latest, Phase.E3) is world.storm(latest, Phase.E3)
    with pytest.raises(ValueError, match="cannot rewind"):
        world.sense(5)
    # a refused request leaves the latest interval as it was
    assert world.sense(6) is latest


def test_a_failed_storm_is_not_kept(monkeypatch):
    # a storm that fails once is simulated again when asked again, and no
    # later request inherits its failure
    world = World(default_config())
    interval = world.sense(6)
    real_run = simulation.ContentionArena.run
    fails = [RuntimeError("storm broke")]

    def breaks_once(arena):
        if fails:
            raise fails.pop()
        return real_run(arena)

    monkeypatch.setattr(simulation.ContentionArena, "run", breaks_once)
    with pytest.raises(RuntimeError, match="storm broke"):
        world.storm(interval, Phase.E1)
    again = world.storm(interval, Phase.E1)
    fresh = World(default_config())
    assert again.first_delivery == fresh.storm(fresh.sense(6), Phase.E1).first_delivery
    assert world.sense(7).si_index == 7


#: sha256 of the metrics, elections, analytical and trace CSVs that
#: `mcwave simulate --trace` writes for the default configuration
#: (the warm-up intervals are not simulated, so the trace starts at the first
#: measured interval)
SIMULATE_SHA256 = {
    "cmd": {
        "metrics": "f8618e374a849cd6903463ab9e6a493f8a4de205e026b4cb10cf5b7b7dfcfba9",
        "elections": "89a42525389b03c05f83c7d31f68169c72495cc7d4e4a8167964c9338d30982e",
        "analytical": "bf240ea94cfe34044d9e0520efcfcb6dcd61e810b7ae058a77d6a87e64d133fc",
        "trace": "12c597471ff2e568b4f7105aedb38928ca6e5526743fe236db711a98b1660f9c",
    },
    "legacy": {
        "metrics": "3128594658ed9788270a3033108e0e6df2475db8fe442d64bad0907ddfa4a72e",
        "elections": "422d87dbd4ce8120da0d556abe2b46e459a05849c282eb0e29f5a02806170b03",
        "analytical": "422874fd3ab9d264846bbeaf3f510556138bbbc25526c59fb93a04e0d8b8f2b9",
        "trace": "bebe5acb6faabf443c405ecdf79bb2fe420883eaea4ff7d305c44ee9f446cc43",
    },
    "wsd": {
        "metrics": "cdc4a915d5b30e36f1bbaafb4d6cdd3da7a23972150317a6de27c92d8ab87a07",
        "elections": "89a42525389b03c05f83c7d31f68169c72495cc7d4e4a8167964c9338d30982e",
        "analytical": "cf121abccd3bb8d22ae95c50d16c42fb64ce9184776e836e9c80c77a2035e8b9",
        "trace": "e53b2a74a3aab8b2bfe612b96fa34f3c1aca9f9a8548e087cfde78c60da389cc",
    },
}


@pytest.mark.parametrize("scheme", sorted(SIMULATE_SHA256))
def test_simulate_outputs_are_pinned(scheme):
    base = default_config()
    cfg = dataclasses.replace(
        base,
        scheme=dataclasses.replace(base.scheme, scheme=scheme),
    )
    result = run_experiment(cfg, trace=True)
    outputs = {
        "metrics": MetricsTable(rows=[result.metrics]).to_csv(),
        "elections": elections_csv(result.election_rows),
        "analytical": analytical_csv([result.analytic]),
        "trace": trace_csv(result.trace_rows),
    }
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}
    assert digests == SIMULATE_SHA256[scheme]


#: sha256 of the same four CSVs for a dense static run: 160 vehicles placed
#: at once (no spawn ramp) on the default grid, four measured intervals with
#: the emergency in the second.  Every vehicle senses about eleven others, so
#: frames freeze many countdowns, and shbf's rebroadcasts land on vehicles
#: that have already sent their own frame.
DENSE_SHA256 = {
    ("cmd", "none"): {
        "metrics": "117f007222bdc8d0ba52159dea8040212fe37f01f2ad39a8f3c071464793a7bc",
        "elections": "f081d655324404b7cc6a51b1e9900deae400476a628c0cadd2472c8e01cf86ee",
        "analytical": "bf240ea94cfe34044d9e0520efcfcb6dcd61e810b7ae058a77d6a87e64d133fc",
        "trace": "8deafa503843ba9f7d49f58133d2805c9d11050128e0abb51c7dde99e4195c68",
    },
    ("cmd", "shbf"): {
        "metrics": "12cf992574f53cec426a08e272c1c75bba0e050f4268bf214a0a7a04f440fdaa",
        "elections": "e9f29b5a403d65546455c24387773ff3795e1c14fcacebb5b05d177c5009b4aa",
        "analytical": "bf240ea94cfe34044d9e0520efcfcb6dcd61e810b7ae058a77d6a87e64d133fc",
        "trace": "17dece2984ffb773b27a6e71d34f0152b58817fd8033477f57a700c7bca19583",
    },
    ("legacy", "none"): {
        "metrics": "4a3d31112be37ce1e5d5663cda087de31d548bd52a6cc99e7e67abab7871f16b",
        "elections": "f1334d54f807cd7dd03b7cf59052f41cf00a8db68899fa90409a52837ad9ef29",
        "analytical": "5c3fbd938aca870823cf63bde6b248fa3e2831f5a43676a0918e61cb63eca499",
        "trace": "e75f98a5f634132ffc23a0ddc04cf1aafef90efcd0c2baf46afc461ee0981c59",
    },
    ("legacy", "shbf"): {
        "metrics": "25ae96185e58dd63be7bde6efadf057aacbcc6d7becfc880d93ff9851488f6f8",
        "elections": "79b4eb6f4996c8e8e8dcf2ba9f9345e234fea9c4efbbe2004db4ec3ddb0f239f",
        "analytical": "5c3fbd938aca870823cf63bde6b248fa3e2831f5a43676a0918e61cb63eca499",
        "trace": "87b4b3e8108455949713b444103f5c9cc4634b762a7485116afafe325b36458f",
    },
}


@pytest.mark.parametrize("scheme,flooding", sorted(DENSE_SHA256))
def test_dense_static_outputs_are_pinned(scheme, flooding):
    base = default_config()
    cfg = dataclasses.replace(
        base,
        mobility=dataclasses.replace(base.mobility, vehicle_count=160, spawn_process=0.0),
        scheme=dataclasses.replace(base.scheme, scheme=scheme, flooding=flooding),
        experiment=dataclasses.replace(base.experiment, measured_sis=4, emergency_si_offset=1),
    )
    result = run_experiment(cfg, trace=True)
    outputs = {
        "metrics": MetricsTable(rows=[result.metrics]).to_csv(),
        "elections": elections_csv(result.election_rows),
        "analytical": analytical_csv([result.analytic]),
        "trace": trace_csv(result.trace_rows),
    }
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}
    assert digests == DENSE_SHA256[scheme, flooding]
