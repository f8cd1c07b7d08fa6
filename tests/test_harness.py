"""Configuration loading, experiment orchestration, output files, and the CLI."""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import fmean
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcwave import cli, experiment
from mcwave.analytics import broadcast_window
from mcwave.config import (
    _SECTION_TYPES,
    ConfigError,
    ExperimentConfig,
    default_config,
    example_ini,
    load_config,
)
from mcwave.experiment import (
    AnalyticRow,
    MetricsTable,
    _fmt,
    analytic_preview,
    analytical_csv,
    elections_csv,
    emit_csv,
    interval_sweep,
    reachability_cdf,
    run_experiment,
    run_sweep,
)
from mcwave.mac import MacParams
from mcwave.simulation import ContentionArena, ElectionRow

from helpers import METRICS_HEADER


# ---------------------------------------------------------------------------
# Configuration machinery
# ---------------------------------------------------------------------------


def test_defaults_describe_the_reference_scenario():
    cfg = default_config()
    assert (cfg.si.guard, cfg.si.e1, cfg.si.e2, cfg.si.e3, cfg.si.schi) == (
        4_000, 26_000, 5_000, 15_000, 50_000)
    assert cfg.si.si_length == 100_000
    assert cfg.network.width == cfg.network.height == 1500.0
    assert cfg.mobility.vehicle_count == 50
    assert cfg.scheme.scheme == "cmd"
    assert cfg.scheme.switching_delay_us == 2_000
    assert cfg.queue.mu == 10_000.0


def test_file_values_override_the_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[si]\ne3 = 20000\nschi = 45000\n\n"
        "[mobility]\nvehicle_count = 10\n\n"
        "[scheme]\nscheme = wsd\nadvertised_y = 4\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.si.cchi == 55_000
    assert cfg.mobility.vehicle_count == 10
    assert cfg.scheme.scheme == "wsd"
    assert cfg.scheme.advertised_y == 4
    # untouched sections keep their defaults
    assert cfg.radio.gamma1 == 1.9


def test_overrides_take_precedence_over_the_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[experiment]\nseed = 5\n", encoding="utf-8")
    cfg = load_config(path, overrides={"experiment": {"seed": "9"}})
    assert cfg.experiment.seed == 9


def test_queue_lambda_alias_is_accepted(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[queue]\nlambda = 25.0\n", encoding="utf-8")
    assert load_config(path).queue.lambda_ == 25.0


def test_the_field_spelling_of_an_aliased_key_is_rejected():
    # `validate-config` prints only `lambda`, so `lambda_` is a second spelling
    with pytest.raises(ConfigError, match=r"\[queue\] lambda_: unknown key.*'lambda'"):
        load_config(overrides={"queue": {"lambda_": "5"}})


def test_unknown_section_and_key_are_rejected(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[propulsion]\nwarp = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="propulsion"):
        load_config(bad_section)
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[mac]\ncw_minimum = 15\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="cw_minimum"):
        load_config(bad_key)


@pytest.mark.parametrize("section, key, value", [
    ("radio", "tx_range_policy", "shadowed"),
    ("mac", "cw_max", "256"),
    ("network", "lane_per_street", "1"),
    # derived from the slots: guard + e1 + e2 + e3, and cchi + schi
    ("si", "cchi", "50000"),
    ("si", "si_length", "100000"),
    # the trace is an output of `simulate --trace`, not a setting of the run
    ("experiment", "trace", "true"),
])
def test_keys_that_change_nothing_are_rejected(tmp_path, section, key, value):
    path = tmp_path / "inert.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: unknown key"):
        load_config(path)


def three_interval_run(*setting: str):
    """A three-interval run, with one (section, key, value) set."""
    overrides = {"experiment": {"measured_sis": "3", "emergency_si_offset": "1"}}
    if setting:
        section, key, value = setting
        overrides.setdefault(section, {})[key] = value
    return run_experiment(load_config(overrides=overrides))


def simulated_bytes(*setting: str) -> str:
    """metrics.csv and elections.csv of a three-interval run, with one (section, key, value) set."""
    result = three_interval_run(*setting)
    return MetricsTable(rows=[result.metrics]).to_csv() + elections_csv(result.election_rows)


CLOSED_FORM_SETTINGS = [
    ("radio", "x_sigma1", "0"),
    ("radio", "x_sigma2", "12"),
    ("traffic", "beta", "0.05"),
    ("queue", "lambda", "50"),
    ("queue", "b_capacity", "2"),
]


@pytest.mark.parametrize("section, key, value", CLOSED_FORM_SETTINGS)
def test_closed_form_keys_move_no_simulated_byte(section, key, value):
    # README lists these five keys as moving only the closed-form side
    assert simulated_bytes(section, key, value) == simulated_bytes()


def test_simulate_refuses_exactly_the_keys_that_move_none_of_its_bytes():
    # the two queue keys move analytical.csv, which simulate writes too
    inert = {(section, key) for section, key, _ in CLOSED_FORM_SETTINGS} - {
        ("queue", "lambda"), ("queue", "b_capacity")}
    reads, cfg = cli.READS["simulate"], default_config()
    refused = set()
    for section in (f.name for f in dataclasses.fields(cfg)):
        keys = reads.get(section, set())
        refused |= {(section, f.name) for f in dataclasses.fields(getattr(cfg, section))
                    if keys is not None and f.name not in keys}
    assert refused == inert


@pytest.mark.parametrize("key, value", [("lambda", "50"), ("b_capacity", "2")])
def test_the_queue_keys_move_the_closed_form_bytes(key, value):
    # why simulate reads them, though they move no simulated byte
    def closed_form(*setting: str) -> str:
        return analytical_csv([three_interval_run(*setting).analytic])

    assert closed_form("queue", key, value) != closed_form()


def test_the_queue_service_rate_moves_the_simulated_bytes():
    # the hand-offs draw from queue.mu, so the comparison above can see a change
    assert simulated_bytes("queue", "mu", "500") != simulated_bytes()


def test_a_negative_eifs_is_rejected_when_the_config_loads(tmp_path):
    # EIFS is derived from sifs, difs and the frame airtime, so it is no key;
    # "none" is what older snapshots of the defaults wrote for it
    path = tmp_path / "eifs.ini"
    for value in ("-700", "none"):
        path.write_text(f"[mac]\neifs = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"\[mac\] eifs: unknown key"):
            load_config(path)


def test_every_config_field_is_a_type_the_loader_reads():
    for name, section_cls in _SECTION_TYPES.items():
        hints = get_type_hints(section_cls)
        for f in dataclasses.fields(section_cls):
            assert hints[f.name] in (int, float, str), f"[{name}] {f.name}"


def test_type_errors_name_the_section_and_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[mac]\ncw_min = many\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[mac\] cw_min: expected int"):
        load_config(path)


def test_example_ini_round_trips(tmp_path):
    cfg = default_config()
    path = tmp_path / "echo.ini"
    path.write_text(example_ini(cfg), encoding="utf-8")
    assert load_config(path) == cfg


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="emergency_si_offset"):
        ExperimentConfig(measured_sis=10, emergency_si_offset=10)
    with pytest.raises(ValueError, match="warmup_sis"):
        ExperimentConfig(warmup_sis=-1)


@pytest.mark.parametrize("schi", [default_config().si.schi, 45_000])
def test_a_reserve_that_fills_the_service_window_is_rejected(schi):
    def with_reserve(reserve):
        return load_config(overrides={"si": {"schi": str(schi)},
                                      "experiment": {"invocation_reserve_us": str(reserve)}})

    # the invocation would fall on the window's first microsecond whatever the draw
    for reserve in (schi, schi + 10_000):
        with pytest.raises(ConfigError, match=r"invocation_reserve_us.*si\.schi"):
            with_reserve(reserve)
    assert with_reserve(schi - 1).experiment.invocation_reserve_us == schi - 1


def test_a_turn_probability_the_default_grid_never_reads_is_rejected():
    # on a 2 x 2 grid every intersection is a corner, so every turn is forced
    for value in ("0.0", "1.0"):
        with pytest.raises(ConfigError, match=r"\[mobility\] turn_probability"):
            load_config(overrides={"mobility": {"turn_probability": value}})
    assert load_config(overrides={"mobility": {"turn_probability": "0.5"}}) == default_config()
    # one more street gives T-junctions, where a vehicle may go straight or turn
    wider = load_config(overrides={"network": {"vertical_streets": "3"},
                                   "mobility": {"turn_probability": "0.0"}})
    assert wider.mobility.turn_probability == 0.0


# ---------------------------------------------------------------------------
# Experiment orchestration and serialization
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_run():
    return run_experiment(default_config())


def test_run_produces_a_coherent_report(default_run):
    report = default_run.report
    cfg = default_config()
    row = default_run.metrics
    assert (row.scheme, row.y) == (cfg.scheme.scheme, cfg.scheme.advertised_y)
    # delivery targets exclude channels nobody populates
    for ch in report.unreached_channels:
        assert ch not in report.per_channel_delays_us
    if report.total_delay_us is not None:
        earliest = [min(delays) for delays in report.per_channel_delays_us.values()]
        assert report.total_delay_us == max(earliest)
        assert min(earliest) >= 0
    # the legs run in depth order, so none that delivered lies deeper than the last
    assert report.relay_depth is None or report.relay_depth <= report.switch_count + 1
    if report.prr is not None:
        assert 0.0 <= report.prr <= 1.0


def test_metrics_row_mirrors_the_report(default_run):
    row = default_run.metrics
    report = default_run.report
    assert row.residual_wait_us == report.residual_wait_us
    assert row.total_delay_us == report.total_delay_us
    assert row.switch_count == report.switch_count
    assert row.unreached_channels == len(report.unreached_channels)
    assert all(0.0 <= s <= 1.0 for s in row.reachability_samples)


def test_analytic_row_composes_the_hop_delay(default_run):
    row = default_run.analytic
    assert row.e_d_us == pytest.approx(row.e_q_us + row.e_c_us + row.e_t_us)
    assert row.e_t_us == pytest.approx(1600 / 3, abs=1e-6)
    assert row.t_d_us > 0


def test_election_rows_cover_measured_intervals(default_run):
    warmup = default_config().experiment.warmup_sis
    assert default_run.election_rows, "no elections were recorded"
    for row in default_run.election_rows:
        assert row.si_index >= warmup
        assert row.cluster_k != row.target_z


def test_csv_rendering_is_stable(default_run):
    table = MetricsTable(rows=[default_run.metrics])
    text = table.to_csv()
    header, line = text.strip().split("\n")
    assert header == METRICS_HEADER
    assert line.startswith(f"{default_config().experiment.seed},")
    assert elections_csv(default_run.election_rows).startswith(
        "si_index,cluster_k,target_z,coordinator_id,lad_m,duplicates_count"
    )
    assert analytical_csv([default_run.analytic]).startswith("seed,scheme,y,n_contenders")


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(value=st.one_of(
    st.floats(),
    st.sampled_from([0.0078125, 3 * 2.0**-21, 2.0**-20, 5e-7, -0.0, 1e22]),
    st.integers(-10**6, 10**6).map(lambda k: k * 2.0**-21),   # ties at the sixth decimal
    st.integers(),
    st.none(),
))
def test_cells_are_written_as_numpys_positional_format(value):
    if value is None:
        want = ""
    elif isinstance(value, int):
        want = str(value)
    else:
        want = np.format_float_positional(value, precision=6, unique=False, trim="k")
    assert _fmt(value) == want


#: cells of each plain field type: negative and huge ints, and every float,
#: the non-finite, signed-zero, huge and subnormal among them
PLAIN_CELLS = {
    "int": st.integers(),
    "float": st.one_of(st.floats(), st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])),
    "str": st.text(),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), row_type=st.sampled_from([ElectionRow, AnalyticRow]),
       n_rows=st.integers(0, 4))
def test_a_plain_row_is_written_as_its_cells_are(data, row_type, n_rows):
    columns = dataclasses.fields(row_type)
    rows = [row_type(*(data.draw(PLAIN_CELLS[f.type]) for f in columns)) for _ in range(n_rows)]
    lines = [",".join(f.name for f in columns)]
    lines.extend(",".join(_fmt(getattr(row, f.name)) for f in columns) for row in rows)
    per_cell = "\n".join(lines) + "\n"
    writer = elections_csv if row_type is ElectionRow else analytical_csv
    assert writer(rows) == per_cell


def test_only_a_metrics_table_formats_cell_by_cell(default_run, monkeypatch):
    cells = []
    real = experiment._fmt
    monkeypatch.setattr(experiment, "_fmt", lambda value: cells.append(value) or real(value))
    elections_csv(default_run.election_rows)
    analytical_csv([default_run.analytic])
    assert default_run.election_rows and cells == []
    MetricsTable(rows=[default_run.metrics]).to_csv()
    # each cell, then the entries of a dict or list cell that is not all floats
    assert cells[0] == default_run.metrics.seed
    assert len(cells) >= len(dataclasses.fields(default_run.metrics))


def test_emit_csv_creates_parent_directories(tmp_path):
    target = tmp_path / "nested" / "out.csv"
    emit_csv(target, "a,b\n1,2\n")
    assert target.read_text(encoding="utf-8") == "a,b\n1,2\n"


def test_identical_configs_produce_identical_tables():
    a = run_experiment(default_config())
    b = run_experiment(default_config())
    assert MetricsTable(rows=[a.metrics]).to_csv() == MetricsTable(rows=[b.metrics]).to_csv()


def test_sweep_covers_the_grid_and_isolates_failures():
    cfg = default_config()
    sweep = run_sweep(cfg, seeds=[1, 2], schemes=["cmd", "legacy"], ys=[3], floodings=["none"])
    assert not sweep.failures
    assert len(sweep.table.rows) == 4
    assert len(sweep.analytic_rows) == 4
    seen = {(r.seed, r.scheme, r.y) for r in sweep.table.rows}
    assert seen == {(1, "cmd", 3), (2, "cmd", 3), (1, "legacy", 3), (2, "legacy", 3)}


@pytest.mark.parametrize("axis", ["schemes", "ys", "floodings"])
def test_an_empty_sweep_axis_is_refused(axis):
    # an empty axis names no cell
    axes = {"schemes": ["cmd"], "ys": [3], "floodings": ["none"], axis: []}
    with pytest.raises(ValueError, match=rf"^{axis}: "):
        run_sweep(default_config(), seeds=[1], **axes)


def test_a_run_with_no_vehicle_on_the_road_names_the_interval():
    base = default_config()
    # one arrival per 20 s on average: nobody has spawned by the emergency interval
    cfg = dataclasses.replace(base, mobility=dataclasses.replace(base.mobility, spawn_process=0.05))
    with pytest.raises(ValueError, match="interval 15: no vehicle is on the road"):
        run_experiment(cfg)


def collections_in_arenas(run) -> int:
    """Collections that start while a `ContentionArena.run` is on the stack during run().

    Every allocation is made to count toward a collection while it runs.
    """
    arena_code = ContentionArena.run.__code__
    started = []

    def hook(phase, info):
        frame = sys._getframe(1) if phase == "start" else None
        while frame is not None and frame.f_code is not arena_code:
            frame = frame.f_back
        if frame is not None:
            started.append(info["generation"])

    thresholds = gc.get_threshold()
    gc.set_threshold(1, 1, 1)
    gc.callbacks.append(hook)
    try:
        run()
    finally:
        gc.callbacks.remove(hook)
        gc.set_threshold(*thresholds)
    return len(started)


def test_no_collection_starts_inside_a_runs_arenas():
    cfg = default_config()
    assert collections_in_arenas(lambda: run_experiment(cfg)) == 0
    # the window sweep runs unpaused, so there the hook does see arenas collect
    assert collections_in_arenas(lambda: interval_sweep(
        cfg.mac, cfg.queue, 5, multiples=[1], seeds=[0], v_us=2000.0)) > 0


def interrupt(self, snap):
    raise KeyboardInterrupt


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_run_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    base = default_config()
    # one arrival per 20 s on average: nobody is on the road when the emergency fires
    empty = dataclasses.replace(
        base, mobility=dataclasses.replace(base.mobility, spawn_process=0.05))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run_experiment(base)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="no vehicle is on the road"):
            run_experiment(empty)
        assert gc.isenabled() is enabled
        # an interrupt is no run's failure: it leaves the seed's simulation mid-interval
        monkeypatch.setattr(experiment._SchemeRun, "take", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(base)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_analytic_preview_lists_every_scheme():
    rows = analytic_preview(default_config())
    assert sorted(r.scheme for r in rows) == ["cmd", "legacy", "wsd"]
    wsd = next(r for r in rows if r.scheme == "wsd")
    cmd = next(r for r in rows if r.scheme == "cmd")
    assert wsd.t_d_us > cmd.t_d_us


@given(
    samples=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50),
    grid=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20, unique=True),
)
def test_reachability_cdf_is_monotone_and_bounded(samples, grid):
    grid = sorted(grid)
    cdf = reachability_cdf(samples, grid)
    assert len(cdf) == len(grid)
    assert all(0.0 <= v <= 1.0 for v in cdf)
    assert all(a <= b for a, b in zip(cdf, cdf[1:]))


def test_reachability_cdf_counts_at_most_thresholds():
    cdf = reachability_cdf([0.1, 0.5, 0.9], [0.0, 0.5, 1.0])
    assert cdf == [0.0, pytest.approx(2 / 3), 1.0]


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args: str, cwd=None):
    # the package is imported from this checkout, with or without PYTHONPATH set
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-m", "mcwave.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_cli_simulate_writes_the_output_files(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("simulate", "--seed", "4", "--scheme", "cmd",
                   "--channels", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    for name in ("metrics.csv", "elections.csv", "analytical.csv"):
        assert (out / name).exists(), f"{name} missing"
    header = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == METRICS_HEADER


def test_cli_validate_config_round_trips(tmp_path):
    paper = tmp_path / "paper.ini"
    paper.write_text("[si]\ne3 = 20000\nschi = 45000\n", encoding="utf-8")
    proc = run_cli("validate-config", "--config", str(paper))
    assert proc.returncode == 0
    path = tmp_path / "echoed.ini"
    path.write_text(proc.stdout, encoding="utf-8")
    assert load_config(path).si.cchi == 55_000


def test_cli_rejects_bad_configuration(tmp_path):
    proc = run_cli("simulate", "--channels", "9", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "advertised_y" in proc.stderr


def test_cli_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[mac]\ncw_min = abc\n", encoding="utf-8")
    proc = run_cli("validate-config", "--config", str(bad))
    assert proc.returncode == 1
    assert "expected int" in proc.stderr


def test_cli_sweep_writes_aggregate_tables(tmp_path):
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--seeds", "1,2", "--schemes", "cmd",
                   "--ys", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "metrics.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3  # header + one row per (seed, scheme, y)


def test_cli_sweep_rejects_an_unknown_scheme_before_any_run(tmp_path):
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--seeds", "1", "--schemes", "cmd,bogus", "--out", str(out))
    assert proc.returncode == 1
    assert "scheme.scheme" in proc.stderr
    assert not out.exists()


def test_cli_sweep_with_an_empty_axis_is_a_usage_error(tmp_path):
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--seeds", "1", "--ys", ",", "--out", str(out))
    assert proc.returncode == 1
    assert "ys: " in proc.stderr
    assert not out.exists()


def test_cli_sweep_without_seeds_is_a_usage_error(tmp_path):
    # an empty seed list is no sweep at all, not a sweep whose every run failed
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--seeds", ",", "--out", str(out))
    assert proc.returncode == 1
    assert "at least one seed" in proc.stderr
    assert not out.exists()


def test_cli_sweep_with_an_empty_list_part_is_a_usage_error(tmp_path):
    # an empty part between values is a typo, not a value to drop
    for flag, values in (("--seeds", "1,,2"), ("--ys", "3,,5"), ("--schemes", "cmd,,wsd")):
        out = tmp_path / flag.strip("-")
        args = {"--seeds": "1", flag: values}
        proc = run_cli("sweep", *(a for kv in args.items() for a in kv), "--out", str(out))
        assert proc.returncode == 1, flag
        assert f"error: {flag}: " in proc.stderr
        assert not out.exists()


@pytest.mark.parametrize("axis", ["schemes", "ys", "floodings"])
def test_cli_sweep_with_an_empty_list_flag_is_a_usage_error(tmp_path, capsys, axis):
    # a given flag names the axis, even when empty: it never falls back to the config's value
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--seeds", "1", f"--{axis}", "", "--out", str(out)]) == 1
    assert f"error: {axis}: an empty axis is no sweep" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    # --seeds sets every run's seed; the list flags are the sweep's one spelling
    ("sweep", "--seed", "9"),
    ("sweep", "--scheme", "wsd"),
    ("sweep", "--channels", "4"),
    ("sweep", "--flooding", "shbf"),
    # the preview covers all three schemes and has no flooding term
    ("analyze", "--scheme", "legacy"),
    ("analyze", "--flooding", "shbf"),
    # it only prints
    ("validate-config", "--out", "elsewhere"),
    # the [si] keys set the interval layout
    ("simulate", "--preset", "std-50"),
])
def test_a_flag_that_changes_nothing_is_a_usage_error(capsys, command, flag, value):
    args = [command, flag, value, *(["--seeds", "1"] if command == "sweep" else [])]
    with pytest.raises(SystemExit) as exited:
        cli.main(args)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_simulate_and_validate_config_take_every_override_flag(tmp_path, capsys):
    flags = ["--seed", "3", "--scheme", "wsd", "--channels", "4", "--flooding", "shbf"]
    expected = {"experiment": {"seed": "3"},
                "scheme": {"scheme": "wsd", "advertised_y": "4", "flooding": "shbf"}}
    assert cli._overrides(cli.build_parser().parse_args(["simulate", *flags])) == expected
    assert cli.main(["validate-config", *flags]) == 0
    path = tmp_path / "echoed.ini"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert load_config(path) == load_config(overrides=expected) != default_config()


def test_cli_sweep_whose_every_run_fails_exits_all_failed(tmp_path):
    # at this arrival rate no vehicle is on the road when the emergency fires
    config = tmp_path / "slow.ini"
    config.write_text("[mobility]\nspawn_process = 0.05\n", encoding="utf-8")
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--config", str(config), "--seeds", "1,2", "--out", str(out))
    assert proc.returncode == 2
    assert "0 run(s) completed, 2 failed" in proc.stdout
    assert "no vehicle is on the road" in proc.stderr
    assert len((out / "metrics.csv").read_text(encoding="utf-8").splitlines()) == 1


def test_cli_sweep_prints_each_schemes_channel_means_on_its_own_row(tmp_path, capsys):
    assert cli.main(["sweep", "--seeds", "1,2", "--schemes", "cmd,legacy", "--ys", "3",
                     "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if line.split()[0] == "flooding")
    channels = [int(word) for word in header.split()[4::3]]
    printed = {line.split()[2]: line.split()[3:] for line in lines
               if line.split()[:2] == ["none", "3"]}
    sweep = run_sweep(default_config(), seeds=[1, 2], schemes=["cmd", "legacy"], ys=[3],
                      floodings=["none"])
    for scheme in ("cmd", "legacy"):
        rows = [r.per_channel_delays for r in sweep.table.rows if r.scheme == scheme]
        expected = [f"{np.mean([d[ch] for d in rows if ch in d]) / 1e3:.3f}"
                    if any(ch in d for d in rows) else "-" for ch in channels]
        assert printed[scheme] == expected, scheme
    # legacy waits for the next interval, so its means are nothing like cmd's
    assert printed["cmd"][0] != printed["legacy"][0]


def test_cli_sweep_prints_each_flooding_modes_mean_delay_on_its_own_row(tmp_path, capsys):
    assert cli.main(["sweep", "--seeds", "1,2", "--schemes", "cmd", "--ys", "3",
                     "--floodings", "none,shbf", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = {line.split()[2]: line.split()[3:] for line in lines
               if line.split()[:2] == ["3", "cmd"]}
    assert len(printed) == 2
    sweep = run_sweep(default_config(), seeds=[1, 2], schemes=["cmd"], ys=[3],
                      floodings=["none", "shbf"])
    for mode in ("none", "shbf"):
        runs = [(r, a) for r, a in zip(sweep.table.rows, sweep.analytic_rows)
                if r.flooding == mode]
        delivered = [(r, a) for r, a in runs if r.total_delay_us is not None]
        assert printed[mode] == [
            str(len(runs)), str(len(delivered)),
            f"{fmean(r.total_delay_us for r, _ in delivered) / 1e3:.2f}",
            f"{fmean(a.t_d_matched_us for _, a in delivered) / 1e3:.2f}"], mode


#: per experiment: its subcommand and arguments, and the header and data-row
#: count of each CSV it writes
@pytest.mark.parametrize("args,outputs", [
    (["sweep", "--seeds", "1,2", "--schemes", "cmd,wsd,legacy", "--ys", "3"],
     {"metrics.csv": ("seed,sweep_point,scheme,y", 6), "analytical.csv": ("seed,scheme,y", 6),
      "reachability_cdf.csv": ("fraction_reached,cdf_none", 21)}),
    (["sweep", "--seeds", "1,2", "--schemes", "cmd", "--ys", "3", "--floodings", "none,shbf"],
     {"metrics.csv": ("seed,sweep_point,scheme,y", 4), "analytical.csv": ("seed,scheme,y", 4),
      "reachability_cdf.csv": ("fraction_reached,cdf_none,cdf_shbf", 21)}),
    (["window-sweep", "--seeds", "0,1", "--multiples", "0.5,1"],
     {"interval.csv": ("window_us,window_over_v,ptr,prr", 2)}),
], ids=["delay", "flooding", "window"])
def test_cli_experiment_writes_its_csvs(tmp_path, args, outputs):
    proc = run_cli(*args, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "failed:" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    for name, (header, rows) in outputs.items():
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith(header)
        assert len(lines) == 1 + rows, name


def test_cli_window_sweep_writes_the_interval_rows_in_their_format(tmp_path):
    proc = run_cli("window-sweep", "--seeds", "0,1", "--multiples", "0.5,1,2",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    cfg = default_config()
    n_nodes, _t_slot, v_us = broadcast_window(cfg.traffic, cfg.radio, cfg.mac)
    points = interval_sweep(cfg.mac, cfg.queue, n_nodes, multiples=(0.5, 1, 2), seeds=(0, 1),
                            v_us=v_us)
    # the row format the window experiment has always written
    lines = ["window_us,window_over_v,ptr,prr,attempted,succeeded"]
    lines += [f"{pt.window_us},{pt.window_over_v:.6f},{pt.ptr:.6f},"
              f"{pt.prr:.6f},{pt.attempted},{pt.succeeded}" for pt in points]
    assert (tmp_path / "interval.csv").read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_cli_window_sweep_rejects_zero_seeds_by_name(tmp_path):
    proc = run_cli("window-sweep", "--seeds", ",", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "error: seeds must not be empty" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


def test_cli_window_sweep_rejects_an_empty_multiple_by_name(tmp_path):
    proc = run_cli("window-sweep", "--seeds", "2", "--multiples", "0.5,,1", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "error: --multiples: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


def test_cli_window_sweep_rejects_an_infinite_multiple_by_name(tmp_path):
    proc = run_cli("window-sweep", "--seeds", "1", "--multiples", "1,inf", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "error: multiples: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, error", [
    # one cell swept twice would be written and counted as two runs
    (["sweep", "--seeds", "1,1", "--schemes", "cmd,cmd", "--ys", "3", "--floodings", "none"],
     "--seeds: 1 repeats a value given before it in '1,1'"),
    (["sweep", "--seeds", "1", "--schemes", "cmd,cmd"],
     "--schemes: cmd repeats a value given before it in 'cmd,cmd'"),
    (["sweep", "--seeds", "1", "--ys", "3,03"], "--ys: 03 repeats a value given before it in '3,03'"),
    # one seed's arena counted twice would double each window's attempts
    (["window-sweep", "--seeds", "1,1", "--multiples", "1"],
     "--seeds: 1 repeats a value given before it in '1,1'"),
    (["window-sweep", "--seeds", "1", "--multiples", "0.5,1,1.0"],
     "--multiples: 1.0 repeats a value given before it in '0.5,1,1.0'"),
], ids=["sweep-seeds", "sweep-schemes", "sweep-ys", "window-sweep-seeds", "window-sweep-multiples"])
def test_a_list_flag_refuses_a_repeated_value_by_name(tmp_path, capsys, args, error):
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_cli_window_sweep_refuses_two_multiples_that_round_to_one_window(tmp_path, capsys):
    # at the default V of 10 599.7 us both give a 10 600 us window, so their rows read alike
    out = tmp_path / "out"
    assert cli.main(["window-sweep", "--seeds", "1", "--multiples", "1,1.00001",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: multiples: 1.0 and 1.00001 x V both round to the window of 10600 us\n")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simulate"], ["sweep", "--seeds", "1,2"], ["analyze"], ["window-sweep", "--seeds", "1"],
    ["validate-config"],
], ids=["simulate", "sweep", "analyze", "window-sweep", "validate-config"])
def test_a_zero_contention_window_is_refused_when_the_config_loads(tmp_path, capsys, args):
    # the closed form's w0 is cw_min; an arena alone may still run with every counter 0
    assert MacParams(cw_min=0).cw_min == 0
    config = tmp_path / "cw0.ini"
    config.write_text("[mac]\ncw_min = 0\n", encoding="utf-8")
    out = tmp_path / "out"
    out_flag = [] if args[0] == "validate-config" else ["--out", str(out)]
    assert cli.main([*args, "--config", str(config), *out_flag]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: mac.cw_min (0) must be at least 1: the closed form takes "
                            "it as its contention window w0\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("args", [["simulate"], ["validate-config"]],
                         ids=["simulate", "validate-config"])
def test_streets_under_a_metre_apart_are_refused_when_the_config_loads(tmp_path, capsys, args):
    # the walk never ends a step on a grid this fine, so the run would hang
    config = tmp_path / "tiny.ini"
    config.write_text("[network]\nwidth = 1e-10\nheight = 1e-10\n", encoding="utf-8")
    out = tmp_path / "out"
    out_flag = [] if args[0] == "validate-config" else ["--out", str(out)]
    assert cli.main([*args, "--config", str(config), *out_flag]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: network.width / (network.vertical_streets - 1) is 1e-10 m; "
                            "streets must lie at least 1 m apart\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    # a station decodes only within its sensing radius, so the one threshold is [radio] c_th
    ("radio", "rx_sensitivity", "-85"),
    # the [si] keys set the interval layout, each from its own default
    ("si", "preset", "std-50"),
    # the closed-form range reads only the physical keys: x_sigma1 = x_sigma2 = 0
    # is no shadowing, and gamma2 = gamma1 is the far branch read literally
    ("radio", "shadowing_mode", "fixed-offset"),
    ("radio", "far_branch_uses_near_exponent", "False"),
], ids=["rx_sensitivity", "preset", "shadowing_mode", "far_branch_uses_near_exponent"])
@pytest.mark.parametrize("args", [["simulate"], ["sweep", "--seeds", "1"], ["validate-config"]],
                         ids=["simulate", "sweep", "validate-config"])
def test_a_deleted_key_is_refused_as_unknown(tmp_path, capsys, args, section, key, value):
    # a snapshot of the defaults from an older validate-config still lists the key
    config = tmp_path / "old.ini"
    config.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    out_flag = [] if args[0] == "validate-config" else ["--out", str(out)]
    assert cli.main([*args, "--config", str(config), *out_flag]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: [{section}] {key}: unknown key")
    assert captured.out == ""
    assert not out.exists()


AXIS_KEYS = "[scheme]\nscheme = wsd\nadvertised_y = 5\nflooding = shbf\n"


@pytest.mark.parametrize("args, ini, unread", [
    # the window sizing reads [radio] [traffic] [mac] [queue] only
    (["window-sweep", "--seeds", "0,1", "--multiples", "0.5,1"],
     "[experiment]\nseed = 9\n[scheme]\nscheme = wsd\n[mobility]\nvehicle_count = 7\n",
     "[mobility] vehicle_count, [scheme] scheme, [experiment] seed"),
    (["window-sweep", "--seeds", "0"], "[si]\ne3 = 20000\n", "[si] e3"),
    # the preview covers all three schemes, has no flooding term and simulates no road
    (["analyze"],
     "[scheme]\nscheme = legacy\nflooding = shbf\n[mobility]\nvehicle_count = 7\n"
     "[network]\nwidth = 900\n",
     "[network] width, [mobility] vehicle_count, [scheme] scheme, [scheme] flooding"),
    (["analyze"],
     "[si]\ne3 = 9000\n[mobility]\nmean_speed = 20\n[experiment]\nwarmup_sis = 2\n",
     "[si] e3, [mobility] mean_speed, [experiment] warmup_sis"),
    # a run reads neither the expected-range [radio] keys nor the density;
    # a sweep takes each run's seed from --seeds
    (["simulate"], "[radio]\nx_sigma1 = 0\n[traffic]\nbeta = 0.05\n",
     "[radio] x_sigma1, [traffic] beta"),
    (["sweep", "--seeds", "1"], "[radio]\nx_sigma2 = 12\n[experiment]\nseed = 9\n",
     "[radio] x_sigma2, [experiment] seed"),
    # a given axis flag replaces the [scheme] key its axis defaults to
    (["sweep", "--seeds", "1", "--schemes", "cmd", "--ys", "3", "--floodings", "none"],
     AXIS_KEYS, "[scheme] scheme, [scheme] advertised_y, [scheme] flooding"),
], ids=["window-sweep", "window-sweep-si", "analyze",
        "analyze-keys", "simulate", "sweep", "sweep-axes"])
def test_a_config_key_the_command_never_reads_is_refused(tmp_path, capsys, args, ini, unread):
    config = tmp_path / "inert.ini"
    config.write_text(ini, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([*args, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {args[0]} never reads {unread}; leave them out\n")
    assert not out.exists()


@pytest.mark.parametrize("args, ini", [
    (["window-sweep", "--seeds", "0", "--multiples", "1"],
     "[radio]\nc_th = -84\n[traffic]\nbeta = 0.02\n[mac]\ncw_min = 7\n[queue]\nmu = 9000\n"
     "[scheme]\nadvertised_y = 3\n"),   # a key set to its default value changes nothing
    (["analyze"],
     "[si]\nschi = 40000\n[radio]\nc_th = -84\n[scheme]\nadvertised_y = 4\n"
     "switching_delay_us = 1000\n[experiment]\nseed = 3\n"),
], ids=["window-sweep", "analyze"])
def test_a_config_key_the_command_reads_changes_its_output(tmp_path, args, ini):
    config = tmp_path / "read.ini"
    config.write_text(ini, encoding="utf-8")
    written = {}
    for name, extra in (("plain", []), ("configured", ["--config", str(config)])):
        assert cli.main([*args, *extra, "--out", str(tmp_path / name)]) == 0
        written[name] = sorted((p.name, p.read_bytes()) for p in (tmp_path / name).iterdir())
    assert written["plain"] != written["configured"]


def test_sweep_takes_each_axis_the_flags_leave_out_from_the_config(tmp_path):
    config = tmp_path / "axes.ini"
    config.write_text(AXIS_KEYS, encoding="utf-8")
    written = {}
    for name, extra in (("keys", ["--config", str(config)]),
                        ("flags", ["--schemes", "wsd", "--ys", "5", "--floodings", "shbf"])):
        assert cli.main(["sweep", "--seeds", "1", *extra, "--out", str(tmp_path / name)]) == 0
        written[name] = sorted((p.name, p.read_bytes()) for p in (tmp_path / name).iterdir())
    assert written["keys"] == written["flags"]
