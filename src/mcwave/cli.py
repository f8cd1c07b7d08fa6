"""Command-line front end.

Subcommands:

* ``simulate``        one seeded run; writes metrics/elections/analytical CSVs,
                      and trace.csv with ``--trace``
* ``analyze``         closed-form delay predictions of all three schemes, no simulation
* ``sweep``           grid of runs over seeds x schemes x channel counts x flooding
                      modes; writes metrics/analytical CSVs and the reach CDF of
                      each flooding mode (none, or single-hop blind flooding),
                      and prints mean delays per (y, scheme), and per channel
                      of each (flooding, y, scheme) cell
* ``window-sweep``    sizes the broadcast window V under both sensing-range branch
                      policies and writes delivery ratios for windows around V
* ``validate-config`` parse a config file and echo the resolved settings

Each subcommand takes only the flags that change what it writes or prints,
and each setting has one flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from statistics import fmean
from typing import Optional, Sequence

from .analytics import SCHEMES, broadcast_window, optimal_decision_interval
from .config import ConfigError, FullConfig, default_config, example_ini, load_config
from .dissemination import FLOODING_MODES
from .engine import DEFAULT_PRESET, SI_PRESETS
from .experiment import (
    MetricsTable,
    SweepResult,
    analytic_preview,
    analytical_csv,
    elections_csv,
    emit_csv,
    interval_csv,
    interval_sweep,
    reachability_cdf,
    run_experiment,
    run_sweep,
    trace_csv,
)
from .radio import RadioParams

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ALL_FAILED = 2


#: each override flag: the [section] key it sets, and its own argparse settings
OVERRIDE_FLAGS: dict[str, tuple[str, str, dict]] = {
    "--seed": ("experiment", "seed", dict(type=int, metavar="N")),
    "--scheme": ("scheme", "scheme", dict(choices=SCHEMES)),
    "--channels": ("scheme", "advertised_y", dict(type=int, metavar="Y")),   # service channels
    "--flooding": ("scheme", "flooding", dict(choices=FLOODING_MODES)),
}


def _add_config(parser: argparse.ArgumentParser, *flags: str) -> None:
    """--config, --preset, and the override `flags` named from OVERRIDE_FLAGS."""
    parser.add_argument("--config", type=Path, default=None,
                        help="INI configuration file")
    parser.add_argument("--preset", choices=sorted(SI_PRESETS), default=None,
                        help=f"interval layout to start from (default {DEFAULT_PRESET})")
    for flag in flags:
        section, key, settings = OVERRIDE_FLAGS[flag]
        parser.add_argument(flag, help=f"override {section}.{key}", **settings)


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default ./out)")


def _overrides(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    overrides: dict[str, dict[str, str]] = {}
    for flag, (section, key, _) in OVERRIDE_FLAGS.items():
        value = getattr(args, flag[2:], None)
        if value is not None:
            overrides.setdefault(section, {})[key] = str(value)
    return overrides


def _load(args: argparse.Namespace):
    return load_config(args.config, preset=args.preset, overrides=_overrides(args))


_RADIO = {f.name for f in dataclasses.fields(RadioParams)}

#: what a run reads outside [experiment]: all but [traffic] beta and the expected-range [radio] keys
_RUN = {**dict.fromkeys(["si", "network", "mobility", "mac", "queue", "scheme"]),
        "radio": _RADIO - {"shadowing_mode", "x_sigma1", "x_sigma2",
                           "far_branch_uses_near_exponent"}}

#: per subcommand, the settings it reads by section: every key (None) or those named
READS: dict[str, dict[str, Optional[set[str]]]] = {
    # the window sizing computes both far-branch policies itself
    "window-sweep": {**dict.fromkeys(["traffic", "mac", "queue"]),
                     "radio": _RADIO - {"far_branch_uses_near_exponent"}},
    "analyze": {**dict.fromkeys(["traffic", "mac", "queue"]), "si": {"guard", "schi"},
                "radio": _RADIO - {"rx_sensitivity"},
                "scheme": {"advertised_y", "switching_delay_us"}, "experiment": {"seed"}},
    "simulate": {**_RUN, "experiment": None},
    "sweep": {**_RUN, "experiment": {"warmup_sis", "measured_sis", "emergency_si_offset",
                                     "invocation_reserve_us"}},   # seeds come from --seeds
}


def _refuse_unread(cfg: FullConfig, command: str, replaced: Sequence[str]) -> None:
    """Refuse a configuration that moves a key `command` never reads off its default.

    The defaults are those of the configuration's preset, which a command
    that reads no [si] key does not read either.  `replaced` names the
    [scheme] keys that a flag given to the command replaces, so it reads them no more.
    """
    reads, base = READS[command], default_config(cfg.preset)
    unread = [] if "si" in reads or cfg.preset == DEFAULT_PRESET else ["[si] preset"]
    for name in (f.name for f in dataclasses.fields(FullConfig) if f.name != "preset"):
        keys, ours, theirs = reads.get(name, set()), getattr(cfg, name), getattr(base, name)
        unread += [f"[{name}] {f.name}" for f in dataclasses.fields(ours) if keys is not None
                   and f.name not in keys and getattr(ours, f.name) != getattr(theirs, f.name)]
    unread += [f"[scheme] {key}" for key in replaced
               if getattr(cfg.scheme, key) != getattr(base.scheme, key)]
    if unread:
        raise ConfigError(f"{command} never reads {', '.join(unread)}; leave them out")


def _fmt_opt(value) -> str:
    return "n/a" if value is None else (
        f"{value:.4f}" if isinstance(value, float) else str(value)
    )


def _parse_list(text: str, flag: str, kind=str) -> list:
    """Comma-separated values of `kind`; a text of only commas and blanks holds none.

    An empty part between values is rejected, so no typo drops a value, and
    so is a value given twice, so no run is made and counted twice.
    """
    parts = [part.strip() for part in text.split(",")]
    if not any(parts):
        return []
    try:
        values = [kind(part) for part in parts]
    except ValueError:
        values = []
    if not values or not all(parts):
        raise ConfigError(f"{flag}: expected comma-separated {kind.__name__} values, got {text!r}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{flag}: {parts[i]} repeats a value given before it in {text!r}")
    return values


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    _refuse_unread(cfg, "simulate", ())
    result = run_experiment(cfg, trace=args.trace)
    table = MetricsTable(rows=[result.metrics])
    out = args.out
    emit_csv(out / "metrics.csv", table.to_csv())
    emit_csv(out / "elections.csv", elections_csv(result.election_rows))
    emit_csv(out / "analytical.csv", analytical_csv([result.analytic]))
    written = ["metrics.csv", "elections.csv", "analytical.csv"]
    if args.trace:
        emit_csv(out / "trace.csv", trace_csv(result.trace_rows))
        written.append("trace.csv")
    r, scheme = result.report, cfg.scheme
    print(
        f"scheme={scheme.scheme} y={scheme.advertised_y} flooding={scheme.flooding} "
        f"seed={cfg.experiment.seed} preset={cfg.preset}"
    )
    print(
        f"total_delay_us={_fmt_opt(r.total_delay_us)} "
        f"switch_count={r.switch_count} prr={_fmt_opt(r.prr)} "
        f"ptr={_fmt_opt(result.metrics.ptr)} "
        f"unreached_channels={len(r.unreached_channels)}"
    )
    print("wrote " + " ".join(str(out / name) for name in written))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _load(args)
    _refuse_unread(cfg, "analyze", ())
    rows = analytic_preview(cfg)
    emit_csv(args.out / "analytical.csv", analytical_csv(rows))
    for row in rows:
        print(
            f"scheme={row.scheme} y={row.y} n_contenders={row.n_contenders} "
            f"e_d_us={row.e_d_us:.2f} t_d_us={row.t_d_us:.2f}"
        )
    print(f"wrote {args.out / 'analytical.csv'}")
    return EXIT_OK


#: the fractions of vehicles reached at which reachability_cdf.csv reads each CDF
REACH_GRID = [round(0.05 * i, 2) for i in range(21)]


def _reachability_csv(reach: dict[str, list[float]]) -> str:
    """The empirical CDF of each flooding mode's reach samples, one column per mode."""
    lines = [",".join(["fraction_reached", *(f"cdf_{mode}" for mode in reach)])]
    cdfs = [reachability_cdf(samples, REACH_GRID) for samples in reach.values()]
    for x, *column in zip(REACH_GRID, *cdfs):
        lines.append(",".join([f"{x:.2f}", *(f"{f:.6f}" for f in column)]))
    return "\n".join(lines) + "\n"


def _print_delays(
    sweep: SweepResult, ys: list[int], schemes: list[str], floodings: list[str],
) -> None:
    """Mean simulated and matched analytic delay, then the mean delay per channel,
    each per (flooding, y, scheme) cell, so that no mean mixes unlike schemes or
    flooding modes."""
    runs = list(zip(sweep.table.rows, sweep.analytic_rows))
    print(f"{'y':>3} {'scheme':>8} {'flooding':>8} {'runs':>5} {'delivered':>9} "
          f"{'mean delay (ms)':>16} {'mean analytic (ms)':>19}")
    for y, scheme, mode in ((y, s, m) for y in ys for s in schemes for m in floodings):
        cell = [(r, a) for r, a in runs if (r.y, r.scheme, r.flooding) == (y, scheme, mode)]
        delivered = [(r, a) for r, a in cell if r.total_delay_us is not None]
        head = f"{y:>3} {scheme:>8} {mode:>8} {len(cell):>5} {len(delivered):>9}"
        if delivered:
            sim = fmean(r.total_delay_us for r, _ in delivered) / 1e3
            ana = fmean(a.t_d_matched_us for _, a in delivered) / 1e3
            print(f"{head} {sim:>16.2f} {ana:>19.2f}")
        else:
            print(f"{head} {'-':>16} {'-':>19}")

    delays: dict[tuple[str, int, str], dict[int, list[float]]] = {}
    for r in sweep.table.rows:
        by_channel = delays.setdefault((r.flooding, r.y, r.scheme), {})
        for ch, delay in r.per_channel_delays.items():
            by_channel.setdefault(ch, []).append(delay)
    channels = sorted({ch for by_channel in delays.values() for ch in by_channel})
    print(f"{'flooding':>8} {'y':>3} {'scheme':>8}"
          + "".join(f" {f'ch {ch} (ms)':>11}" for ch in channels))
    for mode, y, scheme in ((m, y, s) for m in floodings for y in ys for s in schemes):
        d = delays.get((mode, y, scheme), {})
        cells = [f"{fmean(d[ch]) / 1e3:.3f}" if ch in d else "-" for ch in channels]
        print(f"{mode:>8} {y:>3} {scheme:>8}" + "".join(f" {cell:>11}" for cell in cells))


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    # a given axis flag replaces the [scheme] key its axis defaults to
    axes = {"scheme": args.schemes, "advertised_y": args.ys, "flooding": args.floodings}
    _refuse_unread(cfg, "sweep", [key for key, flag in axes.items() if flag is not None])
    seeds = _parse_list(args.seeds, "--seeds", int)
    # a given axis is swept even when empty, which run_sweep refuses by name
    ys = [cfg.scheme.advertised_y] if args.ys is None else _parse_list(args.ys, "--ys", int)
    schemes = ([cfg.scheme.scheme] if args.schemes is None
               else _parse_list(args.schemes, "--schemes"))
    floodings = ([cfg.scheme.flooding] if args.floodings is None
                 else _parse_list(args.floodings, "--floodings"))
    sweep = run_sweep(cfg, seeds=seeds, schemes=schemes, ys=ys, floodings=floodings)
    rows = sweep.table.rows
    # a flooding mode gets a CDF column when its completed runs sampled any reach
    reach = {mode: [s for r in rows if r.flooding == mode for s in r.reachability_samples]
             for mode in floodings}
    reach = {mode: samples for mode, samples in reach.items() if samples}
    written = [emit_csv(args.out / "metrics.csv", sweep.table.to_csv()),
               emit_csv(args.out / "analytical.csv", analytical_csv(sweep.analytic_rows)),
               emit_csv(args.out / "reachability_cdf.csv", _reachability_csv(reach))]
    for label, error in sweep.failures:
        print(f"failed: {label}: {error}", file=sys.stderr)
    _print_delays(sweep, ys, schemes, floodings)
    if reach:
        print("mean reach: " + ", ".join(f"{mode} {fmean(samples):.3f}"
                                         for mode, samples in reach.items()))
    print(f"{len(rows)} run(s) completed, {len(sweep.failures)} failed")
    print("wrote " + " ".join(map(str, written)))
    return EXIT_OK if rows else EXIT_ALL_FAILED


def cmd_window_sweep(args: argparse.Namespace) -> int:
    seeds = _parse_list(args.seeds, "--seeds", int)
    multiples = _parse_list(args.multiples, "--multiples", float)
    cfg = load_config(args.config)
    _refuse_unread(cfg, "window-sweep", ())
    literal = dataclasses.replace(cfg.radio, far_branch_uses_near_exponent=True)
    n_nodes, t_slot, v_default = broadcast_window(cfg.traffic, cfg.radio, cfg.mac)
    v_literal = optimal_decision_interval(cfg.traffic, literal, t_slot)
    points = interval_sweep(cfg.mac, cfg.queue, n_nodes, multiples=multiples, seeds=seeds,
                            v_us=v_default)
    written = emit_csv(args.out / "interval.csv", interval_csv(points))
    print(f"neighbourhood: {n_nodes} stations, design t_slot = {t_slot:.2f} us")
    print(f"V (steep far branch)   = {v_default:.1f} us")
    print(f"V (shallow far branch) = {v_literal:.1f} us")
    print(f"{'window/V':>9} {'window (us)':>12} {'ptr':>7} {'prr':>7}")
    for m, pt in zip(multiples, points):
        print(f"{m:>9.2f} {pt.window_us:>12} {pt.ptr:>7.4f} {pt.prr:>7.4f}")
    print(f"wrote {written}")
    return EXIT_OK


def cmd_validate_config(args: argparse.Namespace) -> int:
    cfg = _load(args)
    sys.stdout.write(example_ini(cfg))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcwave",
        description="Multi-channel emergency-dissemination simulator and analytical toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)   # --seed is no --seeds
        p.set_defaults(func=func)
        return p

    p_sim = command("simulate", cmd_simulate, "run one seeded simulation")
    _add_config(p_sim, *OVERRIDE_FLAGS)
    _add_out(p_sim)
    p_sim.add_argument("--trace", action="store_true",
                       help="also write a per-event trace.csv")

    p_an = command("analyze", cmd_analyze, "closed-form predictions, no simulation")
    _add_config(p_an, "--seed", "--channels")
    _add_out(p_an)

    p_sw = command("sweep", cmd_sweep, "grid of simulations")
    _add_config(p_sw)
    _add_out(p_sw)
    p_sw.add_argument("--seeds", required=True,
                      help="comma-separated seed list, e.g. 1,2,3")
    p_sw.add_argument("--schemes", default=None,
                      help="comma-separated subset of cmd,wsd,legacy")
    p_sw.add_argument("--ys", default=None,
                      help="comma-separated channel counts, e.g. 1,3,5")
    p_sw.add_argument("--floodings", default=None,
                      help="comma-separated subset of none,shbf")

    p_win = command("window-sweep", cmd_window_sweep,
                    "size the broadcast window V and sweep windows around it")
    p_win.add_argument("--config", type=Path, default=None,
                       help="INI configuration file")
    p_win.add_argument("--seeds", required=True,
                       help="comma-separated seed list, one arena per seed, e.g. 1,2,3")
    p_win.add_argument("--multiples", default="0.5,0.75,1,1.25,1.5,2",
                       help="comma-separated window lengths, in multiples of V")
    _add_out(p_win)

    _add_config(command("validate-config", cmd_validate_config, "parse and echo a config"),
                *OVERRIDE_FLAGS)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
