"""Command-line front end.

Subcommands:

* ``simulate``        one seeded run; writes metrics/elections/analytical CSVs
* ``analyze``         closed-form delay predictions only, no simulation
* ``sweep``           grid of runs over seeds x schemes x channel counts
* ``validate-config`` parse a config file and echo the resolved settings
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analytics import SCHEMES
from .config import ConfigError, example_ini, load_config
from .dissemination import FLOODING_MODES
from .engine import DEFAULT_PRESET, SI_PRESETS
from .experiment import (
    MetricsTable,
    analytic_preview,
    analytical_csv,
    elections_csv,
    emit_csv,
    run_experiment,
    run_sweep,
    trace_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ALL_FAILED = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="INI configuration file")
    parser.add_argument("--preset", choices=sorted(SI_PRESETS), default=None,
                        help=f"interval layout to start from (default {DEFAULT_PRESET})")
    parser.add_argument("--seed", type=int, default=None,
                        help="override experiment.seed")
    parser.add_argument("--scheme", choices=SCHEMES, default=None,
                        help="override scheme.scheme")
    parser.add_argument("--channels", type=int, default=None, metavar="Y",
                        help="override scheme.advertised_y (number of service channels)")
    parser.add_argument("--flooding", choices=FLOODING_MODES, default=None,
                        help="override scheme.flooding")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default ./out)")


def _overrides(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    overrides: dict[str, dict[str, str]] = {}
    if args.seed is not None:
        overrides.setdefault("experiment", {})["seed"] = str(args.seed)
    if args.scheme is not None:
        overrides.setdefault("scheme", {})["scheme"] = args.scheme
    if args.channels is not None:
        overrides.setdefault("scheme", {})["advertised_y"] = str(args.channels)
    if args.flooding is not None:
        overrides.setdefault("scheme", {})["flooding"] = args.flooding
    if getattr(args, "trace", False):
        overrides.setdefault("experiment", {})["trace"] = "true"
    return overrides


def _load(args: argparse.Namespace):
    return load_config(args.config, preset=args.preset, overrides=_overrides(args))


def _fmt_opt(value) -> str:
    return "n/a" if value is None else (
        f"{value:.4f}" if isinstance(value, float) else str(value)
    )


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {text!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    result = run_experiment(cfg)
    table = MetricsTable(rows=[result.metrics])
    out = args.out
    emit_csv(out / "metrics.csv", table.to_csv())
    emit_csv(out / "elections.csv", elections_csv(result.election_rows))
    emit_csv(out / "analytical.csv", analytical_csv([result.analytic]))
    written = ["metrics.csv", "elections.csv", "analytical.csv"]
    if cfg.experiment.trace:
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
    rows = analytic_preview(cfg)
    emit_csv(args.out / "analytical.csv", analytical_csv(rows))
    for row in rows:
        print(
            f"scheme={row.scheme} y={row.y} n_contenders={row.n_contenders} "
            f"e_d_us={row.e_d_us:.2f} t_d_us={row.t_d_us:.2f}"
        )
    print(f"wrote {args.out / 'analytical.csv'}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    seeds = _parse_int_list(args.seeds, "--seeds")
    ys = _parse_int_list(args.ys, "--ys") if args.ys else None
    schemes = args.schemes.split(",") if args.schemes else None
    floodings = args.floodings.split(",") if args.floodings else None
    sweep = run_sweep(cfg, seeds=seeds, schemes=schemes, ys=ys, floodings=floodings)
    emit_csv(args.out / "metrics.csv", sweep.table.to_csv())
    emit_csv(args.out / "analytical.csv", analytical_csv(sweep.analytic_rows))
    for label, error in sweep.failures:
        print(f"failed: {label}: {error}", file=sys.stderr)
    done = len(sweep.table.rows)
    print(f"{done} run(s) completed, {len(sweep.failures)} failed")
    print(f"wrote {args.out / 'metrics.csv'} {args.out / 'analytical.csv'}")
    if done == 0:
        return EXIT_ALL_FAILED
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

    p_sim = sub.add_parser("simulate", help="run one seeded simulation")
    _add_common(p_sim)
    p_sim.add_argument("--trace", action="store_true",
                       help="also write a per-event trace.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="closed-form predictions, no simulation")
    _add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="grid of simulations")
    _add_common(p_sw)
    p_sw.add_argument("--seeds", required=True,
                      help="comma-separated seed list, e.g. 1,2,3")
    p_sw.add_argument("--schemes", default=None,
                      help="comma-separated subset of cmd,wsd,legacy")
    p_sw.add_argument("--ys", default=None,
                      help="comma-separated channel counts, e.g. 1,3,5")
    p_sw.add_argument("--floodings", default=None,
                      help="comma-separated subset of none,shbf")
    p_sw.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate-config", help="parse and echo a config")
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate_config)

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
