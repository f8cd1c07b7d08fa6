#!/usr/bin/env python3
"""Size the broadcast window and measure how delivery saturates around it.

Computes the decision-interval length V = B * t_slot under both sensing-range
branch policies, then measures pooled transmission and reception ratios for a
fully backlogged neighbourhood in windows of 0.5V .. 2V.
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path

from mcwave.analytics import broadcast_window, optimal_decision_interval
from mcwave.config import load_config
from mcwave.experiment import emit_csv, interval_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=None, help="INI configuration file")
    parser.add_argument("--seeds", type=int, default=30, help="number of window replications")
    parser.add_argument("--multiples", type=str, default="0.5,0.75,1,1.25,1.5,2")
    parser.add_argument("--out", type=Path, default=Path("out/interval_sweep"))
    args = parser.parse_args()
    try:
        multiples = [float(m) for m in args.multiples.split(",")]
    except ValueError:
        parser.error(f"--multiples must be comma-separated numbers, got {args.multiples!r}")

    cfg = load_config(args.config)
    mac, queue, traffic, radio = cfg.mac, cfg.queue, cfg.traffic, cfg.radio
    literal = dataclasses.replace(radio, far_branch_uses_near_exponent=True)

    n_nodes, t_slot, v_default = broadcast_window(traffic, radio, mac)
    v_literal = optimal_decision_interval(traffic, literal, t_slot)
    print(f"neighbourhood: {n_nodes} stations, design t_slot = {t_slot:.2f} us")
    print(f"V (steep far branch)   = {v_default:.1f} us")
    print(f"V (shallow far branch) = {v_literal:.1f} us")

    try:
        points = interval_sweep(
            mac, queue, n_nodes, multiples=multiples, seeds=range(args.seeds), v_us=v_default
        )
    except ValueError as exc:
        parser.error(str(exc))

    lines = ["window_us,window_over_v,ptr,prr,attempted,succeeded"]
    print(f"{'window/V':>9} {'window (us)':>12} {'ptr':>7} {'prr':>7}")
    for m, pt in zip(multiples, points):
        lines.append(f"{pt.window_us},{pt.window_over_v:.6f},{pt.ptr:.6f},"
                     f"{pt.prr:.6f},{pt.attempted},{pt.succeeded}")
        print(f"{m:>9.2f} {pt.window_us:>12} {pt.ptr:>7.4f} {pt.prr:>7.4f}")
    emit_csv(args.out / "interval.csv", "\n".join(lines) + "\n")
    print(f"wrote {args.out / 'interval.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
