"""Report which simulated numbers moved between two checkouts.

    python tests/moved_numbers.py BEFORE AFTER

Each argument is the root of a checkout.  Each tree's `src` runs in its own
child interpreter, beside this file's directory, whose acceptance module
gives the criteria's margins functions, so both trees are read by the same
checks.  For every (scheme, y, flooding) cell of the golden grid and of the
y = 1/6 edge grid it prints, before -> after, the delivered runs and the
mean delay, ptr, prr and unreached channels; then both grids' digests.  For
every cell of the `simulate` pins and the dense static pins
(`SIMULATE_SHA256` and `DENSE_SHA256` in `test_shared_world.py`, built as
those tests build them) it prints the four CSV digests, the total delay, the
switch count, ptr, prr and the unreached channels.  Last come every
`criterion_NN_margins` value on tier-1's seeds.  A value that moved is
marked with `*`.  It only reports: it asserts nothing and always exits 0
once both children ran.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

#: the golden grid's and the edge grid's channel counts; both run seeds 1-6,
#: the three schemes and both flooding modes
GRIDS = {"golden": (3, 5), "edge": (1, 6)}


def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def measure() -> dict:
    """This interpreter's numbers, keyed by a printable label; run in a child."""
    import hashlib

    import mcwave
    import test_acceptance as acc
    import test_shared_world as pins
    from mcwave.config import default_config
    from mcwave.experiment import (
        MetricsTable,
        analytical_csv,
        elections_csv,
        run_experiment,
        run_sweep,
        trace_csv,
    )

    numbers: dict = {"package": str(Path(mcwave.__file__).parent)}
    for grid, ys in GRIDS.items():
        sweep = run_sweep(default_config(), seeds=range(1, 7), schemes=("cmd", "wsd", "legacy"),
                          ys=ys, floodings=("none", "shbf"))
        text = sweep.table.to_csv() + analytical_csv(sweep.analytic_rows)
        numbers[f"{grid} grid sha256"] = hashlib.sha256(text.encode()).hexdigest()
        cells: dict[str, list] = {}
        for row in sweep.table.rows:
            cells.setdefault(f"{grid} {row.scheme} y={row.y} {row.flooding}", []).append(row)
        numbers.update({label: {
            "delivered runs": sum(r.total_delay_us is not None for r in rows),
            "mean delay (us)": _mean(r.total_delay_us for r in rows),
            "ptr": _mean(r.ptr for r in rows),
            "prr": _mean(r.prr for r in rows),
            "unreached channels": _mean(r.unreached_channels for r in rows),
        } for label, rows in cells.items()})
    base = default_config()
    runs = {f"simulate {scheme}": dataclasses.replace(
        base, scheme=dataclasses.replace(base.scheme, scheme=scheme),
    ) for scheme in pins.SIMULATE_SHA256}
    runs.update({f"dense {scheme} {flooding}": dataclasses.replace(
        base,
        mobility=dataclasses.replace(base.mobility, vehicle_count=160, spawn_process=0.0),
        scheme=dataclasses.replace(base.scheme, scheme=scheme, flooding=flooding),
        experiment=dataclasses.replace(base.experiment, measured_sis=4, emergency_si_offset=1),
    ) for scheme, flooding in pins.DENSE_SHA256})
    for label, cfg in runs.items():
        result = run_experiment(cfg, trace=True)
        outputs = {
            "metrics": MetricsTable(rows=[result.metrics]).to_csv(),
            "elections": elections_csv(result.election_rows),
            "analytical": analytical_csv([result.analytic]),
            "trace": trace_csv(result.trace_rows),
        }
        row = result.metrics
        numbers[label] = {
            **{f"{name} sha256": hashlib.sha256(text.encode()).hexdigest()
               for name, text in outputs.items()},
            "total delay (us)": row.total_delay_us,
            "switch count": row.switch_count,
            "ptr": row.ptr,
            "prr": row.prr,
            "unreached channels": row.unreached_channels,
        }
    delay = run_sweep(default_config(), seeds=acc.SEEDS, schemes=("cmd", "wsd", "legacy"),
                      ys=(3, 4, 5), floodings=("none",))
    flooded = run_sweep(default_config(), seeds=acc.SEEDS, schemes=("cmd",), ys=(3,),
                        floodings=("shbf",))
    plain = [r for r in delay.table.rows if r.scheme == "cmd" and r.y == 3]
    # each criterion's margins on the seeds its tier-1 test reads
    margins = {
        "02": {str(k): v for k, v in acc.criterion_02_margins(11).items()},
        "03": {f"{k} {name}": v for k, m in acc.criterion_03_margins(1000).items()
               for name, v in m.items()},
        "05": {f"y={y} {name}": v for y, m in acc.criterion_05_margins(delay).items()
               for name, v in m.items()},
        "08": acc.criterion_08_margins(range(30)),
        "09": acc.criterion_09_margins(plain, flooded.table.rows),
    }
    numbers["margins"] = {f"criterion {n} {name}": v
                          for n, m in margins.items() for name, v in m.items()}
    return numbers


def _child(root: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(TESTS)])}
    code = "import json, moved_numbers; print(json.dumps(moved_numbers.measure()))"
    return subprocess.Popen([sys.executable, "-c", code], env=env, cwd=TESTS,
                            stdout=subprocess.PIPE, text=True)


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/moved_numbers.py BEFORE AFTER", file=sys.stderr)
        return 2
    children = [_child(Path(root).resolve()) for root in argv]
    outputs = [child.communicate()[0] for child in children]
    if any(child.returncode for child in children):
        print("a child interpreter failed; see its error above", file=sys.stderr)
        return 1
    before, after = (json.loads(out) for out in outputs)
    moved = 0

    def line(label: str, old, new) -> str:
        nonlocal moved
        moved += old != new
        return f"{'*' if old != new else ' '} {label}: {_fmt(old)} -> {_fmt(new)}"

    print(f"before: {before.pop('package')}\nafter:  {after.pop('package')}")
    margins_before, margins_after = before.pop("margins"), after.pop("margins")
    for label, old in before.items():
        new = after.get(label)
        if isinstance(old, str):
            print(line(label, old, new))
        else:
            print(f"  {label}")
            for name in old:
                print("  " + line(name, old[name], (new or {}).get(name)))
    print("  criterion margins on tier-1's seeds")
    for label, old in margins_before.items():
        print("  " + line(label, old, margins_after.get(label)))
    print(f"{moved} value(s) moved" if moved else "nothing moved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
