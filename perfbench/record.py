#!/usr/bin/env python3
"""Write perfbench/reference.json: the output digest of every recorded unit.

    python3 perfbench/record.py

Runs each workload's documented units and its extension pool once, from the
root of a source checkout, and records their sha256 digests together with
the digest of the whole golden sweep, the host probe time that timings are
scaled to, and the environment they came from.
Re-record only when a change is meant to alter simulated outputs, and say
in CHANGES.md which numbers changed and why.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import sys

import numpy

import run
from hostspeed import probe_mean

#: units per workload with a recorded digest, documented units included
POOL = {"sweep-golden": 6, "dense-n200": 12, "mesh-interval": 48}


def main() -> int:
    reference: dict = {"units": {}}
    for name, size in POOL.items():
        bench = run.setup(name)[0]
        units = []
        for index in range(size):
            unit = bench.unit(index)
            if unit.failed:
                raise SystemExit(f"{name} unit {index} failed; nothing recorded")
            units.append(unit)
            print(f"{name} {index} {unit.digest}", flush=True)
        reference["units"][name] = [u.digest for u in units]
        if isinstance(bench, run.SweepGolden):
            reference["golden_sha256"] = bench.golden_digest()
    # the host's calm speed: the fastest of many short probe batches
    reference["probe_ref_s"] = min(probe_mean(100) for _ in range(50))
    reference["environment"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "absent" if importlib.util.find_spec("numba") is None else "present",
        "process": "each workload runs in a fresh single-threaded process, one after another",
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
