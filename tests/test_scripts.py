"""The experiment scripts run end to end on a tiny input and write their CSVs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script: str, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


#: per script: its arguments, and the header and data-row count of each CSV it writes
@pytest.mark.parametrize("script,args,outputs", [
    ("run_delay_sweep.py", ["--seeds", "2", "--ys", "3"],
     {"metrics.csv": ("seed,sweep_point,scheme,y", 6), "analytical.csv": ("seed,scheme,y", 6)}),
    ("run_flooding_comparison.py", ["--seeds", "2"],
     {"metrics.csv": ("seed,sweep_point,scheme,y", 4),
      "reachability_cdf.csv": ("fraction_reached,cdf_plain,cdf_flooded", 21)}),
    ("run_interval_sweep.py", ["--seeds", "2", "--multiples", "0.5,1"],
     {"interval.csv": ("window_us,window_over_v,ptr,prr", 2)}),
])
def test_script_writes_its_csvs(tmp_path, script, args, outputs):
    done = run_script(script, [*args, "--out", str(tmp_path)])
    assert done.returncode == 0, done.stderr
    assert "warning" not in done.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    for name, (header, rows) in outputs.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith(header)
        assert len(lines) == 1 + rows, name


def test_the_interval_sweep_script_rejects_zero_seeds_by_name(tmp_path):
    done = run_script("run_interval_sweep.py", ["--seeds", "0", "--out", str(tmp_path)])
    assert done.returncode != 0
    assert "seeds must not be empty" in done.stderr
    assert "Traceback" not in done.stderr
    assert not any(tmp_path.iterdir())


def test_the_interval_sweep_script_rejects_an_empty_multiple_by_name(tmp_path):
    done = run_script("run_interval_sweep.py",
                      ["--seeds", "2", "--multiples", "0.5,,1", "--out", str(tmp_path)])
    assert done.returncode == 2
    assert "--multiples" in done.stderr
    assert "Traceback" not in done.stderr
    assert not any(tmp_path.iterdir())


def test_the_interval_sweep_script_rejects_an_infinite_multiple_by_name(tmp_path):
    done = run_script("run_interval_sweep.py",
                      ["--seeds", "1", "--multiples", "1,inf", "--out", str(tmp_path)])
    assert done.returncode == 2
    assert "usage:" in done.stderr and "multiples" in done.stderr
    assert "Traceback" not in done.stderr
    assert not any(tmp_path.iterdir())
