"""The experiment scripts end to end, at tiny sizes, in a fresh interpreter."""

import csv
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from coevo.harness import CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


def test_convergence_experiment_tiny(tmp_path):
    done = run_script(
        "convergence_experiment.py",
        "--n", "8", "--mu-grid", "8,16", "--replicates", "2", "--max-gen", "20", "--out", "conv.csv",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert header(tmp_path / "conv.csv") == CSV_COLUMNS
    assert "wrote conv.csv" in done.stdout
    # With two replicates the printed median is the mean of both, not the upper one.
    with open(tmp_path / "conv.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    printed = {line.split()[0]: line.split()[2:4] for line in done.stdout.splitlines()[2:4]}
    differing = 0
    for mu in ("8", "16"):
        gens = [int(r["generations"]) for r in records if r["mu"] == mu]
        evals = [int(r["evaluations"]) for r in records if r["mu"] == mu]
        differing += gens[0] != gens[1]
        assert [float(value) for value in printed[mu]] == [statistics.median(gens), statistics.median(evals)]
    assert differing  # some mu whose two generation counts differ


def test_scaling_sweep_tiny(tmp_path):
    done = run_script(
        "scaling_sweep.py",
        "--families", "chomp,turning_turtles", "--mu-grid", "8", "--replicates", "1",
        "--max-gen", "20", "--out-dir", "sweep",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    for family in ("chomp", "turning_turtles"):
        assert header(tmp_path / "sweep" / family / "records.csv") == CSV_COLUMNS
        assert (tmp_path / "sweep" / family / "plot.json").exists()


def test_engine_timing_one_repetition(tmp_path):
    done = run_script("engine_timing.py", "--repeat", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == [
        "game", "mu", "prepare_ms", "uniform_ms", "generation_ms", "analyze_ms", "peak_mb"
    ]
    assert [row.split()[0] for row in rows] == [
        "subtraction_nim", "subtraction_nim", "chomp", "subtraction_nim", "turning_turtles"
    ]
    assert all(float(value) > 0 for row in rows for value in row.split()[-5:])


@pytest.mark.parametrize(
    "name, flag, value",
    [
        ("convergence_experiment.py", "--mu-grid", "64,16"),
        ("scaling_sweep.py", "--families", "nim"),
        ("engine_timing.py", "--repeat", "0"),
    ],
)
def test_script_rejects_bad_flag(tmp_path, name, flag, value):
    done = run_script(name, flag, value, cwd=tmp_path)
    assert done.returncode == 2
    assert f"argument {flag}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not any(tmp_path.iterdir())
