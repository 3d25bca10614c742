"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATING_COUNTS = [
    "eda.sample.entries",
    "eda.restrict.calls",
    "eda.stop.columns",
    "oracles.reach.calls",
    "oracles.win.calls",
    "oracles.selection.calls",
]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from coevo import eda, games, grundy, oracles, switchability  # noqa: E402
from coevo.graphs import Strategy  # noqa: E402

import workloads  # noqa: E402


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result = result_of(run(workload, 0))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((ROOT / ".bench_out" / f"{workload}-tiny-seed3-trace0.json").read_text())
    assert record["checks"] >= 4  # engine runs, both analyses and the profile were checked
    assert record["machine"]["nproc"] >= 1 and record["working_set"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly_for_a_seed(workload):
    first, second = result_of(run(workload, 1)), result_of(run(workload, 1))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == units
    for name in REPEATING_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        assert first["metrics"][name]["value"] > 0, name
    assert first["metrics"]["trace.absent"]["value"] == 0


def test_oracle_counts_leave_out_the_checks():
    # One reach and one win pass per interior vertex, plus one per analysis;
    # the Fraction check's replicator_form passes run untraced.
    w = workloads.WORKLOADS["exact"]["tiny"]
    analysed = [s.build() for s in w.analyze] + [w.fraction.build()]
    analysed[:-1] = [grundy.ensure_first_player_win(g) for g in analysed[:-1]]
    expected = sum(len(g.interior) + 1 for g in analysed)
    metrics = result_of(run("exact", 1))["metrics"]
    assert metrics["oracles.reach.calls"]["value"] == expected
    assert metrics["oracles.win.calls"]["value"] == expected
    assert metrics["oracles.selection.calls"]["value"] == expected - len(analysed)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("exact", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_checks_catch_broken_outputs():
    base = games.subtraction_nim(32, 2)
    g = grundy.ensure_first_player_win(base)
    cfg = eda.UmdaConfig(mu=64, gamma=workloads.theorem_gamma(base), max_generations=200, seed=5)
    result = eda.run_umda(g, cfg)
    assert workloads.check_run(g, cfg, result, need_witness=True) == []
    assert workloads.check_run(g, cfg, replace(result, evaluations=result.evaluations + 1), True)
    off = result.final_model.copy()
    v = g.interior[0]
    off.dists[v] = np.full(len(g.succ[v]), cfg.gamma / 2)
    assert workloads.check_simplex(off, cfg.gamma)
    # Moving from the first-player-win root to a nonzero position loses.
    gd = grundy.grundy_values(g)
    choice = dict(grundy.canonical_optimal_strategy(g, gd).choice)
    choice[g.root] = next(w for w in g.succ[g.root] if gd.values[w] != 0)
    bad = replace(result, succeeded=True, optimal_witness=Strategy(choice))
    assert workloads.check_run(g, cfg, bad, need_witness=True)
    capped = replace(result, succeeded=False, optimal_witness=None)
    assert workloads.check_run(g, cfg, capped, need_witness=True)


def test_analysis_checks_catch_broken_outputs():
    g = games.silver_dollar(5, 2)
    dists = workloads.dyadic_model(g, np.random.default_rng(0))
    analysis = oracles.analyze_model(g, dists)
    rng = np.random.default_rng(1)
    assert workloads.check_fraction_analysis(g, dists, analysis, rng) == []
    u = g.interior[0]
    analysis.selection[u] = [Fraction(0)] * len(analysis.selection[u])
    assert workloads.check_fraction_analysis(g, dists, analysis, rng)
    assert workloads.check_float_analysis(g, analysis)


def test_profile_check_catches_a_wrong_grundy_value():
    g = games.chomp(3)
    gd = grundy.grundy_values(g)
    profile = switchability.switchability_profile(g, gd=gd)
    assert workloads.check_profile(g, gd, profile) == []
    wrong = replace(gd, values=tuple(v + (i == g.root) for i, v in enumerate(gd.values)))
    assert workloads.check_profile(g, wrong, profile)
