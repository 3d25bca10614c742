"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report.
"""

import json
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from coevo.cli import cli
from coevo.eda import restrict, uniform_model
from coevo.games import (
    GameSpec,
    chomp,
    fixture,
    silver_dollar,
    subtraction_nim,
    turning_turtles,
)
from coevo.grundy import (
    canonical_optimal_strategy,
    grundy_values,
    is_optimal_exact,
)
from coevo.harness import (
    ExperimentConfig,
    intransitivity_search,
    run_experiment,
)
from coevo.oracles import (
    reach_probabilities,
    replicator_form,
    selection_distribution,
)
from coevo.switchability import (
    switchability_profile,
    switchability_reports,
)
from helpers import (
    FIXTURE_MARKED,
    all_strategies,
    beta_minus,
    choice_matrix,
    depth,
    is_switcher,
    is_switcher_by_enumeration,
    monte_carlo_selection,
    outcome_matrix_scalar,
    play,
    random_game,
    random_rational_model,
    restrict_row,
    successors,
    uniform_rational_model,
)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# --- criterion 1: Grundy fixture ------------------------------------------------

def test_grundy_fixture_fast(capsys):
    assert cli(["solve", "--fixture", "fig1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    g = fixture("fig1")
    grundy_values(g)  # warm-up outside the timed region
    started = time.perf_counter()
    gd = grundy_values(g)
    elapsed = time.perf_counter() - started
    ok = (
        payload["grundy"] == [1, 0, 2, 1, 0]
        and payload["critical"] == [0, 2]
        and gd.values == (1, 0, 2, 1, 0)
        and gd.critical == frozenset({0, 2})
        and elapsed < 1e-3
    )
    _report("grundy-fixture", ok, f"values={gd.values} elapsed={elapsed * 1e6:.0f}us")


# --- criterion 2: optimality oracle equivalence ---------------------------------

def _optimal_flags_by_playout(g, strategies, pair_budget=4_000_000):
    from coevo.eda import _play_matrices

    m = len(strategies)
    choices = choice_matrix(g, strategies)
    flags = np.zeros(m, dtype=bool)
    block = max(1, pair_budget // m)
    for start in range(0, m, block):
        stop = min(start + block, m)
        left = np.repeat(np.arange(start, stop), m)
        right = np.tile(np.arange(m), stop - start)
        results = _play_matrices(g, choices[:, left], choices[:, right])
        flags[start:stop] = (results.reshape(stop - start, m) == 1).all(axis=1)
    return flags


def test_optimality_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    games = []
    while len(games) < 197:
        g = random_game(rng, n_min=4, n_max=9)
        if len(all_strategies(g)) <= 600:
            games.append(g)
    while len(games) < 200:
        g = random_game(rng, n_min=11, n_max=13, extra_edge_prob=0.6)
        if 1000 <= len(all_strategies(g)) <= 4000:
            games.append(g)

    checked_scalar = 0
    winnable = 0
    for index, g in enumerate(games):
        strategies = all_strategies(g)
        flags = _optimal_flags_by_playout(g, strategies)
        for j, x in enumerate(strategies):
            assert is_optimal_exact(g, x) == bool(flags[j])
        if index < 30:  # independent scalar cross-check on the small end
            scalar = outcome_matrix_scalar(g, strategies)
            assert ((scalar == 1).all(axis=1) == flags).all()
            checked_scalar += 1
        gd = grundy_values(g)
        if gd.values[g.root] != 0:
            winnable += 1
            canon = canonical_optimal_strategy(g, gd)
            assert is_optimal_exact(g, canon)
            j = [s.choice for s in strategies].index(canon.choice)
            assert flags[j]
    elapsed = time.perf_counter() - started
    ok = elapsed < 60
    _report(
        "optimality-oracle-equivalence",
        ok,
        f"200 games ({winnable} winnable, {checked_scalar} scalar-checked) in {elapsed:.1f}s",
    )


# --- criterion 3: restriction property suite -------------------------------------

def test_restriction_property_suite():
    rng = np.random.default_rng(31337)
    for _ in range(10_000):
        size = int(rng.integers(1, 9))
        w = -np.log(rng.random(size))
        p = w / w.sum()
        gamma = float(rng.random()) / size * 0.999
        bminus = beta_minus(p, gamma)
        lower = 1 - bminus / (1 - gamma * size)
        subset = rng.random(size) < 0.5
        # The engine's edge-vector form and the one-row reference form.
        for out in (restrict(p.copy(), gamma, np.array([size])), np.asarray(restrict_row(p, gamma))):
            assert abs(out.sum() - 1) <= 1e-12  # A1
            for i in range(size):
                if p[i] >= gamma:  # A2
                    assert lower * p[i] <= out[i] + 1e-12
                    assert out[i] <= p[i] + 1e-12
                assert out[i] <= max(gamma, p[i]) + 1e-12  # A3
            assert out[subset].sum() <= p[subset].sum() + gamma * size + 1e-12  # A4
    _report("restriction-properties", True, "10000 random (p, gamma, |S|<=8) triples")


# --- criterion 4: selection-distribution law --------------------------------------

def test_selection_distribution_law():
    g = fixture("fig1")
    exact = selection_distribution(g, uniform_rational_model(g), 0)
    assert sum(exact) == 1
    float_sel = selection_distribution(g, uniform_model(g, 0.0).dists, 0)
    assert abs(sum(float_sel) - 1) <= 1e-12

    freqs, _ = monte_carlo_selection(
        g, uniform_model(g, 0.0), 0, 10**6, np.random.default_rng(777)
    )
    tv = 0.5 * float(np.abs(freqs - np.array([float(x) for x in exact])).sum())
    assert tv <= 0.005

    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(100):
        dists = {}
        for v in g.interior:
            w = rng.random(len(successors(g, v))) + 1e-3
            dists[v] = list(w / w.sum())
        for u in g.interior:
            _, _, q_next = replicator_form(g, dists, u)
            sel = selection_distribution(g, dists, u)
            worst = max(worst, max(abs(a - b) for a, b in zip(q_next, sel)))
    assert worst <= 1e-12
    _report(
        "selection-distribution",
        True,
        f"MC total variation {tv:.4f}, replicator gap {worst:.2e}",
    )


# --- criterion 5: switchability fixtures ------------------------------------------

def test_switchability_fixtures():
    top_vertex, bottom_vertex = FIXTURE_MARKED["fig3_top"], FIXTURE_MARKED["fig3_bottom"]
    top = switchability_reports(fixture("fig3_top"), [top_vertex])
    assert {r.method for r in top.values()} == {"exact_search"}
    assert top[top_vertex].exact == 1
    bottom = switchability_reports(fixture("fig3_bottom"), [bottom_vertex], edge_limit=32)
    assert {r.method for r in bottom.values()} == {"exact_search"}
    assert bottom[bottom_vertex].exact == 2

    nim = subtraction_nim(12, 3)
    for v in range(12):
        window = frozenset((v + i, v) for i in range(1, 3) if v + i <= 11)
        assert depth(nim, window) <= 1
        assert is_switcher(nim, window, v)

    rng = np.random.default_rng(4242)
    compared = 0
    for _ in range(500):
        g = random_game(rng, n_min=3, n_max=9)
        edge_list = list(g.edges())
        sets = [frozenset()]
        for _ in range(3):
            keep = rng.random(len(edge_list)) < 0.3
            sets.append(frozenset(e for e, k in zip(edge_list, keep) if k))
        for edges in sets:
            v = int(rng.integers(g.n))
            assert is_switcher(g, edges, v) == is_switcher_by_enumeration(g, edges, v)
            compared += 1
    _report(
        "switchability-fixtures",
        True,
        f"marked vertices 1/2, heap windows verified, {compared} forced-vs-literal comparisons",
    )


# --- criterion 6: visit lower bound ------------------------------------------------

def test_reach_lower_bound_rational():
    rng = np.random.default_rng(515)
    checked = 0
    for name in ("fig1", "fig2", "fig3_top", "fig3_bottom"):
        g = fixture(name)
        profile = switchability_profile(g, edge_limit=32)
        assert {r.method for r in profile.reports.values()} == {"exact_search"}
        s_exact = {v: report.exact for v, report in profile.reports.items()}
        assert all(s is not None for s in s_exact.values())
        for _ in range(50):
            denominator = int(rng.integers(g.max_degree + 1, 10 * g.max_degree))
            gamma = Fraction(1, denominator)
            model = random_rational_model(g, rng, gamma)
            reach = reach_probabilities(g, model)
            for v in range(g.n):
                assert reach[v] >= gamma ** s_exact[v]
                checked += 1
    _report("reach-lower-bound", True, f"{checked} exact rational comparisons")


# --- criterion 7: game census --------------------------------------------------------

def test_game_census():
    for n, k in [(1, 1), (2, 1), (7, 2), (12, 3), (16, 2), (25, 4)]:
        g = subtraction_nim(n, k)
        assert g.n == n
        assert g.max_degree <= k
    for m in range(1, 13):
        for k in sorted({1, 2, m // 2, m} - {0}):
            if k > m:
                continue
            g = silver_dollar(m, k)
            assert g.n == comb(m, k)
            assert g.max_degree <= max(m - k, 0) or m == k
    for m in range(1, 13):
        g = turning_turtles(m)
        assert g.n == 2**m
        assert g.max_degree <= m + comb(m, 2)
    for m in range(1, 6):
        g = chomp(m)
        assert g.n == comb(2 * m, m) - 1
        assert g.max_degree <= m * m
    _report("game-census", True, "counts and degree bounds hold instance-wise")


# --- criterion 8: empirical convergence -----------------------------------------------

def test_empirical_convergence():
    started = time.perf_counter()
    cfg = ExperimentConfig(
        game=GameSpec("subtraction_nim", {"n": 16, "k": 2}),
        mu_grid=(256, 1024, 4096),
        gamma_rule=1.0 / (20 * 2 * 16),
        replicates=20,
        base_seed=160_216,
        max_generations=10_000,
        stop_rule="exact_optimal",
    )
    records = run_experiment(cfg)
    elapsed = time.perf_counter() - started

    successes = {mu: 0 for mu in cfg.mu_grid}
    for rec in records:
        successes[rec.mu] += rec.success
    failures = [
        (rec.mu, rec.seed) for rec in records if not rec.success
    ]
    top = successes[4096]
    pairs = [(256, 1024), (1024, 4096), (256, 4096)]
    non_decreasing = sum(successes[a] <= successes[b] for a, b in pairs)
    ok = top >= 18 and non_decreasing >= 2 and elapsed < 300
    _report(
        "empirical-convergence",
        ok,
        f"successes={successes} monotone-pairs={non_decreasing}/3 "
        f"elapsed={elapsed:.1f}s failures={failures}",
    )


# --- criterion 9: intransitivity -------------------------------------------------------

def test_intransitivity_three_cycle():
    g = subtraction_nim(7, 2)
    started = time.perf_counter()
    witness = intransitivity_search(g)
    elapsed = time.perf_counter() - started
    assert witness is not None
    a, b, c = witness
    for first, second in ((a, b), (b, c), (c, a)):
        assert play(g, first, second).winner == 1
        assert play(g, second, first).winner == -1
    ok = elapsed < 1.0
    _report("intransitivity", ok, f"3-cycle found in {elapsed * 1e3:.0f}ms")


# --- criterion 10: determinism ----------------------------------------------------------

def test_byte_identical_outputs(tmp_path, capsys):
    run_argv = [
        "run", "--family", "subtraction_nim", "--n", "12", "--k", "2",
        "--mu", "128", "--gamma-theorem", "--max-gen", "2000", "--seed", "17",
    ]
    first = tmp_path / "run_a.json"
    second = tmp_path / "run_b.json"
    assert cli(run_argv + ["--out", str(first)]) == 0
    assert cli(run_argv + ["--out", str(second)]) == 0
    run_identical = first.read_bytes() == second.read_bytes()

    sweep_argv = [
        "sweep", "--family", "subtraction_nim",
        "--instances", "n=8,k=2;n=12,k=2", "--mu-grid", "32,64",
        "--replicates", "3", "--gamma-theorem", "--max-gen", "2000", "--seed", "5",
    ]
    dir_a = tmp_path / "sweep_a"
    dir_b = tmp_path / "sweep_b"
    assert cli(sweep_argv + ["--out-dir", str(dir_a)]) == 0
    assert cli(sweep_argv + ["--out-dir", str(dir_b)]) == 0
    capsys.readouterr()
    sweep_identical = (dir_a / "records.csv").read_bytes() == (
        dir_b / "records.csv"
    ).read_bytes() and (dir_a / "plot.json").read_bytes() == (
        dir_b / "plot.json"
    ).read_bytes()

    ok = run_identical and sweep_identical
    _report(
        "determinism",
        ok,
        f"run identical={run_identical} sweep identical={sweep_identical}",
    )
