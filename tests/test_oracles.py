from fractions import Fraction

import numpy as np
import pytest

from coevo.eda import uniform_model
from coevo.games import fixture, subtraction_nim
from coevo.graphs import build_graph
from coevo.oracles import (
    analyze_model,
    reach_probabilities,
    replicator_form,
    selection_distribution,
    win_probabilities,
)
from coevo.switchability import switchability_reports
from helpers import (
    TooLarge,
    all_strategies,
    brute_force_opt,
    monte_carlo_selection,
    outcome_matrix,
    random_game,
    random_rational_model,
    sample_choice_matrix,
    uniform_rational_model,
)

FIG1_WIN = {0: Fraction(2, 3), 1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(1), 4: Fraction(0)}
FIG1_SELECTION_AT_ROOT = [Fraction(5, 18), Fraction(5, 18), Fraction(4, 9)]


def test_reach_root_is_one(fig1):
    reach = reach_probabilities(fig1, uniform_rational_model(fig1))
    assert reach[fig1.root] == 1


def test_reach_fig2_funnel(fig2):
    reach = reach_probabilities(fig2, uniform_rational_model(fig2))
    assert reach[6] == Fraction(1, 2)
    assert reach[7] == Fraction(1, 2)
    for b in range(1, 6):
        assert reach[b] == Fraction(1, 5)


def test_win_fig1(fig1):
    win = win_probabilities(fig1, uniform_rational_model(fig1))
    assert {v: Fraction(p) for v, p in win.items()} == FIG1_WIN


def test_win_trivial_cases():
    g = build_graph({2: [0, 1], 1: [], 0: []}, root=2)
    win = win_probabilities(g, uniform_rational_model(g))
    assert win[0] == 0 and win[1] == 0
    assert win[2] == 1  # every move lands on a sink


def test_selection_fig1(fig1):
    sel = selection_distribution(fig1, uniform_rational_model(fig1), 0)
    assert sel == FIG1_SELECTION_AT_ROOT
    assert sum(sel) == 1


def test_selection_forced_move(fig1):
    sel = selection_distribution(fig1, uniform_rational_model(fig1), 1)
    assert sel == [Fraction(1)]


def test_selection_at_a_sink_has_no_moves(fig1):
    model = uniform_rational_model(fig1)
    for oracle in (selection_distribution, replicator_form):
        with pytest.raises(ValueError, match="vertex 4 has no moves"):
            oracle(fig1, model, 4)


def test_selection_sums_to_one_exactly():
    rng = np.random.default_rng(43)
    for _ in range(40):
        g = random_game(rng)
        model = random_rational_model(g, rng, Fraction(1, 4 * g.max_degree))
        for u in g.interior:
            assert sum(selection_distribution(g, model, u)) == 1


def test_selection_sums_float_models(fig1):
    rng = np.random.default_rng(47)
    for _ in range(50):
        dists = {}
        for v in fig1.interior:
            w = rng.random(len(fig1.succ[v])) + 1e-3
            dists[v] = list(w / w.sum())
        for u in fig1.interior:
            assert abs(sum(selection_distribution(fig1, dists, u)) - 1) <= 1e-12


def test_replicator_matches_selection_exactly(fig1):
    model = uniform_rational_model(fig1)
    for u in fig1.interior:
        _, _, q_next = replicator_form(fig1, model, u)
        assert q_next == selection_distribution(fig1, model, u)


def test_replicator_matches_on_random_models():
    rng = np.random.default_rng(53)
    for name in ("fig1", "fig2", "fig3_top", "fig3_bottom", "fig4"):
        g = fixture(name)
        for _ in range(20):
            model = random_rational_model(g, rng, Fraction(1, 8 * g.max_degree))
            for u in g.interior:
                _, _, q_next = replicator_form(g, model, u)
                assert q_next == selection_distribution(g, model, u)


def test_replicator_fixed_point():
    # All successors equally good: the distribution does not move.
    g = build_graph({2: [0, 1], 1: [], 0: []}, root=2)
    model = {2: [Fraction(1, 4), Fraction(3, 4)]}
    q, a, q_next = replicator_form(g, model, 2)
    assert a[0] == a[1]
    assert q_next == q


def test_monte_carlo_point_mass(fig1):
    model = uniform_model(fig1, 0.0)
    for v in fig1.interior:
        p = np.zeros(len(fig1.succ[v]))
        p[0] = 1.0
        model.dists[v] = p
    freqs, stderr = monte_carlo_selection(fig1, model, 0, 2000, np.random.default_rng(1))
    assert freqs.tolist() == [1.0, 0.0, 0.0]
    assert stderr.tolist() == [0.0, 0.0, 0.0]


def test_monte_carlo_matches_dp(fig1):
    model = uniform_model(fig1, 0.0)
    freqs, _ = monte_carlo_selection(fig1, model, 0, 10**5, np.random.default_rng(2))
    exact = np.array([float(x) for x in FIG1_SELECTION_AT_ROOT])
    assert 0.5 * np.abs(freqs - exact).sum() <= 0.02


def test_monte_carlo_rejects_empty():
    g = fixture("fig1")
    with pytest.raises(ValueError):
        monte_carlo_selection(g, uniform_model(g, 0.0), 0, 0, np.random.default_rng(3))


def test_reach_and_win_match_simulation():
    rng = np.random.default_rng(59)
    for name in ("fig1",):
        g = fixture(name)
        model = uniform_model(g, 0.0)
        trials = 200_000
        from coevo.eda import _play_matrices

        cx = sample_choice_matrix(model, rng, trials)
        cy = sample_choice_matrix(model, rng, trials)
        outcome = _play_matrices(g, cx, cy)
        win_hat = (outcome == 1).mean()
        win = win_probabilities(g, model.dists)
        se = np.sqrt(0.25 / trials)
        assert abs(win_hat - float(win[g.root])) <= 4 * se

        visits = np.zeros(g.n)
        pos = np.full(trials, g.root)
        alive = np.ones(trials, dtype=bool)
        moves = 0
        while alive.any():
            np.add.at(visits, pos[alive], 1)
            idx = np.flatnonzero(alive)
            interior = np.array([bool(g.succ[p]) for p in pos[idx]])
            idx = idx[interior]
            if idx.size == 0:
                break
            mover = cx if moves % 2 == 0 else cy
            pos[idx] = g.targets[g.offsets[pos[idx]] + mover[pos[idx], idx]]
            alive = np.zeros(trials, dtype=bool)
            alive[idx] = True
            moves += 1
        reach_hat = visits / trials
        reach = reach_probabilities(g, model.dists)
        for v in range(g.n):
            p = float(reach[v])
            se = np.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(reach_hat[v] - p) <= 4 * se + 1e-9


def test_reach_lower_bound_by_switchability():
    rng = np.random.default_rng(61)
    for name in ("fig1", "fig2"):
        g = fixture(name)
        reports, _ = switchability_reports(g, range(g.n), "exact")
        s_exact = {v: r.exact for v, r in reports.items()}
        gamma = Fraction(1, 5 * g.max_degree)
        for _ in range(10):
            model = random_rational_model(g, rng, gamma)
            reach = reach_probabilities(g, model)
            for v in range(g.n):
                assert reach[v] >= gamma ** s_exact[v]


def test_brute_force_fig1(fig1):
    opt = brute_force_opt(fig1)
    keys = {tuple(sorted(x.choice.items())) for x in opt}
    assert keys == {
        ((0, 1), (1, 2), (2, 4), (3, 4)),
        ((0, 4), (1, 2), (2, 3), (3, 4)),
        ((0, 4), (1, 2), (2, 4), (3, 4)),
    }


def test_brute_force_chain_parity():
    win_chain = build_graph({0: [1], 1: []}, root=0)
    assert len(brute_force_opt(win_chain)) == 1
    lose_chain = build_graph({0: [1], 1: [2], 2: []}, root=0)
    assert brute_force_opt(lose_chain) == []


def test_brute_force_matches_playout_table():
    g = subtraction_nim(7, 2)
    strategies = all_strategies(g)
    matrix = outcome_matrix(g, strategies)
    expected = {
        tuple(sorted(strategies[i].choice.items()))
        for i in range(len(strategies))
        if (matrix[i] == 1).all()
    }
    got = {tuple(sorted(x.choice.items())) for x in brute_force_opt(g)}
    assert got == expected == set()  # second player wins this game


def test_brute_force_too_large():
    with pytest.raises(TooLarge):
        brute_force_opt(subtraction_nim(60, 3), limit=10**4)


def test_analyze_model_bundles_everything(fig1):
    analysis = analyze_model(fig1, uniform_rational_model(fig1))
    assert analysis.reach[fig1.root] == 1
    assert set(analysis.selection) == set(fig1.interior)
