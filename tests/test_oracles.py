from fractions import Fraction

import numpy as np
import pytest

from coevo.eda import ProbModel, uniform_model
from coevo.games import FIXTURE_NAMES, chomp, fixture, silver_dollar, subtraction_nim
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
    successors,
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
            w = rng.random(len(successors(fig1, v))) + 1e-3
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
        p = np.zeros(len(successors(fig1, v)))
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
            interior = np.array([bool(successors(g, p)) for p in pos[idx]])
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
        reports = switchability_reports(g, range(g.n))
        assert {r.method for r in reports.values()} == {"exact_search"}
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


def _assert_analysis_is_per_vertex(g, model):
    # repr tells every Fraction apart and every IEEE double, -0.0 included,
    # so equal reprs mean exact equality on Fractions and bit for bit on floats.
    analysis = analyze_model(g, model)
    assert repr(analysis.reach) == repr(reach_probabilities(g, model))
    assert repr(analysis.win) == repr(win_probabilities(g, model))
    assert list(analysis.selection) == list(g.interior)
    for u in g.interior:
        assert repr(analysis.selection[u]) == repr(selection_distribution(g, model, u)), u


def _float_model(g, rng):
    dists = {}
    for v in g.interior:
        p = rng.random(int(g.offsets[v + 1] - g.offsets[v])) + 0.01
        dists[v] = p / p.sum()
    return ProbModel(graph=g, dists=dists, gamma=0.0)


def test_analysis_equals_the_per_vertex_oracles_on_fractions():
    rng = np.random.default_rng(67)
    for name in FIXTURE_NAMES:
        g = fixture(name)
        _assert_analysis_is_per_vertex(g, uniform_rational_model(g))
        _assert_analysis_is_per_vertex(g, random_rational_model(g, rng, Fraction(1, 8 * g.max_degree)))
    for _ in range(30):
        g = random_game(rng)
        _assert_analysis_is_per_vertex(g, random_rational_model(g, rng, Fraction(1, 4 * g.max_degree)))


def test_analysis_equals_the_per_vertex_oracles_bit_for_bit_on_floats():
    rng = np.random.default_rng(71)
    for g in (chomp(4), silver_dollar(9, 3), fixture("fig2")):
        model = _float_model(g, rng)
        _assert_analysis_is_per_vertex(g, model)
        _assert_analysis_is_per_vertex(g, {v: list(p) for v, p in model.dists.items()})


def _closed_form(g, model):
    """Every vertex's selection law by the closed form, one vertex at a time,
    on the model's own numbers; numpy scalars are read as the Python numbers
    they hold, since every float model's law comes back as Python floats."""
    reach, win = reach_probabilities(g, model), win_probabilities(g, model)
    rows = model.dists if isinstance(model, ProbModel) else model
    law = {}
    for u in g.interior:
        row = [p * (1 + reach[u] * (1 - win[w] - win[u])) for w, p in zip(successors(g, u), rows[u])]
        law[u] = [x.item() if isinstance(x, np.generic) else x for x in row]
    return law


def _input_forms():
    rng = np.random.default_rng(73)
    for name, g in [("chomp4", chomp(4)), ("silver_dollar9_3", silver_dollar(9, 3))] + [
        (f"random_game{i}", random_game(rng, n_min=8, n_max=16)) for i in range(2)
    ]:
        model = _float_model(g, rng)
        exact = random_rational_model(g, rng, Fraction(1, 4 * g.max_degree))
        yield name, "ProbModel", g, model
        yield name, "float_lists", g, {v: p.tolist() for v, p in model.dists.items()}
        yield name, "float64_lists", g, {v: list(p) for v, p in model.dists.items()}
        yield name, "ndarray_rows", g, dict(model.dists)
        yield name, "int_and_Fraction", g, {v: [1] if len(p) == 1 else p for v, p in exact.items()}
    yield "one_vertex", "root_is_a_sink", build_graph({0: []}, root=0), {}


@pytest.mark.parametrize(
    "form, g, model", [pytest.param(*case[1:], id=f"{case[0]}-{case[1]}") for case in _input_forms()]
)
def test_analysis_equals_the_closed_form_on_every_input_form(form, g, model):
    analysis = analyze_model(g, model)
    assert repr(analysis.selection) == repr(_closed_form(g, model))
    assert repr(analysis.reach) == repr(reach_probabilities(g, model))
    assert repr(analysis.win) == repr(win_probabilities(g, model))
    for u in g.interior:
        assert list(map(type, analysis.selection[u])) == list(map(type, selection_distribution(g, model, u)))
    if form == "int_and_Fraction":
        assert {type(x) for row in model.values() for x in row} == {int, Fraction}
        assert {type(x) for q in analysis.selection.values() for x in q} == {Fraction}
    if form == "root_is_a_sink":
        assert analysis.selection == {}


def test_float_sums_add_left_to_right_from_zero():
    # Python 3.12's sum() compensates float sums; these cases tell the two apart.
    g = build_graph({10: list(range(10)), **{v: [11] for v in range(10)}, 11: []}, root=10)
    model = {10: [0.1] * 10, **{v: [1.0] for v in range(10)}}
    assert win_probabilities(g, model)[10] == 1.1102230246251565e-16  # compensated: 0.0
    assert analyze_model(g, model).win[10] == 1.1102230246251565e-16
    fan = build_graph({9: list(range(9)), 8: [10], **{v: [] for v in range(8)}, 10: []}, root=9)
    _, a, q_next = replicator_form(fan, {9: [0.1] * 8 + [0.2], 8: [1.0]}, 9)
    assert a == [1] * 8 + [0.0]
    # Mean fitness 0.7999999999999999 left to right, 0.8 compensated.
    assert q_next == [0.12000000000000002] * 8 + [0.040000000000000015]


def test_analysis_makes_one_reach_pass_and_one_win_pass(monkeypatch):
    g = silver_dollar(7, 3)
    calls = {"reach": 0, "win": 0}
    for name, dp in (("reach", reach_probabilities), ("win", win_probabilities)):
        def counted(graph, model, name=name, dp=dp):
            calls[name] += 1
            return dp(graph, model)

        monkeypatch.setattr(f"coevo.oracles.{name}_probabilities", counted)
    analyze_model(g, uniform_rational_model(g))
    assert calls == {"reach": 1, "win": 1}


def _every_oracle(g, model):
    return [
        lambda: reach_probabilities(g, model),
        lambda: win_probabilities(g, model),
        lambda: selection_distribution(g, model, g.root),
        lambda: replicator_form(g, model, g.root),
        lambda: analyze_model(g, model),
    ]


@pytest.mark.parametrize(
    "change, message",
    [
        ({2: [0.25, 0.25, 0.5]}, "vertex 2: expected 2 entries, got 3"),
        ({2: [1.0]}, "vertex 2: expected 2 entries, got 1"),
        ({2: None}, "vertex 2: expected 2 entries, got none"),
    ],
    ids=["too long", "too short", "missing"],
)
def test_oracles_refuse_a_vector_of_the_wrong_length(change, message):
    g = subtraction_nim(6, 2)
    dists = {1: [1.0], 2: [0.5, 0.5], 3: [0.5, 0.5], 4: [0.5, 0.5], 5: [0.5, 0.5]} | change
    dists = {v: p for v, p in dists.items() if p is not None}
    for model in (dists, ProbModel(graph=g, dists={v: np.array(p) for v, p in dists.items()}, gamma=0.0)):
        for oracle in _every_oracle(g, model):
            with pytest.raises(ValueError, match=message):
                oracle()


@pytest.mark.parametrize("u", [-2, -1, 6, 7])
def test_one_vertex_oracles_refuse_a_vertex_out_of_range(u):
    g = subtraction_nim(6, 2)
    model = uniform_rational_model(g)
    for oracle in (selection_distribution, replicator_form):
        with pytest.raises(ValueError, match=rf"vertex {u} is not in 0\.\.5"):
            oracle(g, model, u)
