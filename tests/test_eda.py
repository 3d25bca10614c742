import copy
import json
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coevo import eda
from coevo.eda import (
    SAMPLE_BLOCK,
    GammaTooLarge,
    MissingSwitchability,
    Population,
    ProbModel,
    UmdaConfig,
    beta_minus,
    beta_plus,
    generation_step,
    model_from_snapshot,
    population_optimal_mask,
    population_sufficient_mask,
    restrict,
    _playout,
    _sample_choice_matrix,
    run_umda,
    theorem_border,
    theorem_parameters,
    uniform_model,
)
from coevo.games import chomp, silver_dollar, subtraction_nim, turning_turtles
from coevo.graphs import build_graph
from coevo.grundy import (
    PreconditionViolated,
    ensure_first_player_win,
    grundy_values,
    is_optimal_exact,
    is_optimal_sufficient,
)
from coevo.oracles import selection_distribution
from helpers import (
    all_strategies,
    choice_matrix,
    population_optimal_mask_dp,
    random_game,
    sample_choice_matrix_per_vertex,
    zero_mask,
)


# --- restriction -----------------------------------------------------------

def test_restrict_binary_spec_value():
    assert restrict([0.995, 0.005], 0.01) == [0.99, 0.01]


def test_restrict_three_value_spec_value():
    out = restrict([0.9, 0.05, 0.05], 0.1)
    assert out == [0.8, 0.1, 0.1]


def test_restrict_uniform_fixed_point():
    p = [0.25, 0.25, 0.25, 0.25]
    assert restrict(p, 0.05) == p


def test_restrict_gamma_too_large():
    with pytest.raises(GammaTooLarge):
        restrict([0.5, 0.25, 0.25], 0.4)


def test_restrict_exact_with_fractions():
    p = [Fraction(9, 10), Fraction(1, 20), Fraction(1, 20)]
    out = restrict(p, Fraction(1, 10))
    assert out == [Fraction(4, 5), Fraction(1, 10), Fraction(1, 10)]
    assert sum(out) == 1


def test_restrict_binary_equals_clamp():
    rng = np.random.default_rng(67)
    for _ in range(10_000):
        a = rng.random()
        gamma = rng.random() * 0.49
        p = np.array([a, 1 - a])
        out = restrict(p, gamma)
        clamp = np.clip(p, gamma, 1 - gamma)
        assert (out == clamp).all()


def _random_simplex(rng, size):
    w = -np.log(rng.random(size))
    return w / w.sum()


def test_restrict_properties_bulk():
    # Output sums to one; never above the input when the input clears the
    # border; never above max(gamma, input); subset mass grows by at most
    # gamma times the support size.
    rng = np.random.default_rng(71)
    for _ in range(2_000):
        size = int(rng.integers(1, 9))
        p = _random_simplex(rng, size)
        gamma = float(rng.random()) / size * 0.999
        out = np.asarray(restrict(p, gamma))
        assert abs(out.sum() - 1) <= 1e-12
        assert (out >= gamma - 1e-15).all()
        bminus = beta_minus(p, gamma)
        lower_scale = 1 - bminus / (1 - gamma * size)
        for i in range(size):
            assert out[i] <= max(gamma, p[i]) + 1e-12
            if p[i] >= gamma:
                assert out[i] <= p[i] + 1e-12
                assert out[i] >= lower_scale * p[i] - 1e-12
        subset = rng.random(size) < 0.5
        assert out[subset].sum() <= p[subset].sum() + gamma * size + 1e-12


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0, max_value=0.999),
)
def test_restrict_properties_hypothesis(weights, border_frac):
    p = np.array(weights) / sum(weights)
    gamma = border_frac / len(p)
    out = np.asarray(restrict(p, gamma))
    assert abs(out.sum() - 1) <= 1e-9
    assert (out >= gamma - 1e-12).all()
    assert (out <= np.maximum(gamma, p) + 1e-9).all()


def _restrict_reference(p, gamma):
    """The one-vector float restriction, written with plain 1-D sums."""
    if len(p) == 2:
        out = np.clip(p, gamma, 1 - gamma)
    else:
        bplus = np.maximum(p - gamma, 0.0).sum()
        bminus = np.maximum(gamma - p, 0.0).sum()
        out = np.where(p <= gamma, gamma, gamma + (1 - bminus / bplus) * (p - gamma))
    total = out.sum()
    return out / total if abs(total - 1.0) > 1e-12 else out


def test_restrict_matches_reference_bit_for_bit():
    # One vector, and each row of a matrix, get exactly the reference
    # arithmetic, for lengths on both sides of numpy's 8-entry and
    # 128-entry pairwise-sum thresholds.
    rng = np.random.default_rng(97)
    for size in [*range(1, 40), 128, 129, 300]:
        rows = -np.log(rng.random((20, size)))
        rows[:, 1:][rng.random((20, size - 1)) < 0.3] = 0.0  # zeros sit below the border
        rows /= rows.sum(axis=1, keepdims=True)
        gamma = float(rng.random()) / size * 0.5
        for p, q in zip(rows, restrict(rows, gamma)):
            expected = _restrict_reference(p, gamma).tobytes()
            assert q.tobytes() == expected
            assert restrict(p, gamma).tobytes() == expected


def test_restrict_renormalises_unnormalised_input():
    # The result lies on the gamma-bordered simplex: sum 1, every entry at
    # least gamma, also where the input's total is off 1.
    gamma = 0.01
    for p in ([0.2, 0.2], [0.2, 0.2, 0.2], [3.0, 1.0, 0.0, 0.0]):
        out = restrict(np.array(p), gamma)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out >= gamma)
    rows = np.array([[0.2, 0.2, 0.2], [2.0, 0.5, 0.0], [0.5, 0.25, 0.25], [3.0, 0.0, 0.0]])
    out = restrict(rows, gamma)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(out >= gamma)
    for p in ([0.0, 0.0, 0.0], [[0.5, 0.5], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="positive total"):
            restrict(np.array(p), gamma)


def _check_update_matches_reference():
    # Every row of the all-rows update equals the one-vector restriction of
    # that row's winner frequencies, to the last bit.
    g = chomp(4)  # degrees 1 to 15
    gamma = 0.004
    cfg = UmdaConfig(mu=300, gamma=gamma, max_generations=1, seed=0)
    rng = np.random.default_rng(103)
    model = uniform_model(g, gamma)
    for _ in range(10):
        new_model, population, _ = generation_step(model, cfg, rng)
        for v in g.interior:
            q = np.bincount(population.choices[v], minlength=len(g.succ[v])) / cfg.mu
            assert new_model.dists[v].tobytes() == _restrict_reference(q, gamma).tobytes()
        model = new_model


def test_generation_step_restriction_matches_reference():
    _check_update_matches_reference()  # mu=300 counts every row in one block


@pytest.mark.parametrize("count_block", [1000, 1])
def test_generation_step_counts_in_blocks(monkeypatch, count_block):
    # Blocks of 3 rows, which cross degree groups, and of 1 row.
    monkeypatch.setattr(eda, "COUNT_BLOCK", count_block)
    _check_update_matches_reference()


def test_beta_identity():
    rng = np.random.default_rng(73)
    for _ in range(200):
        size = int(rng.integers(1, 9))
        p = _random_simplex(rng, size)
        gamma = float(rng.random()) / size * 0.999
        assert abs(beta_plus(p, gamma) - beta_minus(p, gamma) - (1 - gamma * size)) <= 1e-12


# --- models and sampling ----------------------------------------------------

def test_uniform_model_fig1(fig1):
    model = uniform_model(fig1, 1 / 300)
    assert np.allclose(model.dists[0], [1 / 3] * 3)
    assert model.dists[1].tolist() == [1.0]
    assert np.allclose(model.dists[2], [0.5, 0.5])


def test_uniform_model_gamma_guard(fig1):
    with pytest.raises(GammaTooLarge):
        uniform_model(fig1, 0.34)


@pytest.mark.parametrize("gamma", [-0.5, float("nan"), float("inf")])
def test_config_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError):
        UmdaConfig(mu=4, gamma=gamma, max_generations=1, seed=0)


def test_model_snapshot_round_trip():
    g = ensure_first_player_win(subtraction_nim(10, 2))
    cfg = UmdaConfig(
        mu=37, gamma=1 / 400, max_generations=5, seed=3, stop_rule="generation_cap_only"
    )
    model = run_umda(g, cfg).final_model
    data = json.loads(json.dumps({"gamma": model.gamma, "dists": model.snapshot()}))
    rebuilt = model_from_snapshot(g, data)
    assert rebuilt.gamma == model.gamma
    for v in g.interior:
        assert np.array_equal(rebuilt.dists[v], model.dists[v])


def test_uniform_model_respects_border():
    g = subtraction_nim(7, 2)
    gamma = 1 / (20 * 2 * 7)
    model = uniform_model(g, gamma)
    for v in g.interior:
        assert (model.dists[v] >= gamma).all()


def test_sample_point_mass(fig1):
    model = uniform_model(fig1, 0.0)
    for v in fig1.interior:
        p = np.zeros(len(fig1.succ[v]))
        p[0] = 1.0
        model.dists[v] = p
    rng = np.random.default_rng(0)
    population = Population(fig1, _sample_choice_matrix(model, rng, 20))
    for j in range(20):
        x = population.strategy(j)
        assert x.choice == {v: fig1.succ[v][0] for v in fig1.interior}


def test_sample_marginals_match_model(fig1):
    rng = np.random.default_rng(79)
    model = uniform_model(fig1, 0.0)
    draws = 100_000
    choices = _sample_choice_matrix(model, rng, draws)
    hits = int((fig1.targets[fig1.offsets[0] + choices[0]] == 4).sum())
    assert abs(hits / draws - 1 / 3) <= 0.01


def test_sampled_strategies_valid():
    rng = np.random.default_rng(83)
    for _ in range(10):
        g = random_game(rng)
        model = uniform_model(g, 0.0)
        Population(g, _sample_choice_matrix(model, rng, 1)).strategy(0).validate(g)


def _awkward_model(g, rng):
    """Random rows, some with zero entries, some point masses, some whose
    cumulative sum ends below one (the clip to the last slot)."""
    model = uniform_model(g, 0.0)
    for v in g.interior:
        p = rng.random(len(g.succ[v]))
        kind = int(rng.integers(4))
        if kind == 1:
            p[rng.random(len(p)) < 0.5] = 0.0
            p[int(rng.integers(len(p)))] += 1.0
        elif kind == 2:
            p = np.eye(len(p))[int(rng.integers(len(p)))]
        p = p / p.sum()
        model.dists[v] = 0.9 * p if kind == 3 else p
    return model


def _sampling_corpus():
    rng = np.random.default_rng(101)
    games = [random_game(rng) for _ in range(12)] + [chomp(4), subtraction_nim(300, 270)]
    for g in games:
        yield g, uniform_model(g, 0.0)
        yield g, _awkward_model(g, rng)


@pytest.mark.parametrize("count", [1, 7, "blocks"])
def test_sampler_equals_per_vertex_reference(count):
    for seed, (g, model) in enumerate(_sampling_corpus()):
        # "blocks": about three blocks of rows per matrix.
        n = SAMPLE_BLOCK // max(1, len(g.interior) // 3) if count == "blocks" else count
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_choice_matrix(model, rng, n)
        want = sample_choice_matrix_per_vertex(model, ref_rng, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.random() == ref_rng.random()  # the same stream consumed
    assert want.dtype == np.uint16  # subtraction_nim(300, 270) has degree 270


class _StubRng:
    """Hands out fixed uniforms in order, as ``Generator.random`` would."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None, out=None):
        shape = out.shape if out is not None else size
        taken = np.array(self.values[: int(np.prod(shape))], dtype=float).reshape(shape)
        del self.values[: taken.size]
        if out is None:
            return taken
        out[...] = taken
        return out


@pytest.mark.parametrize("sampler", [_sample_choice_matrix, sample_choice_matrix_per_vertex])
def test_sampler_boundaries(sampler):
    g = build_graph({0: [1, 2, 3], 1: [2, 3, 4], 2: [], 3: [], 4: []}, root=0)
    model = uniform_model(g, 0.0)
    model.dists[0] = np.array([0.25, 0.5, 0.25])  # cum 0.25, 0.75, 1.0
    model.dists[1] = np.array([0.25, 0.25, 0.25])  # cum 0.25, 0.5, 0.75
    stub = _StubRng([0.0, 0.25, 0.5, 0.75, 1.0] + [0.0, 0.5, 0.75, 0.9, 1.0])
    choices = sampler(model, stub, 5)
    # u == cum[i] picks slot i + 1; u >= cum[-1] clamps to the last slot.
    assert choices[0].tolist() == [0, 1, 1, 2, 2]
    assert choices[1].tolist() == [0, 2, 2, 2, 2]
    assert stub.values == []


def test_sampler_memory_stays_near_the_output():
    g = chomp(6)
    model = uniform_model(g, 0.0)
    _sample_choice_matrix(model, np.random.default_rng(5), 1)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        choices = _sample_choice_matrix(model, np.random.default_rng(5), 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The output plus about one block of uniforms and two smaller chunks;
    # drawing the whole matrix at once would add 15 MB.
    assert peak <= choices.nbytes + 2 * 8 * SAMPLE_BLOCK


# --- tournaments and generations --------------------------------------------

def test_tournament_point_mass_winner(fig1):
    model = uniform_model(fig1, 0.0)
    for v in fig1.interior:
        p = np.zeros(len(fig1.succ[v]))
        p[fig1.succ[v].index(4) if 4 in fig1.succ[v] else 0] = 1.0
        model.dists[v] = p
    cfg = UmdaConfig(mu=1, gamma=0.0, max_generations=1, seed=1)
    _, population, evals = generation_step(model, cfg, np.random.default_rng(1))
    winner = population.strategy(0)
    assert winner.choice[0] == 4  # first mover jumps to the sink and wins
    assert evals == 1


def test_generation_step_spends_mu_evaluations(fig1):
    model = uniform_model(fig1, 0.01)
    mu = 64
    cfg = UmdaConfig(mu=mu, gamma=0.01, max_generations=1, seed=2)
    _, population, evals = generation_step(model, cfg, np.random.default_rng(2))
    assert evals == mu
    assert len(population) == mu


def test_tournament_frequencies_match_dp(fig1):
    model = uniform_model(fig1, 0.0)
    trials = 200_000
    cfg = UmdaConfig(mu=trials, gamma=0.0, max_generations=1, seed=89)
    _, population, _ = generation_step(model, cfg, np.random.default_rng(89))
    counts = np.bincount(population.choices[0], minlength=len(fig1.succ[0]))
    exact = selection_distribution(fig1, model.dists, 0)
    tv = 0.5 * sum(abs(counts[i] / trials - float(exact[i])) for i in range(len(counts)))
    assert tv <= 0.01


def test_generation_step_mu_one(fig1):
    gamma = 0.05
    model = uniform_model(fig1, gamma)
    cfg = UmdaConfig(mu=1, gamma=gamma, max_generations=1, seed=3)
    new_model, population, evals = generation_step(model, cfg, np.random.default_rng(3))
    assert evals == 1
    assert len(population) == 1
    winner = population.strategy(0)
    for v in fig1.interior:
        point = np.zeros(len(fig1.succ[v]))
        point[fig1.succ[v].index(winner.choice[v])] = 1.0
        assert np.allclose(new_model.dists[v], restrict(point, gamma))


def test_generation_step_forced_chain():
    g = build_graph({0: [1], 1: [2], 2: []}, root=0)
    gamma = 0.1
    model = uniform_model(g, gamma)
    cfg = UmdaConfig(mu=16, gamma=gamma, max_generations=1, seed=4)
    new_model, _, _ = generation_step(model, cfg, np.random.default_rng(4))
    for v in g.interior:
        assert new_model.dists[v].tolist() == [1.0]


def test_generation_step_expectation_matches_dp(fig1):
    gamma = 1e-6
    model = uniform_model(fig1, gamma)
    mu = 10_000
    cfg = UmdaConfig(mu=mu, gamma=gamma, max_generations=1, seed=5)
    new_model, population, _ = generation_step(model, cfg, np.random.default_rng(5))
    exact = [float(p) for p in selection_distribution(fig1, model.dists, 0)]
    counts = np.bincount(population.choices[0], minlength=len(fig1.succ[0]))
    for i, p in enumerate(exact):
        sigma = np.sqrt(p * (1 - p) / mu)
        assert abs(counts[i] / mu - p) <= 3.5 * sigma


def test_model_entries_stay_bounded():
    g = subtraction_nim(9, 2)
    g = ensure_first_player_win(g)
    gamma = 0.02
    model = uniform_model(g, gamma)
    cfg = UmdaConfig(mu=50, gamma=gamma, max_generations=1, seed=6)
    rng = np.random.default_rng(6)
    for _ in range(30):
        model, _, _ = generation_step(model, cfg, rng)
        for v in g.interior:
            deg = len(g.succ[v])
            assert (model.dists[v] >= gamma - 1e-12).all()
            assert (model.dists[v] <= 1 - (deg - 1) * gamma + 1e-12).all()
            assert abs(model.dists[v].sum() - 1) <= 1e-12


# --- whole runs --------------------------------------------------------------

def test_run_whole_space_optimal():
    g = build_graph({0: [1], 1: []}, root=0)
    cfg = UmdaConfig(mu=8, gamma=0.1, max_generations=50, seed=7)
    result = run_umda(g, cfg)
    assert result.succeeded
    assert result.generations_used == 1
    assert result.evaluations == 8


def test_run_requires_first_player_win():
    g = subtraction_nim(7, 2)
    cfg = UmdaConfig(mu=8, gamma=0.01, max_generations=10, seed=8)
    with pytest.raises(PreconditionViolated):
        run_umda(g, cfg)


def test_run_reproducible_bit_for_bit():
    g = ensure_first_player_win(subtraction_nim(10, 2))
    cfg = UmdaConfig(mu=128, gamma=1 / 400, max_generations=500, seed=99)
    a = run_umda(g, cfg)
    b = run_umda(g, cfg)
    assert a.generations_used == b.generations_used
    assert a.evaluations == b.evaluations
    assert a.succeeded and b.succeeded
    assert a.optimal_witness.choice == b.optimal_witness.choice
    for v in g.interior:
        assert np.array_equal(a.final_model.dists[v], b.final_model.dists[v])


def test_run_witness_is_optimal():
    g = ensure_first_player_win(subtraction_nim(10, 2))
    cfg = UmdaConfig(mu=256, gamma=1 / 400, max_generations=1000, seed=11)
    result = run_umda(g, cfg)
    assert result.succeeded
    assert is_optimal_exact(g, result.optimal_witness)
    assert result.evaluations == cfg.mu * result.generations_used


def test_exact_stop_never_later_than_sufficient(fig1):
    # A certificate pass implies exact optimality, so on a shared seed
    # stream the exact rule can only fire earlier or at the same time.
    for seed in range(5):
        base = dict(mu=16, gamma=0.02, max_generations=200, seed=seed)
        exact = run_umda(fig1, UmdaConfig(stop_rule="exact_optimal", **base))
        sufficient = run_umda(fig1, UmdaConfig(stop_rule="sufficient_optimal", **base))
        assert exact.succeeded and sufficient.succeeded
        assert exact.generations_used <= sufficient.generations_used
        assert is_optimal_exact(fig1, sufficient.optimal_witness)


def test_generation_cap_only_runs_to_cap(fig1):
    cfg = UmdaConfig(
        mu=8, gamma=0.02, max_generations=12, seed=12, stop_rule="generation_cap_only"
    )
    result = run_umda(fig1, cfg)
    assert not result.succeeded
    assert result.generations_used == 12
    assert result.evaluations == 96


def test_trace_snapshots(fig1):
    cfg = UmdaConfig(
        mu=8, gamma=0.02, max_generations=9, seed=13, stop_rule="generation_cap_only"
    )
    result = run_umda(fig1, cfg, trace_every=3)
    assert [t for t, _ in result.trace] == [3, 6, 9]
    assert set(result.trace[0][1]) == {"0", "1", "2", "3"}
    with pytest.raises(ValueError, match="trace_every"):
        run_umda(fig1, cfg, trace_every=-1)


# --- population masks --------------------------------------------------------

def test_population_masks_match_scalar_checks():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 20:
        g = random_game(rng, n_max=8)
        gd = grundy_values(g)
        if gd.values[g.root] == 0:
            continue
        checked += 1
        strategies = all_strategies(g)
        choices = choice_matrix(g, strategies)
        zero = zero_mask(g)
        opt_mask = population_optimal_mask(g, choices, zero)
        ref_mask = population_optimal_mask_dp(g, choices)
        suf_mask = population_sufficient_mask(g, gd, choices, zero)
        for j, x in enumerate(strategies):
            assert opt_mask[j] == ref_mask[j] == is_optimal_exact(g, x)
            assert suf_mask[j] == is_optimal_sufficient(g, gd, x)


def _population(g, zero, rng, count, bias):
    """Random slots; at a vertex with a Grundy-0 successor, each column
    moves to one of those with probability ``bias``."""
    choices = np.zeros((g.n, count), dtype=np.min_scalar_type(g.max_degree - 1))
    for v in g.interior:
        good = np.flatnonzero(zero[list(g.succ[v])])
        choices[v] = rng.integers(len(g.succ[v]), size=count)
        if len(good):
            pick = rng.random(count) < bias
            choices[v, pick] = good[rng.integers(len(good), size=int(pick.sum()))]
    return choices


def _check_mask_against_reference(g, choices):
    got = population_optimal_mask(g, choices, zero_mask(g))
    want = population_optimal_mask_dp(g, choices)
    assert got.dtype == bool and np.array_equal(got, want)
    return int(want.sum())


def test_optimal_mask_equals_reference_on_random_games():
    rng = np.random.default_rng(211)
    optimal = columns = 0
    for _ in range(300):
        g = random_game(rng)  # roots of Grundy value 0 included
        zero = zero_mask(g)
        for bias in (0.0, 0.8):
            optimal += _check_mask_against_reference(g, _population(g, zero, rng, 32, bias))
            columns += 32
    assert min(optimal, columns - optimal) > 2000  # both outcomes well represented


def test_optimal_mask_of_a_sink_root_is_false():
    g = build_graph({0: []}, root=0)
    choices = np.zeros((1, 4), dtype=np.uint8)
    assert not population_optimal_mask(g, choices, zero_mask(g)).any()
    assert not population_optimal_mask_dp(g, choices).any()


def test_optimal_mask_equals_reference_on_uint16_slots():
    g = ensure_first_player_win(subtraction_nim(300, 270))
    zero, rng = zero_mask(g), np.random.default_rng(5)
    optimal = 0
    for bias in (0.0, 0.8, 1.0):
        choices = _population(g, zero, rng, 64, bias)
        assert choices.dtype == np.uint16
        optimal += _check_mask_against_reference(g, choices)
    assert 0 < optimal < 3 * 64


class _ReadCounter(np.ndarray):
    """An array that counts the entries read from it through index arrays."""

    def __getitem__(self, index):
        self.reads += np.size(index)
        return np.asarray(self)[index]


def test_optimal_mask_steps_through_each_pair_once():
    g = ensure_first_player_win(turning_turtles(8))
    zero, mu = zero_mask(g), 16
    choices = _population(g, zero, np.random.default_rng(6), mu, 1.0)  # every column optimal
    targets = g.targets.view(_ReadCounter)
    targets.reads = 0
    counted = SimpleNamespace(offsets=g.offsets, targets=targets, root=g.root, n=g.n)
    assert population_optimal_mask(counted, choices, zero).all()
    # A pair step reads one move and at most one reply; expanding a
    # (column, Grundy-0 vertex) pair twice makes about 19,000 reads here.
    zero_edges = int(np.diff(g.offsets)[zero].sum())
    assert targets.reads <= 2 * mu * (zero_edges + 1)


def _run_populations(monkeypatch, g, cfg):
    """A seeded run's result and each generation's selected population."""
    populations = []

    def spy(*args):
        step = generation_step(*args)
        populations.append(step[1].choices)
        return step

    monkeypatch.setattr(eda, "generation_step", spy)
    return run_umda(g, cfg), populations


@pytest.mark.parametrize(
    "base, mu", [(chomp(4), 200), (silver_dollar(7, 2), 64)], ids=["chomp m=4", "silver_dollar m=7 k=2"]
)
def test_optimal_mask_equals_reference_up_to_the_first_hit(monkeypatch, base, mu):
    g = ensure_first_player_win(base)
    cfg = UmdaConfig(mu=mu, gamma=float(theorem_border(base)), max_generations=500, seed=3)
    result, populations = _run_populations(monkeypatch, g, cfg)
    assert result.succeeded and len(populations) > 10
    hits = [_check_mask_against_reference(g, choices) for choices in populations]
    assert hits[-1] > 0 and not any(hits[:-1])


@pytest.mark.parametrize("stop_rule", ["exact_optimal", "sufficient_optimal"])
@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("seed", [2, 3])  # first hit in column 33, a block start, and 52
def test_witness_is_the_first_hit_across_blocks(monkeypatch, stop_rule, columns, seed):
    base = silver_dollar(7, 2)
    g = ensure_first_player_win(base)
    gd, zero = grundy_values(g), zero_mask(g)
    per_column = 1 if stop_rule == "sufficient_optimal" else int(np.diff(g.offsets)[zero].sum())
    monkeypatch.setattr(eda, "STOP_BLOCK", columns * per_column)
    assert eda._stop_block(g, zero, stop_rule) == columns
    cfg = UmdaConfig(
        mu=64, gamma=float(theorem_border(base)), max_generations=500, seed=seed, stop_rule=stop_rule
    )
    result, populations = _run_populations(monkeypatch, g, cfg)
    if stop_rule == "exact_optimal":
        masks = [population_optimal_mask_dp(g, choices) for choices in populations]
    else:
        masks = [population_sufficient_mask(g, gd, choices, zero) for choices in populations]
    assert result.succeeded and not any(mask.any() for mask in masks[:-1])
    first = int(np.argmax(masks[-1]))
    assert first >= 3 * columns  # past the first blocks
    assert result.optimal_witness.choice == Population(g, populations[-1]).strategy(first).choice


def test_stop_check_memory_stays_near_the_population():
    g = ensure_first_player_win(turning_turtles(10))
    gd, zero, mu = grundy_values(g), zero_mask(g), 2048
    choices = _population(g, zero, np.random.default_rng(8), mu, 1.0)  # every column optimal
    block = eda._stop_block(g, zero, "exact_optimal")
    eda._first_stop_column(g, gd, zero, choices[:, :1], "exact_optimal", block)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        hit = eda._first_stop_column(g, gd, zero, choices, "exact_optimal", block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit == 0 and population_optimal_mask(g, choices[:, :block], zero).all()
    # One block's seen flags and copy of its columns, and its pair frontier;
    # one pass over all 2048 columns at once reached 560 MB.
    assert peak <= 2 * g.n * mu + 2 * 2**20


# --- the winner select -------------------------------------------------------

@pytest.mark.parametrize(
    "base", [chomp(4), subtraction_nim(300, 270)], ids=["chomp m=4", "nim n=300 k=270"]
)
def test_generation_step_selects_winners_as_where(base):
    g = ensure_first_player_win(base)
    model = _awkward_model(g, np.random.default_rng(17))
    cfg = UmdaConfig(mu=300, gamma=0.0, max_generations=1, seed=0)
    rng = np.random.default_rng(19)
    replay = copy.deepcopy(rng)
    _, population, _ = generation_step(model, cfg, rng)
    cx = _sample_choice_matrix(model, replay, cfg.mu)
    cy = _sample_choice_matrix(model, replay, cfg.mu)
    outcome = _playout(g, cx, cy)
    want = np.where(outcome == 1, cx, cy)
    assert 0 < (outcome == 1).sum() < cfg.mu  # both players win some games
    assert population.choices.dtype == want.dtype == cx.dtype
    assert np.array_equal(population.choices, want)


# --- theorem parameters -------------------------------------------------------

def test_theorem_gamma_formula():
    g = subtraction_nim(9, 3)
    gd = grundy_values(g)
    s_values = {v: 1 for v in range(g.n)}
    budget = theorem_parameters(g, gd, s_values)
    assert budget.gamma == theorem_border(g) == Fraction(1, 20 * 3 * 9)
    assert float(theorem_border(g)) == 1.0 / (20 * 3 * 9)


def test_theorem_border_needs_a_move():
    with pytest.raises(ValueError, match="no moves"):
        theorem_border(build_graph({0: []}, root=0))


def test_theorem_trivial_instantiation():
    import math

    g = build_graph({0: [1, 2], 1: [], 2: []}, root=0)
    gd = grundy_values(g)
    budget = theorem_parameters(g, gd, {v: 0 for v in range(g.n)}, K=0.0, C=1.0)
    base = 20 * 2 * 3
    assert budget.mu_min == pytest.approx(base * math.log(3))
    assert budget.mu_min_base == base


def test_theorem_fig1_budget(fig1):
    import math

    gd = grundy_values(fig1)
    budget = theorem_parameters(fig1, gd, {0: 0, 1: 1, 2: 1, 3: 2, 4: 0}, K=1.0, C=1.0)
    assert budget.s_hat == 1
    assert budget.s_bar == 2
    assert budget.mu_min == pytest.approx(3 * 300**3 * math.log(5))
    assert budget.mu_min > 10**7
    # generation budget sums over the critical positions only
    assert budget.generation_budget_base == 300**0 + 300**1
    assert budget.eval_budget_base == 300 ** (2 + 3 * 2)


def test_theorem_missing_switchability(fig1):
    gd = grundy_values(fig1)
    with pytest.raises(MissingSwitchability):
        theorem_parameters(fig1, gd, {0: 0})
