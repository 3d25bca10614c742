import copy
import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coevo import eda
from coevo.eda import (
    GammaTooLarge,
    MissingSwitchability,
    ProbModel,
    UmdaConfig,
    column_strategy,
    generation_step,
    model_from_snapshot,
    population_optimal_mask,
    population_sufficient_mask,
    prepare,
    restrict,
    _playout,
    _sample_choice_matrix,
    _threshold_table,
    run_umda,
    theorem_border,
    theorem_parameters,
    uniform_model,
    uniform_vector,
)
from coevo.games import FIXTURE_NAMES, chomp, fixture, silver_dollar, subtraction_nim, turning_turtles
from coevo.graphs import build_graph
from coevo.grundy import (
    PreconditionViolated,
    ensure_first_player_win,
    grundy_values,
    is_optimal_exact,
)
from coevo.oracles import selection_distribution
from coevo.switchability import root_distances
from helpers import (
    all_strategies,
    beta_minus,
    beta_plus,
    choice_matrix,
    edge_vector,
    instance_as_is,
    is_optimal_sufficient,
    mann_whitney_p,
    no_draw,
    playout_reference,
    population_optimal_mask_dp,
    random_game,
    restrict_row,
    run_umda_eager,
    sample_choice_matrix,
    sample_choice_matrix_per_vertex,
    step,
    successors,
    update_per_vertex,
    validate_strategy,
    zero_mask,
)


# --- restriction -----------------------------------------------------------

def restrict_both_forms(p, gamma) -> tuple[list, list]:
    """``p`` restricted by the reference and, as a one-row edge vector, by the package."""
    edge_vector = restrict(np.array(p, dtype=float), gamma, np.array([len(p)]))
    return restrict_row(p, gamma), edge_vector.tolist()


def test_restrict_binary_spec_value():
    assert restrict_both_forms([0.995, 0.005], 0.01) == ([0.99, 0.01],) * 2


def test_restrict_three_value_spec_value():
    assert restrict_both_forms([0.9, 0.05, 0.05], 0.1) == ([0.8, 0.1, 0.1],) * 2


def test_restrict_uniform_fixed_point():
    p = [0.25, 0.25, 0.25, 0.25]
    assert restrict_both_forms(p, 0.05) == (p, p)


def test_restrict_gamma_too_large():
    with pytest.raises(GammaTooLarge):
        restrict_row([0.5, 0.25, 0.25], 0.4)
    with pytest.raises(GammaTooLarge):
        restrict(np.array([0.5, 0.25, 0.25]), 0.4, np.array([3]))


def test_restrict_reference_is_exact_with_fractions():
    # The package's restrict is float-only; the reference keeps Fractions exact.
    p = [Fraction(9, 10), Fraction(1, 20), Fraction(1, 20)]
    out = restrict_row(p, Fraction(1, 10))
    assert out == [Fraction(4, 5), Fraction(1, 10), Fraction(1, 10)]
    assert sum(out) == 1


def test_restrict_binary_equals_clamp():
    rng = np.random.default_rng(67)
    for _ in range(10_000):
        a = rng.random()
        gamma = rng.random() * 0.49
        p = np.array([a, 1 - a])
        clamp = np.clip(p, gamma, 1 - gamma)
        assert (restrict(p.copy(), gamma, np.array([2])) == clamp).all()
        assert (np.asarray(restrict_row(p, gamma)) == clamp).all()


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
        bminus = beta_minus(p, gamma)
        lower_scale = 1 - bminus / (1 - gamma * size)
        subset = rng.random(size) < 0.5
        # The engine's edge-vector form and the one-row reference form.
        for out in (restrict(p.copy(), gamma, np.array([size])), np.asarray(restrict_row(p, gamma))):
            assert abs(out.sum() - 1) <= 1e-12
            assert (out >= gamma - 1e-15).all()
            for i in range(size):
                assert out[i] <= max(gamma, p[i]) + 1e-12
                if p[i] >= gamma:
                    assert out[i] <= p[i] + 1e-12
                    assert out[i] >= lower_scale * p[i] - 1e-12
            assert out[subset].sum() <= p[subset].sum() + gamma * size + 1e-12


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0, max_value=0.999),
)
def test_restrict_properties_hypothesis(weights, border_frac):
    p = np.array(weights) / sum(weights)
    gamma = border_frac / len(p)
    for out in (restrict(p.copy(), gamma, np.array([len(p)])), np.asarray(restrict_row(p, gamma))):
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
    # One row alone, rows of one length laid end to end, and rows of mixed
    # lengths laid end to end get exactly the reference arithmetic, for
    # lengths on both sides of numpy's 8-entry and 128-entry pairwise-sum
    # thresholds.
    rng = np.random.default_rng(97)
    laid = []
    for size in [*range(1, 40), 128, 129, 300]:
        rows = -np.log(rng.random((20, size)))
        rows[:, 1:][rng.random((20, size - 1)) < 0.3] = 0.0  # zeros sit below the border
        rows /= rows.sum(axis=1, keepdims=True)
        gamma = float(rng.random()) / size * 0.5
        for p, q in zip(rows, restrict(rows.flatten(), gamma, np.full(20, size)).reshape(20, size)):
            expected = _restrict_reference(p, gamma).tobytes()
            assert q.tobytes() == expected
            assert restrict(p.copy(), gamma, np.array([size])).tobytes() == expected
        laid.extend(rows[:3])
    laid = [laid[i] for i in rng.permutation(len(laid))]
    gamma = float(rng.random()) / 300 * 0.5
    q = np.concatenate(laid)
    assert restrict(q, gamma, np.array([len(p) for p in laid])) is q
    for p, hi in zip(laid, np.cumsum([len(p) for p in laid]).tolist()):
        assert q[hi - len(p) : hi].tobytes() == _restrict_reference(p, gamma).tobytes()


def test_restrict_renormalises_unnormalised_input():
    # The result lies on the gamma-bordered simplex: sum 1, every entry at
    # least gamma, also where the input's total is off 1, in both forms:
    # the one-row form agrees with the edge-vector form and stays exact on
    # Fractions, and a row with no mass is refused by both.
    gamma = 0.01
    for p in ([0.2, 0.2], [0.2, 0.2, 0.2], [3.0, 1.0, 0.0, 0.0]):
        out = restrict(np.array(p), gamma, np.array([len(p)]))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out >= gamma)
        row = restrict_row(p, gamma)
        assert abs(sum(row) - 1.0) <= 1e-12
        assert np.abs(np.array(row) - out).max() <= 1e-15
    rows = np.array([[0.2, 0.2, 0.2], [2.0, 0.5, 0.0], [0.5, 0.25, 0.25], [3.0, 0.0, 0.0]])
    out = restrict(rows.flatten(), gamma, np.full(4, 3)).reshape(4, 3)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(out >= gamma)
    assert restrict_row([Fraction(1, 5)] * 2, Fraction(1, 100)) == [Fraction(1, 2)] * 2
    row = restrict_row([0.05] * 3, 0.1)  # every entry below the border until divided by the total
    assert np.abs(np.array(row) - 1 / 3).max() <= 1e-15
    for p, degrees in [([0.0, 0.0, 0.0], [3]), ([0.5, 0.5, 0.0, 0.0], [2, 2])]:
        with pytest.raises(ValueError, match="positive total"):
            restrict(np.array(p), gamma, np.array(degrees))
    with pytest.raises(ValueError, match="positive total"):
        restrict_row([0.0, 0.0, 0.0], gamma)


def test_generation_step_restriction_matches_reference(monkeypatch):
    # One restriction a generation, over the whole edge vector: every vertex's
    # new vector equals the one-vector restriction of its winner frequencies,
    # to the last bit, and each row's counts (drawn plus filled) add up to mu.
    g = chomp(4)  # degrees 1 to 15
    gamma = 0.004
    cfg = UmdaConfig(mu=300, gamma=gamma, max_generations=1, seed=0, stop_rule="generation_cap_only")
    rng = np.random.default_rng(103)
    model = uniform_model(g, gamma)
    calls = []

    def spy(p, border, degrees):
        calls.append(p.copy())
        return restrict(p, border, degrees)

    monkeypatch.setattr(eda, "restrict", spy)
    for _ in range(10):
        calls.clear()
        new_model, *_ = step(model, cfg, rng)
        (freqs,) = calls
        for v in g.interior:
            q = freqs[g.offsets[v] : g.offsets[v + 1]]
            counts = q * cfg.mu
            assert np.abs(counts - np.round(counts)).max() < 1e-9
            assert np.round(counts).sum() == cfg.mu
            assert new_model.dists[v].tobytes() == _restrict_reference(q, gamma).tobytes()
        model = new_model


def test_restrict_degrees_form_renormalises_and_names_bad_rows():
    # In place over an edge vector, each vertex's row gets exactly the
    # reference arithmetic, rows whose total is off 1 first divided by it;
    # the checks name the smallest degree the border is too large for, and
    # a row with no mass.
    rng = np.random.default_rng(107)
    for g in [random_game(rng) for _ in range(10)] + [chomp(4), subtraction_nim(300, 270)]:
        degrees = np.diff(g.offsets)[list(g.interior)]
        starts = g.offsets[list(g.interior)]
        q = rng.random(g.edge_count)
        q[rng.random(g.edge_count) < 0.3] = 0.0
        q[starts] += 0.5  # no row without mass
        totals = np.array([q[lo : lo + d].sum() for lo, d in zip(starts, degrees)])
        scale = np.where(rng.random(len(totals)) < 0.8, totals, 1.0)  # a fifth stay off 1
        q /= np.repeat(scale, degrees)
        gamma = 0.5 / g.max_degree
        expected = []
        for lo, d in zip(starts.tolist(), degrees.tolist()):
            row = q[lo : lo + d]
            total = row.sum()
            expected.append(_restrict_reference(row / total if abs(total - 1) > 1e-12 else row, gamma))
        out = restrict(q, gamma, degrees)
        assert out is q
        assert out.tobytes() == np.concatenate(expected).tobytes()
    degrees = np.diff(chomp(4).offsets)[list(chomp(4).interior)]
    with pytest.raises(GammaTooLarge, match="too large for 3 outcomes"):
        restrict(np.full(chomp(4).edge_count, 0.3), 1 / 3, degrees)
    q = np.full(chomp(4).edge_count, 0.5)
    q[np.repeat(np.arange(len(degrees)), degrees) == 5] = 0.0
    with pytest.raises(ValueError, match="positive total"):
        restrict(q, 0.01, degrees)


def _update_inputs(g, mu, gamma, rng):
    """An edge vector on the gamma-bordered simplex (with gamma 0, some entries
    exactly 0, last moves included), drawn winner counts by edge and the
    winners' undrawn entries per vertex, some vertices fully drawn or not at all."""
    p = np.empty(g.edge_count)
    counts = np.zeros(g.edge_count, dtype=np.int64)
    rest = np.full(g.n, mu)
    for v in g.interior:
        lo, hi = int(g.offsets[v]), int(g.offsets[v + 1])
        weights = rng.random(hi - lo)
        if gamma == 0 and hi - lo > 1:
            zero = int(rng.integers(hi - lo))
            weights[(rng.random(hi - lo) < 0.3) | (np.arange(hi - lo) == zero)] = 0.0
            weights[(zero + 1) % (hi - lo)] += 0.5
        p[lo:hi] = weights / weights.sum()
        if gamma:
            restrict(p[lo:hi], gamma, np.array([hi - lo]))
        if hi - lo > 1:
            drawn = int(rng.choice([0, mu, int(rng.integers(mu + 1))]))
            counts[lo:hi] = np.bincount(rng.integers(hi - lo, size=drawn), minlength=hi - lo)
            rest[v] = mu - drawn
    return p, counts, rest


@pytest.mark.parametrize("mu", [37, 300])
@pytest.mark.parametrize("border", ["zero", "theorem", "wide"])
def test_update_equals_the_per_vertex_reference(monkeypatch, mu, border):
    # One multinomial fill over a table of Δ cells a vertex, with holes of
    # probability 0 between each row's first d-1 moves and its last, and one
    # restriction of the whole edge vector reproduce a fill and a restriction
    # per vertex: the same counts, the same model bytes and the same random
    # stream consumed.
    calls = []

    def spy(p, floor, degrees):
        calls.append(p.copy())
        return restrict(p, floor, degrees)

    monkeypatch.setattr(eda, "restrict", spy)
    rng = np.random.default_rng(109)
    games = [random_game(rng) for _ in range(20)]
    games += [chomp(4), chomp(5), silver_dollar(7, 3), subtraction_nim(300, 270)]
    for seed, g in enumerate(games):
        gamma = {"zero": 0.0, "theorem": float(theorem_border(g)), "wide": 0.5 / g.max_degree}[border]
        p, counts, rest = _update_inputs(g, mu, gamma, rng)
        assert gamma or (p == 0).any()
        ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want_counts, instance = counts.copy(), instance_as_is(g)
        want = update_per_vertex(g, p, want_counts, rest, mu, gamma, ref_rng)
        got = eda._update(instance, p, counts, rest, mu, gamma, new_rng)
        (freqs,) = calls
        assert freqs.tobytes() == (want_counts / mu).tobytes()  # the same counts
        calls.clear()
        assert got.tobytes() == want.tobytes()
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


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


@pytest.mark.parametrize(
    "gamma", [-0.5, float("nan"), float("inf"), True, pytest.param(10**400, id="huge"), "0.1", None]
)
def test_config_rejects_bad_gamma(gamma):
    # ExperimentConfig's and model_from_snapshot's border rule: a bool, a
    # number no float holds and a non-number are each a ValueError naming gamma.
    with pytest.raises(ValueError, match="gamma"):
        UmdaConfig(mu=4, gamma=gamma, max_generations=1, seed=0)
    assert UmdaConfig(mu=4, gamma=np.float64(0.01), max_generations=1, seed=0).gamma == 0.01


@pytest.mark.parametrize("max_generations", [0, -3])
def test_config_rejects_bad_max_generations(max_generations):
    with pytest.raises(ValueError, match="max_generations"):
        UmdaConfig(mu=4, gamma=0.01, max_generations=max_generations, seed=0)


@pytest.mark.parametrize(
    "field, value", [("mu", 0), ("mu", True), ("mu", 4.0), ("seed", -1), ("seed", True), ("seed", "3")]
)
def test_config_rejects_bad_mu_and_seed(field, value):
    # Both used to reach numpy unchecked, where a negative seed or mu=True
    # failed with a message that names no field.
    with pytest.raises(ValueError, match=field):
        UmdaConfig(**{"mu": 4, "gamma": 0.01, "max_generations": 1, "seed": 0, field: value})
    assert UmdaConfig(mu=np.int64(4), gamma=0.01, max_generations=1, seed=np.uint64(2**63)).seed == 2**63


def test_config_rejects_unknown_stop_rule():
    with pytest.raises(ValueError, match="unknown stop rule 'bogus'"):
        UmdaConfig(mu=4, gamma=0.01, max_generations=1, seed=0, stop_rule="bogus")


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
    copied = model.copy()  # vectors of its own, sharing no memory with the model's
    for v in g.interior:
        assert np.array_equal(copied.dists[v], model.dists[v])
        assert not np.shares_memory(copied.dists[v], model.dists[v])


def test_uniform_model_respects_border():
    g = subtraction_nim(7, 2)
    gamma = 1 / (20 * 2 * 7)
    model = uniform_model(g, gamma)
    for v in g.interior:
        assert (model.dists[v] >= gamma).all()


def test_sample_point_mass(fig1):
    model = uniform_model(fig1, 0.0)
    for v in fig1.interior:
        p = np.zeros(len(successors(fig1, v)))
        p[0] = 1.0
        model.dists[v] = p
    rng = np.random.default_rng(0)
    choices = sample_choice_matrix(model, rng, 20)
    for j in range(20):
        x = column_strategy(fig1, choices, j)
        assert x.choice == {v: successors(fig1, v)[0] for v in fig1.interior}


def test_sample_marginals_match_model(fig1):
    rng = np.random.default_rng(79)
    model = uniform_model(fig1, 0.0)
    draws = 100_000
    choices = sample_choice_matrix(model, rng, draws)
    hits = int((fig1.targets[fig1.offsets[0] + choices[0]] == 4).sum())
    assert abs(hits / draws - 1 / 3) <= 0.01


def test_sampled_strategies_valid():
    rng = np.random.default_rng(83)
    for _ in range(10):
        g = random_game(rng)
        model = uniform_model(g, 0.0)
        validate_strategy(g, column_strategy(g, sample_choice_matrix(model, rng, 1), 0))


def test_strategy_of_a_partly_drawn_column_is_refused():
    # A generation draws its winners' entries only where something reads them.
    g = chomp(4)
    cfg = UmdaConfig(mu=64, gamma=0.0, max_generations=1, seed=0, stop_rule="generation_cap_only")
    _, store, _ = step(uniform_model(g, 0.0), cfg, np.random.default_rng(1))
    with pytest.raises(ValueError, match="column 3 is not drawn in full"):
        column_strategy(g, store, 3)


def _awkward_model(g, rng):
    """Random rows, some with zero entries, some point masses, some whose
    cumulative sum ends below one (the clip to the last slot)."""
    model = uniform_model(g, 0.0)
    for v in g.interior:
        p = rng.random(len(successors(g, v)))
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
    # The draw routine, asked for every (interior vertex, individual) in
    # order, reproduces the per-vertex searchsorted stream at every table
    # width: the random games have at most 2 thresholds a row, chomp m=4
    # has 14 and subtraction_nim(300, 270) 269.
    for seed, (g, model) in enumerate(_sampling_corpus()):
        # "blocks": the count at which the eager sampler split one matrix
        # into about three blocks of rows.
        n = 2**17 // max(1, len(g.interior) // 3) if count == "blocks" else count
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_choice_matrix(model, rng, n)
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
    if sampler is _sample_choice_matrix:
        table = _threshold_table(g, edge_vector(model))
        choices = sampler(table, stub, np.repeat([0, 1], 5)).reshape(2, 5)
    else:
        choices = sampler(model, stub, 5)
    # u == cum[i] picks slot i + 1; u >= cum[-1] clamps to the last slot.
    assert choices[0].tolist() == [0, 1, 1, 2, 2]
    assert choices[1].tolist() == [0, 2, 2, 2, 2]
    assert stub.values == []


SAMPLER_WIDTHS = (2, 3, 4, 5, 9, 10, 12, 16, 17, 300)


@pytest.mark.parametrize(
    "degree, row_dtype",  # the playout's intp rows, then the stop check's int32 rows
    [pytest.param(d, np.int64, id=str(d)) for d in SAMPLER_WIDTHS]
    + [pytest.param(d, np.int32, id=f"{d}-int32") for d in SAMPLER_WIDTHS],
)
def test_sampler_boundaries_at_every_width(degree, row_dtype):
    # Both paths of the draw routine: a pass per threshold column below 10
    # thresholds a row, the binary search from 10 (powers of two and their
    # neighbours); dyadic entries make every running sum exact, so a
    # uniform can sit on each threshold.
    g = build_graph({0: list(range(1, degree + 1)), **{w: [] for w in range(1, degree + 1)}}, root=0)
    model = uniform_model(g, 0.0)
    p = np.full(degree, 1 / 512)
    p[-1] = 1 - (degree - 1) / 512  # cum[i] = (i + 1) / 512 for i < degree - 1
    model.dists[0] = p
    cum = np.cumsum(p)[:-1]
    uniforms = np.concatenate([[0.0], cum, np.nextafter(cum, 0), [0.999]])
    want = np.concatenate([[0], np.arange(1, degree), np.arange(degree - 1), [degree - 1]])
    table = _threshold_table(g, edge_vector(model))
    got = _sample_choice_matrix(table, _StubRng(uniforms), np.zeros(len(uniforms), dtype=row_dtype))
    assert got.tolist() == want.tolist()
    assert got.dtype == np.min_scalar_type(degree)


def test_sampler_memory_stays_near_the_output():
    # The draw routine holds a few arrays of the request's length whatever
    # the table's width: chomp m=6 has 35 moves at its root, and gathering
    # each entry's whole threshold row would take 34 floats an entry.
    g = chomp(6)
    table = _threshold_table(g, edge_vector(uniform_model(g, 0.0)))
    rows = np.repeat(np.flatnonzero(np.diff(g.offsets) > 1), 256).astype(np.int32)  # as the engine asks
    _sample_choice_matrix(table, np.random.default_rng(5), rows[:8])  # numpy's lazy set-up
    tracemalloc.start()
    try:
        slots = _sample_choice_matrix(table, np.random.default_rng(5), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(slots) == len(rows)
    # The output plus at most 40 bytes an entry: 8-byte uniforms and gathered
    # thresholds, and 4-byte row offsets, running indices and a halving step's
    # indices (28 bytes at the measured peak; int64 rows made it 40).
    assert peak <= slots.nbytes + 5 * 8 * len(rows)


class _CountingRng:
    """A numpy generator that counts the uniforms and multinomial fills it hands out."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.uniforms = 0
        self.fills = []

    def random(self, size=None):
        self.uniforms += int(np.prod(size))
        return self.inner.random(size)

    def multinomial(self, n, pvals):
        self.fills.append(np.array(n))
        return self.inner.multinomial(n, pvals)


def _spy_draws(monkeypatch):
    """Record the rows of every call of the draw routine."""
    calls = []

    def spy(table, rng, rows):
        calls.append(np.array(rows))
        return _sample_choice_matrix(table, rng, rows)

    monkeypatch.setattr(eda, "_sample_choice_matrix", spy)
    return calls


@pytest.mark.parametrize("stop_rule", ["exact_optimal", "sufficient_optimal"])
def test_degree_one_positions_draw_no_uniform(monkeypatch, stop_rule):
    # A forced start (degree 1) and position 1 of subtraction nim (one move)
    # are played through and read by the stop check without a draw.
    g = ensure_first_player_win(subtraction_nim(10, 2))  # heap 9 loses: a forced start
    degrees = np.diff(g.offsets)
    assert degrees[g.root] == 1 and degrees[1] == 1
    calls = _spy_draws(monkeypatch)
    rng, instance = _CountingRng(7), prepare(g)
    model = uniform_model(g, 0.01)
    cfg = UmdaConfig(mu=64, gamma=0.01, max_generations=1, seed=0, stop_rule=stop_rule)
    for _ in range(5):
        model, store, _ = step(model, cfg, rng, instance)
        assert (store[degrees < 2] == 0).all()
    rows = np.concatenate(calls)
    assert len(rows) == rng.uniforms > 0
    assert (degrees[rows] > 1).all()


def test_draws_stay_far_below_the_population_size(monkeypatch):
    # One generation on chomp m=6 reads a few positions per game: every
    # uniform drawn is an entry the draw routine returned, and they are a
    # small share of the n × mu entries the eager engine drew twice.
    g = chomp(6)
    calls = _spy_draws(monkeypatch)
    rng, mu = _CountingRng(11), 512
    cfg = UmdaConfig(mu=mu, gamma=0.0, max_generations=1, seed=0)
    _, store, _ = step(uniform_model(g, 0.0), cfg, rng, prepare(g))
    entries = sum(len(rows) for rows in calls)
    assert store.shape[1] == mu and entries == rng.uniforms
    assert entries < 0.05 * g.n * mu
    undrawn = np.iinfo(store.dtype).max
    assert 0 < int((store != undrawn).sum()) - int((np.diff(g.offsets) < 2).sum()) * mu < entries


@pytest.mark.parametrize("stop_rule", ["exact_optimal", "sufficient_optimal", "generation_cap_only"])
def test_drawn_plus_filled_is_mu(stop_rule):
    # At every vertex with a choice, the winners' drawn entries (left in the
    # slot store) and the multinomial fill add up to mu.
    g = ensure_first_player_win(silver_dollar(7, 2))
    degrees = np.diff(g.offsets)
    rng, mu, instance = _CountingRng(13), 96, prepare(g)
    cfg = UmdaConfig(mu=mu, gamma=0.01, max_generations=1, seed=0, stop_rule=stop_rule)
    model = uniform_model(g, 0.01)
    for _ in range(4):
        rng.fills.clear()
        model, choices, _ = step(model, cfg, rng, instance)
        assert choices.shape[1] == mu
        drawn = (choices != np.iinfo(choices.dtype).max).sum(axis=1)
        (filled,) = rng.fills  # one fill a generation, a row per vertex
        choosing = degrees > 1
        assert (drawn[choosing] + filled[choosing] == mu).all()
        assert (drawn[choosing] > 0).any() and (filled[choosing] > 0).any()


class _FillStateRng(_CountingRng):
    """A counting generator that keeps a copy of its state from just before each fill."""

    def multinomial(self, n, pvals):
        self.before_fill = copy.deepcopy(self.inner)
        return super().multinomial(n, pvals)


@pytest.mark.parametrize("stop_rule", ["exact_optimal", "sufficient_optimal", "generation_cap_only"])
def test_generation_step_update_equals_the_per_vertex_reference(monkeypatch, stop_rule):
    # A whole generation's next edge vector is the per-vertex reference's,
    # in vertex order, from the counts its slot store holds: the same
    # frequencies restricted, the same bytes, the same random stream.
    calls = []

    def spy(p, floor, degrees):
        calls.append(p.copy())
        return restrict(p, floor, degrees)

    monkeypatch.setattr(eda, "restrict", spy)
    rng = np.random.default_rng(113)
    bases = [random_game(rng, n_min=8) for _ in range(6)] + [chomp(4), silver_dollar(7, 3)]
    for seed, base in enumerate(bases):
        instance = prepare(base)
        g, mu = instance.graph, 97
        cfg = UmdaConfig(mu=mu, gamma=float(theorem_border(base)), max_generations=1, seed=0, stop_rule=stop_rule)
        p = edge_vector(_random_float_model(g, rng))
        calls.clear()
        step_rng = _FillStateRng(seed)
        got, choices, _ = generation_step(instance, p, cfg, step_rng)
        drawn = (choices != np.iinfo(choices.dtype).max) & (np.diff(g.offsets) > 1)[:, None]
        v, j = np.nonzero(drawn)
        counts = np.bincount(g.offsets[v] + choices[v, j], minlength=g.edge_count)
        rest = mu - drawn.sum(axis=1)
        ref_rng = step_rng.before_fill
        want = update_per_vertex(g, p, counts, rest, mu, cfg.gamma, ref_rng)
        (freqs,) = calls
        assert freqs.tobytes() == (counts / mu).tobytes()
        assert got.tobytes() == want.tobytes()
        assert step_rng.inner.bit_generator.state == ref_rng.bit_generator.state


# --- tournaments and generations --------------------------------------------

def test_tournament_point_mass_winner(fig1):
    model = uniform_model(fig1, 0.0)
    for v in fig1.interior:
        p = np.zeros(len(successors(fig1, v)))
        p[successors(fig1, v).index(4) if 4 in successors(fig1, v) else 0] = 1.0
        model.dists[v] = p
    cfg = UmdaConfig(mu=1, gamma=0.0, max_generations=1, seed=1, stop_rule="generation_cap_only")
    _, store, _ = step(model, cfg, np.random.default_rng(1))
    # The first mover jumps to the sink and wins; its root entry was drawn.
    assert fig1.targets[fig1.offsets[0] + store[0, 0]] == 4
    assert store.shape[1] == 1


def test_generation_step_spends_mu_evaluations(fig1):
    model = uniform_model(fig1, 0.01)
    mu = 64
    cfg = UmdaConfig(mu=mu, gamma=0.01, max_generations=1, seed=2, stop_rule="generation_cap_only")
    _, store, _ = step(model, cfg, np.random.default_rng(2))
    assert store.shape[1] == mu


def test_tournament_frequencies_match_dp(fig1):
    model = uniform_model(fig1, 0.0)
    trials = 200_000
    cfg = UmdaConfig(mu=trials, gamma=0.0, max_generations=1, seed=89, stop_rule="generation_cap_only")
    new_model, *_ = step(model, cfg, np.random.default_rng(89))
    freqs = new_model.dists[0]  # with no border, the winners' frequencies at the root
    exact = selection_distribution(fig1, model.dists, 0)
    tv = 0.5 * sum(abs(freqs[i] - float(exact[i])) for i in range(len(freqs)))
    assert tv <= 0.01


def test_generation_step_mu_one(fig1):
    gamma = 0.05
    model = uniform_model(fig1, gamma)
    cfg = UmdaConfig(mu=1, gamma=gamma, max_generations=1, seed=3, stop_rule="generation_cap_only")
    new_model, store, _ = step(model, cfg, np.random.default_rng(3))
    assert store.shape[1] == 1
    # Each vector is the restriction of one point mass: the winner's drawn
    # entry where the game read it, a one-draw multinomial fill elsewhere.
    undrawn = np.iinfo(store.dtype).max
    for v in fig1.interior:
        points = np.eye(len(successors(fig1, v)))
        hits = [i for i, point in enumerate(points) if np.allclose(new_model.dists[v], restrict_row(point, gamma))]
        assert len(hits) == 1
        assert store[v, 0] in (hits[0], undrawn)


def test_generation_step_forced_chain():
    g = build_graph({0: [1], 1: [2], 2: []}, root=0)
    gamma = 0.1
    model = uniform_model(g, gamma)
    cfg = UmdaConfig(mu=16, gamma=gamma, max_generations=1, seed=4, stop_rule="generation_cap_only")
    new_model, *_ = step(model, cfg, np.random.default_rng(4))
    for v in g.interior:
        assert new_model.dists[v].tolist() == [1.0]


def test_generation_step_expectation_matches_dp(fig1):
    gamma = 1e-6
    model = uniform_model(fig1, gamma)
    mu = 10_000
    cfg = UmdaConfig(mu=mu, gamma=gamma, max_generations=1, seed=5, stop_rule="generation_cap_only")
    new_model, *_ = step(model, cfg, np.random.default_rng(5))
    exact = [float(p) for p in selection_distribution(fig1, model.dists, 0)]
    for i, p in enumerate(exact):
        sigma = np.sqrt(p * (1 - p) / mu)
        assert abs(new_model.dists[0][i] - p) <= 3.5 * sigma + 2 * gamma


def test_model_entries_stay_bounded():
    g = subtraction_nim(9, 2)
    g = ensure_first_player_win(g)
    gamma = 0.02
    model = uniform_model(g, gamma)
    cfg = UmdaConfig(mu=50, gamma=gamma, max_generations=1, seed=6, stop_rule="generation_cap_only")
    rng = np.random.default_rng(6)
    for _ in range(30):
        model, *_ = step(model, cfg, rng)
        for v in g.interior:
            deg = len(successors(g, v))
            assert (model.dists[v] >= gamma - 1e-12).all()
            assert (model.dists[v] <= 1 - (deg - 1) * gamma + 1e-12).all()
            assert abs(model.dists[v].sum() - 1) <= 1e-12


# --- the lazy engine against the exact law and the eager engine ---------------

def _random_float_model(g, rng):
    model = uniform_model(g, 0.0)
    for v in g.interior:
        p = rng.random(len(successors(g, v))) + 0.2
        model.dists[v] = p / p.sum()
    return model


@pytest.mark.parametrize("game", ["fig1", "chomp m=3", "random game"])
def test_mean_update_matches_selection_distribution(game):
    # With no border the next model is the winners' frequencies, whose mean
    # is the exact selection distribution at every vertex. Thresholds, fixed
    # before the first run: every |z| <= 4.5 and mean z^2 <= 2 over all
    # entries, at mu = 20,000 over 10 independent generations.
    rng = np.random.default_rng(31)
    g = {"fig1": fixture("fig1"), "chomp m=3": chomp(3), "random game": random_game(rng, n_min=9)}[game]
    model = _random_float_model(g, rng)
    mu, repeats = 20_000, 10
    cfg = UmdaConfig(mu=mu, gamma=0.0, max_generations=1, seed=0, stop_rule="generation_cap_only")
    mean = {v: np.zeros(len(successors(g, v))) for v in g.interior}
    for r in range(repeats):
        new_model, *_ = step(model, cfg, np.random.default_rng(400 + r))
        for v in g.interior:
            mean[v] += new_model.dists[v] / repeats
    z = []
    for v in g.interior:
        exact = np.array([float(x) for x in selection_distribution(g, model.dists, v)])
        inside = (exact > 0) & (exact < 1)
        z.extend((mean[v] - exact)[inside] / np.sqrt(exact * (1 - exact) / (mu * repeats))[inside])
    z = np.array(z)
    assert len(z) >= 5  # fig1 has five entries strictly between 0 and 1
    assert np.abs(z).max() <= 4.5 and (z**2).mean() <= 2.0


@pytest.mark.parametrize(
    "base, mu, runs, cap",
    [(subtraction_nim(32, 2), 256, 16, 200), (subtraction_nim(64, 2), 512, 8, 200), (chomp(4), 400, 8, 100)],
    ids=["nim n=32 k=2", "nim n=64 k=2", "chomp m=4"],
)
def test_generations_to_success_match_the_eager_engine(base, mu, runs, cap):
    # Same process in law: the lazy engine's generations to a verified
    # optimum are not told apart from the eager engine's by a two-sided
    # Mann-Whitney test at p >= 0.001 (threshold fixed before the first run;
    # runs that hit the cap count as cap + 1).
    g = ensure_first_player_win(base)
    gamma = float(theorem_border(base))
    samples = []
    for run in (run_umda, run_umda_eager):
        generations = []
        for seed in range(runs):
            result = run(g, UmdaConfig(mu=mu, gamma=gamma, max_generations=cap, seed=900 + seed))
            assert not result.succeeded or is_optimal_exact(g, result.optimal_witness)
            generations.append(result.generations_used if result.succeeded else cap + 1)
        samples.append(generations)
    assert mann_whitney_p(*samples) >= 0.001


def test_engine_layers_keep_their_names(monkeypatch):
    # The benchmark traces these names from outside; a rename fails here.
    for name in ("generation_step", "_sample_choice_matrix", "_playout", "restrict", "population_optimal_mask"):
        assert callable(getattr(eda, name)), name
    calls = []

    def spy(*args):
        calls.append(1)
        return generation_step(*args)

    monkeypatch.setattr(eda, "generation_step", spy)
    cfg = UmdaConfig(mu=8, gamma=0.02, max_generations=6, seed=1, stop_rule="generation_cap_only")
    result = run_umda(fixture("fig1"), cfg)
    assert len(calls) == result.generations_used == 6


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


@pytest.mark.parametrize("n", [10, 11])  # heap 10 loses (a forced start), 11 wins
def test_prepare_describes_the_run_graph_from_one_pass(monkeypatch, n):
    base = subtraction_nim(n, 2)
    calls = []
    inner = eda._grundy.zero_flags
    monkeypatch.setattr(eda._grundy, "zero_flags", lambda g: calls.append(g) or inner(g))
    monkeypatch.setattr(eda._grundy, "grundy_values", lambda g: calls.append(("values", g)))
    instance = prepare(base)
    assert calls == [base]
    g = instance.graph
    assert instance.base is base and (g is base) == (n == 11)
    assert g == ensure_first_player_win(base)
    assert np.array_equal(instance.zero, zero_mask(g))
    assert instance.critical.tolist() == sorted(grundy_values(g).critical)
    fresh = instance_as_is(g)
    for name, value in vars(instance).items():
        if isinstance(value, np.ndarray):
            other = getattr(fresh, name)
            assert value.dtype == other.dtype and np.array_equal(value, other), name
            with pytest.raises(ValueError, match="read-only"):  # every run on the instance shares it
                value[:1] = value[:1]
    degree, width = np.diff(g.offsets), g.max_degree
    assert instance.degrees.tolist() == degree[list(g.interior)].tolist()
    # Vertex v's row of the fill table starts at cell v * width; its last move sits in the row's last cell.
    cells = [v * width + (i if i < degree[v] - 1 else width - 1) for v in g.interior for i in range(degree[v])]
    assert instance.fill_cells.tolist() == cells


def test_run_requires_the_instance_of_its_graph():
    g = ensure_first_player_win(subtraction_nim(10, 2))
    cfg = UmdaConfig(mu=8, gamma=0.01, max_generations=10, seed=8)
    with pytest.raises(ValueError, match="another run graph"):
        run_umda(g, cfg, instance=prepare(subtraction_nim(11, 2)))
    with pytest.raises(ValueError, match="another run graph"):
        run_umda(g, cfg, instance=prepare(ensure_first_player_win(subtraction_nim(10, 2))))
    base = subtraction_nim(10, 2)  # its run graph carries a forced start
    with pytest.raises(ValueError, match="another run graph"):
        run_umda(base, cfg, instance=prepare(base))


@pytest.mark.parametrize("stop_rule", ["exact_optimal", "sufficient_optimal"])
def test_run_on_a_prepared_instance_equals_the_plain_run(stop_rule):
    instance = prepare(silver_dollar(7, 2))
    g = instance.graph
    cfg = UmdaConfig(mu=40, gamma=0.01, max_generations=300, seed=3, stop_rule=stop_rule)
    a, b = run_umda(g, cfg), run_umda(g, cfg, instance=instance)
    assert (a.generations_used, a.succeeded) == (b.generations_used, b.succeeded)
    assert a.final_model.snapshot() == b.final_model.snapshot()
    assert a.optimal_witness == b.optimal_witness


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


@pytest.mark.parametrize("trace_every", [1.5, True, "2", None])
def test_run_refuses_a_trace_interval_that_is_not_an_int(fig1, trace_every):
    # 1.5 used to snapshot generations 3 and 6, True acted as 1, and "2"
    # raised a bare TypeError.
    cfg = UmdaConfig(mu=8, gamma=0.02, max_generations=9, seed=13, stop_rule="generation_cap_only")
    with pytest.raises(ValueError, match="trace_every must be an int at least 0"):
        run_umda(fig1, cfg, trace_every=trace_every)


def test_run_builds_its_model_only_for_snapshots_and_the_result(monkeypatch, fig1):
    # A run carries one edge vector from generation to generation; per-vertex
    # views of it are made once per trace snapshot and once for the result.
    calls, views = [], eda._views
    monkeypatch.setattr(eda, "_views", lambda *args: calls.append(1) or views(*args))
    cfg = UmdaConfig(mu=8, gamma=0.02, max_generations=9, seed=13, stop_rule="generation_cap_only")
    for trace_every, snapshots in [(0, 0), (3, 3), (4, 2)]:
        calls.clear()
        result = run_umda(fig1, cfg, trace_every=trace_every)
        assert result.generations_used == 9
        assert len(result.trace) == snapshots and len(calls) == 1 + snapshots
    calls.clear()
    result = run_umda(fig1, replace(cfg, stop_rule="exact_optimal"), trace_every=1)
    assert result.succeeded and len(calls) == 1 + result.generations_used


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
        opt_mask = population_optimal_mask(g, choices, zero, no_draw)
        ref_mask = population_optimal_mask_dp(g, choices)
        suf_mask = population_sufficient_mask(g, sorted(gd.critical), choices, zero, no_draw)
        for j, x in enumerate(strategies):
            assert opt_mask[j] == ref_mask[j] == is_optimal_exact(g, x)
            assert suf_mask[j] == is_optimal_sufficient(g, gd, x)


def _population(g, zero, rng, count, bias):
    """Random slots; at a vertex with a Grundy-0 successor, each column
    moves to one of those with probability ``bias``."""
    choices = np.zeros((g.n, count), dtype=np.min_scalar_type(g.max_degree), order="F")
    for v in g.interior:
        good = np.flatnonzero(zero[list(successors(g, v))])
        choices[v] = rng.integers(len(successors(g, v)), size=count)
        if len(good):
            pick = rng.random(count) < bias
            choices[v, pick] = good[rng.integers(len(good), size=int(pick.sum()))]
    return choices


def _check_mask_against_reference(g, choices):
    got = population_optimal_mask(g, np.asfortranarray(choices), zero_mask(g), no_draw)
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
    choices = np.zeros((1, 4), dtype=np.uint8, order="F")
    assert not population_optimal_mask(g, choices, zero_mask(g), no_draw).any()
    assert not population_optimal_mask_dp(g, choices).any()


def test_optimal_mask_draws_only_into_a_column_major_store(fig1):
    choices = np.zeros((fig1.n, 4), dtype=np.uint8)  # C-ordered
    with pytest.raises(ValueError, match="column-major"):
        population_optimal_mask(fig1, choices, zero_mask(fig1), no_draw)


def test_optimal_mask_equals_reference_on_uint16_slots():
    # At Δ = 256 the largest slot, 255, is a uint8's largest value, the
    # undrawn marker; the store takes uint16 from Δ = 256 on.
    for k in (256, 270):
        g = ensure_first_player_win(subtraction_nim(300, k))
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
    assert population_optimal_mask(counted, choices, zero, no_draw).all()
    # A pair step reads one move and at most one reply; expanding a
    # (column, Grundy-0 vertex) pair twice makes about 19,000 reads here.
    zero_edges = int(np.diff(g.offsets)[zero].sum())
    assert targets.reads <= 2 * mu * (zero_edges + 1)


def _run_populations(monkeypatch, g, cfg):
    """A seeded run's result, and each generation's selected population and
    witness column. Entries the generation never drew are filled with
    arbitrary slots: a stop check reads each column it scans until the
    column fails, so no filling changes which column is the first hit."""
    populations, witnesses = [], []
    fill = np.random.default_rng(0)
    degrees = np.maximum(np.diff(g.offsets), 1)[:, None]

    def spy(*args):
        out = generation_step(*args)
        choices = out[1].copy(order="F")  # a column-major slot store, as the engine's
        undrawn = choices == np.iinfo(choices.dtype).max
        choices[undrawn] = (fill.integers(0, 2**20, size=choices.shape) % degrees)[undrawn]
        populations.append(choices)
        witnesses.append(out[2])
        return out

    monkeypatch.setattr(eda, "generation_step", spy)
    return run_umda(g, cfg), populations, witnesses


@pytest.mark.parametrize(
    "base, mu, seed",
    [(chomp(4), 200, 4), (silver_dollar(7, 2), 64, 3)],  # seeds whose runs last over 10 generations
    ids=["chomp m=4", "silver_dollar m=7 k=2"],
)
def test_optimal_mask_equals_reference_up_to_the_first_hit(monkeypatch, base, mu, seed):
    g = ensure_first_player_win(base)
    cfg = UmdaConfig(mu=mu, gamma=float(theorem_border(base)), max_generations=500, seed=seed)
    result, populations, witnesses = _run_populations(monkeypatch, g, cfg)
    assert result.succeeded and len(populations) > 10
    hits = [_check_mask_against_reference(g, choices) for choices in populations]
    assert hits[-1] > 0 and not any(hits[:-1])
    assert witnesses[-1] == int(np.argmax(population_optimal_mask_dp(g, populations[-1])))
    assert witnesses[:-1] == [None] * (len(witnesses) - 1)


@pytest.mark.parametrize("stop_rule", ["exact_optimal", "sufficient_optimal"])
@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("seed", [2, 6])  # first hits in columns 12 to 64, each past the third block
def test_witness_is_the_first_hit_across_blocks(monkeypatch, stop_rule, columns, seed):
    base = silver_dollar(7, 2)
    g = ensure_first_player_win(base)
    gd, zero = grundy_values(g), zero_mask(g)
    per_column = 1 if stop_rule == "sufficient_optimal" else int(np.diff(g.offsets)[zero].sum())
    monkeypatch.setattr(eda, "STOP_BLOCK", columns * per_column)
    assert eda._stop_block(prepare(g), stop_rule) == columns
    cfg = UmdaConfig(
        mu=74, gamma=float(theorem_border(base)), max_generations=500, seed=seed, stop_rule=stop_rule
    )
    result, populations, witnesses = _run_populations(monkeypatch, g, cfg)
    if stop_rule == "exact_optimal":
        masks = [population_optimal_mask_dp(g, choices) for choices in populations]
    else:
        critical = sorted(gd.critical)
        masks = [population_sufficient_mask(g, critical, choices, zero, no_draw) for choices in populations]
    assert result.succeeded and not any(mask.any() for mask in masks[:-1])
    first = int(np.argmax(masks[-1]))
    assert first >= 3 * columns  # past the first blocks
    assert witnesses[-1] == first
    assert result.optimal_witness.choice == column_strategy(g, populations[-1], first).choice


def test_stop_check_memory_stays_near_the_population(monkeypatch):
    # A generation hands the stop check one block of its winners at a time,
    # and a block pass, drawing the entries its walk reads, holds about one
    # block's seen flags, pair frontier and draws. With the model on a
    # Grundy-0 move wherever there is one, every winner is optimal, so the
    # first block's pass walks every column to the end.
    g = ensure_first_player_win(turning_turtles(10))
    zero, mu = zero_mask(g), 2048
    instance = prepare(g)
    block = eda._stop_block(instance, "exact_optimal")
    model = uniform_model(g, 0.0)
    for v in g.interior:
        good = np.flatnonzero(zero[list(successors(g, v))])
        if len(good):
            model.dists[v] = np.eye(len(successors(g, v)))[good[0]]
    widths, peaks, drawn = [], [], []

    def spy(g, part, zero, draw):
        def counted(rows):
            drawn.append(len(rows))
            return draw(rows)

        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mask = population_optimal_mask(g, part, zero, counted)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        widths.append(part.shape[1])
        return mask

    monkeypatch.setattr(eda, "population_optimal_mask", spy)
    cfg = UmdaConfig(mu=mu, gamma=0.0, max_generations=1, seed=0)
    step(model, replace(cfg, mu=8), np.random.default_rng(5), instance)  # numpy's lazy set-up
    widths.clear(), peaks.clear(), drawn.clear()
    tracemalloc.start()
    try:
        *_, witness = step(model, cfg, np.random.default_rng(5), instance)
    finally:
        tracemalloc.stop()
    assert widths == [block] and block < mu and witness == 0
    assert sum(drawn) > g.n * block // 2  # the walk drew most of the block
    # One pass over all 2048 columns at once reached 560 MB; with the drawn
    # rows as int64 and the walk's step temporaries held into the next
    # step, one block pass reached 7.4 MB.
    assert peaks[0] <= 2 * g.n * mu + 2 * 2**20


def test_generation_memory_stays_near_the_store():
    g = chomp(6)
    model, mu = uniform_model(g, 0.0), 2048
    cfg = UmdaConfig(mu=mu, gamma=0.0, max_generations=1, seed=0)
    instance = prepare(g)
    step(model, replace(cfg, mu=8), np.random.default_rng(5), instance)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        step(model, cfg, np.random.default_rng(5), instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The slot store and one block's seen flags (n bytes per column each),
    # the threshold table, and the games' small records; two eager n × mu
    # choice matrices and their uniforms were 17 MB here.
    table = _threshold_table(g, edge_vector(model))
    assert peak <= 2 * g.n * mu + table.nbytes + 2 * 2**20


@pytest.mark.parametrize(
    "stop_rule", ["exact_optimal", "sufficient_optimal", "generation_cap_only"]
)
@pytest.mark.parametrize(
    "base, mu",
    [(subtraction_nim(64, 2), 1024), (silver_dollar(8, 3), 256), (chomp(4), 256)],
    ids=["nim n=64 k=2", "silver_dollar m=8 k=3", "chomp m=4"],
)
def test_a_reused_record_steps_as_a_fresh_one(base, mu, stop_rule):
    # A run writes every generation over one record; stepping the same run
    # with a fresh record each generation gives the same bytes: edge vector,
    # slot store, witness and random stream.
    instance = prepare(base)
    g = instance.graph
    cfg = UmdaConfig(mu=mu, gamma=float(theorem_border(base)), max_generations=1, seed=0, stop_rule=stop_rule)
    record = eda.Record(g)
    reused = uniform_vector(g, cfg.gamma)
    fresh = reused.copy()
    rngs = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(12):
        reused, kept, kept_witness = generation_step(instance, reused, cfg, rngs[0], record)
        fresh, made, made_witness = generation_step(instance, fresh, cfg, rngs[1])
        assert reused.tobytes() == fresh.tobytes()
        assert kept.tobytes() == made.tobytes() and kept_witness == made_witness
        assert not np.shares_memory(kept, record.ints) and not np.shares_memory(kept, record.slots)
        if made_witness is not None:
            break
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_generations_after_the_first_reuse_the_record(monkeypatch):
    # On nim n=64 k=2 at mu=1024 a generation's games draw about 43,000
    # entries. The first generation of a run allocates the record that holds
    # them; every later one writes over it, so its traced peak stays below
    # one intp array of that many entries.
    base = subtraction_nim(64, 2)
    instance = prepare(base)
    peaks = []

    def spy(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = generation_step(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(eda, "generation_step", spy)
    cfg = UmdaConfig(mu=1024, gamma=float(theorem_border(base)), max_generations=2000, seed=0)
    run_umda(instance.graph, replace(cfg, mu=8), instance=instance)  # numpy's lazy set-up
    peaks.clear()
    tracemalloc.start()
    try:
        result = run_umda(instance.graph, cfg, instance=instance)
    finally:
        tracemalloc.stop()
    record_bytes = 43_000 * np.dtype(np.intp).itemsize
    assert result.succeeded and len(peaks) == result.generations_used > 10
    assert peaks[0] > record_bytes  # the first generation allocates the record
    assert max(peaks[1:]) < record_bytes


# --- the winner select -------------------------------------------------------

@pytest.mark.parametrize(
    "base", [chomp(4), subtraction_nim(300, 270)], ids=["chomp m=4", "nim n=300 k=270"]
)
def test_generation_step_selects_winners_as_where(base):
    # Replaying the draws from a copy of the generator into two slot stores,
    # one per player, the selected population is each game's winner's store
    # column, as np.where(outcome == 1, x, y) picks it.
    g = ensure_first_player_win(base)
    model = _awkward_model(g, np.random.default_rng(17))
    cfg = UmdaConfig(mu=300, gamma=0.0, max_generations=1, seed=0, stop_rule="generation_cap_only")
    rng = np.random.default_rng(19)
    replay = copy.deepcopy(rng)
    _, store, _ = step(model, cfg, rng)
    table = _threshold_table(g, edge_vector(model))
    stores = np.full((2, g.n, cfg.mu), np.iinfo(store.dtype).max, dtype=store.dtype)
    stores[:, np.diff(g.offsets) < 2] = 0

    def draw(side, at, cols):
        slots = _sample_choice_matrix(table, replay, at)
        stores[side, at, cols] = slots
        return slots

    outcome = _playout(g, draw, cfg.mu)
    want = np.where(outcome == 1, stores[0], stores[1])
    assert 0 < (outcome == 1).sum() < cfg.mu  # both players win some games
    assert store.dtype == want.dtype
    assert np.array_equal(store, want)


# --- the playout -----------------------------------------------------------

def _playout_games():
    rng = np.random.default_rng(23)
    games = {name: fixture(name) for name in FIXTURE_NAMES}
    games.update({f"random game {i}": random_game(rng, n_min=6, n_max=14) for i in range(12)})
    games["forced start"] = ensure_first_player_win(subtraction_nim(10, 2))  # the root has one move
    games["sink root"] = build_graph({0: []}, root=0)
    games["nim n=12 k=2"] = subtraction_nim(12, 2)  # position 1 has one move, to the sink 0
    return games


@pytest.mark.parametrize("count", [1, 40])
def test_playout_draws_as_the_reference(count):
    # A seeded spy draw, replayed: the playout asks for the same (side,
    # positions, columns) as the reference, in order, hands draw intp arrays
    # and returns the same outcomes.
    for name, g in _playout_games().items():
        degree = np.diff(g.offsets)
        dtype = np.min_scalar_type(g.max_degree)
        runs = []
        for playout in (_playout, playout_reference):
            rng, calls = np.random.default_rng(29), []

            def draw(side, at, cols):
                calls.append((side, at.tolist(), cols.tolist(), at.dtype, cols.dtype))
                assert (degree[at] > 1).all()
                return (rng.random(len(at)) * degree[at]).astype(dtype)

            runs.append((playout(g, draw, count).tolist(), calls))
        (outcome, calls), (want_outcome, want_calls) = runs
        assert outcome == want_outcome, name
        assert [call[:3] for call in calls] == [call[:3] for call in want_calls], name
        assert all(call[3] == call[4] == np.intp for call in calls), name


# --- theorem parameters -------------------------------------------------------

def test_theorem_gamma_formula():
    g = subtraction_nim(9, 3)
    gd = grundy_values(g)
    s_values = {v: 1 for v in range(g.n)}
    budget = theorem_parameters(g, gd.critical, s_values)
    assert budget.gamma == theorem_border(g) == Fraction(1, 20 * 3 * 9)
    assert float(theorem_border(g)) == 1.0 / (20 * 3 * 9)


def test_theorem_border_needs_a_move():
    with pytest.raises(ValueError, match="no moves"):
        theorem_border(build_graph({0: []}, root=0))


def test_theorem_trivial_instantiation():
    import math

    g = build_graph({0: [1, 2], 1: [], 2: []}, root=0)
    gd = grundy_values(g)
    budget = theorem_parameters(g, gd.critical, {v: 0 for v in range(g.n)}, K=0.0, C=1.0)
    base = 20 * 2 * 3
    assert budget.mu_min == pytest.approx(base * math.log(3))
    assert budget.mu_min_base == base


def test_theorem_fig1_budget(fig1):
    import math

    gd = grundy_values(fig1)
    budget = theorem_parameters(fig1, gd.critical, {0: 0, 1: 1, 2: 1, 3: 2, 4: 0}, K=1.0, C=1.0)
    assert budget.s_hat == 1
    assert budget.s_bar == 2
    assert budget.mu_min == pytest.approx(3 * 300**3 * math.log(5))
    assert budget.mu_min > 10**7
    # generation budget sums over the critical positions only
    assert budget.generation_budget_base == 300**0 + 300**1
    assert budget.eval_budget_base == 300 ** (2 + 3 * 2)


def test_theorem_budget_past_a_float_is_inf():
    # nim n=64 k=2: s_bar = 32, so the evaluation budget's base 2560**98
    # overflows a float while the population bound still fits.
    g = subtraction_nim(64, 2)
    gd = grundy_values(g)
    s_values = dict(enumerate(root_distances(g)))
    budget = theorem_parameters(g, gd.critical, s_values)
    assert budget.s_bar == 32
    assert budget.eval_budget == float("inf")
    assert np.isfinite(budget.mu_min)
    assert budget.eval_budget_base == 2560**98 and type(budget.eval_budget_base) is int


def test_theorem_missing_switchability(fig1):
    gd = grundy_values(fig1)
    with pytest.raises(MissingSwitchability):
        theorem_parameters(fig1, gd.critical, {0: 0})
