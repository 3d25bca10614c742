import numpy as np
import pytest

from coevo import grundy
from coevo.eda import prepare
from coevo.games import fixture, nim_decode, silver_dollar, subtraction_nim
from coevo.graphs import Strategy, build_graph
from coevo.grundy import (
    GrundyData,
    PreconditionViolated,
    canonical_optimal_strategy,
    critical_rows,
    ensure_first_player_win,
    grundy_values,
    is_optimal_exact,
    zero_flags,
)
from helpers import (
    all_strategies,
    critical_positions_inclusive,
    is_optimal_sufficient,
    outcome_matrix_scalar,
    prepare_from_grundy,
    random_game,
    successors,
)
from test_games import FAMILY_GRAPHS, REFERENCE_CASES

FIXTURES = ("fig1", "fig2", "fig3_top", "fig3_bottom", "fig4", "chain3")
# Every family rung the game tests build, every fixture (fig1's moves raise the
# vertex id, so its order comes from the depth-first search) and the pinned graphs.
FLAG_GRAPHS = {
    **{f"{make.__name__}{args}": (make, args) for make, _, args in REFERENCE_CASES},
    **{f"fixture {name}": (fixture, (name,)) for name in FIXTURES},
    **{name: (make, ()) for name, make in FAMILY_GRAPHS.items()},
}


def test_fig1_values(fig1):
    gd = grundy_values(fig1)
    assert gd.values == (1, 0, 2, 1, 0)
    assert gd.zero_set == frozenset({1, 4})
    assert gd.critical == frozenset({0, 2})


def test_chain_alternation():
    g = build_graph({0: [1], 1: [2], 2: [3], 3: []}, root=0)
    gd = grundy_values(g)
    assert gd.values == (1, 0, 1, 0)
    assert gd.critical == frozenset()  # single forced move everywhere


def test_nim_values_mod_pattern():
    g = subtraction_nim(7, 2)
    gd = grundy_values(g)
    assert gd.values == tuple(i % 3 for i in range(7))
    assert gd.zero_set == frozenset({0, 3, 6})
    assert gd.critical == frozenset({2, 4, 5})


def test_mex_definition_per_vertex():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = random_game(rng)
        gd = grundy_values(g)
        for v in g.interior:
            succ_values = {gd.values[w] for w in successors(g, v)}
            assert gd.values[v] not in succ_values
            for below in range(gd.values[v]):
                assert below in succ_values


def test_critical_variant_flag():
    # Vertex whose moves are all winning: literal says not critical,
    # the inclusive variant says critical.
    g = build_graph({2: [0, 1], 1: [], 0: []}, root=2)
    gd = grundy_values(g)
    assert gd.values == (0, 0, 1)
    assert critical_rows(g, np.array(gd.values) == 0).tolist() == []
    assert critical_positions_inclusive(g, gd.values) == frozenset({2})


def test_sufficient_certificate(fig1):
    gd = grundy_values(fig1)
    assert is_optimal_sufficient(fig1, gd, Strategy({0: 1, 1: 2, 2: 4, 3: 4}))
    # Optimal but rejected by the certificate: wins immediately at the
    # root yet plans a bad move at b.
    sneaky = Strategy({0: 4, 1: 2, 2: 3, 3: 4})
    assert not is_optimal_sufficient(fig1, gd, sneaky)
    assert is_optimal_exact(fig1, sneaky)


def test_sufficient_vacuous():
    g = build_graph({0: [1], 1: []}, root=0)
    gd = grundy_values(g)
    assert gd.critical == frozenset()
    assert is_optimal_sufficient(g, gd, Strategy({0: 1}))


def test_sufficient_precondition():
    g = subtraction_nim(7, 2)
    gd = grundy_values(g)
    with pytest.raises(PreconditionViolated):
        is_optimal_sufficient(g, gd, all_strategies(g)[0])


def test_sufficient_implies_exact():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 30:
        g = random_game(rng, n_max=8)
        gd = grundy_values(g)
        if gd.values[g.root] == 0:
            continue
        checked += 1
        for x in all_strategies(g):
            if is_optimal_sufficient(g, gd, x):
                assert is_optimal_exact(g, x)


def test_exact_fig1(fig1):
    for b_choice in (3, 4):
        assert is_optimal_exact(fig1, Strategy({0: 4, 1: 2, 2: b_choice, 3: 4}))
    assert is_optimal_exact(fig1, Strategy({0: 1, 1: 2, 2: 4, 3: 4}))
    assert not is_optimal_exact(fig1, Strategy({0: 1, 1: 2, 2: 3, 3: 4}))


def test_exact_nim_counterexample():
    g = subtraction_nim(7, 2)
    x = nim_decode("121122", 7, 2)
    assert not is_optimal_exact(g, x)
    # An explicit refuting opponent exists among all 32.
    assert any(
        outcome == -1
        for outcome in outcome_matrix_scalar(g, [x] + all_strategies(g))[0, 1:]
    )


def test_exact_agrees_with_full_playout():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = random_game(rng, n_max=7)
        strategies = all_strategies(g)
        matrix = outcome_matrix_scalar(g, strategies)
        for i, x in enumerate(strategies):
            assert is_optimal_exact(g, x) == bool((matrix[i] == 1).all())


def test_optimal_iff_zero_move_at_every_faced_position():
    """x is optimal iff it moves to a Grundy-0 vertex at every position it
    can face: the root, and every reply to one of its own moves."""
    rng = np.random.default_rng(97)
    optimal = 0
    for _ in range(300):
        g = ensure_first_player_win(random_game(rng))
        zero = grundy_values(g).zero_set
        for _ in range(20):
            choice = {}
            for v in g.interior:
                good = [w for w in successors(g, v) if w in zero]
                pool = good if good and rng.random() < 0.8 else successors(g, v)
                choice[v] = pool[int(rng.integers(len(pool)))]
            faced, stack = set(), [g.root]
            while stack:
                v = stack.pop()
                if v not in faced and successors(g, v):
                    faced.add(v)
                    stack.extend(successors(g, choice[v]))
            lemma = all(choice[v] in zero for v in faced)
            assert lemma == is_optimal_exact(g, Strategy(choice))
            optimal += lemma
    assert min(optimal, 6000 - optimal) > 500  # both outcomes well represented


def test_canonical_fig1(fig1):
    gd = grundy_values(fig1)
    assert canonical_optimal_strategy(fig1, gd).choice == {0: 1, 1: 2, 2: 4, 3: 4}
    second_player_win = subtraction_nim(4, 2)
    with pytest.raises(PreconditionViolated):
        canonical_optimal_strategy(second_player_win, grundy_values(second_player_win))


@pytest.mark.parametrize("n, k", [(8, 2), (12, 3)], ids=["smaller", "larger"])
def test_canonical_refuses_another_graphs_grundy_data(n, k):
    # nim n=10 k=2 is a second-player win; read through other data, its root may look winnable.
    with pytest.raises(ValueError, match=f"gd holds {n} Grundy values for a graph of 10 vertices"):
        canonical_optimal_strategy(subtraction_nim(10, 2), grundy_values(subtraction_nim(n, k)))


@pytest.mark.parametrize("k", [1, 3, 4])
def test_canonical_refuses_same_sized_grundy_data_of_another_graph(k):
    # Of the same length, nim n=10 k=3's data reads the root of the second-player-win
    # nim n=10 k=2 as 1; a length check alone returned a strategy is_optimal_exact rejects.
    with pytest.raises(ValueError, match="Grundy-0 set breaks the win/lose recurrence"):
        canonical_optimal_strategy(subtraction_nim(10, 2), grundy_values(subtraction_nim(10, k)))


def test_check_grundy_data_refuses_any_changed_zero_set():
    # On a DAG the recurrence fixes the zero set, so moving any one vertex into
    # or out of it breaks the recurrence somewhere.
    rng = np.random.default_rng(31)
    for _ in range(40):
        g = random_game(rng)
        values = list(grundy_values(g).values)
        v = int(rng.integers(g.n))
        values[v] = 0 if values[v] else 1
        with pytest.raises(ValueError, match="Grundy-0 set breaks the win/lose recurrence"):
            grundy.check_grundy_data(g, GrundyData(tuple(values), frozenset(), frozenset()))


def test_canonical_nim_string():
    from coevo.games import nim_encode

    g = ensure_first_player_win(subtraction_nim(7, 2))
    gd = grundy_values(g)
    canon = canonical_optimal_strategy(g, gd)
    assert is_optimal_exact(g, canon)
    trimmed = Strategy({v: w for v, w in canon.choice.items() if 1 <= v <= 6})
    assert nim_encode(trimmed, 7, 2) == "121121"


def test_prepared_flags_on_a_forced_start_equal_a_fresh_pass():
    rng = np.random.default_rng(21)
    games = [subtraction_nim(64, 2), silver_dollar(7, 2)] + [random_game(rng) for _ in range(60)]
    extended = 0
    for g in games:
        instance = prepare(g)
        if instance.graph is not g:
            extended += 1
            fresh = zero_flags(instance.graph)
            assert np.array_equal(instance.zero, fresh)
            assert np.array_equal(instance.critical, critical_rows(instance.graph, fresh))
    assert extended >= 10


def _check_flags_against_the_numbering(g):
    gd, zero = grundy_values(g), zero_flags(g)
    assert zero.dtype == bool and not zero.flags.writeable
    assert np.array_equal(zero, np.array(gd.values) == 0)
    assert np.array_equal(grundy.check_grundy_data(g, gd), zero)
    critical = critical_rows(g, zero)
    assert critical.dtype == np.int64 and critical.tolist() == sorted(gd.critical)
    got, want = prepare(g), prepare_from_grundy(g)
    assert got.base is g and got.graph == want.graph
    for name in ("zero", "critical", "fill_cells", "degrees"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("name", sorted(FLAG_GRAPHS))
def test_zero_flags_and_critical_rows_match_the_grundy_numbering(name):
    make, args = FLAG_GRAPHS[name]
    _check_flags_against_the_numbering(make(*args))


def test_zero_flags_match_the_grundy_numbering_on_random_games():
    rng = np.random.default_rng(29)
    extended = 0
    for _ in range(60):
        g = random_game(rng)
        run_game = ensure_first_player_win(g)
        extended += run_game is not g
        _check_flags_against_the_numbering(g)
        _check_flags_against_the_numbering(run_game)
    assert extended >= 10


def test_ensure_first_player_win_refuses_malformed_flags(fig1):
    flags, other = zero_flags(fig1), subtraction_nim(7, 2)
    wrong = [grundy_values(fig1), grundy_values(other), flags.tolist(), flags.astype(int)]
    for zero in wrong + [zero_flags(other), flags[None]]:  # another graph's data, then misshapen flags
        with pytest.raises(ValueError, match="zero must be a bool array of length 5"):
            ensure_first_player_win(fig1, zero)
    assert ensure_first_player_win(fig1, flags) is fig1


def test_ensure_first_player_win_runs_the_win_lose_pass(monkeypatch):
    def values(g):
        raise AssertionError("a forced start needs only the root's Grundy-0 flag")

    monkeypatch.setattr(grundy, "grundy_values", values)
    base = subtraction_nim(10, 2)
    extended = ensure_first_player_win(base)
    assert extended.n == 11 and ensure_first_player_win(extended) is extended


def test_canonical_chain():
    g = build_graph({0: [1], 1: [2], 2: [3], 3: []}, root=0)
    gd = grundy_values(g)
    assert canonical_optimal_strategy(g, gd).choice == {0: 1, 1: 2, 2: 3}


def test_canonical_passes_exact_on_random_games():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 40:
        g = random_game(rng)
        gd = grundy_values(g)
        if gd.values[g.root] == 0:
            continue
        checked += 1
        assert is_optimal_exact(g, canonical_optimal_strategy(g, gd))


def test_ensure_first_player_win(fig1):
    assert ensure_first_player_win(fig1) is fig1

    single = build_graph({0: []}, root=0)
    extended = ensure_first_player_win(single)
    assert extended.n == 2
    assert grundy_values(extended).values[extended.root] == 1

    chain = build_graph({0: [1], 1: [2], 2: []}, root=0)
    assert grundy_values(chain).values[0] == 0
    longer = ensure_first_player_win(chain)
    assert longer.n == 4
    assert longer.edge_count == 3


def test_ensure_first_player_win_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(30):
        g = random_game(rng)
        once = ensure_first_player_win(g)
        assert ensure_first_player_win(once) is once
