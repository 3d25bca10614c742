import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coevo import eda, grundy, harness, oracles, switchability
from coevo.games import FIXTURE_NAMES, chomp, fixture, silver_dollar, subtraction_nim, turning_turtles
from coevo.graphs import (
    BadEdge,
    CycleDetected,
    GameGraphError,
    Strategy,
    Unreachable,
    _reverse_topological_order,
    build_graph,
    csr_graph,
    game_from_dict,
    game_to_dict,
    strategy_space_size,
    to_dot,
)
from helpers import (
    all_strategies,
    enumerate_strategies,
    nim_decode,
    play,
    play_from,
    random_game,
    strategy_key,
    successors,
    validate_strategy,
)

FIG1_ADJ = {0: [1, 2, 4], 1: [2], 2: [3, 4], 3: [4], 4: []}


def test_build_fig1():
    g = build_graph(FIG1_ADJ, root=0)
    assert g.n == 5
    assert g.max_degree == 3
    assert g.edge_count == 7
    assert g.interior == (0, 1, 2, 3)
    assert np.flatnonzero(np.diff(g.offsets) == 0).tolist() == [4]


def test_build_single_vertex():
    g = build_graph({0: []}, root=0)
    assert g.n == 1
    assert g.interior == ()
    assert g.max_degree == 0


def test_cycle_detected():
    adj = dict(FIG1_ADJ)
    adj[4] = [0]
    with pytest.raises(CycleDetected):
        build_graph(adj, root=0)


def test_unreachable_vertex():
    with pytest.raises(Unreachable):
        build_graph({0: [1], 1: [], 2: []}, root=0)


@pytest.mark.parametrize("bad", [[1, 1], [0]])
def test_bad_edges(bad):
    with pytest.raises(BadEdge):
        build_graph({0: bad, 1: []}, root=0)


# Each input holds several faults; the error names the first in vertex then
# slot order. The messages were recorded from the per-edge validation loop
# the array checks replaced, except for bool successors: that loop took True
# for vertex 1, and they now count as pointing outside the vertex set.
FIRST_FAULT = [
    ({0: [1, 2], 1: [7], 2: [2], 3: [0, 0], 4: []}, 0, BadEdge, "edge (1, 7) points outside the vertex set"),
    ({0: [1], 1: [1, 0, 0], 2: [9]}, 0, BadEdge, "self-loop at vertex 1"),
    ({0: [1], 1: [0, 0], 2: [2], 3: [5]}, 0, BadEdge, "duplicate edge (1, 0)"),
    ({0: [1, 1.5], 1: [1]}, 0, BadEdge, "edge (0, 1.5) points outside the vertex set"),
    ({0: [1, True], 1: [1]}, 0, BadEdge, "edge (0, True) points outside the vertex set"),
    ({0: [-1], 1: []}, 0, BadEdge, "edge (0, -1) points outside the vertex set"),
    ({0: [1, 2], 1: [2], 2: [0]}, 0, CycleDetected, "cycle through edge (2, 0)"),
    ({0: [1], 1: [2, 3], 2: [], 3: [1]}, 0, CycleDetected, "cycle through edge (3, 1)"),
    ({0: [1, 2], 1: [3], 2: [3], 3: [4], 4: [2]}, 0, CycleDetected, "cycle through edge (2, 3)"),
    ({0: [1], 1: [], 2: [], 3: [2]}, 0, Unreachable, "vertex 2 is not reachable from the root"),
    ({0: [1], 1: [], 2: [1], 3: [1]}, 0, Unreachable, "vertex 2 is not reachable from the root"),
    ({0: [1], 1: []}, 2, GameGraphError, "root 2 outside 0..1"),
    ({0: [1], 2: []}, 0, GameGraphError, "adjacency keys must be the dense integers 0..n-1"),
]


@pytest.mark.parametrize("adjacency, root, error, message", FIRST_FAULT)
def test_error_names_the_first_fault(adjacency, root, error, message):
    with pytest.raises(error) as caught:
        build_graph(adjacency, root=root)
    assert type(caught.value) is error
    assert str(caught.value) == message


# The inputs a flat integer array can hold: dense keys, int successors.
ARRAY_FAULTS = [
    case for case in FIRST_FAULT
    if set(case[0]) == set(range(len(case[0])))
    and all(type(w) is int for ws in case[0].values() for w in ws)
]


@pytest.mark.parametrize("adjacency, root, error, message", ARRAY_FAULTS)
def test_csr_graph_names_the_same_fault(adjacency, root, error, message):
    offsets = np.cumsum([0, *(len(adjacency[v]) for v in range(len(adjacency)))])
    targets = [w for v in range(len(adjacency)) for w in adjacency[v]]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        csr_graph(offsets, targets, root)


def test_csr_graph_matches_build_graph(fig1, fig2, fig3_bottom, fig4):
    rng = np.random.default_rng(12)
    for g in [fig1, fig2, fig3_bottom, fig4] + [random_game(rng) for _ in range(30)]:
        again = csr_graph(g.offsets, g.targets, g.root, g.labels)
        assert again == g
        assert (again.reverse_topo, again.interior) == (g.reverse_topo, g.interior)
        assert (again.max_degree, again.edge_count) == (g.max_degree, g.edge_count)
        lists = [successors(g, v) for v in range(g.n)]
        assert all(type(w) is int for v in range(g.n) for w in successors(again, v))
        assert np.array_equal(again.offsets, np.cumsum([0, *map(len, lists)]))
        assert np.array_equal(again.targets, [w for ws in lists for w in ws])


def test_graph_arrays_are_read_only(fig1):
    for array in (fig1.offsets, fig1.targets):
        assert array.dtype == np.int64
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize(
    "offsets, targets, message",
    [
        ([0, 2, 1], [1, 0], "offsets must rise from 0 to the number of targets"),
        ([0, 1], [0, 1], "offsets must rise from 0 to the number of targets"),
        ([1, 1], [], "offsets must rise from 0 to the number of targets"),
        ([0, 1, 1], [1.9], "targets must be a flat array of integers"),
        ([0, 1, 1], [True], "targets must be a flat array of integers"),
        ([0.0, 1.0, 1.0], [1], "offsets must be a flat array of integers"),
    ],
)
def test_csr_graph_rejects_malformed_arrays(offsets, targets, message):
    with pytest.raises(GameGraphError, match=f"^{re.escape(message)}$"):
        csr_graph(offsets, targets, 0)


def test_csr_graph_rejects_labels_of_the_wrong_length():
    with pytest.raises(GameGraphError, match="1 labels for 2 vertices"):
        csr_graph([0, 1, 1], [1], 0, ["a"])


def test_reverse_topo_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_game(rng)
        position = {v: i for i, v in enumerate(g.reverse_topo)}
        for u, w in g.edges():
            assert position[w] < position[u]


def test_descending_graphs_keep_the_search_order():
    # Where every move lowers the id, 0..n-1 is taken as the order without
    # a search; it must be the post-order the depth-first search emits.
    rng = np.random.default_rng(13)
    games = [random_game(rng) for _ in range(30)]
    games += [chomp(4), silver_dollar(7, 3), turning_turtles(5), subtraction_nim(20, 3)]
    for g in games:
        assert all(w < u for u, w in g.edges())
        arrays = g.offsets.tolist(), g.targets.tolist()
        assert g.reverse_topo == _reverse_topological_order(*arrays) == tuple(range(g.n))


def test_play_worked_example():
    g = subtraction_nim(7, 2)
    x = nim_decode("122111", 7, 2)
    y = nim_decode("122122", 7, 2)
    t = play(g, x, y)
    assert t.winner == -1
    assert t.visited == (6, 5, 3, 1, 0)


def test_play_immediate_win(fig1):
    # Moving straight to the sink wins in one move regardless of the rest.
    x = Strategy({0: 4, 1: 2, 2: 3, 3: 4})
    for y in all_strategies(fig1):
        t = play(fig1, x, y)
        assert t.winner == 1
        assert t.visited == (0, 4)


def test_play_self_play_total(fig1):
    for x in all_strategies(fig1):
        t = play(fig1, x, x)
        assert t.winner in (-1, 1)
        assert fig1.offsets[t.visited[-1]] == fig1.offsets[t.visited[-1] + 1]


def test_play_from_sink(fig1):
    x = all_strategies(fig1)[0]
    assert play_from(fig1, 4, x, x) == -1


def test_play_from_forced_tail(fig1):
    # From c the only line is c -> d, leaving the opponent stuck.
    for x in all_strategies(fig1):
        for y in all_strategies(fig1):
            assert play_from(fig1, 3, x, y) == 1


def test_play_from_agrees_with_play():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = random_game(rng)
        strategies = all_strategies(g)
        x = strategies[rng.integers(len(strategies))]
        y = strategies[rng.integers(len(strategies))]
        assert play_from(g, g.root, x, y) == play(g, x, y).winner


def test_transcript_invariants():
    rng = np.random.default_rng(6)
    for _ in range(60):
        g = random_game(rng)
        strategies = all_strategies(g)
        x = strategies[rng.integers(len(strategies))]
        y = strategies[rng.integers(len(strategies))]
        t = play(g, x, y)
        assert len(t.visited) <= g.n
        assert len(set(t.visited)) == len(t.visited)
        for a, b in zip(t.visited, t.visited[1:]):
            assert b in successors(g, a)
        assert g.offsets[t.visited[-1]] == g.offsets[t.visited[-1] + 1]


def test_off_path_choices_do_not_matter():
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = random_game(rng)
        strategies = all_strategies(g)
        x = strategies[rng.integers(len(strategies))]
        y = strategies[rng.integers(len(strategies))]
        t = play(g, x, y)
        off_path = [v for v in g.interior if v not in t.visited]
        if not off_path:
            continue
        v = off_path[rng.integers(len(off_path))]
        alt = dict(x.choice)
        alt[v] = successors(g, v)[rng.integers(len(successors(g, v)))]
        assert play(g, Strategy(alt), y).visited == t.visited


def test_strategy_validation(fig1):
    validate_strategy(fig1, Strategy({0: 1, 1: 2, 2: 3, 3: 4}))
    with pytest.raises(ValueError):
        validate_strategy(fig1, Strategy({0: 1}))
    with pytest.raises(ValueError):
        validate_strategy(fig1, Strategy({0: 3, 1: 2, 2: 3, 3: 4}))


def test_enumerate_strategies_counts():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_game(rng, n_max=7)
        assert len(all_strategies(g)) == strategy_space_size(g)


def test_json_round_trip(fig1, tmp_path):
    data = game_to_dict(fig1)
    again = game_from_dict(json.loads(json.dumps(data)))
    assert all(successors(again, v) == successors(fig1, v) for v in range(fig1.n))
    assert again.root == fig1.root
    assert again.labels == fig1.labels


DROP = object()  # a change that removes its field


def _apply(target, change: dict) -> None:
    """Replace each named field, edit it with a nested dict, or remove it with DROP."""
    for key, value in change.items():
        if value is DROP:
            del target[key]
        elif isinstance(value, dict):
            _apply(target[key], value)
        else:
            target[key] = value


@pytest.mark.parametrize(
    "change, message",
    [
        ({"root": "0"}, "root must be a JSON integer, got '0'"),
        ({"root": True}, "root must be a JSON integer, got True"),
        ({"root": 0.0}, "root must be a JSON integer, got 0.0"),
        ({0: {"id": 0.0}}, "vertex entry 0: id must be a JSON integer, got 0.0"),
        ({1: {"id": True}}, "vertex entry 1: id must be a JSON integer, got True"),
        ({0: {"succ": [1.9, 2, 4]}}, "vertex 0: succ must be a list of JSON integers, got 1.9"),
        ({2: {"succ": [3, True]}}, "vertex 2: succ must be a list of JSON integers, got True"),
        ({3: {"succ": 4}}, "vertex 3: succ must be a list of JSON integers, got 4"),
        ({3: {"id": 2}}, "vertex 2: id appears twice"),
        # Wrongly shaped files used to fail with messages that named no field.
        ({"vertices": 5}, "vertices must be a list, got int"),
        ({"root": DROP}, "game has no root"),
        ({"vertices": DROP}, "game has no vertices"),
        ({1: [1, [2]]}, "vertex entry 1 must be an object, got list"),
        ({2: {"id": DROP}}, "vertex entry 2 has no id"),
        ({2: {"succ": DROP}}, "vertex entry 2 has no succ"),
        ([{"root": 0, "vertices": []}], "a game must be a JSON object, got list"),
        # Labels used to load whatever JSON value they held.
        ({1: {"label": 7}}, "vertex 1: label must be a JSON string, got 7"),
        ({0: {"label": [1, 2]}}, "vertex 0: label must be a JSON string, got [1, 2]"),
        ({4: {"label": None}}, "vertex 4: label must be a JSON string, got None"),
    ],
)
def test_game_from_dict_rejects_non_integers(fig1, change, message):
    # Integer keys change a vertex entry, others the file; a list is the whole file.
    data = game_to_dict(fig1)
    if isinstance(change, list):
        data, change = change, {}
    for key, value in change.items():
        _apply(data["vertices"] if isinstance(key, int) else data, {key: value})
    with pytest.raises(GameGraphError, match=f"^{re.escape(message)}$"):
        game_from_dict(json.loads(json.dumps(data)))


def test_dot_export(fig1):
    dot = to_dot(fig1)
    assert "digraph" in dot
    assert "0 -> 1;" in dot
    assert "doublecircle" in dot


def test_graphs_compare_by_root_labels_and_arrays(fig1):
    same = csr_graph(fig1.offsets.copy(), fig1.targets.copy(), fig1.root, fig1.labels)
    assert same == fig1 and hash(same) == hash(fig1)
    swapped = fig1.targets.copy()
    swapped[[0, 1]] = swapped[[1, 0]]  # vertex 0 lists its first two moves the other way round
    assert csr_graph(fig1.offsets, swapped, fig1.root, fig1.labels) != fig1
    assert csr_graph(fig1.offsets, fig1.targets, fig1.root) != fig1
    assert fig1 != tuple(successors(fig1, v) for v in range(fig1.n))


@pytest.mark.parametrize(
    "make, forced",
    [(lambda: chomp(4), False), (lambda: fixture("fig1"), False), (lambda: subtraction_nim(10, 2), True)],
    ids=["chomp4", "fig1", "nim10-forced-start"],
)
def test_no_library_path_builds_the_successor_tuples(make, forced):
    # succ is a view for outside code; the package itself reads the arrays.
    base = make()
    instance = eda.prepare(base)
    g = instance.graph
    assert (g is not base) == forced
    cfg = eda.UmdaConfig(mu=16, gamma=float(eda.theorem_border(base)), max_generations=3, seed=4)
    result = eda.run_umda(g, cfg, instance=instance)
    eda.model_from_snapshot(g, {"dists": result.final_model.snapshot()})
    oracles.analyze_model(g, result.final_model)
    exact = {v: [Fraction(1, len(p))] * len(p) for v, p in eda.uniform_model(g, 0.0).dists.items()}
    oracles.analyze_model(g, exact)
    oracles.replicator_form(g, exact, g.root)
    gd = grundy.grundy_values(g)
    switchability.switchability_profile(g, gd=gd)
    harness.intransitivity_search(g, triples=200)  # finds a triple on chomp4 and nim10
    x = grundy.canonical_optimal_strategy(g, gd)
    assert grundy.is_optimal_exact(g, x)
    strategy_key(g, validate_strategy(g, x))
    play(g, x, next(enumerate_strategies(g)))
    strategy_space_size(g)
    game_to_dict(g), to_dot(g), list(g.edges())
    assert hash(g) == hash(g) and (g == base) != forced
    assert "succ" not in vars(base) and "succ" not in vars(g)


@pytest.mark.parametrize(
    "make",
    [lambda name=name: fixture(name) for name in FIXTURE_NAMES]
    + [lambda: subtraction_nim(10, 3), lambda: silver_dollar(6, 3), lambda: turning_turtles(4), lambda: chomp(3)],
    ids=[*FIXTURE_NAMES, "subtraction_nim", "silver_dollar", "turning_turtles", "chomp"],
)
def test_succ_view_equals_the_arrays(make):
    # Outside code reads succ; each graph is built here, so no other test's read is cached.
    g = make()
    assert len(g.succ) == g.n
    for v in range(g.n):
        assert g.succ[v] == successors(g, v)
        assert all(type(w) is int for w in g.succ[v])


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=5))
def test_nim_path_lengths(n, k):
    g = subtraction_nim(n, k)
    x = Strategy({v: v - 1 for v in g.interior})
    t = play(g, x, x)
    assert len(t.visited) == n
    assert t.winner == (1 if (n - 1) % 2 == 1 else -1)
