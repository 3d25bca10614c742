import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coevo.games import nim_decode, subtraction_nim
from coevo.graphs import (
    BadEdge,
    CycleDetected,
    Strategy,
    Unreachable,
    build_graph,
    enumerate_strategies,
    game_from_dict,
    game_to_dict,
    play,
    strategy_space_size,
    to_dot,
)
from helpers import all_strategies, play_from, random_game

FIG1_ADJ = {0: [1, 2, 4], 1: [2], 2: [3, 4], 3: [4], 4: []}


def test_build_fig1():
    g = build_graph(FIG1_ADJ, root=0)
    assert g.n == 5
    assert g.max_degree == 3
    assert g.edge_count == 7
    assert g.interior == (0, 1, 2, 3)
    assert g.sinks == (4,)


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


def test_reverse_topo_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_game(rng)
        position = {v: i for i, v in enumerate(g.reverse_topo)}
        for u, w in g.edges():
            assert position[w] < position[u]


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
        assert fig1.is_sink(t.visited[-1])


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
            assert b in g.succ[a]
        assert g.is_sink(t.visited[-1])


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
        alt[v] = g.succ[v][rng.integers(len(g.succ[v]))]
        assert play(g, Strategy(alt), y).visited == t.visited


def test_strategy_validation(fig1):
    Strategy({0: 1, 1: 2, 2: 3, 3: 4}).validate(fig1)
    with pytest.raises(ValueError):
        Strategy({0: 1}).validate(fig1)
    with pytest.raises(ValueError):
        Strategy({0: 3, 1: 2, 2: 3, 3: 4}).validate(fig1)


def test_enumerate_strategies_counts():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_game(rng, n_max=7)
        assert len(all_strategies(g)) == strategy_space_size(g)


def test_json_round_trip(fig1, tmp_path):
    data = game_to_dict(fig1)
    again = game_from_dict(json.loads(json.dumps(data)))
    assert again.succ == fig1.succ
    assert again.root == fig1.root
    assert again.labels == fig1.labels


def test_dot_export(fig1):
    dot = to_dot(fig1)
    assert "digraph" in dot
    assert "0 -> 1;" in dot
    assert "doublecircle" in dot


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=5))
def test_nim_path_lengths(n, k):
    g = subtraction_nim(n, k)
    x = Strategy({v: v - 1 for v in g.interior})
    t = play(g, x, x)
    assert len(t.visited) == n
    assert t.winner == (1 if (n - 1) % 2 == 1 else -1)
