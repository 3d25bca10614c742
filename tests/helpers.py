"""Shared test utilities: random game corpora and independent oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from coevo.eda import restrict
from coevo.graphs import GameGraph, Strategy, build_graph, enumerate_strategies, play


def random_game(
    rng: np.random.Generator,
    n_min: int = 4,
    n_max: int = 10,
    max_degree: int = 3,
    extra_edge_prob: float = 0.35,
) -> GameGraph:
    """Random valid game: acyclic by construction (edges go downward),
    with every vertex guaranteed an in-edge from a higher vertex so the
    whole graph is reachable from the top root."""
    n = int(rng.integers(n_min, n_max + 1))
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for v in range(n - 1):
        parent = int(rng.integers(v + 1, n))
        adjacency[parent].append(v)
    for u in range(1, n):
        for w in range(u):
            if len(adjacency[u]) >= max_degree:
                break
            if w not in adjacency[u] and rng.random() < extra_edge_prob:
                adjacency[u].append(w)
    return build_graph(adjacency, root=n - 1)


def uniform_rational_model(g: GameGraph) -> dict[int, list[Fraction]]:
    return {
        v: [Fraction(1, len(g.succ[v]))] * len(g.succ[v]) for v in g.interior
    }


def random_rational_model(
    g: GameGraph, rng: np.random.Generator, gamma: Fraction
) -> dict[int, list[Fraction]]:
    """Random distributions pushed through the border restriction, so every
    entry is at least gamma and each vector sums to exactly one."""
    dists = {}
    for v in g.interior:
        weights = [Fraction(int(w)) for w in rng.integers(1, 1000, size=len(g.succ[v]))]
        total = sum(weights)
        p = [w / total for w in weights]
        dists[v] = restrict(p, gamma)
    return dists


def choice_matrix(g: GameGraph, strategies: list[Strategy]) -> np.ndarray:
    """The engine's population layout: column j holds strategy j's
    successor slot at every interior vertex; sink rows stay 0."""
    out = np.zeros((g.n, len(strategies)), dtype=np.min_scalar_type(g.max_degree - 1))
    out[list(g.interior)] = np.array([x.key(g) for x in strategies], dtype=out.dtype).T
    return out


def outcome_matrix(g: GameGraph, strategies: list[Strategy]) -> np.ndarray:
    """All-pairs playout results via the vectorised engine."""
    from coevo.eda import _playout

    m = len(strategies)
    choices = choice_matrix(g, strategies)
    left = np.repeat(np.arange(m), m)
    right = np.tile(np.arange(m), m)
    results = _playout(g, choices[:, left], choices[:, right])
    return results.reshape(m, m)


def outcome_matrix_scalar(g: GameGraph, strategies: list[Strategy]) -> np.ndarray:
    """All-pairs playout results with the plain iterative player."""
    m = len(strategies)
    out = np.zeros((m, m), dtype=np.int8)
    for i, x in enumerate(strategies):
        for j, y in enumerate(strategies):
            out[i, j] = play(g, x, y).winner
    return out


def all_strategies(g: GameGraph) -> list[Strategy]:
    return list(enumerate_strategies(g))
