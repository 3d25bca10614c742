"""Exact dynamic-programming oracles for self-play under a product model.

These are the ground truth the stochastic machinery is validated against:
visit probabilities, first-mover win probabilities, the closed-form
distribution of a tournament winner's choice and its replicator rewriting.

The visit DP relies on one structural fact: the position path of a game
between two independently sampled strategies has the same law as a lazy
random walk that samples a fresh successor from the model at each vertex
it meets. This holds because the graph is acyclic, so no vertex is ever
consulted twice in a playout and it never matters which of the two
players owns the consulted entry. All DPs are written in plain arithmetic
and stay exact when handed Fraction-valued models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .graphs import GameGraph


@dataclass(frozen=True)
class ModelAnalysis:
    reach: dict[int, object]
    win: dict[int, object]
    selection: dict[int, list]


def _dists(model) -> Mapping[int, Sequence]:
    return model.dists if hasattr(model, "dists") else model


def reach_probabilities(g: GameGraph, model) -> dict:
    """Probability each vertex appears on the realised game path.

    Topological-order DP: the root is visited surely, and a vertex
    collects, over its in-edges, the probability of visiting the tail
    times the tail's chance of stepping here.
    """
    dists = _dists(model)
    reach = {v: 0 for v in range(g.n)}
    reach[g.root] = 1
    for u in reversed(g.reverse_topo):  # forward topological order
        r = reach[u]
        if not r:
            continue
        for i, w in enumerate(g.succ[u]):
            reach[w] = reach[w] + r * dists[u][i]
    return reach


def win_probabilities(g: GameGraph, model) -> dict:
    """Probability the player about to move at each vertex wins the game."""
    dists = _dists(model)
    win = {}
    for v in g.reverse_topo:
        if not g.succ[v]:
            win[v] = 0
        else:
            win[v] = 1 - sum(
                dists[v][i] * win[w] for i, w in enumerate(g.succ[v])
            )
    return win


def selection_distribution(g: GameGraph, model, u: int) -> list:
    """Distribution of the tournament winner's choice at vertex ``u``.

    Closed form: the sampling probability of each move, rescaled by
    ``1 + reach(u) * (1 - win(move) - win(u))``. Sums to one identically.
    """
    dists = _dists(model)
    if not g.succ[u]:
        raise ValueError(f"vertex {u} has no moves")
    reach = reach_probabilities(g, dists)
    win = win_probabilities(g, dists)
    r = reach[u]
    return [
        dists[u][i] * (1 + r * (1 - win[w] - win[u]))
        for i, w in enumerate(g.succ[u])
    ]


def replicator_form(g: GameGraph, model, u: int) -> tuple[list, list, list]:
    """The same update written as discrete replicator dynamics.

    Returns ``(q, a, q_next)`` where ``q`` is the current distribution at
    ``u``, ``a[i] = reach(u) * (1 - win(move_i))`` plays the role of a
    fitness, and ``q_next[i] = q[i] * (1 + a[i] - sum_j q[j] a[j])``.
    Must agree with :func:`selection_distribution` entry by entry.
    """
    dists = _dists(model)
    if not g.succ[u]:
        raise ValueError(f"vertex {u} has no moves")
    reach = reach_probabilities(g, dists)
    win = win_probabilities(g, dists)
    r = reach[u]
    q = list(dists[u])
    a = [r * (1 - win[w]) for w in g.succ[u]]
    mean_fitness = sum(qj * aj for qj, aj in zip(q, a))
    q_next = [qi * (1 + ai - mean_fitness) for qi, ai in zip(q, a)]
    return q, a, q_next


def analyze_model(g: GameGraph, model) -> ModelAnalysis:
    dists = _dists(model)
    return ModelAnalysis(
        reach=reach_probabilities(g, dists),
        win=win_probabilities(g, dists),
        selection={u: selection_distribution(g, dists, u) for u in g.interior},
    )
