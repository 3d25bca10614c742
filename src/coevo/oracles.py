"""Exact dynamic-programming oracles for self-play under a product model.

These are the ground truth the stochastic machinery is validated against:
visit probabilities, first-mover win probabilities, the closed-form
distribution of a tournament winner's choice and its replicator rewriting.

The visit DP relies on one structural fact: the position path of a game
between two independently sampled strategies has the same law as a lazy
random walk that samples a fresh successor from the model at each vertex
it meets. This holds because the graph is acyclic, so no vertex is ever
consulted twice in a playout and it never matters which of the two
players owns the consulted entry. A model gives each interior vertex ``v``
one probability per move, entry ``i`` for the move to
``targets[offsets[v] + i]``. The DPs walk the graph's two arrays, read as
lists, in plain arithmetic, so they stay exact on Fraction-valued models.
An analysis of all n vertices and m moves is one O(n + m) reach-and-win pass.
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


def _vectors(g: GameGraph, model) -> Mapping[int, Sequence]:
    """A model's vectors, checked: one per interior vertex, as long as its degree."""
    # ProbModel vectors become lists: the same IEEE doubles as numpy scalars, faster.
    dists = {v: p.tolist() for v, p in model.dists.items()} if hasattr(model, "dists") else model
    off = g.offsets.tolist()
    for v in g.interior:
        if (got := len(dists[v]) if v in dists else "none") != off[v + 1] - off[v]:
            raise ValueError(f"vertex {v}: expected {off[v + 1] - off[v]} entries, got {got}")
    return dists


def reach_probabilities(g: GameGraph, model) -> dict:
    """Probability each vertex appears on the realised game path.

    Topological-order DP: the root is visited surely, and a vertex
    collects, over its in-edges, the probability of visiting the tail
    times the tail's chance of stepping here.
    """
    dists, off, targets = _vectors(g, model), g.offsets.tolist(), g.targets.tolist()
    reach = {v: 0 for v in range(g.n)}
    reach[g.root] = 1
    for u in reversed(g.reverse_topo):  # forward topological order
        r, lo = reach[u], off[u]
        if not r or lo == off[u + 1]:
            continue
        for e in range(lo, off[u + 1]):
            reach[targets[e]] = reach[targets[e]] + r * dists[u][e - lo]
    return reach


def win_probabilities(g: GameGraph, model) -> dict:
    """Probability the player about to move at each vertex wins the game."""
    dists, off, targets = _vectors(g, model), g.offsets.tolist(), g.targets.tolist()
    win = {}
    for v in g.reverse_topo:
        lo, hi = off[v], off[v + 1]
        win[v] = 1 - sum(dists[v][e - lo] * win[targets[e]] for e in range(lo, hi)) if hi > lo else 0
    return win


def _moves(g: GameGraph, u: int) -> list:
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} is not in 0..{g.n - 1}")
    if not (moves := g.targets[g.offsets[u] : g.offsets[u + 1]].tolist()):
        raise ValueError(f"vertex {u} has no moves")
    return moves


def _selection(moves: list, dists: Mapping, reach: dict, win: dict, u: int) -> list:
    return [p * (1 + reach[u] * (1 - win[w] - win[u])) for w, p in zip(moves, dists[u])]


def selection_distribution(g: GameGraph, model, u: int) -> list:
    """Distribution of the tournament winner's choice at vertex ``u``.

    Closed form: the sampling probability of each move, rescaled by
    ``1 + reach(u) * (1 - win(move) - win(u))``. Sums to one identically.
    O(n + m) per call; :func:`analyze_model` gives every vertex's law at once.
    """
    moves, dists = _moves(g, u), _vectors(g, model)
    return _selection(moves, dists, reach_probabilities(g, dists), win_probabilities(g, dists), u)


def replicator_form(g: GameGraph, model, u: int) -> tuple[list, list, list]:
    """The same update written as discrete replicator dynamics.

    Returns ``(q, a, q_next)`` where ``q`` is the current distribution at
    ``u``, ``a[i] = reach(u) * (1 - win(move_i))`` plays the role of a
    fitness, and ``q_next[i] = q[i] * (1 + a[i] - sum_j q[j] a[j])``.
    Must agree with :func:`selection_distribution` entry by entry.
    O(n + m) per call; :func:`analyze_model` gives every vertex's law at once.
    """
    moves, dists = _moves(g, u), _vectors(g, model)
    q, r, win = list(dists[u]), reach_probabilities(g, dists)[u], win_probabilities(g, dists)
    a = [r * (1 - win[w]) for w in moves]
    mean_fitness = sum(qj * aj for qj, aj in zip(q, a))
    q_next = [qi * (1 + ai - mean_fitness) for qi, ai in zip(q, a)]
    return q, a, q_next


def analyze_model(g: GameGraph, model) -> ModelAnalysis:
    """One reach pass and one win pass, O(n + m), then every vertex's selection law."""
    dists, off, targets = _vectors(g, model), g.offsets.tolist(), g.targets.tolist()
    reach, win = reach_probabilities(g, dists), win_probabilities(g, dists)
    selection = {u: _selection(targets[off[u] : off[u + 1]], dists, reach, win, u) for u in g.interior}
    return ModelAnalysis(reach=reach, win=win, selection=selection)
