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
``targets[offsets[v] + i]``. The DPs read the model once into edge order
and walk it beside the graph's two arrays in plain arithmetic, adding every
sum left to right from 0, so they stay exact on Fraction-valued models and
a float result does not depend on the Python version. An analysis of all n
vertices and m moves is one O(n + m) reach-and-win pass and one array
expression for every edge's selection law: float64 on float models, object
arrays of the model's own numbers otherwise, so exact models stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping

import numpy as np

from .graphs import GameGraph


@dataclass(frozen=True)
class ModelAnalysis:
    reach: dict[int, object]
    win: dict[int, object]
    selection: dict[int, list]


@dataclass(frozen=True)
class _Edges:
    """A model read once into edge order and checked: ``entries`` as a list for
    the DPs, ``array`` as float64 when every entry is a float and as the
    entries themselves in an object array otherwise."""

    entries: list
    array: np.ndarray


def _edges(g: GameGraph, model) -> _Edges:
    """A model's entries in edge order, checked: one row per interior vertex, as long as its degree."""
    if isinstance(model, _Edges):
        return model
    is_prob_model, off = hasattr(model, "dists"), g.offsets.tolist()
    rows = model.dists if is_prob_model else model
    for v in g.interior:
        if (got := len(rows[v]) if v in rows else "none") != off[v + 1] - off[v]:
            raise ValueError(f"vertex {v}: expected {off[v + 1] - off[v]} entries, got {got}")
    rows = [rows[v] for v in g.interior]
    if is_prob_model:
        # ProbModel rows are arrays: the DPs read them as Python numbers, the same IEEE doubles, faster.
        if {r.dtype for r in rows} == {np.dtype(float)}:
            array = np.concatenate(rows)
            return _Edges(array.tolist(), array)
        rows = [r.tolist() for r in rows]
    entries = list(chain.from_iterable(rows))
    kind = float if all(issubclass(t, float) for t in set(map(type, entries))) else object
    return _Edges(entries, np.array(entries, dtype=kind))


def reach_probabilities(g: GameGraph, model) -> dict:
    """Probability each vertex appears on the realised game path.

    Topological-order DP: the root is visited surely, and a vertex
    collects, over its in-edges, the probability of visiting the tail
    times the tail's chance of stepping here.
    """
    probs, off, targets = _edges(g, model).entries, g.offsets.tolist(), g.targets.tolist()
    reach = [0] * g.n
    reach[g.root] = 1
    for u in reversed(g.reverse_topo):  # forward topological order
        r, lo, hi = reach[u], off[u], off[u + 1]
        if r and lo < hi:
            for t, q in zip(targets[lo:hi], probs[lo:hi]):
                reach[t] = reach[t] + r * q
    return dict(enumerate(reach))


def win_probabilities(g: GameGraph, model) -> dict:
    """Probability the player about to move at each vertex wins the game."""
    probs, off, targets = _edges(g, model).entries, g.offsets.tolist(), g.targets.tolist()
    win = [0] * g.n
    for v in g.reverse_topo:
        lo, hi = off[v], off[v + 1]
        if lo < hi:
            # Left to right from 0, as sum() adds before Python 3.12 compensates float sums.
            total = 0
            for w, p in zip(targets[lo:hi], probs[lo:hi]):
                total = total + p * win[w]
            win[v] = 1 - total
    return {v: win[v] for v in g.reverse_topo}


def _moves(g: GameGraph, u: int) -> list:
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} is not in 0..{g.n - 1}")
    if not (moves := g.targets[g.offsets[u] : g.offsets[u + 1]].tolist()):
        raise ValueError(f"vertex {u} has no moves")
    return moves


def _selection_laws(g: GameGraph, model: _Edges, reach: Mapping, win: Mapping, edges: slice) -> list:
    """The winner's probability of each edge in ``edges``, in one expression:
    ``p * (1 + reach[src] * (lose[tgt] - win[src]))`` with ``lose = 1 - win``
    per vertex, the per-vertex closed form's operations in its order. On a
    float model reach and win hold floats and the exact ints 0 and 1, so
    float64 gives the same doubles; otherwise the numbers themselves run."""
    p, kind = model.array[edges], model.array.dtype
    reach, win = (np.array(list(map(d.__getitem__, range(g.n))), dtype=kind) for d in (reach, win))
    src = np.repeat(np.arange(g.n), np.diff(g.offsets))[edges]
    lose = 1 - win
    return (p * (1 + reach[src] * (lose[g.targets[edges]] - win[src]))).tolist()


def selection_distribution(g: GameGraph, model, u: int) -> list:
    """Distribution of the tournament winner's choice at vertex ``u``.

    Closed form: the sampling probability of each move, rescaled by
    ``1 + reach(u) * (1 - win(move) - win(u))``. Sums to one identically.
    O(n + m) per call; :func:`analyze_model` gives every vertex's law at once.
    """
    _moves(g, u)
    model = _edges(g, model)
    reach, win = reach_probabilities(g, model), win_probabilities(g, model)
    return _selection_laws(g, model, reach, win, slice(g.offsets[u], g.offsets[u + 1]))


def replicator_form(g: GameGraph, model, u: int) -> tuple[list, list, list]:
    """The same update written as discrete replicator dynamics.

    Returns ``(q, a, q_next)`` where ``q`` is the current distribution at
    ``u``, ``a[i] = reach(u) * (1 - win(move_i))`` plays the role of a
    fitness, and ``q_next[i] = q[i] * (1 + a[i] - sum_j q[j] a[j])``.
    Must agree with :func:`selection_distribution` entry by entry.
    O(n + m) per call; :func:`analyze_model` gives every vertex's law at once.
    """
    moves, model = _moves(g, u), _edges(g, model)
    q, r = model.entries[g.offsets[u] : g.offsets[u + 1]], reach_probabilities(g, model)[u]
    win = win_probabilities(g, model)
    a = [r * (1 - win[w]) for w in moves]
    mean_fitness = 0  # left to right from 0, as in win_probabilities
    for qj, aj in zip(q, a):
        mean_fitness = mean_fitness + qj * aj
    q_next = [qi * (1 + ai - mean_fitness) for qi, ai in zip(q, a)]
    return q, a, q_next


def analyze_model(g: GameGraph, model) -> ModelAnalysis:
    """One reach pass and one win pass, O(n + m), then every edge's selection law in one expression."""
    model, off = _edges(g, model), g.offsets.tolist()
    reach, win = reach_probabilities(g, model), win_probabilities(g, model)
    laws = _selection_laws(g, model, reach, win, slice(None))
    return ModelAnalysis(reach=reach, win=win, selection={u: laws[off[u] : off[u + 1]] for u in g.interior})
