"""Sprague-Grundy solver and optimality certificates.

Computes the classical Grundy numbering of a game graph (sinks take value
0, interior vertices take the mex of their successors' values), the
critical positions where a winning mover could still blunder, and two
optimality checks for strategies: a sufficient certificate that only
inspects critical positions, and an exact best-response test.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .graphs import GameGraph, Strategy, csr_graph


class PreconditionViolated(ValueError):
    pass


@dataclass(frozen=True)
class GrundyData:
    """Grundy values plus the derived vertex classes.

    ``zero_set`` holds the losing-to-move positions, ``critical`` the
    interior positions with nonzero value where at least one move lands on
    another nonzero position (a winnable position with a wrong move
    available).
    """

    values: tuple[int, ...]
    zero_set: frozenset[int]
    critical: frozenset[int]


def grundy_values(g: GameGraph) -> GrundyData:
    """One pass over the reverse topological order.

    Per-vertex mex uses a presence bitmap of size ``deg+1``; the value of a
    vertex never exceeds its out-degree, so no sorting is needed.
    """
    off, targets = g.offsets.tolist(), g.targets.tolist()
    h = [0] * g.n
    for v in g.reverse_topo:
        deg = off[v + 1] - off[v]
        if not deg:
            continue
        present = bytearray(deg + 1)
        for w in targets[off[v] : off[v + 1]]:
            val = h[w]
            if val <= deg:
                present[val] = 1
        h[v] = present.index(0)
    values = tuple(h)
    zero = frozenset(v for v in range(g.n) if values[v] == 0)
    return GrundyData(
        values=values,
        zero_set=zero,
        critical=critical_positions(g, values),
    )


def critical_positions(g: GameGraph, values: tuple[int, ...]) -> frozenset[int]:
    """Interior positions where optimal play must be learned: nonzero
    Grundy value and at least one successor of nonzero value (a wrong
    move exists)."""
    nonzero = np.array(values) != 0
    before = np.concatenate(([0], np.cumsum(nonzero[g.targets])))[g.offsets]  # nonzero targets before v's edges
    return frozenset(np.flatnonzero(nonzero & (np.diff(before) > 0)).tolist())


def is_optimal_sufficient(g: GameGraph, gd: GrundyData, x: Strategy) -> bool:
    """Certificate: every critical position moves to a zero-valued vertex.

    Sufficient but not necessary for membership in the optimal set. Only
    meaningful on first-player-win games, hence the precondition.
    """
    if gd.values[g.root] == 0:
        raise PreconditionViolated("root has Grundy value 0; first player cannot win")
    return all(gd.values[x.choice[v]] == 0 for v in gd.critical)


def is_optimal_exact(g: GameGraph, x: Strategy) -> bool:
    """True iff ``x`` wins as first mover against every opponent.

    Single sweep over the reverse topological order, linear in vertices
    plus edges. ``win[v]`` says the x-player, about to move at ``v``,
    beats all adversaries; ``safe[u]`` says moving *into* ``u`` wins
    against all adversaries (``u`` is a sink, or every reply leaves the
    x-player winning).
    """
    off, targets = g.offsets.tolist(), g.targets.tolist()
    win = [False] * g.n
    safe = [False] * g.n
    for u in g.reverse_topo:
        if off[u] == off[u + 1]:
            safe[u] = True
            continue
        win[u] = safe[x.choice[u]]
        for w in targets[off[u] : off[u + 1]]:
            if not win[w]:
                break
        else:
            safe[u] = True
    return win[g.root]


def canonical_optimal_strategy(g: GameGraph, gd: GrundyData) -> Strategy:
    """First zero-valued successor where one exists, else first successor."""
    if gd.values[g.root] == 0:
        raise PreconditionViolated("root has Grundy value 0; first player cannot win")
    values, off, targets = gd.values, g.offsets.tolist(), g.targets.tolist()
    moves = {v: targets[off[v] : off[v + 1]] for v in g.interior}
    return Strategy({v: next((w for w in ws if values[w] == 0), ws[0]) for v, ws in moves.items()})


def ensure_first_player_win(g: GameGraph, gd: GrundyData | None = None) -> GameGraph:
    """Return ``g``, or ``g`` plus a forced-move start vertex.

    When the root already has nonzero Grundy value the graph is returned
    unchanged, which makes the operation idempotent. Otherwise a fresh
    vertex ``n`` becomes the new root with the old root as its only move;
    the new root's value is then mex{0} = 1.
    """
    if gd is None:
        gd = grundy_values(g)
    if gd.values[g.root] != 0:
        return g
    offsets = np.append(g.offsets, g.edge_count + 1)
    return csr_graph(offsets, np.append(g.targets, g.root), g.n, g.labels + ("start",))


def forced_start_values(gd: GrundyData) -> GrundyData:
    """The Grundy data of the graph :func:`ensure_first_player_win` extends, from
    the base graph's: the start vertex takes value 1 and, with one move, is never
    critical, so the zero and critical sets stay as they are."""
    return GrundyData(values=gd.values + (1,), zero_set=gd.zero_set, critical=gd.critical)
