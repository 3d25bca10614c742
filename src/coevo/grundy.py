"""Sprague-Grundy solver and optimality certificates.

Computes the classical Grundy numbering of a game graph (sinks take value
0, interior vertices take the mex of their successors' values), the
cheaper Grundy-0 flags alone by win/lose retrograde analysis, the
critical positions where a winning mover could still blunder, and the
exact best-response test of a strategy's optimality.
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
    off, targets = g.offsets.tolist(), memoryview(g.targets)
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
    zero = np.array(values) == 0
    return GrundyData(
        values=values,
        zero_set=frozenset(np.flatnonzero(zero).tolist()),
        critical=frozenset(critical_rows(g, zero).tolist()),
    )


def zero_flags(g: GameGraph) -> np.ndarray:
    """``g``'s Grundy-0 flags, read-only, by win/lose retrograde analysis: a vertex is
    Grundy-0 iff no move reaches one, so each scan stops at a Grundy-0 successor."""
    off, targets = g.offsets.tolist(), memoryview(g.targets)
    zero = [False] * g.n
    for v in g.reverse_topo:
        for w in targets[off[v] : off[v + 1]]:
            if zero[w]:
                break
        else:
            zero[v] = True
    flags = np.array(zero)
    flags.flags.writeable = False
    return flags


def check_grundy_data(g: GameGraph, gd: GrundyData) -> np.ndarray:
    """``gd``'s Grundy-0 flags, checked against ``g``: ValueError unless ``gd`` has one value per vertex
    and a vertex is Grundy-0 iff none of its moves reaches one, the recurrence that fixes them on a DAG."""
    if len(gd.values) != g.n:
        raise ValueError(f"gd holds {len(gd.values)} Grundy values for a graph of {g.n} vertices")
    zero = np.fromiter(gd.values, np.int64, g.n) == 0
    wrong = np.flatnonzero(zero == _some_move_into(g, zero))
    if len(wrong):
        raise ValueError(f"gd's Grundy-0 set breaks the win/lose recurrence at vertex {wrong[0]}")
    return zero


def critical_rows(g: GameGraph, zero: np.ndarray) -> np.ndarray:
    """The critical positions in ascending order, from the Grundy-0 flags: interior
    positions where optimal play must be learned, not Grundy-0 and with at least
    one successor that is not Grundy-0 either (a wrong move exists)."""
    return np.flatnonzero(~zero & _some_move_into(g, ~zero))


def _some_move_into(g: GameGraph, flags: np.ndarray) -> np.ndarray:
    """Per vertex, whether one of its moves reaches a vertex that ``flags`` marks."""
    some, moves = np.zeros(g.n, dtype=bool), g.offsets[1:] > g.offsets[:-1]
    some[moves] = np.logical_or.reduceat(flags[g.targets], g.offsets[:-1][moves])  # sinks stay False
    return some


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
    zero = check_grundy_data(g, gd).tolist()
    if zero[g.root]:
        raise PreconditionViolated("root has Grundy value 0; first player cannot win")
    off, targets = g.offsets.tolist(), g.targets.tolist()
    moves = {v: targets[off[v] : off[v + 1]] for v in g.interior}
    return Strategy({v: next((w for w in ws if zero[w]), ws[0]) for v, ws in moves.items()})


def ensure_first_player_win(g: GameGraph, zero: np.ndarray | None = None) -> GameGraph:
    """Return ``g``, or ``g`` plus a forced-move start vertex.

    ``zero`` holds ``g``'s Grundy-0 flags (:func:`zero_flags`, computed here
    when None). When the root is not Grundy-0 the graph is returned
    unchanged, which makes the operation idempotent. Otherwise a fresh
    vertex ``n`` becomes the new root with the old root as its only move;
    the new root's value is then mex{0} = 1.
    """
    if zero is None:
        zero = zero_flags(g)
    elif not (isinstance(zero, np.ndarray) and zero.dtype == bool and zero.shape == (g.n,)):
        raise ValueError(f"zero must be a bool array of length {g.n}, one Grundy-0 flag per vertex")
    if not zero[g.root]:
        return g
    offsets = np.append(g.offsets, g.edge_count + 1)
    return csr_graph(offsets, np.append(g.targets, g.root), g.n, g.labels + ("start",))
