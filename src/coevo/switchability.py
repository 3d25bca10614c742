"""Forced visits and per-vertex switchability.

An edge set ``A`` constrains play: whenever the current vertex has an
outgoing ``A``-edge, a compatible continuation must follow one of them;
otherwise any move is allowed. ``A`` is a v-switcher when every maximal
compatible path from the root contains ``v``. The switchability of ``v``
is the smallest possible depth (maximum number of ``A``-edges met along a
single directed path) of such a set, and it lower-bounds how often
border-restricted self-play visits ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import eda as _eda
from . import grundy as _grundy
from .graphs import GameGraph, root_distances


@dataclass(frozen=True)
class SwitchabilityReport:
    vertex: int
    exact: int | None
    upper_bound: int
    witness: frozenset[tuple[int, int]] | None
    method: str  # "exact_search" or "path_bound"

    @property
    def value(self) -> int:
        return self.exact if self.exact is not None else self.upper_bound


@dataclass(frozen=True)
class SwitchabilityProfile:
    reports: dict[int, SwitchabilityReport]
    s_bar: int  # max over all vertices
    s_hat: int  # max over critical positions (0 when there are none)


def _misses(g: GameGraph, v: int, passable: np.ndarray) -> np.ndarray:
    """Per column of ``passable`` (edges x candidates, whether play may pass along
    each edge), whether some sink other than ``v`` stays reachable from the root
    when ``v`` passes nothing on: exactly when that column's set is no v-switcher."""
    off, targets = g.offsets.tolist(), g.targets.tolist()
    none = np.zeros(passable.shape[1], dtype=bool)
    reach = [none] * g.n
    reach[g.root] = ~none
    missed = none
    for u in reversed(g.reverse_topo):
        if u == v:
            continue
        if off[u] == off[u + 1]:
            missed = missed | reach[u]  # maximal compatible path ends here, missing v
        for e in range(off[u], off[u + 1]):
            reach[targets[e]] = reach[targets[e]] | (reach[u] & passable[e])
    return missed


# ---------------------------------------------------------------------------
# Exact search.
#
# Any switcher contains a sub-switcher with at most one outgoing edge per
# vertex (keep one chosen edge per constrained vertex: the forced paths
# only shrink, and depth cannot grow on a subset). The minimum over these
# "functional" assignments therefore equals the minimum over all edge
# sets, and assignments with the same forced graph collapse to one
# candidate. Vertices with a single successor are never assigned: doing
# so leaves compatible paths unchanged and can only add depth.

_CANDIDATE_LIMIT = 500_000


def _candidates_by_depth(g: GameGraph, edge_limit: int) -> tuple[np.ndarray, ...] | None:
    """Every functional assignment, stably sorted by depth, or ``None`` when the
    graph has more than ``edge_limit`` edges or the candidate limit is passed.

    Returns a matrix whose column ``c`` picks option ``k`` at each branching
    vertex (0 assigns nothing, ``k`` the ``k``-th successor) above a row of
    zeros; per edge, the row its tail reads and the option that chooses it;
    and each column's depth. Columns start in ``itertools.product`` order,
    so equal depths keep enumeration order.
    """
    if g.edge_count > edge_limit:
        return None
    off, targets = g.offsets.tolist(), g.targets.tolist()
    branching = [v for v in g.interior if off[v + 1] - off[v] > 1]
    options = [off[v + 1] - off[v] + 1 for v in branching]
    count = 1
    for option in options:
        count *= option
        if count > _CANDIDATE_LIMIT:
            return None
    # One row per branching vertex, plus a last row of zeros: a trailing axis of one option.
    picks = np.indices([*options, 1], dtype=np.min_scalar_type(g.max_degree))
    picks = picks.reshape(len(branching) + 1, count)
    # Edges whose tail does not branch read the row of zeros: never chosen, always passable.
    tails = np.repeat(np.arange(g.n), np.diff(g.offsets))
    rows = np.full(g.n, len(branching))
    rows[branching] = range(len(branching))
    rows, slots = rows[tails], (np.arange(g.edge_count) - g.offsets[tails] + 1).astype(picks.dtype)
    # Depth of every assignment at once: the most chosen edges on a path
    # from each vertex. At most 11 vertices branch (3**12 > the candidate
    # limit), so int8 cannot overflow.
    best = [np.zeros(count, dtype=np.int8)] * g.n
    for u in g.reverse_topo:
        for e in range(off[u], off[u + 1]):
            best[u] = np.maximum(best[u], best[targets[e]] + (picks[rows[e]] == slots[e]))
    order = np.argsort(best[g.root], kind="stable")
    return picks[:, order], rows, slots, best[g.root][order]


def _search(g: GameGraph, v: int, candidates, ub: int) -> SwitchabilityReport:
    """Shallowest candidate that switches ``v``, whose path bound is ``ub``: the
    first in depth order, found with one reachability pass per depth layer.

    One always does: picking a shortest root path's edge at each branching
    vertex on it forces every compatible path into ``v`` at depth <= ``ub``.
    """
    picks, rows, slots, depths = candidates
    bounds = np.searchsorted(depths, range(ub + 2)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        layer = picks[rows, lo:hi]  # edges x candidates: the option each edge's tail picks
        switches = ~_misses(g, v, (layer == 0) | (layer == slots[:, None]))
        if switches.any():
            c = int(switches.argmax())
            witness = frozenset(e for e, hit in zip(g.edges(), layer[:, c] == slots) if hit)
            return SwitchabilityReport(v, int(depths[lo + c]), ub, witness, "exact_search")
    raise AssertionError(f"no candidate up to depth {ub} switches {v}")


def switchability_reports(
    g: GameGraph, vertices: Iterable[int], edge_limit: int = 20
) -> dict[int, SwitchabilityReport]:
    """Reports for ``vertices``, all from one method, which each names.

    The search is exact when the graph has at most ``edge_limit`` edges and
    at most the candidate limit of candidate sets; otherwise every report is
    the shortest-root-path bound, which one BFS from the root gives for every
    vertex. Raises ValueError for an ``edge_limit`` that is not an int at
    least 0, or a vertex outside ``0..n-1``.
    """
    _eda._require_int("edge_limit", edge_limit, 0)
    vertices, n = list(vertices), g.n
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
    dist = root_distances(g)
    candidates = _candidates_by_depth(g, edge_limit)
    if candidates is None:
        return {v: SwitchabilityReport(v, None, dist[v], None, "path_bound") for v in vertices}
    return {v: _search(g, v, candidates, dist[v]) for v in vertices}


def switchability_profile(
    g: GameGraph, edge_limit: int = 20, gd: _grundy.GrundyData | None = None
) -> SwitchabilityProfile:
    """Per-vertex reports plus the two aggregates used by runtime budgets, with the critical
    positions read from ``gd`` once checked against ``g``, else from a win/lose pass."""
    zero = _grundy.zero_flags(g) if gd is None else _grundy.check_grundy_data(g, gd)
    reports = switchability_reports(g, range(g.n), edge_limit)
    critical = _grundy.critical_rows(g, zero).tolist()
    values = [reports[v].value for v in range(g.n)]
    s_bar = max(values)
    s_hat = max((values[v] for v in critical), default=0)
    return SwitchabilityProfile(reports=reports, s_bar=s_bar, s_hat=s_hat)
