"""Edge-set depth, forced visits, and per-vertex switchability.

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

from . import grundy as _grundy
from .graphs import GameGraph, root_distances


class ForeignEdge(ValueError):
    pass


class TooLarge(ValueError):
    pass


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
    mode_used: str


def _check_edges(g: GameGraph, edges: Iterable[tuple[int, int]]) -> frozenset:
    edges = frozenset(edges)
    off, targets = g.offsets.tolist(), g.targets.tolist()
    for u, w in edges:
        if not (0 <= u < g.n) or w not in targets[off[u] : off[u + 1]]:
            raise ForeignEdge(f"({u}, {w}) is not an edge of the graph")
    return edges


def depth(g: GameGraph, edges: Iterable[tuple[int, int]]) -> int:
    """Maximum number of ``edges`` members met along one directed path."""
    edges = _check_edges(g, edges)
    off, targets = g.offsets.tolist(), g.targets.tolist()
    best = [0] * g.n
    for u in g.reverse_topo:
        best[u] = max((best[w] + ((u, w) in edges) for w in targets[off[u] : off[u + 1]]), default=0)
    return max(best, default=0)


def _switches(g: GameGraph, off: list[int], targets: list[int], edges: frozenset, v: int) -> bool:
    """Whether ``edges``, edges of ``g``, form a v-switcher, by forced-graph reachability:
    constrained vertices keep only their ``A``-successors, and the set fails exactly
    when some sink other than ``v`` stays reachable from the root without expanding ``v``."""
    forced: dict[int, list[int]] = {}
    for u, w in edges:
        forced.setdefault(u, []).append(w)

    seen = [False] * g.n
    seen[g.root] = True
    stack = [g.root]
    while stack:
        u = stack.pop()
        if u == v:
            continue
        allowed = forced.get(u) or targets[off[u] : off[u + 1]]
        if not allowed:
            return False  # maximal compatible path ends here, missing v
        for w in allowed:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return True


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


def _candidates_by_depth(
    g: GameGraph, edge_limit: int
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Every functional assignment, stably sorted by depth.

    Returns the branching vertices, a matrix whose column ``c`` picks
    option ``k`` at each of them (0 assigns nothing, ``k`` the ``k``-th
    successor), and each column's depth. Columns start in
    ``itertools.product`` order, so equal depths keep enumeration order.
    """
    if g.edge_count > edge_limit:
        raise TooLarge(f"{g.edge_count} edges exceeds the search budget {edge_limit}")
    off, targets = g.offsets.tolist(), g.targets.tolist()
    branching = [v for v in g.interior if off[v + 1] - off[v] > 1]
    options = [off[v + 1] - off[v] + 1 for v in branching]
    count = 1
    for option in options:
        count *= option
        if count > _CANDIDATE_LIMIT:
            raise TooLarge(f"{count}+ candidate edge sets; lower the edge budget or use bounds")
    picks = np.indices(options, dtype=np.min_scalar_type(g.max_degree))
    picks = picks.reshape(len(branching), count)
    chosen = dict(zip(branching, picks))
    # Depth of every assignment at once: the most chosen edges on a path
    # from each vertex. At most 11 vertices branch (3**12 > the candidate
    # limit), so int8 cannot overflow.
    best = [np.zeros(count, dtype=np.int8)] * g.n
    for u in g.reverse_topo:
        for k, w in enumerate(targets[off[u] : off[u + 1]], start=1):
            step = best[w] + (chosen[u] == k) if u in chosen else best[w]
            best[u] = np.maximum(best[u], step)
    order = np.argsort(best[g.root], kind="stable")
    return branching, picks[:, order], best[g.root][order]


def _search(g: GameGraph, v: int, candidates, ub: int) -> SwitchabilityReport:
    """Shallowest candidate that switches ``v``, whose path bound is ``ub``.

    One always does: picking a shortest root path's edge at each branching
    vertex on it forces every compatible path into ``v`` at depth <= ``ub``.
    """
    branching, picks, depths = candidates
    off, targets = g.offsets.tolist(), g.targets.tolist()
    edge_sets = (
        frozenset((u, targets[off[u] + k - 1]) for u, k in zip(branching, column.tolist()) if k)
        for column in picks.T
    )
    # candidates are edges of g by construction
    c, edges = next((c, e) for c, e in enumerate(edge_sets) if _switches(g, off, targets, e, v))
    return SwitchabilityReport(v, int(depths[c]), ub, edges, "exact_search")


def switchability_reports(
    g: GameGraph, vertices: Iterable[int], mode: str = "hybrid", edge_limit: int = 20
) -> tuple[dict[int, SwitchabilityReport], str]:
    """Reports for ``vertices`` under ``mode``, and the method it used.

    ``"exact"`` searches every vertex exactly and raises :class:`TooLarge`
    when the graph exceeds ``edge_limit`` edges or the candidate limit.
    ``"bound"`` reports the shortest-root-path bound. ``"hybrid"`` searches
    exactly when both budgets fit and otherwise falls back to the bound.
    One BFS from the root gives every vertex's bound. Raises ValueError
    for a vertex outside ``0..n-1``.
    """
    if mode not in ("exact", "bound", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    vertices = list(vertices)
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    dist = root_distances(g)
    if mode != "bound":
        try:
            candidates = _candidates_by_depth(g, edge_limit)
        except TooLarge:
            if mode == "exact":
                raise
        else:
            return {v: _search(g, v, candidates, dist[v]) for v in vertices}, "exact_search"
    return {v: SwitchabilityReport(v, None, dist[v], None, "path_bound") for v in vertices}, "path_bound"


def switchability_profile(
    g: GameGraph,
    mode: str = "hybrid",
    edge_limit: int = 20,
    gd: _grundy.GrundyData | None = None,
) -> SwitchabilityProfile:
    """Per-vertex reports plus the two aggregates used by runtime budgets, with the critical
    positions read from ``gd`` once checked against ``g``, else from a win/lose pass."""
    zero = _grundy.zero_flags(g) if gd is None else _grundy.check_grundy_data(g, gd)
    reports, mode_used = switchability_reports(g, range(g.n), mode, edge_limit)
    critical = _grundy.critical_rows(g, zero).tolist()
    s_bar = max(r.value for r in reports.values())
    s_hat = max((reports[v].value for v in critical), default=0)
    return SwitchabilityProfile(reports=reports, s_bar=s_bar, s_hat=s_hat, mode_used=mode_used)
