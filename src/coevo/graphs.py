"""Rooted acyclic game graphs and strategies.

An impartial game is a rooted DAG whose vertices are positions and whose
edges are legal moves. Both players share the move set; the player who
cannot move (the walk has reached a sink) loses. Vertices are dense
integers ``0..n-1``. Successor order is significant everywhere: it is the
canonical index order used by probability models, strategy codecs, and
serialisation.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np


class GameGraphError(ValueError):
    """Base class for graph construction problems."""


class CycleDetected(GameGraphError):
    pass


class Unreachable(GameGraphError):
    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} is not reachable from the root")
        self.vertex = vertex


class BadEdge(GameGraphError):
    pass


@dataclass(frozen=True, eq=False)
class GameGraph:
    """Immutable rooted DAG of game positions, stored as two flat arrays.

    ``offsets`` and ``targets`` are read-only int64 arrays: vertex ``v``'s
    successors, in canonical order, are ``targets[offsets[v]:offsets[v + 1]]``,
    so slot ``i`` of ``v`` is edge ``offsets[v] + i``. ``reverse_topo`` lists
    vertices so that every vertex appears after all of its successors (sinks
    first). Two graphs are equal when their root, labels and arrays are.
    Instances are safe to share across threads; build them with
    :func:`csr_graph` or :func:`build_graph`.
    """

    root: int
    labels: tuple[str | None, ...]
    reverse_topo: tuple[int, ...]
    max_degree: int
    interior: tuple[int, ...]
    edge_count: int
    offsets: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, GameGraph):
            return NotImplemented
        return (self.root, self.labels) == (other.root, other.labels) and all(
            map(np.array_equal, (self.offsets, self.targets), (other.offsets, other.targets))
        )

    def __hash__(self):
        return hash((self.root, self.labels, self.offsets.tobytes(), self.targets.tobytes()))

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        """The successor tuples, derived from the arrays on first read. Every edge
        into a vertex shares its int, gathered from one object array."""
        bounds, ids = self.offsets.tolist(), np.arange(self.n, dtype=object)
        flat = tuple(ids[self.targets].tolist())
        return tuple(flat[lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        sources = np.repeat(np.arange(self.n), np.diff(self.offsets))
        return zip(sources.tolist(), self.targets.tolist())

    def label(self, v: int) -> str:
        name = self.labels[v]
        return name if name is not None else str(v)


def csr_graph(offsets, targets, root: int, labels: Sequence[str | None] | None = None) -> GameGraph:
    """Validate a graph given as flat successor arrays and assemble a :class:`GameGraph`.

    Vertex ``v``'s successors, in canonical order, are
    ``targets[offsets[v]:offsets[v + 1]]``, so ``offsets`` rises from 0 to
    ``len(targets)`` in ``n + 1`` integer entries; ``labels`` holds one
    name or None per vertex. Raises :class:`BadEdge` naming the first edge,
    in vertex then slot order, that leaves the vertex set, loops or repeats
    an earlier one; :class:`CycleDetected` if no topological order exists;
    and :class:`Unreachable` naming the smallest vertex the root cannot reach.
    """
    return _assemble(_int_array(offsets, "offsets"), _int_array(targets, "targets"), root, labels)


def build_graph(
    adjacency: Mapping[int, Sequence[int]],
    root: int,
    labels: Mapping[int, str] | None = None,
) -> GameGraph:
    """Validate an adjacency mapping and assemble a :class:`GameGraph`.

    Keys must be the dense integers ``0..n-1`` and successors ints (not
    bools) in ``0..n-1``; a successor that is not counts as pointing
    outside the vertex set. Otherwise the checks are :func:`csr_graph`'s.
    """
    n = len(adjacency)
    if set(adjacency) != set(range(n)):
        raise GameGraphError("adjacency keys must be the dense integers 0..n-1")
    lists = [tuple(adjacency[v]) for v in range(n)]
    shown = list(itertools.chain.from_iterable(lists))
    targets = [w if _is_int(w) and 0 <= w < n else -1 for w in shown]
    label_tuple = tuple((labels or {}).get(v) for v in range(n))
    offsets = np.cumsum([0, *map(len, lists)], dtype=np.int64)
    return _assemble(offsets, np.array(targets, dtype=np.int64), root, label_tuple, shown)


def _int_array(values, name: str) -> np.ndarray:
    array = np.asarray(values)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise GameGraphError(f"{name} must be a flat array of integers")
    return array.astype(np.int64)


def _assemble(offsets, targets, root, labels, shown=None) -> GameGraph:
    # ``shown`` holds the caller's successor values, for error messages.
    n = len(offsets) - 1
    degree = np.diff(offsets)
    if n < 0 or offsets[0] != 0 or offsets[-1] != len(targets) or (degree < 0).any():
        raise GameGraphError("offsets must rise from 0 to the number of targets")
    if isinstance(root, bool) or not isinstance(root, (int, np.integer)) or not 0 <= root < n:
        raise GameGraphError(f"root {root} outside 0..{n - 1}")
    labels = (None,) * n if labels is None else tuple(labels)
    if len(labels) != n:
        raise GameGraphError(f"{len(labels)} labels for {n} vertices")
    sources = np.repeat(np.arange(n, dtype=np.int64), degree)
    _check_edges(sources, targets, n, shown)

    if (targets < sources).all():
        # Every move lowers the id, so 0..n-1 lists successors first; it is
        # also the order the depth-first search below emits on such graphs.
        reverse_topo = tuple(range(n))
    else:
        reverse_topo = _reverse_topological_order(offsets.tolist(), targets.tolist())
    for array in (offsets, targets):
        array.flags.writeable = False
    g = GameGraph(
        root=int(root),
        labels=labels,
        reverse_topo=reverse_topo,
        max_degree=int(degree.max(initial=0)),
        interior=tuple(np.flatnonzero(degree).tolist()),
        edge_count=len(targets),
        offsets=offsets,
        targets=targets,
    )
    # In a DAG every vertex is reachable iff every non-root one has an in-edge.
    indegree = np.bincount(targets, minlength=n)
    indegree[root] += 1
    if not indegree.all():
        raise Unreachable(root_distances(g).index(-1))
    return g


def _check_edges(sources: np.ndarray, targets: np.ndarray, n: int, shown: Sequence | None) -> None:
    """Raise :class:`BadEdge` for the first edge that leaves ``0..n-1``, loops, or
    repeats an earlier edge of its vertex, showing its target as ``shown`` has it."""
    outside = (targets < 0) | (targets >= n)
    loop = targets == sources
    keys = sources * (n + 1) + np.clip(targets, -1, n)  # equal keys: the same edge
    ordered = np.sort(keys)
    if not (outside.any() or loop.any() or (ordered[1:] == ordered[:-1]).any()):
        return
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
    i = int(np.flatnonzero(outside | loop | repeat)[0])
    v, w = int(sources[i]), int(targets[i]) if shown is None else shown[i]
    if outside[i]:
        raise BadEdge(f"edge ({v}, {w}) points outside the vertex set")
    if loop[i]:
        raise BadEdge(f"self-loop at vertex {v}")
    raise BadEdge(f"duplicate edge ({v}, {w})")


def _reverse_topological_order(off: list[int], targets: list[int]) -> tuple[int, ...]:
    # Iterative DFS post-order: every vertex is emitted after its successors.
    n = len(off) - 1
    WHITE, GREY, BLACK = 0, 1, 2
    colour = [WHITE] * n
    order: list[int] = []
    for start in range(n):
        if colour[start] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, off[start])]
        colour[start] = GREY
        while stack:
            v, e = stack.pop()
            if e < off[v + 1]:
                stack.append((v, e + 1))
                w = targets[e]
                if colour[w] == GREY:
                    raise CycleDetected(f"cycle through edge ({v}, {w})")
                if colour[w] == WHITE:
                    colour[w] = GREY
                    stack.append((w, off[w]))
            else:
                colour[v] = BLACK
                order.append(v)
    return tuple(order)


def root_distances(g: GameGraph) -> list[int]:
    """Shortest root-to-vertex path length of every vertex, by one BFS, or -1
    where the root cannot reach it (never, on a graph that was assembled).

    The edge set of a shortest root-to-v path is always a v-switcher, so
    ``root_distances(g)[v]`` is the path bound on v's switchability.
    """
    off, targets = g.offsets.tolist(), memoryview(g.targets)
    dist = [-1] * g.n
    dist[g.root] = 0
    queue = deque([g.root])
    while queue:
        u = queue.popleft()
        for w in targets[off[u] : off[u + 1]]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@dataclass(frozen=True)
class Strategy:
    """Total choice of one successor per interior vertex."""

    choice: dict[int, int]


def strategy_space_size(g: GameGraph) -> int:
    return math.prod(d for d in np.diff(g.offsets).tolist() if d)


# ---------------------------------------------------------------------------
# Serialisation

def game_to_dict(g: GameGraph) -> dict:
    off, targets = g.offsets.tolist(), g.targets.tolist()
    vertices = []
    for v in range(g.n):
        entry: dict = {"id": v, "succ": targets[off[v] : off[v + 1]]}
        if g.labels[v] is not None:
            entry["label"] = g.labels[v]
        vertices.append(entry)
    return {"root": g.root, "vertices": vertices}


def game_from_dict(data: Mapping) -> GameGraph:
    """Read the layout :func:`game_to_dict` writes: an object with ``root`` and a
    ``vertices`` list of objects with ``id``, ``succ`` and optionally ``label``. The
    root, every id and every successor must be a JSON integer, and a label a JSON
    string; a missing or wrongly typed field, a bool or a float with an integer
    value included, is a :class:`GameGraphError` naming it."""
    if not isinstance(data, Mapping):
        raise GameGraphError(f"a game must be a JSON object, got {type(data).__name__}")
    root, entries = _field(data, "root", "game"), _field(data, "vertices", "game")
    if not _is_int(root):
        raise GameGraphError(f"root must be a JSON integer, got {root!r}")
    if not isinstance(entries, list):
        raise GameGraphError(f"vertices must be a list, got {type(entries).__name__}")
    adjacency = {}
    labels = {}
    for i, entry in enumerate(entries):
        where = f"vertex entry {i}"
        if not isinstance(entry, Mapping):
            raise GameGraphError(f"{where} must be an object, got {type(entry).__name__}")
        v, succ = _field(entry, "id", where), _field(entry, "succ", where)
        if not _is_int(v):
            raise GameGraphError(f"vertex entry {i}: id must be a JSON integer, got {v!r}")
        if v in adjacency:
            raise GameGraphError(f"vertex {v}: id appears twice")
        bad = [w for w in succ if not _is_int(w)] if isinstance(succ, list) else [succ]
        if bad:
            raise GameGraphError(f"vertex {v}: succ must be a list of JSON integers, got {bad[0]!r}")
        adjacency[v] = succ
        if "label" in entry:
            labels[v] = entry["label"]
            if not isinstance(labels[v], str):
                raise GameGraphError(f"vertex {v}: label must be a JSON string, got {labels[v]!r}")
    return build_graph(adjacency, root, labels)


def _field(data: Mapping, key: str, where: str):
    if key not in data:
        raise GameGraphError(f"{where} has no {key}")
    return data[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def to_dot(g: GameGraph) -> str:
    """DOT rendering for visual inspection; the root is double-circled."""
    lines = ["digraph game {"]
    for v in range(g.n):
        shape = ", shape=doublecircle" if v == g.root else ""
        name = g.label(v).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{name}"{shape}];')
    for u, w in g.edges():
        lines.append(f"  {u} -> {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
