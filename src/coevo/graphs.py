"""Rooted acyclic game graphs, strategies, and playouts.

An impartial game is a rooted DAG whose vertices are positions and whose
edges are legal moves. Both players share the move set; the player who
cannot move (the walk has reached a sink) loses. Vertices are dense
integers ``0..n-1``. Successor order is significant everywhere: it is the
canonical index order used by probability models, strategy codecs, and
serialisation.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .ioutil import atomic_write_text


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


@dataclass(frozen=True)
class GameGraph:
    """Immutable rooted DAG of game positions.

    ``succ[v]`` is the ordered successor tuple for vertex ``v``;
    ``reverse_topo`` lists vertices so that every vertex appears after all
    of its successors (sinks first). ``offsets`` and ``targets`` hold the
    same successor lists as flat read-only int64 arrays, set when the graph
    is built: slot ``i`` of vertex ``v`` is edge ``offsets[v] + i`` and
    leads to ``targets[offsets[v] + i]``. Instances are safe to share
    across threads; build them with :func:`csr_graph` or :func:`build_graph`.
    """

    succ: tuple[tuple[int, ...], ...]
    root: int
    labels: tuple[str | None, ...]
    reverse_topo: tuple[int, ...]
    max_degree: int
    interior: tuple[int, ...]
    sinks: tuple[int, ...]
    edge_count: int
    offsets: np.ndarray = field(repr=False, compare=False)
    targets: np.ndarray = field(repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.succ, self.root)))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.succ)

    def is_sink(self, v: int) -> bool:
        return not self.succ[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, ws in enumerate(self.succ):
            for w in ws:
                yield (u, w)

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

    bounds = offsets.tolist()
    # Gathered from one object array, every edge into a vertex shares that
    # vertex's int, where ``targets.tolist()`` would make one int per edge.
    flat = tuple(np.arange(n, dtype=object)[targets].tolist())
    succ = tuple(flat[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    if (targets < sources).all():
        # Every move lowers the id, so 0..n-1 lists successors first; it is
        # also the order the depth-first search below emits on such graphs.
        reverse_topo = tuple(range(n))
    else:
        reverse_topo = _reverse_topological_order(succ)
    # In a DAG every vertex is reachable iff every non-root one has an in-edge.
    indegree = np.bincount(targets, minlength=n)
    indegree[root] += 1
    if not indegree.all():
        _check_reachable(succ, root, n)
    for array in (offsets, targets):
        array.flags.writeable = False
    return GameGraph(
        succ=succ,
        root=int(root),
        labels=labels,
        reverse_topo=reverse_topo,
        max_degree=int(degree.max(initial=0)),
        interior=tuple(np.flatnonzero(degree).tolist()),
        sinks=tuple(np.flatnonzero(degree == 0).tolist()),
        edge_count=len(flat),
        offsets=offsets,
        targets=targets,
    )


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


def _reverse_topological_order(succ: Sequence[Sequence[int]]) -> tuple[int, ...]:
    # Iterative DFS post-order: every vertex is emitted after its successors.
    n = len(succ)
    WHITE, GREY, BLACK = 0, 1, 2
    colour = [WHITE] * n
    order: list[int] = []
    for start in range(n):
        if colour[start] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        colour[start] = GREY
        while stack:
            v, i = stack.pop()
            if i < len(succ[v]):
                stack.append((v, i + 1))
                w = succ[v][i]
                if colour[w] == GREY:
                    raise CycleDetected(f"cycle through edge ({v}, {w})")
                if colour[w] == WHITE:
                    colour[w] = GREY
                    stack.append((w, 0))
            else:
                colour[v] = BLACK
                order.append(v)
    return tuple(order)


def _check_reachable(succ: Sequence[Sequence[int]], root: int, n: int) -> None:
    seen = [False] * n
    seen[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    for v in range(n):
        if not seen[v]:
            raise Unreachable(v)


@dataclass(frozen=True)
class Strategy:
    """Total choice of one successor per interior vertex."""

    choice: dict[int, int]

    def __getitem__(self, v: int) -> int:
        return self.choice[v]

    def validate(self, g: GameGraph) -> "Strategy":
        if set(self.choice) != set(g.interior):
            raise ValueError("strategy domain must be exactly the interior vertices")
        for v, w in self.choice.items():
            if w not in g.succ[v]:
                raise ValueError(f"choice {v} -> {w} is not a legal move")
        return self

    def key(self, g: GameGraph) -> tuple[int, ...]:
        """Canonical tuple of successor indices, for set membership."""
        return tuple(g.succ[v].index(self.choice[v]) for v in g.interior)


@dataclass(frozen=True)
class Transcript:
    """One played-out game: the realised position path and the outcome."""

    visited: tuple[int, ...]
    winner: int  # +1 first mover wins, -1 second mover wins


def play(g: GameGraph, x: Strategy, y: Strategy) -> Transcript:
    """Play ``x`` against ``y`` from the root, ``x`` moving first.

    Iterative, so arbitrarily long paths are fine. The winner is +1 exactly
    when the player stuck at the final sink is ``y``.
    """
    cur = g.root
    visited = [cur]
    moves = 0
    while g.succ[cur]:
        mover = x if moves % 2 == 0 else y
        cur = mover.choice[cur]
        visited.append(cur)
        moves += 1
    winner = -1 if moves % 2 == 0 else 1
    return Transcript(visited=tuple(visited), winner=winner)


def strategy_space_size(g: GameGraph) -> int:
    size = 1
    for v in g.interior:
        size *= len(g.succ[v])
    return size


def enumerate_strategies(g: GameGraph) -> Iterator[Strategy]:
    """All strategies in lexicographic order of successor indices."""
    interior = g.interior
    for combo in itertools.product(*(g.succ[v] for v in interior)):
        yield Strategy(dict(zip(interior, combo)))


# ---------------------------------------------------------------------------
# Serialisation

def game_to_dict(g: GameGraph) -> dict:
    vertices = []
    for v in range(g.n):
        entry: dict = {"id": v, "succ": list(g.succ[v])}
        if g.labels[v] is not None:
            entry["label"] = g.labels[v]
        vertices.append(entry)
    return {"root": g.root, "vertices": vertices}


def game_from_dict(data: Mapping) -> GameGraph:
    """Read the layout :func:`game_to_dict` writes. The root, every id and every
    successor must be a JSON integer; anything else, a bool or a float with an
    integer value included, is a :class:`GameGraphError` naming its field."""
    root = data["root"]
    if not _is_int(root):
        raise GameGraphError(f"root must be a JSON integer, got {root!r}")
    adjacency = {}
    labels = {}
    for i, entry in enumerate(data["vertices"]):
        v, succ = entry["id"], entry["succ"]
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
    return build_graph(adjacency, root, labels)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def save_game(g: GameGraph, path) -> None:
    atomic_write_text(path, json.dumps(game_to_dict(g), indent=2, sort_keys=True) + "\n")


def load_game(path) -> GameGraph:
    with open(path) as fh:
        return game_from_dict(json.load(fh))


def to_dot(g: GameGraph) -> str:
    """DOT rendering for visual inspection; the root is double-circled."""
    lines = ["digraph game {"]
    for v in range(g.n):
        shape = ", shape=doublecircle" if v == g.root else ""
        lines.append(f'  {v} [label="{g.label(v)}"{shape}];')
    for u, w in g.edges():
        lines.append(f"  {u} -> {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
