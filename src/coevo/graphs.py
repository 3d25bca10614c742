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
from functools import cached_property
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
    same successor lists as flat arrays: slot ``i`` of vertex ``v`` is edge
    ``offsets[v] + i`` and leads to ``targets[offsets[v] + i]``. Instances
    are safe to share across threads; build them with :func:`build_graph`.
    """

    succ: tuple[tuple[int, ...], ...]
    root: int
    labels: tuple[str | None, ...]
    reverse_topo: tuple[int, ...]
    max_degree: int
    interior: tuple[int, ...]
    sinks: tuple[int, ...]
    edge_count: int
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.succ, self.root)))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.succ)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start of each vertex's successor slice in ``targets`` (length n+1)."""
        return np.cumsum([0, *map(len, self.succ)], dtype=np.int64)

    @cached_property
    def targets(self) -> np.ndarray:
        """Every successor list, concatenated in vertex order."""
        return np.fromiter(itertools.chain.from_iterable(self.succ), np.int64, self.edge_count)

    def is_sink(self, v: int) -> bool:
        return not self.succ[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, ws in enumerate(self.succ):
            for w in ws:
                yield (u, w)

    def label(self, v: int) -> str:
        name = self.labels[v]
        return name if name is not None else str(v)


def build_graph(
    adjacency: Mapping[int, Sequence[int]],
    root: int,
    labels: Mapping[int, str] | None = None,
) -> GameGraph:
    """Validate an adjacency mapping and assemble a :class:`GameGraph`.

    Keys must be the dense integers ``0..n-1`` and must cover every vertex
    mentioned as a successor. Raises :class:`BadEdge` for duplicate or
    self-loop edges, :class:`CycleDetected` if no topological order
    exists, and :class:`Unreachable` if some vertex cannot be reached from
    the root.
    """
    n = len(adjacency)
    if set(adjacency) != set(range(n)):
        raise GameGraphError("adjacency keys must be the dense integers 0..n-1")
    if not 0 <= root < n:
        raise GameGraphError(f"root {root} outside 0..{n - 1}")

    succ: list[tuple[int, ...]] = []
    for v in range(n):
        ws = tuple(adjacency[v])
        seen = set()
        for w in ws:
            if not isinstance(w, int) or not 0 <= w < n:
                raise BadEdge(f"edge ({v}, {w}) points outside the vertex set")
            if w == v:
                raise BadEdge(f"self-loop at vertex {v}")
            if w in seen:
                raise BadEdge(f"duplicate edge ({v}, {w})")
            seen.add(w)
        succ.append(ws)

    reverse_topo = _reverse_topological_order(succ)
    _check_reachable(succ, root, n)

    label_tuple = tuple((labels or {}).get(v) for v in range(n))
    interior = tuple(v for v in range(n) if succ[v])
    sinks = tuple(v for v in range(n) if not succ[v])
    return GameGraph(
        succ=tuple(succ),
        root=root,
        labels=label_tuple,
        reverse_topo=reverse_topo,
        max_degree=max((len(ws) for ws in succ), default=0),
        interior=interior,
        sinks=sinks,
        edge_count=sum(len(ws) for ws in succ),
    )


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
    adjacency = {}
    labels = {}
    for entry in data["vertices"]:
        v = int(entry["id"])
        adjacency[v] = [int(w) for w in entry["succ"]]
        if "label" in entry:
            labels[v] = entry["label"]
    return build_graph(adjacency, int(data["root"]), labels)


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
