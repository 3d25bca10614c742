"""Benchmark game constructors, figure fixtures, and the heap-strategy encoder.

Every generator materialises the full explicit graph with documented
position-to-integer encodings, so vertex ids are stable across runs and
platforms. Moves are computed as numpy arrays and handed to
:func:`~coevo.graphs.csr_graph` in one piece. Generation refuses graphs
above ``MAX_VERTICES`` vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .graphs import GameGraph, Strategy, build_graph, csr_graph

MAX_VERTICES = 2**22


class BadParams(ValueError):
    pass


class UnknownFixture(ValueError):
    pass


class BadLength(ValueError):
    pass


class IllegalMove(ValueError):
    pass


@dataclass(frozen=True)
class GameSpec:
    """Family name plus its parameters, checked against :data:`FAMILIES`.

    Construction raises :class:`BadParams` naming an unknown family or the
    first missing or unexpected parameter; :meth:`build` constructs the game.
    """

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in FAMILIES:
            known = ", ".join(FAMILIES)
            raise BadParams(f"unknown family {self.family!r}; expected one of {known}")
        wanted = FAMILIES[self.family][1]
        for name in wanted:
            if name not in self.params:
                raise BadParams(f"{self.family} needs parameter {name}")
        for name in self.params:
            if name not in wanted:
                takes = ", ".join(wanted)
                raise BadParams(f"{self.family} takes no parameter {name}; it takes {takes}")

    def build(self) -> GameGraph:
        make, names = FAMILIES[self.family]
        return make(*(self.params[name] for name in names))

    def params_string(self) -> str:
        return ";".join(f"{k}={self.params[k]}" for k in sorted(self.params))


def _guard_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise BadParams(f"{n} positions exceeds the desk-scale limit of {MAX_VERTICES}")


def _ramp(counts: np.ndarray) -> np.ndarray:
    """``0, 1, .., c - 1`` for each count ``c``, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _from_moves(n: int, sources: list, targets: list, root: int, labels: list[str]) -> GameGraph:
    """The graph whose moves are the concatenated ``(sources, targets)`` groups.

    Each group lists its moves by source, and within a source the groups'
    order and each group's own order make the canonical successor order, so
    a stable sort by source puts every vertex's moves in place.
    """
    sources = np.concatenate(sources)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=offsets[1:])
    targets = np.concatenate(targets)[np.argsort(sources, kind="stable")]
    return csr_graph(offsets, targets, root, labels)


def subtraction_nim(n: int, k: int) -> GameGraph:
    """One heap of ``n-1`` items; each turn removes between 1 and ``k``.

    Vertex ``v`` is the heap size, the root is ``n-1`` and 0 is the sink.
    Successors are listed as ``v-1, v-2, ..., v-k`` (smallest subtraction
    first); this order is the canonical one for models and codecs.
    """
    if n < 1 or k < 1:
        raise BadParams("subtraction_nim needs n >= 1 and k >= 1")
    _guard_size(n)
    degree = np.minimum(np.arange(n), k)
    offsets = np.concatenate(([0], np.cumsum(degree)))
    targets = np.repeat(np.arange(n), degree) - 1 - _ramp(degree)
    return csr_graph(offsets, targets, n - 1, list(map(str, range(n))))


def silver_dollar(m: int, k: int, start: tuple[int, ...] | None = None) -> GameGraph:
    """``k`` coins on a strip of ``m`` squares, each moving only leftwards.

    A position is the strictly increasing tuple of occupied squares
    (1-based). A move slides one coin to any square strictly between its
    left neighbour (or square 0) and itself; the game ends with the coins
    packed on squares ``1..k``. By default the coins start on the
    rightmost ``k`` squares, making every one of the ``C(m, k)`` positions
    reachable; a custom ``start`` keeps only the positions pointwise <= it.

    Ids are assigned by lexicographic order of the reachable position
    tuples, so the sink ``(1, .., k)`` is always id 0. Moves are listed by
    coin from left to right, target squares ascending.
    """
    if k < 1 or m < k:
        raise BadParams("silver_dollar needs m >= k >= 1")
    if start is None:
        start = tuple(range(m - k + 1, m + 1))
    else:
        start = tuple(start)
        if len(start) != k or list(start) != sorted(set(start)):
            raise BadParams("start must be a strictly increasing k-tuple")
        if start[0] < 1 or start[-1] > m:
            raise BadParams("start squares must lie in 1..m")
    _guard_size(comb(m, k))

    squares = np.array(list(itertools.combinations(range(1, m + 1), k)), dtype=np.int64)
    squares = squares[(squares <= start).all(axis=1)]
    n = len(squares)
    # Combinatorial number system: coin c on square s adds C(s - 1, c + 1),
    # and the sum ranks the position among all C(m, k) without collision
    # (base-(m + 1) digits would overflow int64 for k near m). Every term a
    # position uses is below C(m, k), so the table can be capped.
    term = np.array([[min(comb(s, c + 1), MAX_VERTICES) for c in range(k)] for s in range(m)])
    rank = term[squares - 1, np.arange(k)].sum(axis=1)
    ids = np.zeros(comb(m, k), dtype=np.int64)
    ids[rank] = np.arange(n)
    sources, targets = [], []
    for coin in range(k):
        lower = squares[:, coin - 1] if coin else np.zeros(n, dtype=np.int64)
        count = squares[:, coin] - lower - 1
        src = np.repeat(np.arange(n), count)
        to = np.repeat(lower + 1, count) + _ramp(count)
        sources.append(src)
        targets.append(ids[rank[src] - term[squares[src, coin] - 1, coin] + term[to - 1, coin]])
    labels = [",".join(map(str, combo)) for combo in squares.tolist()]
    root = int(ids[term[np.array(start) - 1, np.arange(k)].sum()])
    return _from_moves(n, sources, targets, root, labels)


def turning_turtles(m: int) -> GameGraph:
    """Row of ``m`` coins, all heads initially.

    A move turns one heads coin ``i`` to tails and optionally flips any
    coin left of it (in either direction). A position is the set of heads
    coins, encoded directly as an ``m``-bit mask, so vertex ids are the
    masks themselves: the root is ``2^m - 1`` and the sink is 0. Moves are
    listed by chosen coin ascending, the no-extra-flip move first, then
    flips of coins ``1..i-1``. The mask's binary value drops with every
    move, which is the acyclicity witness.
    """
    if m < 1:
        raise BadParams("turning_turtles needs m >= 1")
    _guard_size(2**m)
    masks = np.arange(2**m)
    sources, targets = [], []
    flips = np.array([0] + [1 << j for j in range(m - 1)])
    for i in range(1, m + 1):
        bit = 1 << (i - 1)
        src = masks[masks & bit != 0]
        sources.append(np.repeat(src, i))
        targets.append(((src ^ bit)[:, None] ^ flips[:i]).ravel())
    labels = [
        "{" + ",".join(str(i) for i in range(1, m + 1) if mask >> (i - 1) & 1) + "}" for mask in range(2**m)
    ]
    return _from_moves(2**m, sources, targets, 2**m - 1, labels)


def chomp(m: int) -> GameGraph:
    """Square Chomp on an ``m x m`` board with a poison lower-left square.

    Positions are staircase boards: non-increasing row-length tuples
    ``(r1 >= r2 >= ... >= rm)`` counted from the bottom row, excluding the
    empty board. A move at a present cell ``(i, j)`` truncates every row
    ``i`` and above to at most ``j-1``; the move at ``(1, 1)``, which
    would empty the board, is fatal and therefore removed, leaving the
    poison-only board ``(1, 0, .., 0)`` as the sink. Ids follow the
    lexicographic order of the row tuples (the sink is id 0, the full
    board is id n-1); moves are listed by row then column ascending.
    """
    if m < 1:
        raise BadParams("chomp needs m >= 1")
    _guard_size(comb(2 * m, m) - 1)

    # Staircases in lexicographic order: extend each prefix by every row
    # length up to its last, ascending; then drop the empty board.
    rows = np.arange(m + 1)[:, None]
    for _ in range(m - 1):
        last = rows[:, -1] + 1
        rows = np.column_stack((np.repeat(rows, last, axis=0), _ramp(last)))
    rows = rows[1:]
    # Row lengths are base-(m + 1) digits, so keys sort as the tuples do.
    weight = (m + 1) ** np.arange(m - 1, -1, -1)
    keys = rows @ weight
    sources, targets = [], []
    for row in range(m):
        # The move at cell (row, c + 1) cuts this row and every row above it
        # to at most c cells. Cutting the bottom row to nothing is fatal.
        first = int(row == 0)
        src, c = np.nonzero(np.arange(first, m) < rows[:, row, None])
        cut = rows[src]
        np.minimum(cut[:, row:], (c + first)[:, None], out=cut[:, row:])
        sources.append(src)
        targets.append(np.searchsorted(keys, cut @ weight))
    names = list(map(str, range(m + 1)))
    labels = [",".join([names[x] for x in t]) for t in rows.tolist()]
    return _from_moves(len(rows), sources, targets, len(rows) - 1, labels)


# ---------------------------------------------------------------------------
# Paper-figure style fixtures with pinned vertex numbering.

FIXTURE_NAMES = ("fig1", "fig2", "fig3_top", "fig3_bottom", "fig4", "chain3")


def fixture(name: str) -> GameGraph:
    """Small hand-built graphs used as ground-truth test beds.

    fig1: five positions v0,a,b,c,d (ids 0..4) with Grundy values
        1,0,2,1,0 and two critical positions.
    fig2: root fanning out to a layer of five, each with a choice
        between vertex u (id 6) and vertex w (id 7).
    fig3_top: chain 0..7 with skip edges, isomorphic to the heap game
        with n=8, k=2; marked vertex 5.
    fig3_bottom: root plus a 3-row, 4-column grid (column-major ids,
        bottom row first); marked vertex 9 sits in the top row, column 3.
    fig4: chain 0..7 where every chain vertex can drop to vertex 8,
        which leads to the single sink 9. Late chain vertices need
        deeper switchers even though the game is easy.
    chain3: a forced line of four vertices; the lone strategy wins.
    """
    if name == "fig1":
        names = {0: "v0", 1: "a", 2: "b", 3: "c", 4: "d"}
        return build_graph(
            {0: [1, 2, 4], 1: [2], 2: [3, 4], 3: [4], 4: []}, root=0, labels=names
        )
    if name == "fig2":
        adjacency: dict[int, list[int]] = {0: [1, 2, 3, 4, 5]}
        for b in range(1, 6):
            adjacency[b] = [6, 7]
        adjacency[6] = []
        adjacency[7] = []
        labels = {0: "v0", 6: "u", 7: "w"}
        labels.update({b: f"b{b}" for b in range(1, 6)})
        return build_graph(adjacency, root=0, labels=labels)
    if name == "fig3_top":
        adjacency = {v: [w for w in (v + 1, v + 2) if w <= 7] for v in range(8)}
        labels = {0: "v0", 5: "v"}
        return build_graph(adjacency, root=0, labels=labels)
    if name == "fig3_bottom":
        def vid(col: int, row: int) -> int:
            return 1 + 3 * (col - 1) + row

        adjacency = {0: [vid(1, 0), vid(1, 1), vid(1, 2)]}
        for col in range(1, 4):
            adjacency[vid(col, 0)] = [vid(col + 1, 0), vid(col + 1, 1)]
            adjacency[vid(col, 1)] = [vid(col + 1, 0), vid(col + 1, 2)]
            adjacency[vid(col, 2)] = [vid(col + 1, 1), vid(col + 1, 2)]
        for row in range(3):
            adjacency[vid(4, row)] = []
        labels = {0: "v0", vid(3, 2): "v"}
        return build_graph(adjacency, root=0, labels=labels)
    if name == "fig4":
        adjacency = {v: [v + 1, 8] for v in range(7)}
        adjacency[7] = [8]
        adjacency[8] = [9]
        adjacency[9] = []
        labels = {0: "v0", 8: "u", 9: "w"}
        return build_graph(adjacency, root=0, labels=labels)
    if name == "chain3":
        return build_graph({0: [1], 1: [2], 2: [3], 3: []}, root=0)
    raise UnknownFixture(f"unknown fixture {name!r}")


#: Every buildable game: family name -> (constructor, parameter names in
#: the constructor's argument order). ``fixture`` is the only family whose
#: parameter is a name rather than an integer.
FAMILIES = {
    "subtraction_nim": (subtraction_nim, ("n", "k")),
    "silver_dollar": (silver_dollar, ("m", "k")),
    "turning_turtles": (turning_turtles, ("m",)),
    "chomp": (chomp, ("m",)),
    "fixture": (fixture, ("name",)),
}


# ---------------------------------------------------------------------------
# Strategy encoder for the heap game.

def nim_encode(x: Strategy, n: int, k: int) -> str:
    """``x`` as a string of length ``n-1``: character ``i`` (1-based, leftmost
    first) is the amount, 1..``k``, that ``x`` subtracts at heap size ``i``."""
    chars = []
    for i in range(1, n):
        if i not in x.choice:
            raise BadLength(f"strategy has no choice at heap {i}")
        amount = i - x.choice[i]
        if not 1 <= amount <= k:
            raise IllegalMove(f"choice at heap {i} subtracts {amount}")
        chars.append(str(amount))
    return "".join(chars)

