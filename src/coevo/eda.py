"""Multi-valued UMDA with binary tournament selection.

The model holds one categorical distribution per interior vertex, indexed
by canonical successor order. Each generation plays ``mu`` games between
strategy pairs from the product distribution (one payoff evaluation each),
counts the winners' choices per vertex, and clamps the frequency vectors
back onto the gamma-bordered simplex. Individuals are lazy: an entry (one
individual's successor slot at one vertex) is drawn only when something
reads it, so a game draws its players' choices along its own path. The
winners' drawn entries sit in an n × mu slot store; each vertex's count
adds a multinomial fill for the winners' entries nobody read, which makes
the update the same in law as drawing every entry.

The exact stop check rests on a lemma: a strategy is optimal iff it moves
to a Grundy-0 vertex at every position it can face. So it reads only those
positions, breadth-first from the root: one root pass reads every winner's
first move and drops those that leave the Grundy-0 set, and only the root
survivors walk on, in blocks of survivors in column order. The certificate
scans the winners in blocks of columns, in order. Both stop at the first
block with a hit, so the witness is the first column that meets the rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from . import grundy as _grundy
from .graphs import GameGraph, Strategy
from .grundy import PreconditionViolated


class GammaTooLarge(ValueError):
    pass


class MissingSwitchability(ValueError):
    pass


RENORM_TOLERANCE = 1e-12
#: Stop rules by command-line name: stop at the first exactly optimal winner,
#: at the first that passes the critical-position certificate, or at the cap.
STOP_RULES = {
    "exact": "exact_optimal", "sufficient": "sufficient_optimal", "cap": "generation_cap_only"
}
#: (column, position) pairs per block of the stop check: of root survivors'
#: pairs for the exact check, after one root pass over every column, and of
#: columns' critical rows for the certificate.
STOP_BLOCK = 2**18


@dataclass
class ProbModel:
    """Per-vertex categorical distributions over successors.

    ``dists[v][i]`` is the probability of moving from ``v`` to
    ``targets[offsets[v] + i]`` of the graph. Every vector sums to one
    (within 1e-12 for floats) and, after restriction, every entry is at
    least ``gamma``.
    """

    graph: GameGraph
    dists: dict[int, np.ndarray]
    gamma: float

    def copy(self) -> "ProbModel":
        return ProbModel(self.graph, {v: p.copy() for v, p in self.dists.items()}, self.gamma)

    def snapshot(self) -> dict:
        return {str(v): [float(x) for x in p] for v, p in sorted(self.dists.items())}


@dataclass(frozen=True)
class UmdaConfig:
    mu: int
    gamma: float
    max_generations: int
    seed: int
    stop_rule: str = "exact_optimal"  # a value of STOP_RULES

    def __post_init__(self):
        for name, low in (("mu", 1), ("max_generations", 1), ("seed", 0)):
            _require_int(name, getattr(self, name), low)
        _require_border("gamma", self.gamma)
        if self.stop_rule not in STOP_RULES.values():
            raise ValueError(f"unknown stop rule {self.stop_rule!r}")


def _require_int(name: str, value, low: int) -> None:
    """ValueError naming ``name`` unless ``value`` is an int, not a bool, at least ``low``."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low):
        raise ValueError(f"{name} must be an int at least {low}, got {value!r}")


def _require_border(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is a finite number at least 0
    (see :func:`_is_finite_number`)."""
    if not (_is_finite_number(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number at least 0, got {value!r}")


def column_strategy(g: GameGraph, choices: np.ndarray, j: int) -> Strategy:
    """Column ``j`` of the slot store ``choices`` as a strategy: ``choices[v, j]``
    is its slot at v (its move is ``targets[offsets[v] + slot]``), 0 where v has
    under two moves, or the dtype's largest value where it was never drawn."""
    column = choices[:, j]
    if (column[list(g.interior)] == np.iinfo(column.dtype).max).any():
        raise ValueError(f"column {j} is not drawn in full; only a generation's witness is")
    return Strategy({v: int(g.targets[g.offsets[v] + column[v]]) for v in g.interior})


@dataclass
class RunResult:
    generations_used: int
    evaluations: int
    succeeded: bool
    final_model: ProbModel
    optimal_witness: Strategy | None
    trace: list[tuple[int, dict]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# The border restriction.

def restrict(q: np.ndarray, gamma, degrees: np.ndarray) -> np.ndarray:
    """Clamp the rows of lengths ``degrees`` laid end to end in ``q`` (as an edge
    vector holds its vertices' rows) onto the simplex with floor ``gamma``, in place.

    A row whose total is off 1 by more than 1e-12 is first divided by its
    total (ValueError if not positive). Entries at or below the floor become
    ``gamma``; the others' excess over it shrinks by the row's factor
    ``1 - bminus/bplus`` (summed shortfall below the floor over summed excess
    above), so the total stays one. Rows of two are clamped into
    ``[gamma, 1-gamma]`` verbatim. Returns ``q``.

    Each row is summed by ``np.add.reduceat`` over a copy of ``q`` with one
    0.0 slot in front of every row: numpy then starts each row's pairwise sum
    from 0.0, as it does for the row alone, so the sums match to the bit
    (without the slot, most rows of more than a few entries do not).
    """
    fails = ~(gamma * degrees < 1)
    if fails.any():
        raise GammaTooLarge(f"gamma {gamma} too large for {degrees[fails].min()} outcomes")
    slots = np.cumsum(degrees) - degrees + np.arange(len(degrees))  # each row's 0.0 slot
    padded = np.zeros(len(q) + len(degrees))
    entry = np.ones(len(padded), dtype=bool)
    entry[slots] = False

    def row_sums(x):
        padded[entry] = x
        return np.add.reduceat(padded, slots)

    total = row_sums(q)
    off = np.abs(total - 1.0) > RENORM_TOLERANCE
    if off.any():
        if not (total > 0).all():
            raise ValueError("restrict needs every row to have a positive total")
        q[:] = np.where(np.repeat(off, degrees), q / np.repeat(total, degrees), q)
    bplus = row_sums(np.maximum(q - gamma, 0.0))
    bminus = row_sums(np.maximum(gamma - q, 0.0))
    two = np.repeat(degrees == 2, degrees)
    clipped = np.clip(q[two], gamma, 1 - gamma)  # the binary rows are clamped verbatim
    low = q <= gamma
    q -= gamma
    q *= np.repeat(1 - bminus / bplus, degrees)
    q += gamma
    q[low] = gamma
    q[two] = clipped
    return q


def model_from_snapshot(g: GameGraph, data: Mapping) -> ProbModel:
    """Rebuild a model from its JSON form, ``{"gamma": x, "dists": {...}}``:
    ``gamma``, 0 when absent, is a finite JSON number at least 0; ``dists``
    maps each interior vertex (a decimal string) to a list of its degree of
    finite JSON numbers (not bools or strings), at least 0 and summing to 1
    within 1e-9. Otherwise ValueError names ``gamma`` or the first bad vertex."""
    raw = data.get("dists") if isinstance(data, Mapping) else None
    if not isinstance(raw, Mapping):
        raise ValueError("model snapshot needs a 'dists' object")
    gamma = data.get("gamma", 0.0)
    _require_border("model snapshot: gamma", gamma)
    expected = {str(v) for v in g.interior}
    for key in sorted(set(raw) ^ expected):
        problem = "has no vector" if key in expected else "is not an interior vertex"
        raise ValueError(f"model snapshot: vertex {key} {problem}")
    dists = {}
    for v, degree in zip(g.interior, np.diff(g.offsets)[list(g.interior)].tolist()):
        entries = raw[str(v)]
        if not (isinstance(entries, list) and all(map(_is_finite_number, entries))):
            raise ValueError(f"vertex {v}: expected a list of finite JSON numbers, got {entries!r}")
        p = np.asarray(entries, dtype=float)
        if p.shape != (degree,):
            raise ValueError(f"vertex {v}: expected {degree} entries, got shape {p.shape}")
        if not (p >= 0).all():
            raise ValueError(f"vertex {v}: entries must be at least 0, got {p.tolist()}")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"vertex {v}: entries sum to {float(p.sum())!r}, not 1")
        dists[v] = p
    return ProbModel(graph=g, dists=dists, gamma=float(gamma))


def _is_finite_number(value) -> bool:
    """An int or a float, not a bool, that a float holds finite (no NaN, no huge int)."""
    return isinstance(value, (int, float)) and type(value) is not bool and abs(value) <= sys.float_info.max


def uniform_vector(g: GameGraph, gamma: float) -> np.ndarray:
    """The uniform distribution at every interior vertex, as one edge vector."""
    if g.max_degree and not gamma * g.max_degree < 1:
        raise GammaTooLarge(f"gamma {gamma} times max degree {g.max_degree} must stay below 1")
    degree = np.diff(g.offsets)
    return 1.0 / np.repeat(degree, degree)  # 1/d on each of a vertex's d edges


def uniform_model(g: GameGraph, gamma: float) -> ProbModel:
    """Initial model: the uniform distribution at every interior vertex."""
    return ProbModel(graph=g, dists=_views(g, uniform_vector(g, gamma)), gamma=gamma)


def _views(g: GameGraph, p: np.ndarray) -> dict[int, np.ndarray]:
    """Per-vertex views of the edge vector ``p``, ``dists[v] = p[offsets[v] : offsets[v + 1]]``."""
    bounds = g.offsets.tolist()
    return {v: p[bounds[v] : bounds[v + 1]] for v in g.interior}


# ---------------------------------------------------------------------------
# Lazy engine. A run's state is one edge vector, in ``offsets``/``targets``
# order, and one prepared :class:`Instance`. All randomness flows through
# numpy's PCG64 stream, in the order a generation reads it: a uniform per
# entry the games read, move by move, then per entry the stop check and the
# witness read, then one multinomial fill over the vertices in id order.
# Inverse CDF over the canonical successor order turns a uniform into a slot.

def _update(instance: Instance, p, counts, rest, mu: int, gamma, rng) -> np.ndarray:
    """The next edge vector from the edge vector ``p``: each edge's ``counts``
    plus its share of one multinomial fill of each vertex's ``rest`` entries,
    over ``mu``, restricted. The fill table has a row of Δ cells per vertex in
    id order: its first d−1 moves, holes of probability 0, which draw nothing
    (a sink's row is all holes), then its last move, which takes the rest."""
    table = np.zeros((instance.graph.n, instance.graph.max_degree))
    table.ravel()[instance.fill_cells] = p
    fill = rng.multinomial(rest, table)
    del table
    freqs = (fill.ravel()[instance.fill_cells] + counts) / mu
    del fill  # both tables are freed before the restriction, where memory peaks
    return restrict(freqs, gamma, instance.degrees)


def _threshold_table(g: GameGraph, p: np.ndarray) -> np.ndarray:
    """The n × (Δ−1) inverse-CDF table of the edge vector ``p``: row v holds
    v's running sums without the last, then 2.0, above every uniform."""
    width = np.arange(max(0, g.max_degree - 1))
    valid = width < np.diff(g.offsets)[:, None] - 1
    sums = np.cumsum(p[np.where(valid, g.offsets[:-1, None] + width, 0)], axis=1)
    return np.where(valid, sums, 2.0)


def _sample_choice_matrix(table: np.ndarray, rng, rows: np.ndarray) -> np.ndarray:
    """Draw a slot at each vertex of ``rows``, one uniform ``u`` each, in order.

    The slot counts the row's thresholds at most ``u`` (``u == cum[i]``
    picks slot i + 1). Its dtype keeps the largest value free. ``rows`` may
    be int32 (the stop check's, which keep the binary search's index arrays
    at 4 bytes) or intp (the playout's); the slots are the same.
    """
    u = rng.random(len(rows))
    width = table.shape[1]
    if width < 10:  # one pass per threshold column beats the search below 10 (timed at 1-20); slots fit uint8
        if width == 0:
            return np.zeros(len(rows), np.uint8)
        slots = (table[:, 0][rows] <= u).view(np.uint8)  # the first column's count: bools as 0/1
        for i in range(1, width):
            slots += table[:, i][rows] <= u
        return slots
    # With 2^k <= width < 2^(k+1): do the last 2^k thresholds start at or below u? Then k
    # halving steps over the 2^k - 1 left, each on the flat index ``at`` = base + count.
    flat, base = table.ravel(), rows * width - 1
    half = 1 << (width.bit_length() - 1)
    at = base + (flat[base + width - half + 1] <= u) * base.dtype.type(width - half + 1)
    while half > 1:
        half >>= 1
        step = at + half
        np.copyto(at, step, where=flat[step] <= u)
    at -= base
    return at.astype(np.min_scalar_type(width + 1))


class Record:
    """The entries one generation's games draw, move after move, in arrays every
    generation of a run writes over: rows of ``ints`` (intp) for each entry's
    position, game column and edge, and ``slots``; ``moves`` holds each move's
    number of entries. :meth:`reserve` grows the arrays on demand, doubling,
    keeping the first ``kept`` entries, and returns the rows and ``slots``."""

    def __init__(self, g: GameGraph):
        self.ints, self.slots = np.empty((3, 0), np.intp), np.empty(0, np.min_scalar_type(g.max_degree))
        self.moves = []

    def reserve(self, size: int, kept: int = 0):
        if size > len(self.slots):
            size = max(size, 2 * len(self.slots))
            ints, slots = np.empty((3, size), np.intp), np.empty(size, self.slots.dtype)
            ints[:, :kept], slots[:kept] = self.ints[:, :kept], self.slots[:kept]
            self.ints, self.slots = ints, slots
        return (*self.ints, self.slots)


def _playout(g: GameGraph, draw, count: int, record: Record | None = None) -> np.ndarray:
    """Outcomes (+1/-1 for the first mover) of ``count`` games from the root.

    Move by move, ``draw(side, at, columns)`` returns the slots x (side 0)
    or y (side 1) picks at positions ``at`` of the live games ``columns``,
    where the position has more than one move (a one-move position takes
    slot 0). Each move's live games are the next entries of ``record`` (a
    fresh one if None), whose intp rows ``at`` and ``columns`` view, so no
    gather casts them; no per-move array outlives its move."""
    offsets, targets = g.offsets, g.targets
    degrees = offsets[1:] - offsets[:-1]
    free, sink = degrees > 1, degrees == 0
    record = Record(g) if record is None else record
    result = np.full(count, -1, dtype=np.int8)  # x loses at a sink root
    live = 0 if sink[g.root] else count
    record.moves = []
    at_, cols_, edges_, slots_ = record.reserve(16 * live)  # room for games of 16 moves before any growth
    at_[:live], cols_[:live] = g.root, np.arange(live)
    lo = 0
    while live:
        hi = lo + live
        if hi + live > len(at_):  # no room for the next move's entries
            at_, cols_, edges_, slots_ = record.reserve(hi + live, hi)
        at, cols, slots = at_[lo:hi], cols_[lo:hi], slots_[lo:hi]
        side = len(record.moves) % 2
        record.moves.append(live)
        chosen = free[at]
        if np.count_nonzero(chosen) == live:
            slots[:] = draw(side, at, cols)
        else:  # some game sits on a one-move position
            slots[:] = 0
            slots[chosen] = draw(side, at[chosen], cols[chosen])
        # out by position (a keyword costs a µs a move); "clip", as "raise" fills a copy first
        after = at_[hi : hi + live]
        targets.take(np.add(offsets[at], slots, edges_[lo:hi]), None, after, "clip")
        over = sink[after]
        ended = np.count_nonzero(over)
        if ended:
            result[cols[over]] = 1 - 2 * side  # the mover wins: the player now to act has no move
            keep = (~over).nonzero()[0]
            live -= ended
            at_[hi : hi + live] = after[keep]
            cols.take(keep, None, cols_[hi : hi + live], "clip")
        else:
            cols_[hi : hi + live] = cols
        lo = hi
    return result


def _play_matrices(g: GameGraph, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Outcomes of complete strategies paired by column of two choice matrices."""
    return _playout(g, lambda side, at, cols: (cx, cy)[side][at, cols], cx.shape[1])


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys; np.unique hashes, several times slower here."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _read_slots(slots: np.ndarray, at: np.ndarray, n: int, draw, undrawn: int) -> np.ndarray:
    """``slots[at]`` of a flat column-major store of n rows, each distinct entry
    among them that holds ``undrawn`` drawn first, by ``draw`` of its rows as
    int32 in ascending order of ``at``, and written back."""
    read = slots[at]
    missing = read == undrawn
    if not np.count_nonzero(missing):
        return read
    key = _distinct(at[missing])
    slots[key] = draw((key % n).astype(np.int32))
    return slots[at]


def _replies(g: GameGraph, col: np.ndarray, at: np.ndarray, seen: np.ndarray, degree: np.ndarray):
    """The (column, position) pairs faced next: a column j that moved to Grundy-0
    vertex w faces every reply from w, once (``seen`` flags w * count + j).
    ``degree`` holds every vertex's out-degree."""
    count = len(seen) // g.n
    key = at * count + col
    key = _distinct(key[~seen[key]])
    seen[key] = True
    moved, col = np.divmod(key, count)
    starts, degrees = g.offsets[moved], degree[moved]
    ends = np.cumsum(degrees)
    total = int(ends[-1]) if len(ends) else 0
    pos = g.targets[np.arange(total) + np.repeat(starts - ends + degrees, degrees)]
    return np.repeat(col, degrees), pos


def population_optimal_mask(
    g: GameGraph, choices: np.ndarray, zero: np.ndarray, draw, block: int | None = None
) -> np.ndarray:
    """Exact-optimality flags for the columns of a column-major slot store, up
    to the first block of root survivors with an optimal column.

    ``zero`` flags the Grundy-0 vertices. Column j is optimal iff it beats
    every opponent as first mover, which holds iff it moves to a Grundy-0
    vertex at every position it can face: the root, and every reply to one
    of its own moves. A root pass reads every column's first move and keeps
    the columns that move to a Grundy-0 vertex. These survivors then walk on
    in blocks of ``block`` (all in one block if None), in column order, and
    the walk ends after the first block with an optimal column: the flags
    are exact up to that block and False after it, so the first flagged
    column is the first optimal one. A block's walk over (column, position)
    pairs runs breadth-first; a column drops out at its first move to a
    nonzero vertex, and each (column, Grundy-0 vertex) pair is expanded at
    most once: at most Z + 1 pair steps a column, Z the edges out of
    Grundy-0 vertices. An undrawn entry a pass reads (one holding the
    dtype's largest value) is drawn by ``draw`` and written back, so the
    root pass draws its entries in ascending column order in one call.
    """
    offsets, targets, n, count = g.offsets, g.targets, g.n, choices.shape[1]
    if not choices.flags.f_contiguous:
        raise ValueError("the stop check needs a column-major slot store")
    ok = np.zeros(count, dtype=bool)
    if offsets[g.root + 1] == offsets[g.root]:  # a sink root loses
        return ok
    slots = choices.ravel(order="F")  # slot of (v, j) at j * n + v
    undrawn, degree = np.iinfo(slots.dtype).max, offsets[1:] - offsets[:-1]
    first = targets[offsets[g.root] + _read_slots(slots, np.arange(count) * n + g.root, n, draw, undrawn)]
    survivors = np.flatnonzero(zero[first])
    first = first[survivors]  # the survivors' first moves; the root pass frees the rest
    block = block or max(1, len(survivors))
    for lo in range(0, len(survivors), block):
        cols = survivors[lo : lo + block]
        alive = np.ones(len(cols), dtype=bool)
        seen = np.zeros(n * len(cols), dtype=bool)  # (Grundy-0 vertex w, survivor i) at w * len(cols) + i
        col, pos = _replies(g, np.arange(len(cols)), first[lo : lo + block], seen, degree)
        while len(col):
            read = _read_slots(slots, cols[col] * n + pos, n, draw, undrawn)
            pos = targets[offsets[pos] + read]  # where each column moves
            to_zero = zero[pos]
            if np.count_nonzero(to_zero) < len(pos):  # some column drops out
                alive[col[~to_zero]] = False
                live = alive[col]
                col, pos = col[live], pos[live]  # dropped before the expansion, which lowers its peak
            col, pos = _replies(g, col, pos, seen, degree)
        ok[cols] = alive
        if alive.any():
            break
    return ok


def population_sufficient_mask(g: GameGraph, critical, choices, zero, draw):
    """Critical-position certificate flags for every column of a column-major
    slot store: ``critical`` holds the critical rows in ascending order, ``zero``
    flags the Grundy-0 vertices. Each critical row's undrawn entries are drawn
    by ``draw`` first, row by row."""
    ok = np.ones(choices.shape[1], dtype=bool)
    for v in critical:
        row = choices[v]
        miss = np.flatnonzero(row == np.iinfo(row.dtype).max)
        if len(miss):
            row[miss] = draw(np.full(len(miss), v, dtype=np.int32))
        ok &= zero[g.targets[g.offsets[v] + row]]
    return ok


@dataclass(frozen=True, eq=False)
class Instance:
    """One game prepared for runs by :func:`prepare`, shared read-only by every
    run on it: ``base`` as built; ``graph``, the game the runs play, ``base``
    plus a forced start where its root is Grundy-0; and of ``graph``: Grundy-0
    flags, critical rows in ascending order, each edge's cell in the flattened
    fill table of :func:`_update` (so the table's cells read back in edge
    order) and the interior vertices' out-degrees in id order."""

    base: GameGraph
    graph: GameGraph
    zero: np.ndarray
    critical: np.ndarray
    fill_cells: np.ndarray
    degrees: np.ndarray


def prepare(base: GameGraph) -> Instance:
    """The instance of ``base``, from one win/lose pass (:func:`grundy.zero_flags`),
    not the full Grundy numbering: the stop check reads only Grundy-0 flags. A
    second-player-win game gets the forced start vertex, which is not Grundy-0."""
    zero = _grundy.zero_flags(base)
    graph = _grundy.ensure_first_player_win(base, zero)
    if graph is not base:
        zero = np.append(zero, False)
    degree, width = np.diff(graph.offsets), graph.max_degree
    degrees = degree[degree > 0]
    cells = np.arange(graph.edge_count) + np.repeat(np.arange(graph.n) * width - graph.offsets[:-1], degree)
    cells[np.cumsum(degrees) - 1] += width - degrees  # a last move goes to its row's last cell
    arrays = (zero, _grundy.critical_rows(graph, zero), cells, degrees)
    for array in arrays:
        array.flags.writeable = False
    return Instance(base, graph, *arrays)


def _stop_block(instance: Instance, stop_rule: str) -> int:
    """Columns per block of the stop check: for the exact check, ``STOP_BLOCK // Z``
    root survivors per block of its walk (at most Z + 1 pair steps a column, Z the
    edges out of Grundy-0 vertices; its root pass reads every column at once), and
    ``STOP_BLOCK`` columns for the certificate (a row at a time)."""
    if stop_rule == "sufficient_optimal":
        return STOP_BLOCK
    zero_edges = int(np.diff(instance.graph.offsets)[instance.zero].sum())
    return max(1, STOP_BLOCK // max(1, zero_edges))


def generation_step(
    instance: Instance, p: np.ndarray, cfg: UmdaConfig, rng: np.random.Generator, record: Record | None = None
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """One generation on ``instance.graph`` from the edge vector ``p`` (in
    ``offsets``/``targets`` order): mu tournaments, the stop check, the update
    and its restriction onto the ``cfg.gamma`` border.

    Draws each player's choice where it moves, the winners' entries the
    stop check reads (none under the cap-only rule) and the witness's rest.
    The games' draws go into ``record`` (a fresh one if None; a run passes
    one to all its generations) and are filtered in its memory: a loser's
    entry gets the undrawn slot and count bin 0, so one scatter writes the
    slot store and one ``bincount`` counts the winners' edges (one-move
    positions too: their fill rows draw nothing either way). An edge counts
    those plus its share of one multinomial fill of the rest, per vertex from
    the counts' cumulative sums; one :func:`restrict` call then clamps the
    whole edge vector. Returns the next edge vector, the winners' n × mu slot
    store (see :func:`column_strategy`) and the witness: the first column that
    met the stop rule, drawn in full, or None.
    """
    g, mu = instance.graph, cfg.mu
    record = Record(g) if record is None else record
    table = _threshold_table(g, p)
    outcome = _playout(g, lambda side, at, cols: _sample_choice_matrix(table, rng, at), mu, record)
    size = sum(record.moves)
    (at, cols, edges), slots = record.ints[:, :size], record.slots[:size]
    undrawn = np.iinfo(slots.dtype).max
    mover = np.int8([1, -1] * len(record.moves))[: len(record.moves)]  # x makes the first move, y the next, ...
    won = np.repeat(mover, record.moves) == outcome[cols]
    slots |= np.subtract(won, 1, dtype=slots.dtype)  # a loser's slot: every bit set, undrawn
    edges += 1
    edges *= won  # a winner's edge e is counted in bin e + 1, a loser's in bin 0
    del won  # freed before the stop check, whose peak it would raise
    counts = np.bincount(edges, minlength=g.edge_count + 1)
    cols *= g.n
    cols += at  # each entry's index in the column-major slot store
    store = np.full((g.n, mu), undrawn, dtype=slots.dtype, order="F")
    store.ravel(order="F")[cols] = slots
    store[g.offsets[1:] - g.offsets[:-1] < 2] = 0  # no choice to draw

    drawn = []  # the stop check's and the witness's draws: (positions, slots)

    def draw(rows):
        drawn.append((rows, _sample_choice_matrix(table, rng, rows)))
        return drawn[-1][1]

    witness = None
    if cfg.stop_rule == "exact_optimal":  # one call: it blocks the root survivors itself
        mask = population_optimal_mask(g, store, instance.zero, draw, _stop_block(instance, cfg.stop_rule))
        witness = int(np.argmax(mask)) if mask.any() else None
    elif cfg.stop_rule == "sufficient_optimal":
        block = _stop_block(instance, cfg.stop_rule)
        for lo in range(0, mu, block):  # up to the first block of columns with a hit
            part = store[:, lo : lo + block]
            mask = population_sufficient_mask(g, instance.critical, part, instance.zero, draw)
            if mask.any():
                witness = lo + int(np.argmax(mask))
                break
    if witness is not None:
        _read_slots(store.ravel(order="F"), witness * g.n + np.arange(g.n), g.n, draw, undrawn)

    del table  # every draw is made; free it before the update, where memory peaks
    if drawn:
        rows, slots = (np.concatenate(part) for part in zip(*drawn))
        counts[1:] += np.bincount(g.offsets[rows] + slots, minlength=g.edge_count)
    rest = mu - np.diff(np.cumsum(counts)[g.offsets])  # the winners' undrawn entries per vertex
    return _update(instance, p, counts[1:], rest, mu, cfg.gamma, rng), store, witness


def run_umda(
    g: GameGraph, cfg: UmdaConfig, trace_every: int = 0, instance: Instance | None = None
) -> RunResult:
    """Iterate generations until the selected population hits the target.

    A run carries one edge vector, from the uniform one, and one prepared
    instance; the model (per-vertex views of the vector) is built only for a
    trace snapshot and for the result. The stop rule is checked on each
    generation's winners, never on the losers. ``instance`` must be prepared
    with ``g`` as its run graph; without one, ``g`` is prepared here and must
    be a first-player-win game (add a forced start first if necessary).
    ``trace_every`` k > 0 snapshots every k-th generation's model.
    """
    _require_int("trace_every", trace_every, 0)
    if instance is None:
        instance = prepare(g)
        if instance.graph is not g:
            raise PreconditionViolated("root has Grundy value 0; apply ensure_first_player_win")
    elif instance.graph is not g:
        raise ValueError("the instance was prepared for another run graph")
    p = uniform_vector(g, cfg.gamma)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    trace: list[tuple[int, dict]] = []
    witness, record = None, Record(g)
    for t in range(1, cfg.max_generations + 1):
        p, store, column = generation_step(instance, p, cfg, rng, record)
        if trace_every and t % trace_every == 0:
            trace.append((t, ProbModel(g, _views(g, p), cfg.gamma).snapshot()))
        if column is not None:
            witness = column_strategy(g, store, column)
            break
    model = ProbModel(g, _views(g, p), cfg.gamma)
    return RunResult(t, cfg.mu * t, witness is not None, model, witness, trace)


# ---------------------------------------------------------------------------
# Parameterisation suggested by the runtime guarantee.

@dataclass(frozen=True)
class TheoremBudget:
    """Theorem-shaped parameter suggestions, never enforced as cutoffs.

    Callers supply the guarantee's existential constant ``C`` and the
    confidence exponent ``K``; every budget carries its exact integer power
    base beside its float value, which may be astronomical at desk scale.
    """

    gamma: Fraction
    s_hat: int
    s_bar: int
    mu_min: float
    mu_min_base: int
    generation_budget: float
    generation_budget_base: int
    eval_budget: float
    eval_budget_base: int


def _to_float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


def theorem_border(g: GameGraph) -> Fraction:
    """The runtime guarantee's border ``1/(20 * Delta * n)`` for ``g``, undefined
    (ValueError) on a game with no moves. Runs take it on the game before any
    forced start is added; :func:`theorem_parameters` on the game it budgets."""
    if g.max_degree == 0:
        raise ValueError("degenerate game: no moves at all")
    return Fraction(1, 20 * g.max_degree * g.n)


def theorem_parameters(
    g: GameGraph, critical: Iterable[int], s_values: Mapping[int, int], K: float = 1.0, C: float = 1.0
) -> TheoremBudget:
    """Instantiate the runtime guarantee's parameter formulas.

    ``s_values`` maps vertices to switchability values or upper bounds (the
    budgets are monotone in them) and must cover each of ``g``'s ``critical``
    positions; ``s_hat`` is their maximum over those, ``s_bar`` over all.
    The denominator of :func:`theorem_border` is every budget's power base.
    """
    gamma = theorem_border(g)
    critical = sorted(int(v) for v in critical)
    missing = [v for v in critical if v not in s_values]
    if missing:
        raise MissingSwitchability(f"no switchability value for vertices {missing}")
    base = gamma.denominator
    log_n = math.log(g.n)
    s_hat = max((int(s_values[v]) for v in critical), default=0)
    s_bar = max((int(s) for s in s_values.values()), default=0)
    mu_base = base ** (1 + 2 * s_hat)
    gen_base = sum(base ** int(s_values[v]) for v in critical)
    eval_base = base ** (2 + 3 * s_bar)
    return TheoremBudget(
        gamma=gamma, s_hat=s_hat, s_bar=s_bar,
        mu_min=C * (K + s_hat + 1) * _to_float(mu_base) * log_n,
        mu_min_base=mu_base,
        generation_budget=C * _to_float(gen_base) * log_n,
        generation_budget_base=gen_base,
        eval_budget=C * C * (K + s_bar + 1) * _to_float(eval_base) * log_n * log_n,
        eval_budget_base=eval_base,
    )
