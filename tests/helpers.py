"""Shared test utilities: random game corpora and independent oracles."""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from coevo.eda import (
    ProbModel,
    RunResult,
    _edge_vector,
    _play_matrices,
    _sample_choice_matrix,
    _threshold_table,
    population_sufficient_mask,
    restrict,
    uniform_model,
)
from coevo.graphs import (
    GameGraph,
    Strategy,
    build_graph,
    enumerate_strategies,
    play,
    strategy_space_size,
)
from coevo.grundy import PreconditionViolated, grundy_values, is_optimal_exact
from coevo.harness import ExperimentRecord


class TooLarge(ValueError):
    pass


def random_game(
    rng: np.random.Generator,
    n_min: int = 4,
    n_max: int = 10,
    max_degree: int = 3,
    extra_edge_prob: float = 0.35,
) -> GameGraph:
    """Random valid game: acyclic by construction (edges go downward),
    with every vertex guaranteed an in-edge from a higher vertex so the
    whole graph is reachable from the top root."""
    n = int(rng.integers(n_min, n_max + 1))
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for v in range(n - 1):
        parent = int(rng.integers(v + 1, n))
        adjacency[parent].append(v)
    for u in range(1, n):
        for w in range(u):
            if len(adjacency[u]) >= max_degree:
                break
            if w not in adjacency[u] and rng.random() < extra_edge_prob:
                adjacency[u].append(w)
    return build_graph(adjacency, root=n - 1)


def uniform_rational_model(g: GameGraph) -> dict[int, list[Fraction]]:
    return {
        v: [Fraction(1, len(g.succ[v]))] * len(g.succ[v]) for v in g.interior
    }


def random_rational_model(
    g: GameGraph, rng: np.random.Generator, gamma: Fraction
) -> dict[int, list[Fraction]]:
    """Random distributions pushed through the border restriction, so every
    entry is at least gamma and each vector sums to exactly one."""
    dists = {}
    for v in g.interior:
        weights = [Fraction(int(w)) for w in rng.integers(1, 1000, size=len(g.succ[v]))]
        total = sum(weights)
        p = [w / total for w in weights]
        dists[v] = restrict(p, gamma)
    return dists


def choice_matrix(g: GameGraph, strategies: list[Strategy]) -> np.ndarray:
    """The engine's population layout: column j holds strategy j's
    successor slot at every interior vertex; sink rows stay 0."""
    out = np.zeros((g.n, len(strategies)), dtype=np.min_scalar_type(g.max_degree - 1))
    out[list(g.interior)] = np.array([x.key(g) for x in strategies], dtype=out.dtype).T
    return out


def sample_choice_matrix_per_vertex(model, rng: np.random.Generator, count: int) -> np.ndarray:
    """Reference for :func:`coevo.eda._sample_choice_matrix`: one
    ``rng.random(count)`` and one ``searchsorted`` per interior vertex."""
    g = model.graph
    out = np.zeros((g.n, count), dtype=np.min_scalar_type(g.max_degree - 1))
    for v in g.interior:
        cum = np.cumsum(model.dists[v])
        idx = np.searchsorted(cum, rng.random(count), side="right")
        np.clip(idx, 0, len(cum) - 1, out=idx)
        out[v] = idx
    return out


def sample_choice_matrix(model, rng: np.random.Generator, count: int) -> np.ndarray:
    """Complete strategies drawn with the engine's draw routine: one
    uniform per (interior vertex, individual), vertices in ascending order,
    which is the stream of :func:`sample_choice_matrix_per_vertex`."""
    g = model.graph
    interior = np.array(g.interior, dtype=np.int64)
    table = _threshold_table(g, _edge_vector(model))
    slots = _sample_choice_matrix(table, rng, np.repeat(interior, count))
    out = np.zeros((g.n, count), dtype=slots.dtype)
    out[interior] = slots.reshape(len(interior), count)
    return out


def playout_eager(g: GameGraph, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """The eager engine's playout: outcomes (+1/-1 for the first mover)
    of column-paired strategies given as complete choice matrices."""
    offsets, targets = g.offsets, g.targets
    sink = offsets[1:] == offsets[:-1]
    count = cx.shape[1]
    pos = np.full(count, g.root, dtype=np.int64)
    result = np.zeros(count, dtype=np.int8)
    alive = ~sink[pos]
    result[~alive] = -1
    moves = 0
    while alive.any():
        idx = np.flatnonzero(alive)
        mover = cx if moves % 2 == 0 else cy
        at = pos[idx]
        nxt = targets[offsets[at] + mover[at, idx]]
        pos[idx] = nxt
        moves += 1
        done = idx[sink[nxt]]
        result[done] = -1 if moves % 2 == 0 else 1
        alive[done] = False
    return result


def run_umda_eager(g: GameGraph, cfg, trace_every: int = 0) -> RunResult:
    """Reference for :func:`coevo.eda.run_umda`: the eager engine.

    Each generation draws two complete choice matrices with
    :func:`sample_choice_matrix_per_vertex`, plays them column by column,
    keeps each game's winner, counts every winner's choice at every vertex
    and restricts each degree group; the stop rule then checks the
    complete winners (:func:`population_optimal_mask_dp` for the exact
    rule). This is the engine the first golden digests were pinned on.
    """
    gd = grundy_values(g)
    if gd.values[g.root] == 0:
        raise PreconditionViolated("root has Grundy value 0")
    zero = zero_mask(g)
    model = uniform_model(g, cfg.gamma)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    interior = np.array(g.interior, dtype=np.int64)
    starts = g.offsets[interior]
    degrees = g.offsets[interior + 1] - starts
    trace = []
    for t in range(1, cfg.max_generations + 1):
        cx = sample_choice_matrix_per_vertex(model, rng, cfg.mu)
        cy = sample_choice_matrix_per_vertex(model, rng, cfg.mu)
        winners = np.where(playout_eager(g, cx, cy) == 1, cx, cy)
        edges = starts[:, None] + winners[interior]
        flat = np.bincount(edges.ravel(), minlength=g.edge_count) / cfg.mu
        for size in np.unique(degrees):
            rows = starts[degrees == size][:, None] + np.arange(size)
            flat[rows] = restrict(flat[rows], model.gamma)
        model = ProbModel(g, dict(zip(g.interior, np.split(flat, starts[1:]))), model.gamma)
        if trace_every and t % trace_every == 0:
            trace.append((t, model.snapshot()))
        if cfg.stop_rule == "generation_cap_only":
            continue
        if cfg.stop_rule == "exact_optimal":
            mask = population_optimal_mask_dp(g, winners)
        else:
            mask = population_sufficient_mask(g, gd, winners, zero)
        if mask.any():
            j = int(np.argmax(mask))
            witness = Strategy({v: int(g.targets[g.offsets[v] + winners[v, j]]) for v in g.interior})
            return RunResult(t, cfg.mu * t, True, model, witness, trace)
    return RunResult(cfg.max_generations, cfg.mu * cfg.max_generations, False, model, None, trace)


def intransitivity_search_scalar(g: GameGraph):
    """The exhaustive intransitivity search with the scalar player: the
    first (a, b, c) in index order with a > b > c > a, each dominance a win
    both as first and as second mover, or None."""
    strategies = list(enumerate_strategies(g))
    m = len(strategies)

    def beats(a, b):
        return play(g, a, b).winner == 1 and play(g, b, a).winner == -1

    table = [[i != j and beats(strategies[i], strategies[j]) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(m):
            if table[i][j]:
                for k in range(m):
                    if table[j][k] and table[k][i]:
                        return strategies[i], strategies[j], strategies[k]
    return None


def mann_whitney_p(a, b) -> float:
    """Two-sided p-value of the Mann-Whitney U test, by the normal
    approximation with tie correction."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    values = np.concatenate([a, b])
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(1, len(values) + 1)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ranks = np.bincount(inverse, weights=ranks)[inverse] / counts[inverse]  # mid-ranks of ties
    n1, n2 = len(a), len(b)
    u = ranks[:n1].sum() - n1 * (n1 + 1) / 2
    total = n1 + n2
    ties = (counts**3 - counts).sum()
    sigma = np.sqrt(n1 * n2 / 12 * (total + 1 - ties / (total * (total - 1))))
    z = (abs(u - n1 * n2 / 2) - 0.5) / sigma if sigma > 0 else 0.0
    return float(math.erfc(max(z, 0.0) / math.sqrt(2)))


def population_optimal_mask_dp(g: GameGraph, choices: np.ndarray) -> np.ndarray:
    """Reference for :func:`coevo.eda.population_optimal_mask`: the
    best-response DP over every vertex and edge, for all columns at once.
    Column j is optimal iff its strategy beats every opponent as first
    mover."""
    count = choices.shape[1]
    cols = np.arange(count)
    win = np.zeros((g.n, count), dtype=bool)
    safe = np.zeros((g.n, count), dtype=bool)
    for u in g.reverse_topo:
        succs = g.succ[u]
        if not succs:
            safe[u] = True
            continue
        win[u] = safe[g.targets[g.offsets[u] + choices[u]], cols]
        acc = win[succs[0]].copy()
        for w in succs[1:]:
            acc &= win[w]
        safe[u] = acc
    return win[g.root]


def zero_mask(g: GameGraph) -> np.ndarray:
    """Boolean flags of the Grundy-0 vertices, as ``run_umda`` builds them."""
    zero = np.zeros(g.n, dtype=bool)
    zero[list(grundy_values(g).zero_set)] = True
    return zero


def outcome_matrix(g: GameGraph, strategies: list[Strategy]) -> np.ndarray:
    """All-pairs playout results via the vectorised engine."""
    m = len(strategies)
    choices = choice_matrix(g, strategies)
    left = np.repeat(np.arange(m), m)
    right = np.tile(np.arange(m), m)
    return _play_matrices(g, choices[:, left], choices[:, right]).reshape(m, m)


def outcome_matrix_scalar(g: GameGraph, strategies: list[Strategy]) -> np.ndarray:
    """All-pairs playout results with the plain iterative player."""
    m = len(strategies)
    out = np.zeros((m, m), dtype=np.int8)
    for i, x in enumerate(strategies):
        for j, y in enumerate(strategies):
            out[i, j] = play(g, x, y).winner
    return out


def all_strategies(g: GameGraph) -> list[Strategy]:
    return list(enumerate_strategies(g))


def brute_force_opt(g: GameGraph, limit: int = 10**6) -> list[Strategy]:
    """Enumerate the optimal set over the whole strategy space."""
    size = strategy_space_size(g)
    if size > limit:
        raise TooLarge(f"{size} strategies exceeds the enumeration limit {limit}")
    return [x for x in enumerate_strategies(g) if is_optimal_exact(g, x)]


def monte_carlo_selection(
    g: GameGraph,
    model: ProbModel,
    u: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical winner-choice frequencies at ``u`` over full tournaments.

    Plays ``trials`` independent tournaments and tallies the winner's
    choice at ``u`` in every trial (the unconditional law of the winner's
    entry, whether or not ``u`` was on the path). Returns the frequency
    vector over the successor order and its binomial standard errors.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not g.succ[u]:
        raise ValueError(f"vertex {u} has no moves")
    cx = sample_choice_matrix(model, rng, trials)
    cy = sample_choice_matrix(model, rng, trials)
    outcome = _play_matrices(g, cx, cy)
    winner_slots = np.where(outcome == 1, cx[u], cy[u])
    freqs = np.bincount(winner_slots, minlength=len(g.succ[u])) / trials
    stderr = np.sqrt(freqs * (1 - freqs) / trials)
    return freqs, stderr


def play_from(g: GameGraph, v: int, x: Strategy, y: Strategy) -> int:
    """Outcome of play started at ``v`` with ``x`` to move.

    Recursive reference implementation: -1 at a sink, otherwise the
    negation of the outcome at ``x``'s choice with roles swapped. Used for
    cross-checking :func:`coevo.graphs.play` on small graphs.
    """
    if not g.succ[v]:
        return -1
    return -play_from(g, x.choice[v], y, x)


def critical_positions_inclusive(g: GameGraph, values: tuple[int, ...]) -> frozenset[int]:
    """Alternative reading of the critical set: nonzero vertices with a
    zero-valued successor and more than one move. It differs from
    :func:`coevo.grundy.critical_positions` only on vertices whose moves
    are all winning."""
    return frozenset(
        v
        for v in g.interior
        if values[v] != 0 and len(g.succ[v]) > 1 and any(values[w] == 0 for w in g.succ[v])
    )


def compatible_sink_paths(
    g: GameGraph, edges: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, ...]]:
    """Every maximal compatible path, by direct recursion on the
    inductive definition. Exponential; only for validating the
    reachability formulation on tiny graphs."""
    forced: dict[int, list[int]] = {}
    for u, w in edges:
        forced.setdefault(u, []).append(w)

    def rec(path: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        u = path[-1]
        nexts = forced.get(u) or g.succ[u]
        if not nexts:
            yield path
            return
        for w in nexts:
            yield from rec(path + (w,))

    yield from rec((g.root,))


def is_switcher_by_enumeration(
    g: GameGraph, edges: Iterable[tuple[int, int]], v: int
) -> bool:
    return all(v in path for path in compatible_sink_paths(g, edges))


def upper_bound_switchability_per_vertex(g: GameGraph, v: int) -> int:
    """Shortest root-to-v path length by a BFS that stops at ``v``: the
    per-vertex reference for :func:`coevo.switchability.root_distances`."""
    if v == g.root:
        return 0
    dist = {g.root: 0}
    queue = deque([g.root])
    while queue:
        u = queue.popleft()
        for w in g.succ[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                if w == v:
                    return dist[w]
                queue.append(w)
    raise AssertionError(f"vertex {v} is not reachable from the root")


def records_from_csv(text: str) -> list[ExperimentRecord]:
    """Parse the harness CSV back into records (``wall_ms`` 0 when absent)."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    columns = rows[0]
    casts = {
        "family": str,
        "params": str,
        "s_mode": str,
        "gamma": float,
        "theorem_eval_budget": float,
        "wall_ms": float,
    }
    records = []
    for values in rows[1:]:
        kwargs = {
            col: casts.get(col, int)(raw) for col, raw in zip(columns, values)
        }
        kwargs.setdefault("wall_ms", 0.0)
        records.append(ExperimentRecord(**kwargs))
    return records


# ---------------------------------------------------------------------------
# Loop references for the game families: one dict lookup per move, built
# through the adjacency adapter, as the generators were before they became
# array code.

def subtraction_nim_reference(n: int, k: int) -> GameGraph:
    adjacency = {v: [v - j for j in range(1, k + 1) if v - j >= 0] for v in range(n)}
    return build_graph(adjacency, root=n - 1, labels={v: str(v) for v in range(n)})


def silver_dollar_reference(m: int, k: int, start: tuple[int, ...] | None = None) -> GameGraph:
    start = tuple(range(m - k + 1, m + 1)) if start is None else tuple(start)
    positions = [c for c in itertools.combinations(range(1, m + 1), k) if all(a <= s for a, s in zip(c, start))]
    index = {combo: i for i, combo in enumerate(positions)}
    adjacency = {}
    for combo, i in index.items():
        moves = []
        for coin in range(k):
            lower = combo[coin - 1] if coin > 0 else 0
            for target in range(lower + 1, combo[coin]):
                moves.append(index[combo[:coin] + (target,) + combo[coin + 1 :]])
        adjacency[i] = moves
    labels = {i: ",".join(map(str, combo)) for combo, i in index.items()}
    return build_graph(adjacency, root=index[start], labels=labels)


def turning_turtles_reference(m: int) -> GameGraph:
    adjacency, labels = {}, {}
    for mask in range(2**m):
        moves = []
        for i in range(1, m + 1):
            bit = 1 << (i - 1)
            if mask & bit:
                moves.append(mask & ~bit)
                moves.extend((mask & ~bit) ^ (1 << (j - 1)) for j in range(1, i))
        adjacency[mask] = moves
        labels[mask] = "{" + ",".join(str(i) for i in range(1, m + 1) if mask & (1 << (i - 1))) + "}"
    return build_graph(adjacency, root=2**m - 1, labels=labels)


def chomp_reference(m: int) -> GameGraph:
    def staircases(rows: int, cap: int):
        if rows == 0:
            yield ()
            return
        for first in range(cap + 1):
            for rest in staircases(rows - 1, first):
                yield (first,) + rest

    positions = sorted(t for t in staircases(m, m) if any(t))
    index = {t: i for i, t in enumerate(positions)}
    adjacency = {}
    for rows, i in index.items():
        # The move at cell (row, c + 1) cuts this row and every row above it to at most c cells.
        adjacency[i] = [
            index[rows[:row] + tuple(min(r, c) for r in rows[row:])]
            for row in range(m)
            for c in range(row == 0, rows[row])
        ]
    labels = {i: ",".join(map(str, rows)) for rows, i in index.items()}
    return build_graph(adjacency, root=index[(m,) * m], labels=labels)
