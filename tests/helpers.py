"""Shared test utilities: random game corpora and independent oracles."""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from coevo.eda import (
    Instance,
    ProbModel,
    RunResult,
    _play_matrices,
    _sample_choice_matrix,
    _threshold_table,
    _views,
    generation_step,
    population_sufficient_mask,
    restrict,
    uniform_model,
)
from coevo.games import BadLength, IllegalMove
from coevo.graphs import GameGraph, Strategy, build_graph, strategy_space_size
from coevo.grundy import (
    GrundyData,
    PreconditionViolated,
    ensure_first_player_win,
    grundy_values,
    is_optimal_exact,
)
from coevo.harness import ExperimentRecord
from coevo.switchability import _misses


class TooLarge(ValueError):
    pass


class ForeignEdge(ValueError):
    pass


class BadChar(ValueError):
    pass


# ---------------------------------------------------------------------------
# References that only the tests run: the scalar playout, the strategy check,
# key and enumeration, the sufficient optimality certificate, the edge-set
# depth, the checked switcher test and the heap-strategy decoder.

@dataclass(frozen=True)
class Transcript:
    """One played-out game: the realised position path and the outcome."""

    visited: tuple[int, ...]
    winner: int  # +1 first mover wins, -1 second mover wins


def play(g: GameGraph, x: Strategy, y: Strategy) -> Transcript:
    """Play ``x`` against ``y`` from the root, ``x`` moving first.

    Iterative, so arbitrarily long paths are fine. The winner is +1 exactly
    when the player stuck at the final sink is ``y``. Reference for
    :func:`coevo.eda._playout`.
    """
    off = g.offsets.tolist()
    cur = g.root
    visited = [cur]
    moves = 0
    while off[cur] < off[cur + 1]:
        mover = x if moves % 2 == 0 else y
        cur = mover.choice[cur]
        visited.append(cur)
        moves += 1
    winner = -1 if moves % 2 == 0 else 1
    return Transcript(visited=tuple(visited), winner=winner)


def validate_strategy(g: GameGraph, x: Strategy) -> Strategy:
    """``x``, once checked to choose one legal move at every interior vertex of ``g``."""
    if set(x.choice) != set(g.interior):
        raise ValueError("strategy domain must be exactly the interior vertices")
    off, targets = g.offsets.tolist(), g.targets.tolist()
    for v, w in x.choice.items():
        if w not in targets[off[v] : off[v + 1]]:
            raise ValueError(f"choice {v} -> {w} is not a legal move")
    return x


def strategy_key(g: GameGraph, x: Strategy) -> tuple[int, ...]:
    """``x``'s canonical tuple of successor indices, for set membership."""
    off, targets = g.offsets.tolist(), g.targets.tolist()
    return tuple(targets[off[v] : off[v + 1]].index(x.choice[v]) for v in g.interior)


def enumerate_strategies(g: GameGraph) -> Iterator[Strategy]:
    """All strategies in lexicographic order of successor indices."""
    interior, off, targets = g.interior, g.offsets.tolist(), g.targets.tolist()
    for combo in itertools.product(*(targets[off[v] : off[v + 1]] for v in interior)):
        yield Strategy(dict(zip(interior, combo)))


def is_optimal_sufficient(g: GameGraph, gd: GrundyData, x: Strategy) -> bool:
    """Certificate: every critical position moves to a zero-valued vertex.

    Sufficient but not necessary for membership in the optimal set. Only
    meaningful on first-player-win games, hence the precondition. The scalar
    reference for :func:`coevo.eda.population_sufficient_mask`.
    """
    if gd.values[g.root] == 0:
        raise PreconditionViolated("root has Grundy value 0; first player cannot win")
    return all(gd.values[x.choice[v]] == 0 for v in gd.critical)


def successors(g: GameGraph, v: int) -> tuple[int, ...]:
    """``v``'s successors in canonical order, read from the flat arrays."""
    return tuple(g.targets[g.offsets[v] : g.offsets[v + 1]].tolist())


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


def is_switcher(g: GameGraph, edges: Iterable[tuple[int, int]], v: int) -> bool:
    """Whether ``edges`` form a v-switcher, as one column of the package's forced
    reachability pass :func:`coevo.switchability._misses`: play passes along an edge
    in ``edges`` and along every move of a vertex with none.
    :class:`ForeignEdge` for an edge not in ``g``."""
    edges = _check_edges(g, edges)
    constrained = {u for u, _ in edges}
    passable = [u not in constrained or (u, w) in edges for u, w in g.edges()]
    return not _misses(g, v, np.array(passable, dtype=bool).reshape(-1, 1))[0]


#: Vertex singled out in each fixture's diagram, where one exists.
FIXTURE_MARKED = {"fig2": 6, "fig3_top": 5, "fig3_bottom": 9, "fig4": 8}


def nim_decode(payload: str, n: int, k: int) -> Strategy:
    """String of length ``n-1`` to a strategy; entry ``i`` (1-based,
    leftmost first) is the amount subtracted at heap size ``i``. The
    inverse of :func:`coevo.games.nim_encode`."""
    if len(payload) != n - 1:
        raise BadLength(f"need {n - 1} characters, got {len(payload)}")
    choice = {}
    for i in range(1, n):
        ch = payload[i - 1]
        if not ch.isdigit() or not 1 <= int(ch) <= k:
            raise BadChar(f"character {ch!r} at position {i} outside 1..{k}")
        amount = int(ch)
        if amount > i:
            raise IllegalMove(f"cannot subtract {amount} from heap {i}")
        choice[i] = i - amount
    return Strategy(choice)


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
        v: [Fraction(1, len(successors(g, v)))] * len(successors(g, v)) for v in g.interior
    }


def random_rational_model(
    g: GameGraph, rng: np.random.Generator, gamma: Fraction
) -> dict[int, list[Fraction]]:
    """Random distributions pushed through the border restriction, so every
    entry is at least gamma and each vector sums to exactly one."""
    dists = {}
    for v in g.interior:
        weights = [Fraction(int(w)) for w in rng.integers(1, 1000, size=len(successors(g, v)))]
        total = sum(weights)
        p = [w / total for w in weights]
        dists[v] = restrict(p, gamma)
    return dists


def choice_matrix(g: GameGraph, strategies: list[Strategy]) -> np.ndarray:
    """The engine's population layout, a column-major slot store: column j
    holds strategy j's successor slot at every interior vertex; sink rows
    stay 0."""
    out = np.zeros((g.n, len(strategies)), dtype=np.min_scalar_type(g.max_degree), order="F")
    out[list(g.interior)] = np.array([strategy_key(g, x) for x in strategies], dtype=out.dtype).T
    return out


def sample_choice_matrix_per_vertex(model, rng: np.random.Generator, count: int) -> np.ndarray:
    """Reference for :func:`coevo.eda._sample_choice_matrix`: one
    ``rng.random(count)`` and one ``searchsorted`` per interior vertex."""
    g = model.graph
    out = np.zeros((g.n, count), dtype=np.min_scalar_type(g.max_degree))
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
    table = _threshold_table(g, edge_vector(model))
    slots = _sample_choice_matrix(table, rng, np.repeat(interior, count))
    out = np.zeros((g.n, count), dtype=slots.dtype)
    out[interior] = slots.reshape(len(interior), count)
    return out


def no_draw(rows):
    """The ``draw`` of a stop-check mask over a complete store, which has no
    undrawn entry to draw."""
    raise AssertionError(f"a complete store has no undrawn entry, yet {len(rows)} were drawn")


def edge_vector(model: ProbModel) -> np.ndarray:
    """The model as one vector by edge: ``dists[v][i]`` at ``offsets[v] + i``."""
    return np.concatenate([model.dists[v] for v in model.graph.interior])


def instance_from_grundy(base: GameGraph, graph: GameGraph, gd: GrundyData) -> Instance:
    """Reference for :func:`coevo.eda.prepare`'s arrays, from ``graph``'s full
    Grundy data ``gd`` instead of its Grundy-0 flags."""
    degree, width = np.diff(graph.offsets), graph.max_degree
    degrees = degree[degree > 0]
    cells = np.arange(graph.edge_count) + np.repeat(np.arange(graph.n) * width - graph.offsets[:-1], degree)
    cells[np.cumsum(degrees) - 1] += width - degrees  # a last move goes to its row's last cell
    arrays = (np.array(gd.values) == 0, np.array(sorted(gd.critical), dtype=np.int64), cells, degrees)
    for array in arrays:
        array.flags.writeable = False
    return Instance(base, graph, *arrays)


def prepare_from_grundy(base: GameGraph) -> Instance:
    """Reference for :func:`coevo.eda.prepare`: the run graph's instance from a
    full Grundy pass over it."""
    graph = ensure_first_player_win(base)
    return instance_from_grundy(base, graph, grundy_values(graph))


def instance_as_is(g: GameGraph) -> Instance:
    """The instance of ``g`` as it stands: no forced start, even where
    :func:`coevo.eda.prepare` would add one for a Grundy-0 root."""
    return instance_from_grundy(g, g, grundy_values(g))


def step(model: ProbModel, cfg, rng: np.random.Generator, instance: Instance | None = None):
    """:func:`coevo.eda.generation_step` from a model, on ``instance`` or else on
    the model's graph as it stands: the next model (views of the next edge
    vector), the winners' slot store and the witness column or None."""
    g = model.graph
    p, store, witness = generation_step(instance or instance_as_is(g), edge_vector(model), cfg, rng)
    return ProbModel(g, _views(g, p), cfg.gamma), store, witness


def update_per_vertex(g: GameGraph, p, counts, rest, mu: int, gamma, rng) -> np.ndarray:
    """Reference for :func:`coevo.eda._update`: one multinomial fill and one
    one-row :func:`restrict` call per interior vertex, in id order. ``counts``
    (by edge) gains the fill; returns the next edge vector."""
    p = p.copy()
    for v in g.interior:
        lo, hi = g.offsets[v], g.offsets[v + 1]
        counts[lo:hi] += rng.multinomial(rest[v], p[lo:hi])
        p[lo:hi] = restrict(counts[lo:hi] / mu, gamma, np.array([hi - lo]))
    return p


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


def playout_reference(g: GameGraph, draw, count: int) -> np.ndarray:
    """Reference for :func:`coevo.eda._playout`: the playout as it stood
    before its positions and game columns became intp, verbatim. It finds the
    games at a free position with one ``flatnonzero`` a move, hands ``draw``
    int64 positions and int32 columns, and compacts by index."""
    offsets, targets = g.offsets, g.targets
    degrees = offsets[1:] - offsets[:-1]
    free, sink = degrees > 1, degrees == 0
    result = np.full(count, -1, dtype=np.int8)  # x loses at a sink root
    cols = np.arange(0 if sink[g.root] else count, dtype=np.int32)
    at = np.full(len(cols), g.root)
    moves = 0
    while len(cols):
        chosen = np.flatnonzero(free[at])
        if len(chosen) == len(cols):
            slots = draw(moves % 2, at, cols)
        else:
            slots = np.zeros(len(cols), dtype=np.int64)
            slots[chosen] = draw(moves % 2, at[chosen], cols[chosen])
        at = targets[offsets[at] + slots]
        moves += 1
        over = sink[at]
        if over.any():
            # After `moves` moves the player now to act is x iff moves is even.
            result[cols[over]] = -1 if moves % 2 == 0 else 1
            live = np.flatnonzero(~over)
            cols, at = cols[live], at[live]
    return result


def run_umda_eager(g: GameGraph, cfg, trace_every: int = 0) -> RunResult:
    """Reference for :func:`coevo.eda.run_umda`: the eager engine.

    Each generation draws two complete choice matrices with
    :func:`sample_choice_matrix_per_vertex`, plays them column by column,
    keeps each game's winner, counts every winner's choice at every vertex
    and restricts the edge vector; the stop rule then checks the complete
    winners (:func:`population_optimal_mask_dp` for the exact rule). This
    is the engine the first golden digests were pinned on.
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
        flat = restrict(np.bincount(edges.ravel(), minlength=g.edge_count) / cfg.mu, model.gamma, degrees)
        model = ProbModel(g, dict(zip(g.interior, np.split(flat, starts[1:]))), model.gamma)
        if trace_every and t % trace_every == 0:
            trace.append((t, model.snapshot()))
        if cfg.stop_rule == "generation_cap_only":
            continue
        if cfg.stop_rule == "exact_optimal":
            mask = population_optimal_mask_dp(g, winners)
        else:
            mask = population_sufficient_mask(g, sorted(gd.critical), np.asfortranarray(winners), zero, no_draw)
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
        succs = successors(g, u)
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
    """Boolean flags of the Grundy-0 vertices of ``g`` as given, with no forced
    start added: ``eda.prepare(g).zero`` where the root is not Grundy-0."""
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
    if not successors(g, u):
        raise ValueError(f"vertex {u} has no moves")
    cx = sample_choice_matrix(model, rng, trials)
    cy = sample_choice_matrix(model, rng, trials)
    outcome = _play_matrices(g, cx, cy)
    winner_slots = np.where(outcome == 1, cx[u], cy[u])
    freqs = np.bincount(winner_slots, minlength=len(successors(g, u))) / trials
    stderr = np.sqrt(freqs * (1 - freqs) / trials)
    return freqs, stderr


def play_from(g: GameGraph, v: int, x: Strategy, y: Strategy) -> int:
    """Outcome of play started at ``v`` with ``x`` to move.

    Recursive reference implementation: -1 at a sink, otherwise the
    negation of the outcome at ``x``'s choice with roles swapped. Used for
    cross-checking :func:`play` on small graphs.
    """
    if not successors(g, v):
        return -1
    return -play_from(g, x.choice[v], y, x)


def critical_positions_inclusive(g: GameGraph, values: tuple[int, ...]) -> frozenset[int]:
    """Alternative reading of the critical set: nonzero vertices with a
    zero-valued successor and more than one move. It differs from
    :func:`coevo.grundy.critical_rows` only on vertices whose moves
    are all winning."""
    return frozenset(
        v
        for v in g.interior
        if values[v] != 0
        and len(successors(g, v)) > 1
        and any(values[w] == 0 for w in successors(g, v))
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
        nexts = forced.get(u) or successors(g, u)
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
    per-vertex reference for :func:`coevo.graphs.root_distances`."""
    if v == g.root:
        return 0
    dist = {g.root: 0}
    queue = deque([g.root])
    while queue:
        u = queue.popleft()
        for w in successors(g, u):
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
