"""Multi-valued UMDA with binary tournament selection.

The model holds one categorical distribution per interior vertex, indexed
by canonical successor order. Each generation samples ``mu`` strategy
pairs from the product distribution, plays one game per pair (one payoff
evaluation each), collects the winners' per-vertex choice frequencies, and
clamps the resulting frequency vectors back onto the gamma-bordered
simplex. A population is a matrix of successor slots, one row per vertex
and one column per individual: slot ``i`` at ``v`` moves to
``graph.targets[graph.offsets[v] + i]``. Sampling, playout, counting,
restriction and stop-rule checks all run vectorised on that one layout;
results depend only on the seed, never on scheduling.

The exact stop check rests on a lemma: a strategy is optimal iff it moves
to a Grundy-0 vertex at every position it can face. So it reads only those
positions, breadth-first from the root, not the whole graph. Both stop
rules scan the selected population in blocks of columns, in order, and
stop at the first block with a hit, so the witness is the first column
that meets the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import grundy as _grundy
from .graphs import GameGraph, Strategy
from .grundy import GrundyData, PreconditionViolated


class GammaTooLarge(ValueError):
    pass


class MissingSwitchability(ValueError):
    pass


RENORM_TOLERANCE = 1e-12
#: Stop rules by their command-line name: stop at the first exactly
#: optimal winner, at the first winner that passes the critical-position
#: certificate, or only at the generation cap.
STOP_RULES = {
    "exact": "exact_optimal",
    "sufficient": "sufficient_optimal",
    "cap": "generation_cap_only",
}
COUNT_BLOCK = 2**18  # edge indices counted per bincount in generation_step
SAMPLE_BLOCK = 2**17  # uniforms drawn per block in _sample_choice_matrix
STOP_BLOCK = 2**18  # (column, position) pairs per block of the stop check in run_umda


@dataclass
class ProbModel:
    """Per-vertex categorical distributions over successors.

    ``dists[v][i]`` is the probability of moving from ``v`` to
    ``graph.succ[v][i]``. Every vector sums to one (within 1e-12 for
    floats) and, after restriction, every entry is at least ``gamma``.
    """

    graph: GameGraph
    dists: dict[int, np.ndarray]
    gamma: float

    def copy(self) -> "ProbModel":
        return ProbModel(
            self.graph, {v: p.copy() for v, p in self.dists.items()}, self.gamma
        )

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
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and at least 0, got {self.gamma}")
        if self.stop_rule not in STOP_RULES.values():
            raise ValueError(f"unknown stop rule {self.stop_rule!r}")


@dataclass
class Population:
    """Individuals of one generation as a choice matrix of successor slots.

    ``choices[v, j]`` is the slot individual ``j`` picks at interior vertex
    ``v``; its move is ``graph.targets[graph.offsets[v] + choices[v, j]]``.
    Sink rows are unused. Columns are complete strategies.
    """

    graph: GameGraph
    choices: np.ndarray

    def __len__(self) -> int:
        return self.choices.shape[1]

    def strategy(self, j: int) -> Strategy:
        g = self.graph
        return Strategy({v: int(g.targets[g.offsets[v] + self.choices[v, j]]) for v in g.interior})


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

def beta_plus(p: Sequence, gamma):
    return sum(max(x - gamma, 0 * x) for x in p)


def beta_minus(p: Sequence, gamma):
    return sum(max(gamma - x, 0 * x) for x in p)


def restrict(p, gamma):
    """Clamp a distribution onto the simplex with per-entry floor ``gamma``.

    Entries at or below the floor are raised to exactly ``gamma``; the
    surplus is paid for by shrinking the remaining entries' excess over
    ``gamma`` by the common factor ``1 - beta_minus/beta_plus``, which
    keeps the total at one. With two entries this reduces to clamping
    into ``[gamma, 1-gamma]``, and that form is used verbatim so the
    binary case agrees exactly. Accepts a float array (returns an array)
    or any sequence of numbers, including Fractions (returns a list and
    stays exact). A 2-D float array is restricted row by row; numpy sums
    each row of a C-contiguous matrix in the same order as the row alone,
    so every row comes out exactly as from a one-vector call. A float
    input whose total is off 1 by more than 1e-12 is first normalised,
    divided by its total, so the result still lies on the bordered simplex;
    a row whose total is not positive raises ValueError.
    """
    size = p.shape[-1] if isinstance(p, np.ndarray) else len(p)
    if size and not gamma * size < 1:
        raise GammaTooLarge(f"gamma {gamma} too large for {size} outcomes")
    if isinstance(p, np.ndarray):
        total = p.sum(axis=-1, keepdims=True)
        off = np.abs(total - 1.0) > RENORM_TOLERANCE
        if off.any():
            if not (total > 0).all():
                raise ValueError("restrict needs every row to have a positive total")
            p = np.where(off, p / total, p)
        if size == 2:
            return np.clip(p, gamma, 1 - gamma)
        bplus = np.maximum(p - gamma, 0.0).sum(axis=-1, keepdims=True)
        bminus = np.maximum(gamma - p, 0.0).sum(axis=-1, keepdims=True)
        return np.where(p <= gamma, gamma, gamma + (1 - bminus / bplus) * (p - gamma))
    if size == 2:
        return [min(max(x, gamma), 1 - gamma) for x in p]
    bplus = beta_plus(p, gamma)
    bminus = beta_minus(p, gamma)
    scale = 1 - bminus / bplus
    return [gamma if x <= gamma else gamma + scale * (x - gamma) for x in p]


def model_from_snapshot(g: GameGraph, data: Mapping) -> ProbModel:
    """Rebuild a model from its JSON form, ``{"gamma": x, "dists": {...}}``.

    ``dists`` must map exactly the interior vertices (as decimal strings)
    to vectors of that vertex's degree whose entries are finite, at least
    0, and sum to 1 within 1e-9. Raises ValueError naming the first bad
    vertex otherwise.
    """
    raw = data.get("dists") if isinstance(data, Mapping) else None
    if not isinstance(raw, Mapping):
        raise ValueError("model snapshot needs a 'dists' object")
    expected = {str(v) for v in g.interior}
    for key in sorted(set(raw) ^ expected):
        problem = "has no vector" if key in expected else "is not an interior vertex"
        raise ValueError(f"model snapshot: vertex {key} {problem}")
    dists = {}
    for v in g.interior:
        p = np.asarray(raw[str(v)], dtype=float)
        if p.shape != (len(g.succ[v]),):
            raise ValueError(f"vertex {v}: expected {len(g.succ[v])} entries, got shape {p.shape}")
        if not (np.isfinite(p).all() and (p >= 0).all()):
            raise ValueError(f"vertex {v}: entries must be finite and at least 0, got {p.tolist()}")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"vertex {v}: entries sum to {float(p.sum())!r}, not 1")
        dists[v] = p
    return ProbModel(graph=g, dists=dists, gamma=float(data.get("gamma", 0.0)))


def uniform_model(g: GameGraph, gamma: float) -> ProbModel:
    """Initial model: the uniform distribution at every interior vertex."""
    if g.max_degree and not gamma * g.max_degree < 1:
        raise GammaTooLarge(
            f"gamma {gamma} times max degree {g.max_degree} must stay below 1"
        )
    dists = {
        v: np.full(len(g.succ[v]), 1.0 / len(g.succ[v])) for v in g.interior
    }
    return ProbModel(graph=g, dists=dists, gamma=gamma)


# ---------------------------------------------------------------------------
# Vectorised engine. All randomness flows through numpy's PCG64 stream:
# one uniform per (vertex, individual), interior vertices in ascending id
# order, drawn in blocks of rows that continue the stream exactly as one
# draw per vertex would. Inverse CDF over the canonical successor order
# turns each uniform into a successor slot.

def _moves(g: GameGraph, choices: np.ndarray, v: int) -> np.ndarray:
    """Vertex ids that the slots in row ``v`` of a choice matrix lead to."""
    return g.targets[g.offsets[v] + choices[v]]


def _sample_choice_matrix(model: ProbModel, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` strategies from ``model`` as a choice matrix of slots.

    Row ``v`` turns each uniform ``u`` into the number of cumulative
    probabilities ``cum[i] <= u`` with ``i < deg(v) - 1``, which is
    ``searchsorted(cum, u, side="right")`` clipped to the last slot, so a
    row whose total ends below one still picks its last slot. A block
    holds at most ``SAMPLE_BLOCK`` uniforms; its rows are compared a
    degree at a time, in chunks whose gathered uniforms (8 bytes each) and
    comparisons (``deg(v) - 1`` bytes per uniform) stay within
    ``SAMPLE_BLOCK`` bytes.
    """
    g = model.graph
    out = np.zeros((g.n, count), dtype=np.min_scalar_type(g.max_degree - 1))
    interior = np.array(g.interior, dtype=np.int64)
    degrees = g.offsets[interior + 1] - g.offsets[interior]
    width = max(1, count)
    block = max(1, SAMPLE_BLOCK // width)
    uniforms = np.empty((min(block, len(interior)), count))
    for lo in range(0, len(interior), block):
        rows, row_degrees = interior[lo : lo + block], degrees[lo : lo + block]
        u = rng.random(out=uniforms[: len(rows)])
        for d in np.unique(row_degrees[row_degrees > 1]).tolist():
            at = np.flatnonzero(row_degrees == d)
            cum = np.cumsum([model.dists[v] for v in rows[at].tolist()], axis=1)[:, :-1]
            step = max(1, SAMPLE_BLOCK // (max(8, d - 1) * width))
            for s in range(0, len(at), step):
                below = cum[s : s + step, :, None] <= u[at[s : s + step], None, :]
                out[rows[at[s : s + step]]] = below.view(np.uint8).sum(axis=1, dtype=out.dtype)
    return out


def _playout(g: GameGraph, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Outcomes (+1/-1 for the first mover) of column-paired strategies."""
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
        stuck = sink[nxt]
        done = idx[stuck]
        # After `moves` moves the player now to act is x iff moves is even.
        result[done] = -1 if moves % 2 == 0 else 1
        alive[done] = False
    return result


def population_optimal_mask(g: GameGraph, choices: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Exact-optimality flags for every column of a choice matrix.

    ``zero`` flags the Grundy-0 vertices. Column j is optimal iff it beats
    every opponent as first mover, which holds iff it moves to a Grundy-0
    vertex at every position it can face: the root, and every reply to one
    of its own moves. The check walks (column, position) pairs
    breadth-first from the root. A column drops out at its first move to a
    nonzero vertex, and each (column, Grundy-0 vertex) pair is expanded at
    most once, so one column costs at most Z + 1 pair steps, where Z is the
    number of edges out of Grundy-0 vertices.
    """
    offsets, targets = g.offsets, g.targets
    count = choices.shape[1]
    slots = np.ascontiguousarray(choices).ravel()  # slot of (v, j) at v * count + j
    ok = np.full(count, offsets[g.root + 1] > offsets[g.root])  # a sink root loses
    seen = np.zeros(g.n * count, dtype=bool)  # (Grundy-0 vertex w, column j) at w * count + j
    col = np.flatnonzero(ok)
    pos = np.full(len(col), g.root)
    while len(col):
        moved = targets[offsets[pos] + slots[pos * count + col]]
        ok[col[~zero[moved]]] = False
        live = ok[col]
        key = moved[live] * count + col[live]
        key = key[~seen[key]]
        key.sort()  # sort and drop repeats: np.unique hashes, several times slower here
        first_of_run = np.ones(len(key), dtype=bool)
        first_of_run[1:] = key[1:] != key[:-1]
        key = key[first_of_run]
        seen[key] = True
        moved = key // count
        col = key - moved * count
        # Every reply from each newly reached Grundy-0 vertex is a position
        # its column faces next.
        starts = offsets[moved]
        degrees = offsets[moved + 1] - starts
        first = np.cumsum(degrees) - degrees
        pos = targets[np.arange(int(degrees.sum())) + np.repeat(starts - first, degrees)]
        col = np.repeat(col, degrees)
    return ok


def population_sufficient_mask(
    g: GameGraph, gd: GrundyData, choices: np.ndarray, zero: np.ndarray
) -> np.ndarray:
    """Critical-position certificate flags for every column; ``zero`` flags
    the Grundy-0 vertices."""
    ok = np.ones(choices.shape[1], dtype=bool)
    for v in gd.critical:
        ok &= zero[_moves(g, choices, v)]
    return ok


def _stop_block(g: GameGraph, zero: np.ndarray, stop_rule: str) -> int:
    """Columns per block of the stop check.

    The exact check steps through at most Z + 1 (column, position) pairs
    per column, where Z is the number of edges out of the Grundy-0
    vertices ``zero`` flags, so a block of ``STOP_BLOCK // Z`` columns keeps
    its pairs, and with them its time and memory, near ``STOP_BLOCK``. The
    certificate holds one row of a block at a time, so its block is
    ``STOP_BLOCK`` columns.
    """
    if stop_rule == "sufficient_optimal":
        return STOP_BLOCK
    zero_edges = int((g.offsets[1:] - g.offsets[:-1])[zero].sum())
    return max(1, STOP_BLOCK // max(1, zero_edges))


def _first_stop_column(
    g: GameGraph, gd: GrundyData, zero: np.ndarray, choices: np.ndarray, stop_rule: str, block: int
) -> int | None:
    """Index of the first column of ``choices`` that meets the stop rule, or None.

    Columns are checked ``block`` at a time, in order, and the scan ends at
    the first block that holds a hit, so the hit is the first in the matrix.
    """
    for lo in range(0, choices.shape[1], block):
        part = choices[:, lo : lo + block]
        if stop_rule == "exact_optimal":
            mask = population_optimal_mask(g, part, zero)
        else:
            mask = population_sufficient_mask(g, gd, part, zero)
        if mask.any():
            return lo + int(np.argmax(mask))
    return None


def generation_step(
    model: ProbModel, cfg: UmdaConfig, rng: np.random.Generator
) -> tuple[ProbModel, Population, int]:
    """One full generation: mu tournaments, frequency update, restriction.

    Returns the next model, the selected population (the mu winners,
    complete with their off-path choices), and the number of payoff
    evaluations spent (always exactly mu).
    """
    g = model.graph
    cx = _sample_choice_matrix(model, rng, cfg.mu)
    cy = _sample_choice_matrix(model, rng, cfg.mu)
    outcome = _playout(g, cx, cy)
    # Bitwise select, in place in cx: ((cx ^ cy) & m) ^ cy is cx where the
    # column mask m is all ones (x won) and cy where it is 0. A broadcast
    # np.where(outcome == 1, cx, cy) gives the same matrix on a slow path.
    winners = cx
    winners ^= cy
    winners &= -(outcome == 1).astype(winners.dtype)
    winners ^= cy

    # One count per edge: the winners' slot at v lands on edge offsets[v] + slot.
    # Counting a block of rows at a time bounds the int64 edge indices to
    # about COUNT_BLOCK entries; integer counts add exactly.
    interior = np.array(g.interior, dtype=np.int64)
    starts = g.offsets[interior]
    counts = np.zeros(g.edge_count, dtype=np.int64)
    block = max(1, COUNT_BLOCK // cfg.mu)
    for lo in range(0, len(interior), block):
        edges = starts[lo : lo + block, None] + winners[interior[lo : lo + block]]
        counts += np.bincount(edges.ravel(), minlength=g.edge_count)
    flat = counts / cfg.mu
    degrees = g.offsets[interior + 1] - starts
    for size in np.unique(degrees):
        rows = starts[degrees == size][:, None] + np.arange(size)
        flat[rows] = restrict(flat[rows], model.gamma)
    new_dists = dict(zip(g.interior, np.split(flat, starts[1:])))
    next_model = ProbModel(graph=g, dists=new_dists, gamma=model.gamma)
    return next_model, Population(graph=g, choices=winners), cfg.mu


def run_umda(g: GameGraph, cfg: UmdaConfig, trace_every: int = 0) -> RunResult:
    """Iterate generations until the selected population hits the target.

    The stop rule is checked on each generation's selected population;
    sampled-but-unselected losers never count. Requires a first-player-win
    game (extend with a forced start vertex first if necessary). With
    ``trace_every`` at k > 0 the model is snapshotted every k-th
    generation; 0 takes no snapshots.
    """
    if trace_every < 0:
        raise ValueError(f"trace_every must be at least 0, got {trace_every}")
    gd = _grundy.grundy_values(g)
    if gd.values[g.root] == 0:
        raise PreconditionViolated(
            "root has Grundy value 0; apply ensure_first_player_win first"
        )
    zero = np.zeros(g.n, dtype=bool)
    zero[list(gd.zero_set)] = True
    block = _stop_block(g, zero, cfg.stop_rule)
    model = uniform_model(g, cfg.gamma)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    trace: list[tuple[int, dict]] = []
    evaluations = 0
    for t in range(1, cfg.max_generations + 1):
        model, population, spent = generation_step(model, cfg, rng)
        evaluations += spent
        if trace_every and t % trace_every == 0:
            trace.append((t, model.snapshot()))
        if cfg.stop_rule == "generation_cap_only":
            continue
        hit = _first_stop_column(g, gd, zero, population.choices, cfg.stop_rule, block)
        if hit is not None:
            witness = population.strategy(hit)
            return RunResult(
                generations_used=t,
                evaluations=evaluations,
                succeeded=True,
                final_model=model,
                optimal_witness=witness,
                trace=trace,
            )
    return RunResult(
        generations_used=cfg.max_generations,
        evaluations=evaluations,
        succeeded=False,
        final_model=model,
        optimal_witness=None,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Parameterisation suggested by the runtime guarantee.

@dataclass(frozen=True)
class TheoremBudget:
    """Theorem-shaped parameter suggestions, never enforced as cutoffs.

    The guarantee's constant is existential, so callers supply ``C`` (and
    the confidence exponent ``K``); every budget carries its exact integer
    power base alongside the float value, which may be astronomically
    large at desk scale.
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
    """The runtime guarantee's border ``1/(20 * Delta * n)`` for ``g``.

    Runs take it on the game as given, before any forced start is added,
    while :func:`theorem_parameters` takes it on the game it budgets.
    Raises ValueError on a game with no moves, where it is undefined.
    """
    if g.max_degree == 0:
        raise ValueError("degenerate game: no moves at all")
    return Fraction(1, 20 * g.max_degree * g.n)


def theorem_parameters(
    g: GameGraph,
    gd: GrundyData,
    s_values: Mapping[int, int],
    K: float = 1.0,
    C: float = 1.0,
) -> TheoremBudget:
    """Instantiate the runtime guarantee's parameter formulas.

    ``s_values`` maps vertices to switchability values or upper bounds and
    must cover every critical position (budgets are monotone in them, so
    upper bounds are safe). The border is :func:`theorem_border` of ``g``,
    and its denominator is the power base of every budget; the
    population lower bound and the generation/evaluation budgets follow
    the guarantee's formulas with ``s_hat`` the maximum over critical
    positions and ``s_bar`` the maximum over all supplied vertices.
    """
    gamma = theorem_border(g)
    missing = [v for v in gd.critical if v not in s_values]
    if missing:
        raise MissingSwitchability(f"no switchability value for vertices {missing}")
    base = gamma.denominator
    log_n = math.log(g.n)
    s_hat = max((int(s_values[v]) for v in gd.critical), default=0)
    s_bar = max((int(s) for s in s_values.values()), default=0)

    mu_base = base ** (1 + 2 * s_hat)
    gen_base = sum(base ** int(s_values[v]) for v in gd.critical)
    eval_base = base ** (2 + 3 * s_bar)
    return TheoremBudget(
        gamma=gamma,
        s_hat=s_hat,
        s_bar=s_bar,
        mu_min=C * (K + s_hat + 1) * _to_float(mu_base) * log_n,
        mu_min_base=mu_base,
        generation_budget=C * _to_float(gen_base) * log_n,
        generation_budget_base=gen_base,
        eval_budget=C * C * (K + s_bar + 1) * _to_float(eval_base) * log_n * log_n,
        eval_budget_base=eval_base,
    )
