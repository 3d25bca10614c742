"""The benchmark's three workloads, the checks on their outputs and their metrics.

Every workload runs the same five timed operations, each on inputs chosen
to stress a different layer (README.md in this directory says why):

``setup``
    what a user pays before the timed work: build every instance, add the
    forced start, compute Grundy values and the switchability profile;
``engine``
    one optimiser run: ``eda.run_umda`` from the uniform model to a
    generation cap, or, on ``converge``, ``harness.run_experiment`` on one
    learning rung until a verified optimal strategy (``converge`` takes its
    set-up from these calls instead of a ``setup`` operation);
``analyze``
    float ``oracles.analyze_model`` of seeded random models;
``fraction``
    Fraction ``oracles.analyze_model`` of a seeded random dyadic model;
``profile``
    build + Grundy values + switchability profile of the profile instances.

The operations are interleaved so that each gets its share of
``--seconds``. The host's speed toggles between two levels over seconds,
and interleaving spreads every operation's samples over the whole run.
The first cycle runs each operation once in a fixed order, so the
per-layer counts it produces repeat exactly for a seed. Every output is
checked; an operation with a failed check counts in ``failed``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from coevo import eda, games, grundy, harness, oracles, switchability
from coevo.games import GameSpec

SIMPLEX_TOLERANCE = 1e-12
FLOAT_SELECTION_TOLERANCE = 1e-9
REPLICATOR_SAMPLE = 3
DYADIC_DENOMINATOR = 64
OPERATIONS = ("setup", "engine", "analyze", "fraction", "profile")
# A timing is the fastest of its samples. On a 2-vCPU virtual machine
# shared with other tenants, speed switched between full and up to about
# half every few seconds, so a median reports whichever level dominated
# the run, while the fastest sample reports the full-speed cost if any of
# the run had it. Set-up time is the exception: it is the median of the
# run's set-ups, as the benchmark's contract asks of setup_s.
# A solve time is speed times solver iterations, and the two are estimated
# apart: solve_s is the fastest ms per generation times the median number
# of generations over every run of the instance, plus the fastest check of
# the witness. The fastest solve time alone would pick the luckiest run.
MEAN_OVER_INSTANCES = ("solve_s", "gen_ms")  # the others sum over instances


def spec(family: str, **params) -> GameSpec:
    return GameSpec(family=family, params=params)


def label(s: GameSpec) -> str:
    return f"{s.family} {s.params_string()}"


@dataclass(frozen=True)
class Workload:
    engine: tuple[GameSpec, ...]  # engine operations cycle through these
    mu: int
    max_generations: int  # generation cap of one optimiser run
    via_harness: bool  # run through run_experiment and require a verified witness
    analyze: tuple[GameSpec, ...]
    fraction: GameSpec
    profile: tuple[GameSpec, ...]
    shares: Mapping[str, float]  # of --seconds, per operation


CONVERGE_RUNGS = (
    spec("subtraction_nim", n=64, k=2),
    spec("subtraction_nim", n=48, k=3),
    spec("silver_dollar", m=8, k=3),
)
CONVERGE_SHARES = {"engine": 0.75, "analyze": 0.1, "fraction": 0.1, "profile": 0.05}
WIDE_SHARES = {"setup": 0.08, "engine": 0.7, "analyze": 0.07, "fraction": 0.05, "profile": 0.1}
EXACT_SHARES = {"setup": 0.05, "engine": 0.1, "analyze": 0.35, "fraction": 0.3, "profile": 0.2}

WORKLOADS: dict[str, dict[str, Workload]] = {
    "converge": {
        "full": Workload(
            engine=CONVERGE_RUNGS, mu=1024, max_generations=2000, via_harness=True,
            analyze=CONVERGE_RUNGS, fraction=spec("subtraction_nim", n=32, k=2),
            profile=CONVERGE_RUNGS, shares=CONVERGE_SHARES,
        ),
        "tiny": Workload(
            engine=(spec("subtraction_nim", n=32, k=2), spec("silver_dollar", m=7, k=2)),
            mu=256, max_generations=2000, via_harness=True,
            analyze=(spec("subtraction_nim", n=32, k=2),), fraction=spec("subtraction_nim", n=16, k=2),
            profile=(spec("subtraction_nim", n=32, k=2),), shares=CONVERGE_SHARES,
        ),
    },
    "wide": {
        "full": Workload(
            engine=(spec("chomp", m=6),), mu=4096, max_generations=1, via_harness=False,
            analyze=(spec("chomp", m=4),), fraction=spec("chomp", m=3),
            profile=(spec("chomp", m=5),), shares=WIDE_SHARES,
        ),
        "tiny": Workload(
            engine=(spec("chomp", m=4),), mu=128, max_generations=1, via_harness=False,
            analyze=(spec("chomp", m=3),), fraction=spec("chomp", m=3),
            profile=(spec("chomp", m=4),), shares=WIDE_SHARES,
        ),
    },
    "exact": {
        "full": Workload(
            engine=(spec("silver_dollar", m=9, k=3),), mu=1024, max_generations=2, via_harness=False,
            analyze=(spec("silver_dollar", m=9, k=3),), fraction=spec("silver_dollar", m=7, k=3),
            profile=(spec("chomp", m=5),), shares=EXACT_SHARES,
        ),
        "tiny": Workload(
            engine=(spec("chomp", m=4),), mu=64, max_generations=2, via_harness=False,
            analyze=(spec("chomp", m=4),), fraction=spec("silver_dollar", m=5, k=2),
            profile=(spec("chomp", m=4),), shares=EXACT_SHARES,
        ),
    },
}


def derive_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence((seed, *path)).generate_state(1, np.uint64)[0])


def theorem_gamma(base: games.GameGraph) -> float:
    return 1.0 / (20 * base.max_degree * base.n)


@dataclass
class Tally:
    """Samples per end-to-end metric and instance, operation counts and check failures."""

    samples: dict[str, dict[str, list[float]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(list))
    )
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    problems: list[str] = field(default_factory=list)
    gen1_hits: int = 0
    degenerate: list[str] = field(default_factory=list)
    engine_runs: int = 0

    def add(self, metric: str, value: float, instance: str = "all") -> None:
        self.samples[metric][instance].append(value)

    def record(self, units: int, problems: list[str]) -> None:
        self.attempted += units
        self.checks += 1
        if problems:
            self.failed += units
            self.problems.extend(problems)

    def value(self, metric: str) -> float:
        per_instance = []
        for instance, xs in self.samples[metric].items():
            if metric == "solve_s":
                verify = self.samples["verify_s"].get(instance, [0.0])
                per_instance.append(
                    min(self.samples["gen_ms"][instance]) / 1e3 * self.median_generations(instance) + min(verify)
                )
            elif metric == "setup_s":
                per_instance.append(statistics.median(xs))
            else:
                per_instance.append(min(xs))
        return statistics.fmean(per_instance) if metric in MEAN_OVER_INSTANCES else sum(per_instance)

    def median_generations(self, instance: str) -> float:
        return statistics.median(self.samples["generations"][instance])

    def count(self, metric: str) -> int:
        return sum(len(xs) for xs in self.samples[metric].values())


# ---------------------------------------------------------------------------
# Output checks. Each returns the list of problems it found.

def check_simplex(model, gamma: float) -> list[str]:
    """Every entry at least gamma and every vector summing to 1 within 1e-12."""
    for v, p in model.dists.items():
        if p.min() < gamma or abs(float(p.sum()) - 1.0) > SIMPLEX_TOLERANCE:
            return [f"model vector at vertex {v} is off the gamma-bordered simplex"]
    return []


def check_run(g, cfg, result, need_witness: bool) -> list[str]:
    problems = check_simplex(result.final_model, cfg.gamma)
    if result.evaluations != cfg.mu * result.generations_used:
        problems.append(
            f"evaluations {result.evaluations} != mu * generations {cfg.mu * result.generations_used}"
        )
    if result.succeeded:
        if not grundy.is_optimal_exact(g, result.optimal_witness):
            problems.append("witness fails the exact best-response test")
    elif need_witness:
        problems.append(f"no optimal strategy within {cfg.max_generations} generations")
    elif result.generations_used != cfg.max_generations:
        problems.append("run stopped before its cap without a witness")
    return problems


def check_float_analysis(g, analysis) -> list[str]:
    problems = []
    if abs(analysis.reach[g.root] - 1.0) > FLOAT_SELECTION_TOLERANCE:
        problems.append("root reach probability is not 1")
    for u, q in analysis.selection.items():
        if abs(sum(q) - 1.0) > FLOAT_SELECTION_TOLERANCE:
            problems.append(f"float selection vector at {u} sums to {sum(q)!r}")
            break
    return problems


def check_fraction_analysis(g, dists, analysis, rng: np.random.Generator) -> list[str]:
    problems = []
    for u, q in analysis.selection.items():
        if sum(q) != 1:
            problems.append(f"Fraction selection vector at {u} does not sum to exactly 1")
            break
    sample = rng.choice(len(g.interior), size=min(REPLICATOR_SAMPLE, len(g.interior)), replace=False)
    for i in sorted(int(i) for i in sample):
        u = g.interior[i]
        if analysis.selection[u] != oracles.replicator_form(g, dists, u)[2]:
            problems.append(f"selection at {u} differs from the replicator form")
    return problems


def check_profile(g, gd, profile) -> list[str]:
    problems = []
    for v in g.reverse_topo:
        successor_values = {gd.values[w] for w in g.succ[v]}
        expected = 0
        while expected in successor_values:
            expected += 1
        if gd.values[v] != expected:
            problems.append(f"Grundy value at {v} is not the mex of its successors")
            break
    if set(profile.reports) != set(range(g.n)):
        problems.append("switchability profile does not cover every vertex")
    elif profile.s_bar != max(r.value for r in profile.reports.values()) or profile.s_hat > profile.s_bar:
        problems.append("switchability aggregates disagree with the reports")
    return problems


# ---------------------------------------------------------------------------
# Inputs.

def dyadic_model(g, rng: np.random.Generator) -> dict[int, list[Fraction]]:
    """Random rational model whose vectors share a power-of-two denominator.

    A common dyadic denominator keeps the cost of the exact arithmetic
    nearly independent of the seed, so the seed changes the inputs
    without changing how much work they are.
    """
    dists = {}
    for v in g.interior:
        k = len(g.succ[v])
        denominator = max(DYADIC_DENOMINATOR, 1 << k.bit_length())
        cuts = np.sort(rng.choice(np.arange(1, denominator), size=k - 1, replace=False))
        parts = np.diff(np.concatenate(([0], cuts, [denominator])))
        dists[v] = [Fraction(int(x), denominator) for x in parts]
    return dists


def seeded_float_model(g, gamma: float, rng: np.random.Generator) -> eda.ProbModel:
    dists = {}
    for v in g.interior:
        p = rng.random(len(g.succ[v])) + gamma
        dists[v] = p / p.sum()
    return eda.ProbModel(graph=g, dists=dists, gamma=gamma)


@dataclass
class Prepared:
    graph: games.GameGraph  # forced start applied where the game needs it
    gamma: float


def prepare(s: GameSpec) -> Prepared:
    base = s.build()
    g = grundy.ensure_first_player_win(base)
    gd = grundy.grundy_values(g)
    switchability.switchability_profile(g, gd=gd)
    return Prepared(graph=g, gamma=theorem_gamma(base))


@contextmanager
def captured_runs():
    """Collect (graph, config, result) of every eda.run_umda call inside."""
    inner = eda.run_umda
    runs = []

    def capture(g, cfg, *args, **kwargs):
        result = inner(g, cfg, *args, **kwargs)
        runs.append((g, cfg, result))
        return result

    eda.run_umda = capture
    try:
        yield runs
    finally:
        eda.run_umda = inner


# ---------------------------------------------------------------------------
# The timed operations. Each takes its index among the calls of its kind.

class Runner:
    def __init__(self, w: Workload, seed: int, tally: Tally, untraced: Callable = nullcontext):
        self.w, self.seed, self.tally = w, seed, tally
        self.untraced = untraced  # the output checks run inside it, so a traced run does not count them
        self.engine_instances: list[Prepared] = []
        self.analyze_instances: list[Prepared] = []
        self.fraction_game = None
        self.check_rng = np.random.default_rng(derive_seed(seed, 3))

    def setup(self, index: int) -> None:
        started = time.perf_counter()
        self.engine_instances = [] if self.w.via_harness else [prepare(s) for s in self.w.engine]
        self.analyze_instances = [prepare(s) for s in self.w.analyze]
        self.fraction_game = self.w.fraction.build()
        if not self.w.via_harness:
            self.tally.add("setup_s", time.perf_counter() - started)

    def engine(self, index: int) -> None:
        run = self._engine_via_harness if self.w.via_harness else self._engine_direct
        run(index % len(self.w.engine), derive_seed(self.seed, 2, index))

    def _engine_via_harness(self, i: int, seed: int) -> None:
        clock, tally, rung = time.perf_counter, self.tally, self.w.engine[i]
        cfg = harness.ExperimentConfig(
            game=rung, mu_grid=(self.w.mu,), base_seed=seed, max_generations=self.w.max_generations
        )
        with captured_runs() as runs:
            started = clock()
            (record,) = harness.run_experiment(cfg)
            wall = clock() - started
        ((g, run_cfg, result),) = runs
        with self.untraced():
            verify_started = clock()
            problems = check_run(g, run_cfg, result, need_witness=True)
            verify = clock() - verify_started
        tally.record(1, problems)
        tally.add("setup_s", wall - record.wall_ms / 1e3, label(rung))
        tally.add("gen_ms", record.wall_ms / record.generations, label(rung))
        tally.add("generations", record.generations, label(rung))
        tally.add("verify_s", verify, label(rung))
        tally.add("solve_s", record.wall_ms / 1e3 + verify, label(rung))
        self._note_run(result, f"{label(rung)} seed {run_cfg.seed}")

    def _engine_direct(self, i: int, seed: int) -> None:
        s, p = self.w.engine[i], self.engine_instances[i]
        cfg = eda.UmdaConfig(mu=self.w.mu, gamma=p.gamma, max_generations=self.w.max_generations, seed=seed)
        started = time.perf_counter()
        result = eda.run_umda(p.graph, cfg)
        wall = time.perf_counter() - started
        with self.untraced():
            self.tally.record(result.generations_used, check_run(p.graph, cfg, result, need_witness=False))
        self.tally.add("gen_ms", wall * 1e3 / result.generations_used, label(s))
        self.tally.add("generations", result.generations_used, label(s))
        self.tally.add("solve_s", wall, label(s))
        self._note_run(result, f"{label(s)} seed {seed}")

    def _note_run(self, result, run_label: str) -> None:
        self.tally.engine_runs += 1
        if result.succeeded and result.generations_used == 1:
            self.tally.gen1_hits += 1
            self.tally.degenerate.append(run_label)

    def analyze(self, index: int) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, 4, index))
        elapsed = 0.0
        for p in self.analyze_instances:
            model = seeded_float_model(p.graph, p.gamma, rng)
            started = time.perf_counter()
            analysis = oracles.analyze_model(p.graph, model)
            elapsed += time.perf_counter() - started
            with self.untraced():
                self.tally.record(1, check_float_analysis(p.graph, analysis))
        self.tally.add("analyze_s", elapsed)

    def fraction(self, index: int) -> None:
        g = self.fraction_game
        dists = dyadic_model(g, np.random.default_rng(derive_seed(self.seed, 1, index)))
        started = time.perf_counter()
        analysis = oracles.analyze_model(g, dists)
        self.tally.add("exact_analyze_s", time.perf_counter() - started)
        with self.untraced():
            self.tally.record(1, check_fraction_analysis(g, dists, analysis, self.check_rng))

    def profile(self, index: int) -> None:
        elapsed = 0.0
        for s in self.w.profile:
            started = time.perf_counter()
            g = s.build()
            gd = grundy.grundy_values(g)
            profile = switchability.switchability_profile(g, gd=gd)
            elapsed += time.perf_counter() - started
            with self.untraced():
                self.tally.record(1, check_profile(g, gd, profile))
        self.tally.add("profile_s", elapsed)


def run_workload(
    w: Workload,
    seed: int,
    seconds: float,
    after_first_cycle: Callable[[], None] | None = None,
    untraced: Callable = nullcontext,
) -> Tally:
    """Set up, then interleave the timed operations for about ``seconds``.

    After a first cycle that runs every operation once, the next operation
    is always the one furthest below its share of the time spent so far.
    The run ends when that operation, at its last duration, would overrun
    ``seconds``.
    """
    clock = time.perf_counter
    tally = Tally()
    runner = Runner(w, seed, tally, untraced)
    operations = [op for op in OPERATIONS if op in w.shares]
    spent = dict.fromkeys(operations, 0.0)
    last = dict.fromkeys(operations, 0.0)
    calls = dict.fromkeys(operations, 0)
    started = clock()

    def run(op: str) -> None:
        op_started = clock()
        getattr(runner, op)(calls[op])
        last[op] = clock() - op_started
        spent[op] += last[op]
        calls[op] += 1

    if "setup" not in operations:
        runner.setup(0)
    for op in operations:
        run(op)
    if after_first_cycle is not None:
        after_first_cycle()
    while True:
        op = min(operations, key=lambda name: spent[name] / w.shares[name])
        if clock() - started + last[op] > seconds:
            return tally
        run(op)


def working_set(w: Workload) -> list[dict]:
    """Computed sizes of the data each optimiser generation touches."""
    itemsize = np.dtype(np.int64).itemsize
    out = []
    for s in w.engine:
        g = grundy.ensure_first_player_win(s.build())
        out.append(
            {
                "instance": label(s),
                "positions": g.n,
                "moves": g.edge_count,
                "max_degree": g.max_degree,
                "mu": w.mu,
                "choice_matrix_bytes": g.n * w.mu * itemsize,
                "generation_matrices_bytes": 3 * g.n * w.mu * itemsize,
            }
        )
    return out
