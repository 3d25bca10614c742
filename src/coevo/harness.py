"""Experiment orchestration: seeded replicate grids, CSV reporting,
budget comparison, and the intransitivity search.

Replicate seeds derive deterministically from the base seed via seed
sequences, so a repeated experiment is byte-identical. Wall-clock timings
are measured but stay out of the canonical CSV unless explicitly
requested, since they can never replay byte-for-byte.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import eda, grundy, switchability
from .games import GameSpec, nim_encode
from .graphs import GameGraph, Strategy, enumerate_strategies, strategy_space_size
from .ioutil import atomic_write_text

CSV_COLUMNS = [
    "family",
    "params",
    "n",
    "delta",
    "s_bar",
    "s_mode",
    "mu",
    "gamma",
    "seed",
    "replicate",
    "generations",
    "evaluations",
    "success",
    "theorem_eval_budget",
]


@dataclass(frozen=True)
class ExperimentConfig:
    game: GameSpec
    mu_grid: tuple[int, ...]
    gamma_rule: float | str = "theorem"  # "theorem" or a fixed border value
    replicates: int = 1
    base_seed: int = 0
    max_generations: int = 10_000
    stop_rule: str = "exact_optimal"

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if not self.mu_grid or list(self.mu_grid) != sorted(self.mu_grid):
            raise ValueError("mu_grid must be non-empty and ascending")


@dataclass(frozen=True)
class ExperimentRecord:
    family: str
    params: str
    n: int
    delta: int
    s_bar: int
    s_mode: str
    mu: int
    gamma: float
    seed: int
    replicate: int
    generations: int
    evaluations: int
    success: int
    theorem_eval_budget: float
    wall_ms: float


def _derive_seed(base_seed: int, *path: int) -> int:
    ss = np.random.SeedSequence((base_seed, *path))
    return int(ss.generate_state(1, np.uint64)[0])


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """One game instance across the whole mu grid and every replicate.

    The game is built once and its Grundy values computed once; a
    second-player-win instance gets the forced start vertex, whose values
    follow from the base graph's, before running. The reported ``n`` and
    ``delta`` columns describe the instance as parameterised (before that
    normalisation), and the theorem border rule uses those same values.
    """
    base_game = cfg.game.build()
    gd = grundy.grundy_values(base_game)
    run_game = grundy.ensure_first_player_win(base_game, gd)
    if run_game is not base_game:
        gd = grundy.forced_start_values(gd)
    profile = switchability.switchability_profile(run_game, gd=gd)

    if cfg.gamma_rule == "theorem":
        gamma = float(eda.theorem_border(base_game))
    else:
        gamma = float(cfg.gamma_rule)

    s_values = {v: r.value for v, r in profile.reports.items()}
    budget = eda.theorem_parameters(run_game, gd, s_values)

    records = []
    for mu_index, mu in enumerate(cfg.mu_grid):
        for replicate in range(cfg.replicates):
            seed = _derive_seed(cfg.base_seed, mu_index, replicate)
            run_cfg = eda.UmdaConfig(
                mu=mu,
                gamma=gamma,
                max_generations=cfg.max_generations,
                seed=seed,
                stop_rule=cfg.stop_rule,
            )
            started = time.perf_counter()
            result = eda.run_umda(run_game, run_cfg)
            wall_ms = (time.perf_counter() - started) * 1e3
            records.append(
                ExperimentRecord(
                    family=cfg.game.family,
                    params=cfg.game.params_string(),
                    n=base_game.n,
                    delta=base_game.max_degree,
                    s_bar=profile.s_bar,
                    s_mode=profile.mode_used,
                    mu=mu,
                    gamma=gamma,
                    seed=seed,
                    replicate=replicate,
                    generations=result.generations_used,
                    evaluations=result.evaluations,
                    success=int(result.succeeded),
                    theorem_eval_budget=budget.eval_budget,
                    wall_ms=wall_ms,
                )
            )
    return records


def records_to_csv(records: Iterable[ExperimentRecord], include_timings: bool = False) -> str:
    columns = CSV_COLUMNS + (["wall_ms"] if include_timings else [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([getattr(rec, col) for col in columns] for rec in records)
    return buf.getvalue()


def write_records(path, records: Iterable[ExperimentRecord], include_timings: bool = False) -> None:
    atomic_write_text(path, records_to_csv(records, include_timings=include_timings))


@dataclass
class SweepSummary:
    records: list[ExperimentRecord]
    plot: dict


def sweep_scaling(games: Sequence[GameSpec], cfg_template: ExperimentConfig) -> SweepSummary:
    """Run one experiment per instance and summarise scaling against n.

    Instance ``i`` runs ``cfg_template`` on ``games[i]`` with a base seed
    derived from the template's and ``i``. The plot description carries
    one series of median evaluations per population size (failed
    replicates count at their capped cost) plus the theorem-shaped
    evaluation budget curve, on log-log axes, with one point per instance
    from that instance's own records. Every instance is built once before
    the first run, so a bad one fails before any work is spent.
    """
    for spec in games:
        spec.build()
    runs = []
    for i, spec in enumerate(games):
        seed = _derive_seed(cfg_template.base_seed, i)
        runs.append(run_experiment(replace(cfg_template, game=spec, base_seed=seed)))
    xs = [records[0].n for records in runs]
    series = []
    for mu in cfg_template.mu_grid:
        ys = [float(np.median([r.evaluations for r in records if r.mu == mu])) for records in runs]
        series.append({"name": f"median-evaluations-mu{mu}", "x": xs, "y": ys})
    budgets = [records[0].theorem_eval_budget for records in runs]
    series.append({"name": "theorem-budget", "x": xs, "y": budgets})
    plot = {
        "series": series,
        "xlabel": "n",
        "ylabel": "evaluations",
        "xscale": "log",
        "yscale": "log",
    }
    return SweepSummary(records=[r for records in runs for r in records], plot=plot)


def write_sweep(out_dir, summary: SweepSummary, include_timings: bool = False) -> tuple[str, str]:
    from pathlib import Path

    out = Path(out_dir)
    csv_path = out / "records.csv"
    plot_path = out / "plot.json"
    write_records(csv_path, summary.records, include_timings=include_timings)
    atomic_write_text(plot_path, json.dumps(summary.plot, indent=2, sort_keys=True) + "\n")
    return str(csv_path), str(plot_path)


# ---------------------------------------------------------------------------
# Intransitivity.

def _beats(g: GameGraph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per column: strategy ``a`` beats ``b`` both as first and as second mover."""
    return (eda._play_matrices(g, a, b) == 1) & (eda._play_matrices(g, b, a) == -1)


def intransitivity_search(
    g: GameGraph, triples: int = 1000, rng: np.random.Generator | None = None
) -> tuple[Strategy, Strategy, Strategy] | None:
    """Find strategies a, b, c with a > b > c > a, each dominance meaning
    a win both as first and as second mover.

    Exhaustive over the whole strategy space when it has at most 64
    members, returning the first cycle in (a, b, c) index order; otherwise
    samples ``triples`` random triples from the uniform model, each drawn
    at every interior vertex in turn, and returns the first that cycles.
    """
    if strategy_space_size(g) <= 64:
        strategies = list(enumerate_strategies(g))
        m = len(strategies)
        choices = np.zeros((g.n, m), dtype=np.min_scalar_type(g.max_degree))
        choices[list(g.interior)] = np.array([x.key(g) for x in strategies]).T
        first, second = np.repeat(np.arange(m), m), np.tile(np.arange(m), m)
        beats = _beats(g, choices[:, first], choices[:, second]).reshape(m, m)
        for i in range(m):
            for j in np.flatnonzero(beats[i]).tolist():
                k = np.flatnonzero(beats[j] & beats[:, i])
                if len(k):
                    return strategies[i], strategies[j], strategies[int(k[0])]
        return None

    if rng is None:
        rng = np.random.default_rng(0)
    table = eda._threshold_table(g, eda._edge_vector(eda.uniform_model(g, gamma=0.0)))
    interior = np.array(g.interior, dtype=np.int32)
    block = max(1, 2**16 // (3 * len(interior)))  # triples drawn and played at once
    for lo in range(0, triples, block):
        size = min(block, triples - lo)
        choices = np.zeros((g.n, 3 * size), dtype=np.min_scalar_type(g.max_degree))
        slots = eda._sample_choice_matrix(table, rng, np.tile(interior, 3 * size))
        choices[interior] = slots.reshape(3 * size, len(interior)).T
        a, b, c = choices[:, 0::3], choices[:, 1::3], choices[:, 2::3]
        hit = np.flatnonzero(_beats(g, a, b) & _beats(g, b, c) & _beats(g, c, a))
        if len(hit):
            population = eda.Population(g, choices)
            return tuple(population.strategy(3 * int(hit[0]) + i) for i in range(3))
    return None


def describe_intransitivity_witness(
    g: GameGraph, witness, nim_params: tuple[int, int] | None = None
) -> dict:
    if witness is None:
        return {"found": False, "strategies": None}
    payload: dict = {
        "found": True,
        "strategies": [
            {str(v): w for v, w in x.choice.items()} for x in witness
        ],
    }
    if nim_params is not None:
        n, k = nim_params
        payload["nim_strings"] = [nim_encode(x, n, k) for x in witness]
    return payload
