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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import eda, switchability
from .games import GameSpec, nim_encode
from .graphs import GameGraph, Strategy, strategy_space_size
from .ioutil import atomic_write_text


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
        for name, low in (("replicates", 1), ("base_seed", 0), ("max_generations", 1)):
            eda._require_int(name, getattr(self, name), low)
        for mu in self.mu_grid:
            eda._require_int("mu_grid entries", mu, 1)
        if not self.mu_grid or any(a >= b for a, b in zip(self.mu_grid, self.mu_grid[1:])):
            raise ValueError(f"mu_grid must be non-empty and strictly ascending, got {self.mu_grid!r}")
        if self.gamma_rule != "theorem":
            eda._require_border("gamma_rule, if not 'theorem',", self.gamma_rule)
        if self.stop_rule not in eda.STOP_RULES.values():
            raise ValueError(f"unknown stop_rule {self.stop_rule!r}")


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


CSV_COLUMNS = [f.name for f in fields(ExperimentRecord) if f.name != "wall_ms"]


def _derive_seed(base_seed: int, *path: int) -> int:
    ss = np.random.SeedSequence((base_seed, *path))
    return int(ss.generate_state(1, np.uint64)[0])


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """One game instance across the whole mu grid and every replicate.

    The game is built and prepared once (:func:`eda.prepare`), and every run
    shares that record. The ``n`` and ``delta`` columns and the theorem
    border describe the record's base game, as parameterised; the
    switchability reports and the budget describe its run graph, which
    carries the forced start of a second-player-win game.
    """
    return _experiment(cfg, eda.prepare(cfg.game.build()))


def _experiment(cfg: ExperimentConfig, instance: eda.Instance) -> list[ExperimentRecord]:
    base, graph = instance.base, instance.graph
    reports, mode = switchability.switchability_reports(graph, range(graph.n))
    gamma = float(eda.theorem_border(base) if cfg.gamma_rule == "theorem" else cfg.gamma_rule)
    budget = eda.theorem_parameters(graph, instance.critical, {v: r.value for v, r in reports.items()})
    columns = dict(
        family=cfg.game.family, params=cfg.game.params_string(), n=base.n, delta=base.max_degree,
        s_bar=budget.s_bar, s_mode=mode, gamma=gamma,
        theorem_eval_budget=budget.eval_budget,
    )
    records = []
    for mu_index, mu in enumerate(cfg.mu_grid):
        for replicate in range(cfg.replicates):
            seed = _derive_seed(cfg.base_seed, mu_index, replicate)
            run_cfg = eda.UmdaConfig(mu, gamma, cfg.max_generations, seed, cfg.stop_rule)
            started = time.perf_counter()
            result = eda.run_umda(graph, run_cfg, instance=instance)
            wall_ms = (time.perf_counter() - started) * 1e3
            records.append(ExperimentRecord(
                **columns, mu=mu, seed=seed, replicate=replicate,
                generations=result.generations_used, evaluations=result.evaluations,
                success=int(result.succeeded), wall_ms=wall_ms,
            ))
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
    derived from the template's and ``i``. The plot description carries one
    series of median evaluations per population size (failed replicates
    count at their capped cost) plus the theorem-shaped evaluation budget
    curve, null where a budget overflows a float, on log-log axes, with one
    point per instance from its own records. Every instance is built and
    prepared once (:func:`eda.prepare`) before the first run, so a bad one
    fails before any work is spent, and its experiment runs on that record.
    """
    instances = [eda.prepare(spec.build()) for spec in games]
    runs = []
    for i, (spec, instance) in enumerate(zip(games, instances)):
        seed = _derive_seed(cfg_template.base_seed, i)
        runs.append(_experiment(replace(cfg_template, game=spec, base_seed=seed), instance))
    xs = [records[0].n for records in runs]
    series = []
    for mu in cfg_template.mu_grid:
        ys = [float(np.median([r.evaluations for r in records if r.mu == mu])) for records in runs]
        series.append({"name": f"median-evaluations-mu{mu}", "x": xs, "y": ys})
    budgets = [records[0].theorem_eval_budget for records in runs]
    series.append({"name": "theorem-budget", "x": xs, "y": [b if np.isfinite(b) else None for b in budgets]})
    plot = {
        "series": series,
        "xlabel": "n",
        "ylabel": "evaluations",
        "xscale": "log",
        "yscale": "log",
    }
    return SweepSummary(records=[r for records in runs for r in records], plot=plot)


def write_sweep(out_dir, summary: SweepSummary, include_timings: bool = False) -> tuple[str, str]:
    out = Path(out_dir)
    csv_path = out / "records.csv"
    plot_path = out / "plot.json"
    write_records(csv_path, summary.records, include_timings=include_timings)
    atomic_write_text(plot_path, json.dumps(summary.plot, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return str(csv_path), str(plot_path)


# ---------------------------------------------------------------------------
# Intransitivity.

def intransitivity_search(
    g: GameGraph, triples: int = 1000, rng: np.random.Generator | None = None
) -> tuple[Strategy, Strategy, Strategy] | None:
    """Find strategies a, b, c with a > b > c > a, each dominance meaning
    a win both as first and as second mover; each pairing is played once.

    Exhaustive over the whole strategy space, as slot columns in
    lexicographic order, when it has at most 64 members, returning the
    first cycle in (a, b, c) index order; otherwise samples ``triples``
    random triples from the uniform model, each drawn at every interior
    vertex in turn, and returns the first that cycles.
    """
    eda._require_int("triples", triples, 1)
    dtype, m = np.min_scalar_type(g.max_degree), strategy_space_size(g)
    if m <= 64:
        branching = np.flatnonzero(np.diff(g.offsets) > 1)  # one-move vertices keep slot 0: at most 6 axes
        choices = np.zeros((g.n, m), dtype=dtype)
        choices[branching] = np.indices(np.diff(g.offsets)[branching], dtype=dtype).reshape(len(branching), m)
        first, second = np.indices((m, m)).reshape(2, m * m)
        outcome = eda._play_matrices(g, choices[:, first], choices[:, second]).reshape(m, m)
        beats = (outcome == 1) & (outcome.T == -1)  # i beats j as first and as second mover
        closes = beats & (beats @ beats).T  # ... and j beats some k that beats i
        if not closes.any():
            return None
        i, j = divmod(int(np.argmax(closes)), m)
        k = int(np.argmax(beats[j] & beats[:, i]))
        return tuple(map(eda.Population(g, choices).strategy, (i, j, k)))

    if rng is None:
        rng = np.random.default_rng(0)
    table = eda._threshold_table(g, eda.uniform_vector(g, 0.0))
    interior = np.array(g.interior, dtype=np.int32)
    block = max(1, 2**16 // (3 * len(interior)))  # triples drawn and played at once
    # Triple t is columns 3t + (0, 1, 2), a, b and c; it plays a-b, b-a, b-c, c-b, c-a and a-c.
    pairs = np.array([[0, 1, 1, 2, 2, 0], [1, 0, 2, 1, 0, 2]])
    for lo in range(0, triples, block):
        size = min(block, triples - lo)
        choices = np.zeros((g.n, 3 * size), dtype=dtype)
        slots = eda._sample_choice_matrix(table, rng, np.tile(interior, 3 * size))
        choices[interior] = slots.reshape(3 * size, len(interior)).T
        first, second = (pairs[:, :, None] + 3 * np.arange(size)).reshape(2, 6 * size)
        outcome = eda._play_matrices(g, choices[:, first], choices[:, second]).reshape(3, 2, size)
        hit = np.flatnonzero(((outcome[:, 0] == 1) & (outcome[:, 1] == -1)).all(axis=0))
        if len(hit):
            population = eda.Population(g, choices)
            return tuple(population.strategy(3 * int(hit[0]) + i) for i in range(3))
    return None


def describe_intransitivity_witness(witness, nim_params: tuple[int, int] | None = None) -> dict:
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
