#!/usr/bin/env python3
"""In-process timings of the engine's per-run and per-generation steps.

For each game, prints the minimum over ``--repeat`` runs, in ms, of
``eda.prepare`` on the built game, ``eda.uniform_vector`` on its run graph
and one ``eda.generation_step`` from that uniform edge vector (a fresh
seeded generator each run, so every run does the same work). The border is
the theorem border of the game as built, as in ``harness.run_experiment``.
``peak_mb`` is the traced peak (``tracemalloc``, in 10^6 bytes) of one more
generation, untimed, after the timed ones. ``faults_per_gen`` is the minor
page faults (``ru_minflt``) of a 10-generation cap-rule ``eda.run_umda``,
less those of a 1-generation one, over 9: what a generation after a run's
first costs in freshly mapped memory. One untimed 1-generation run goes
first, so neither counted run pays the process's first use of its heap.

Usage:
    python scripts/engine_timing.py
    python scripts/engine_timing.py --repeat 1
"""

import argparse
import resource
import time
import tracemalloc
from dataclasses import replace

import numpy as np

from coevo import eda
from coevo.cli import positive_int
from coevo.games import GameSpec

# (game, mu, stop rule): the `converge` benchmark's largest rung, the
# many-degree game, the `wide` benchmark game and a path-heavy one. The
# `converge` rung goes first: once glibc frees a large mapped block it serves
# blocks up to that size from its heap, so after chomp m=6 the rung's faults
# would be counted on a warmer heap than a `converge` benchmark process has.
GAMES = [
    (GameSpec("subtraction_nim", {"n": 64, "k": 2}), 1024, "exact_optimal"),
    (GameSpec("subtraction_nim", {"n": 300, "k": 270}), 40, "generation_cap_only"),
    (GameSpec("chomp", {"m": 6}), 4096, "exact_optimal"),
    (GameSpec("subtraction_nim", {"n": 256, "k": 2}), 1024, "exact_optimal"),
]
SEED = 0


def best_ms(repeat: int, step) -> float:
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        step()
        times.append(time.perf_counter() - started)
    return min(times) * 1e3


def faults_per_generation(instance: eda.Instance, cfg: eda.UmdaConfig) -> float:
    def faults(generations: int) -> int:
        run_cfg = replace(cfg, max_generations=generations, stop_rule="generation_cap_only")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        eda.run_umda(instance.graph, run_cfg, instance=instance)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(1)
    one = faults(1)
    return (faults(10) - one) / 9


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=positive_int, default=7)
    args = parser.parse_args()

    print(
        f"{'game':<28} {'mu':>5} {'prepare_ms':>11} {'uniform_ms':>11} {'generation_ms':>14} {'peak_mb':>8}"
        f" {'faults_per_gen':>15}"
    )
    for spec, mu, stop_rule in GAMES:
        base = spec.build()
        instance = eda.prepare(base)
        g, gamma = instance.graph, float(eda.theorem_border(base))
        cfg = eda.UmdaConfig(mu, gamma, max_generations=1, seed=SEED, stop_rule=stop_rule)
        p = eda.uniform_vector(g, gamma)
        prepare_ms = best_ms(args.repeat, lambda: eda.prepare(base))
        uniform_ms = best_ms(args.repeat, lambda: eda.uniform_vector(g, gamma))
        generation_ms = best_ms(
            args.repeat, lambda: eda.generation_step(instance, p, cfg, np.random.default_rng(SEED))
        )
        rng = np.random.default_rng(SEED)
        tracemalloc.start()
        eda.generation_step(instance, p, cfg, rng)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        faults = faults_per_generation(instance, cfg)
        name = f"{spec.family} " + " ".join(f"{k}={v}" for k, v in spec.params.items())
        print(
            f"{name:<28} {mu:>5} {prepare_ms:>11.3f} {uniform_ms:>11.3f} {generation_ms:>14.3f} {peak_mb:>8.2f}"
            f" {faults:>15.1f}"
        )


if __name__ == "__main__":
    main()
