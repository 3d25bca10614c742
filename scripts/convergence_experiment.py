#!/usr/bin/env python3
"""Replicated convergence runs of the self-play optimiser on one game.

Reproduces the headline desk-scale experiment: the heap game with n=16,
k=2, border 1/(20*2*16), across a population grid, 20 replicates each.
Writes a canonical CSV and prints a per-mu success table.

Usage:
    python scripts/convergence_experiment.py --out results/convergence.csv
    python scripts/convergence_experiment.py --n 32 --k 2 --mu-grid 256,1024,4096
"""

import argparse
import statistics
from collections import defaultdict

from coevo.cli import mu_grid, nonnegative_int, positive_int
from coevo.eda import STOP_RULES
from coevo.games import GameSpec
from coevo.harness import ExperimentConfig, run_experiment, write_records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=positive_int, default=16)
    parser.add_argument("--k", type=positive_int, default=2)
    parser.add_argument("--mu-grid", type=mu_grid, default="256,1024,4096")
    parser.add_argument("--replicates", type=positive_int, default=20)
    parser.add_argument("--seed", type=nonnegative_int, default=160216)
    parser.add_argument("--max-gen", type=positive_int, default=10_000)
    parser.add_argument("--stop", choices=("exact", "sufficient"), default="exact")
    parser.add_argument("--out", default="convergence.csv")
    parser.add_argument("--timings", action="store_true")
    args = parser.parse_args()

    cfg = ExperimentConfig(
        game=GameSpec("subtraction_nim", {"n": args.n, "k": args.k}),
        mu_grid=args.mu_grid,
        gamma_rule="theorem",
        replicates=args.replicates,
        base_seed=args.seed,
        max_generations=args.max_gen,
        stop_rule=STOP_RULES[args.stop],
    )
    records = run_experiment(cfg)
    write_records(args.out, records, include_timings=args.timings)

    by_mu = defaultdict(list)
    for rec in records:
        by_mu[rec.mu].append(rec)
    print(f"game=subtraction_nim(n={args.n}, k={args.k})  gamma={records[0].gamma:.3g}")
    print(f"{'mu':>8} {'success':>9} {'median gens':>12} {'median evals':>13}")
    for mu in sorted(by_mu):
        rows = by_mu[mu]
        gens = statistics.median(r.generations for r in rows)
        evals = statistics.median(r.evaluations for r in rows)
        wins = sum(r.success for r in rows)
        print(f"{mu:>8} {wins:>4}/{len(rows):<4} {gens:>12} {evals:>13}")
    failures = [(r.mu, r.seed) for r in records if not r.success]
    if failures:
        print(f"failed runs (mu, seed): {failures}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
