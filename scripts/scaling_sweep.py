#!/usr/bin/env python3
"""Desk-scale scaling sweeps across the four benchmark families.

For each family, runs a replicate grid over a ladder of instance sizes
and emits a CSV plus a plot-description JSON (median evaluations against
the number of positions, next to the theorem-shaped budget curve).

Usage:
    python scripts/scaling_sweep.py --out-dir results/
    python scripts/scaling_sweep.py --families subtraction_nim,chomp --replicates 10
"""

import argparse
from pathlib import Path

from coevo.cli import mu_grid, nonnegative_int, positive_int
from coevo.games import GameSpec
from coevo.harness import ExperimentConfig, sweep_scaling, write_sweep

LADDERS = {
    "subtraction_nim": [{"n": 8, "k": 2}, {"n": 16, "k": 2}, {"n": 32, "k": 2}, {"n": 64, "k": 2}],
    "silver_dollar": [{"m": 5, "k": 2}, {"m": 7, "k": 2}, {"m": 9, "k": 2}],
    "turning_turtles": [{"m": 3}, {"m": 4}, {"m": 5}],
    "chomp": [{"m": 2}, {"m": 3}, {"m": 4}],
}


def families(text: str) -> list[str]:
    names = text.split(",")
    for name in names:
        if name not in LADDERS:
            raise argparse.ArgumentTypeError(
                f"unknown family {name!r}; expected some of {','.join(LADDERS)}"
            )
    return names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", type=families, default=",".join(LADDERS))
    parser.add_argument("--mu-grid", type=mu_grid, default="256,1024")
    parser.add_argument("--replicates", type=positive_int, default=5)
    parser.add_argument("--seed", type=nonnegative_int, default=0)
    parser.add_argument("--max-gen", type=positive_int, default=20_000)
    parser.add_argument("--out-dir", default="sweep_results")
    args = parser.parse_args()

    out_root = Path(args.out_dir)
    for family in args.families:
        ladder = [GameSpec(family, params) for params in LADDERS[family]]
        template = ExperimentConfig(
            game=ladder[0],
            mu_grid=args.mu_grid,
            gamma_rule="theorem",
            replicates=args.replicates,
            base_seed=args.seed,
            max_generations=args.max_gen,
        )
        summary = sweep_scaling(ladder, template)
        csv_path, plot_path = write_sweep(out_root / family, summary)
        solved = sum(r.success for r in summary.records)
        print(f"{family}: {solved}/{len(summary.records)} runs converged -> {csv_path}, {plot_path}")


if __name__ == "__main__":
    main()
