"""Seeded outputs pinned to the values the engine produced before the
successor-slot layout.

Each case hashes everything a run reports: final model, trace snapshots,
witness, generation and evaluation counts. Population sizes are not
powers of two, so the frequencies ``count / mu`` are not exact binary
fractions. A change in the order of the restriction's float sums moves a
model entry only now and then, so ``test_eda`` checks that order bit for
bit against a one-vector reference.
"""

import hashlib
import json

import numpy as np
import pytest

from coevo.eda import UmdaConfig, run_umda
from coevo.games import chomp, nim_encode, silver_dollar, subtraction_nim
from coevo.grundy import ensure_first_player_win
from coevo.harness import intransitivity_search


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _theorem_gamma(g) -> float:
    return 1 / (20 * g.max_degree * g.n)


def _run_digest(base, mu, gamma, max_generations, seed, stop_rule, trace_every):
    g = ensure_first_player_win(base)
    cfg = UmdaConfig(
        mu=mu, gamma=gamma, max_generations=max_generations, seed=seed, stop_rule=stop_rule
    )
    result = run_umda(g, cfg, trace_every=trace_every)
    witness = result.optimal_witness
    return _digest(
        {
            "generations": result.generations_used,
            "evaluations": result.evaluations,
            "succeeded": result.succeeded,
            "model": result.final_model.snapshot(),
            "trace": [[t, snap] for t, snap in result.trace],
            "witness": None if witness is None else {str(v): w for v, w in witness.choice.items()},
        }
    )


GOLDEN_RUNS = {
    # name: (game, mu, gamma, max_generations, seed, stop_rule, trace_every), sha256
    "nim n=10 k=2": (
        (subtraction_nim(10, 2), 5, 1 / 400, 300, 0, "exact_optimal", 10),
        "3390e596934532a051a4bed98dac3044a4a961bb2e574a0bd145ec47b26a37a2",
    ),
    "chomp m=4": (
        (chomp(4), 200, _theorem_gamma(chomp(4)), 60, 1, "exact_optimal", 2),
        "7e71664758f01452898351eab430b236beb123755706bc6d1cc540458659a4be",
    ),
    "silver dollar m=7 k=3": (
        (silver_dollar(7, 3), 96, _theorem_gamma(silver_dollar(7, 3)), 40, 3,
         "sufficient_optimal", 4),
        "7444f5eecba09a0ce23b92cdd9aeb265e056bf0e7154fba2b3bfcafa87348882",
    ),
    # The two cases below were pinned on the per-vertex searchsorted sampler:
    # at mu=3000 one choice matrix spans several of the sampler's row blocks,
    # and a degree of 270 makes the slots uint16.
    "chomp m=5 mu=3000": (
        (chomp(5), 3000, _theorem_gamma(chomp(5)), 3, 5, "generation_cap_only", 1),
        "d92a2a631bcf1db1efabe56eb953c4bfb7d64d0d6818bf7c2f2bcfc244327c0b",
    ),
    "nim n=300 k=270": (
        (subtraction_nim(300, 270), 40, _theorem_gamma(subtraction_nim(300, 270)), 4, 2,
         "generation_cap_only", 2),
        "cd701c146c6afad17161ff73c2da1cca646bfb8034044d6bd588ad4f1dab9387",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_umda_golden(name):
    args, expected = GOLDEN_RUNS[name]
    assert _run_digest(*args) == expected


def test_intransitivity_sampled_golden():
    g = subtraction_nim(14, 2)
    witness = intransitivity_search(g, triples=500, rng=np.random.default_rng(3))
    assert [nim_encode(x, 14, 2) for x in witness] == [
        "1222222211112",
        "1221112112121",
        "1211111221122",
    ]
