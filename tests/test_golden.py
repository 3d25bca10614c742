"""Seeded outputs pinned, for the engine and for the eager reference.

Each case hashes everything a run reports: final model, trace snapshots,
witness, generation and evaluation counts. ``EAGER_RUNS`` holds the
digests pinned before the lazy engine, on the engine that drew two
complete choice matrices per generation; ``helpers.run_umda_eager`` still
reproduces them. ``GOLDEN_RUNS`` pins the lazy engine on the same cases:
it draws a different stream (only the entries a generation reads, then a
multinomial fill), so its digests were recorded once when it replaced the
eager engine. Population sizes are not powers of two, so the frequencies
``count / mu`` are not exact binary fractions. A change in the order of
the restriction's float sums moves a model entry only now and then, so
``test_eda`` checks that order bit for bit against a one-vector reference:
the engine sums each vertex's row of the edge vector as numpy sums the row
alone. The multinomial fill draws the vertices in id order. It drew them by
degree and then by id until the digests of chomp m=4, chomp m=5 mu=3000 and
silver dollar m=7 k=3 were recorded again for the id order; on the nim cases
the two orders agree, and the experiment CSV and the ``run`` JSON, both on
nim, kept their digests. The three ``converge`` rungs of the benchmark run
on the lazy engine only; the eager reference would take seconds each.
"""

import hashlib
import json

import numpy as np
import pytest

from coevo.cli import cli
from coevo.eda import UmdaConfig, run_umda, theorem_border
from coevo.games import GameSpec, chomp, nim_encode, silver_dollar, subtraction_nim
from coevo.grundy import ensure_first_player_win
from coevo.harness import ExperimentConfig, intransitivity_search, records_to_csv, run_experiment
from helpers import run_umda_eager


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _run_digest(base, mu, gamma, max_generations, seed, stop_rule, trace_every, run=run_umda):
    g = ensure_first_player_win(base)
    cfg = UmdaConfig(
        mu=mu, gamma=gamma, max_generations=max_generations, seed=seed, stop_rule=stop_rule
    )
    result = run(g, cfg, trace_every=trace_every)
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


CASES = {
    # name: (game, mu, gamma, max_generations, seed, stop_rule, trace_every)
    "nim n=10 k=2": (subtraction_nim(10, 2), 5, 1 / 400, 300, 0, "exact_optimal", 10),
    "chomp m=4": (chomp(4), 200, float(theorem_border(chomp(4))), 60, 1, "exact_optimal", 2),
    "silver dollar m=7 k=3": (
        silver_dollar(7, 3), 96, float(theorem_border(silver_dollar(7, 3))), 40, 3, "sufficient_optimal", 4
    ),
    # At mu=3000 one eager choice matrix spanned several of the eager
    # sampler's row blocks, and a degree of 270 makes the slots uint16.
    "chomp m=5 mu=3000": (chomp(5), 3000, float(theorem_border(chomp(5))), 3, 5, "generation_cap_only", 1),
    "nim n=300 k=270": (
        subtraction_nim(300, 270), 40, float(theorem_border(subtraction_nim(300, 270))), 4, 2,
        "generation_cap_only", 2,
    ),
    # The benchmark's `converge` rungs: long game paths at a large mu, run
    # to a verified optimum, so every move of the playout and every level of
    # the exact stop check is pinned where they cost the most.
    **{
        name: (base, 1024, float(theorem_border(base)), 2000, 0, "exact_optimal", 0)
        for name, base in (
            ("nim n=64 k=2", subtraction_nim(64, 2)),
            ("nim n=48 k=3", subtraction_nim(48, 3)),
            ("silver dollar m=8 k=3", silver_dollar(8, 3)),
        )
    },
}
EAGER_RUNS = {
    "nim n=10 k=2": "3390e596934532a051a4bed98dac3044a4a961bb2e574a0bd145ec47b26a37a2",
    "chomp m=4": "7e71664758f01452898351eab430b236beb123755706bc6d1cc540458659a4be",
    "silver dollar m=7 k=3": "7444f5eecba09a0ce23b92cdd9aeb265e056bf0e7154fba2b3bfcafa87348882",
    "chomp m=5 mu=3000": "d92a2a631bcf1db1efabe56eb953c4bfb7d64d0d6818bf7c2f2bcfc244327c0b",
    "nim n=300 k=270": "cd701c146c6afad17161ff73c2da1cca646bfb8034044d6bd588ad4f1dab9387",
}
GOLDEN_RUNS = {
    "nim n=10 k=2": "9a29a99ada1a1cf9c84958db33e9cbef72021c752b8125628a3adf8f0b1bca68",
    "chomp m=4": "6e07b020d207f13ae28bbbd694e05750e5c06d3db218a45fbf91b658fcde02fd",
    "silver dollar m=7 k=3": "3f2a035d770e24f0e10a4ed1c4d4f00588b6361149dd8942a26f53816fb61472",
    "chomp m=5 mu=3000": "f5e7a0f19a3c25a6757c854d78a71c387d81cf21f98abc5870ff834f948acdd3",
    "nim n=300 k=270": "756d00c7e8e5ca04534f7fa84514b7641c3d45784e41fff08d7f2eb63bd14e06",
    "nim n=64 k=2": "0010490050a7632dfcbd6a01fc43352721285c195799990db1e20ff7ff3021ef",
    "nim n=48 k=3": "584ec57062174809102350d2102d3a4aa23f6f05c803901cef9a4b32f1e4ee0c",
    "silver dollar m=8 k=3": "f9552752a8b646e86437a7e807f9ad205688d4b9677f278b61a57b8ef0a2bc4b",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_umda_golden(name):
    assert _run_digest(*CASES[name]) == GOLDEN_RUNS[name]


@pytest.mark.parametrize("name", sorted(EAGER_RUNS))
def test_run_umda_eager_golden(name):
    assert _run_digest(*CASES[name], run=run_umda_eager) == EAGER_RUNS[name]


# The canonical CSV of run_experiment on nim k=2 over a 2 × 2 grid: n=10 has a
# Grundy-0 root and runs on the forced start, n=11 runs on the game as built.
EXPERIMENT_CSV = {
    10: "3afe62b4567f3836016e09799b829bdb3832b9d0a25acc12c7134ebafa70cb57",
    11: "b0eed077b276a4ad8cd14e34d56a179fd7d81a6ff1482f2efe2c4f7e27d711cd",
}


@pytest.mark.parametrize("n", sorted(EXPERIMENT_CSV))
def test_run_experiment_csv_golden(n):
    cfg = ExperimentConfig(
        game=GameSpec("subtraction_nim", {"n": n, "k": 2}), mu_grid=(8, 24),
        gamma_rule="theorem", replicates=2, base_seed=5, max_generations=200,
    )
    text = records_to_csv(run_experiment(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPERIMENT_CSV[n]


def test_cli_run_forced_start_golden(capsys):
    argv = [
        "run", "--family", "subtraction_nim", "--n", "10", "--k", "2", "--mu", "6",
        "--gamma-theorem", "--max-gen", "60", "--seed", "3", "--trace-every", "1",
    ]
    assert cli(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["extended"] is True
    digest = "e848db36a00a4ecc7332943c65a02f4727b2ab4a6e912687d04889fcc4d92e46"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_intransitivity_sampled_golden():
    # Each triple is drawn at every interior vertex in turn and played as
    # columns; the witness equals the one the scalar player found.
    g = subtraction_nim(14, 2)
    witness = intransitivity_search(g, triples=500, rng=np.random.default_rng(3))
    assert [nim_encode(x, 14, 2) for x in witness] == [
        "1222222211112",
        "1221112112121",
        "1211111221122",
    ]
