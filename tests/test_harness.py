import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coevo import eda, grundy
from coevo.games import GameSpec, fixture, nim_encode, subtraction_nim
from coevo.graphs import build_graph, play, strategy_space_size
from coevo.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    describe_intransitivity_witness,
    intransitivity_search,
    records_to_csv,
    run_experiment,
    sweep_scaling,
    write_sweep,
)
from helpers import intransitivity_search_scalar, random_game, records_from_csv


def _chain_config(**overrides):
    base = dict(
        game=GameSpec("fixture", {"name": "chain3"}),
        mu_grid=(1,),
        gamma_rule=0.1,
        replicates=1,
        base_seed=5,
        max_generations=50,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_single_row_forced_game():
    records = run_experiment(_chain_config())
    assert len(records) == 1
    rec = records[0]
    assert rec.success == 1
    assert rec.generations == 1
    assert rec.evaluations == 1
    assert rec.mu == 1


@pytest.mark.parametrize("n", [10, 11])  # n=10 needs the forced start, n=11 does not
def test_one_grundy_pass_per_experiment_outside_the_runs(monkeypatch, n):
    calls = {"outside": 0, "inside": 0}
    inner_values, inner_run = grundy.grundy_values, eda.run_umda
    where = ["outside"]

    def values(g):
        calls[where[0]] += 1
        return inner_values(g)

    def run(*args, **kwargs):
        where[0] = "inside"
        try:
            return inner_run(*args, **kwargs)
        finally:
            where[0] = "outside"

    monkeypatch.setattr(grundy, "grundy_values", values)
    monkeypatch.setattr(eda, "run_umda", run)
    cfg = ExperimentConfig(
        game=GameSpec("subtraction_nim", {"n": n, "k": 2}),
        mu_grid=(16, 32),
        gamma_rule=0.05,
        replicates=2,
        max_generations=5,
    )
    records = run_experiment(cfg)
    assert len(records) == 4
    assert calls == {"outside": 1, "inside": 4}


def test_records_shape_and_accounting():
    cfg = ExperimentConfig(
        game=GameSpec("subtraction_nim", {"n": 16, "k": 2}),
        mu_grid=(64, 128),
        gamma_rule="theorem",
        replicates=2,
        base_seed=123,
        max_generations=3000,
    )
    records = run_experiment(cfg)
    assert len(records) == 4
    for rec in records:
        assert rec.family == "subtraction_nim"
        assert rec.params == "k=2;n=16"
        assert rec.n == 16
        assert rec.delta == 2
        assert rec.evaluations == rec.mu * rec.generations
        assert rec.success in (0, 1)
        assert rec.gamma == pytest.approx(1 / (20 * 2 * 16))
    seeds = {(r.mu, r.replicate): r.seed for r in records}
    assert len(set(seeds.values())) == 4  # every run gets its own stream


def test_theorem_budget_column():
    cfg = ExperimentConfig(
        game=GameSpec("subtraction_nim", {"n": 8, "k": 2}),
        mu_grid=(16,),
        replicates=1,
        base_seed=1,
        max_generations=500,
    )
    rec = run_experiment(cfg)[0]
    base = 20 * 2 * 8
    s_bar = 1  # exact profile: every vertex has a depth-1 switcher
    expected = (1 + s_bar + 1) * base ** (2 + 3 * s_bar) * math.log(8) ** 2
    assert rec.theorem_eval_budget == pytest.approx(expected)
    assert rec.s_mode == "exact_search"


def test_experiment_deterministic_replay():
    cfg = ExperimentConfig(
        game=GameSpec("subtraction_nim", {"n": 10, "k": 2}),
        mu_grid=(32, 64),
        gamma_rule=1 / 400,
        replicates=3,
        base_seed=77,
        max_generations=2000,
    )
    first = records_to_csv(run_experiment(cfg))
    second = records_to_csv(run_experiment(cfg))
    assert first == second


def test_csv_columns_and_timings_flag():
    records = run_experiment(_chain_config())
    plain = records_to_csv(records)
    assert plain.splitlines()[0] == ",".join(CSV_COLUMNS)
    timed = records_to_csv(records, include_timings=True)
    assert timed.splitlines()[0].endswith(",wall_ms")


def test_csv_round_trip():
    cfg = ExperimentConfig(
        game=GameSpec("subtraction_nim", {"n": 10, "k": 2}),
        mu_grid=(16, 32),
        gamma_rule="theorem",
        replicates=2,
        base_seed=21,
        max_generations=1000,
    )
    records = run_experiment(cfg)
    parsed = records_from_csv(records_to_csv(records))
    stripped = [r.__dict__ | {"wall_ms": 0.0} for r in records]
    assert [p.__dict__ for p in parsed] == stripped


def test_config_validation():
    with pytest.raises(ValueError):
        _chain_config(mu_grid=(8, 4))
    with pytest.raises(ValueError):
        _chain_config(replicates=0)


def test_sweep_scaling_nim(tmp_path):
    template = ExperimentConfig(
        game=GameSpec("subtraction_nim", {"n": 8, "k": 2}),
        mu_grid=(32,),
        gamma_rule="theorem",
        replicates=2,
        base_seed=9,
        max_generations=2000,
    )
    summary = sweep_scaling(
        [GameSpec("subtraction_nim", {"n": n, "k": 2}) for n in (8, 16)], template
    )
    assert sorted({r.n for r in summary.records}) == [8, 16]
    assert {r.delta for r in summary.records} == {2}
    names = [s["name"] for s in summary.plot["series"]]
    assert names == ["median-evaluations-mu32", "theorem-budget"]
    assert summary.plot["series"][0]["x"] == [8, 16]
    assert summary.plot["xscale"] == "log"

    csv_path, plot_path = write_sweep(tmp_path, summary)
    data = json.loads(Path(plot_path).read_text())
    assert data["ylabel"] == "evaluations"
    assert Path(csv_path).read_text().startswith(",".join(CSV_COLUMNS))


def test_sweep_census_columns():
    template = ExperimentConfig(
        game=GameSpec("chomp", {"m": 2}),
        mu_grid=(16,),
        gamma_rule="theorem",
        replicates=1,
        base_seed=3,
        max_generations=500,
    )
    summary = sweep_scaling([GameSpec("chomp", {"m": 2}), GameSpec("chomp", {"m": 3})], template)
    assert sorted({r.n for r in summary.records}) == [5, 19]

    summary = sweep_scaling(
        [GameSpec("turning_turtles", {"m": 3}), GameSpec("turning_turtles", {"m": 4})], template
    )
    by_n = {r.n: r.delta for r in summary.records}
    assert set(by_n) == {8, 16}
    assert by_n[8] <= 6 and by_n[16] <= 10


def test_sweep_repeated_instance_gets_its_own_point():
    spec = GameSpec("subtraction_nim", {"n": 32, "k": 2})
    template = ExperimentConfig(
        game=spec,
        mu_grid=(64,),
        gamma_rule="theorem",
        replicates=3,
        base_seed=2,
        max_generations=40,
    )
    summary = sweep_scaling([spec, spec], template)
    first, second = summary.records[:3], summary.records[3:]
    assert {r.seed for r in first}.isdisjoint(r.seed for r in second)
    medians = [float(np.median([r.evaluations for r in rows])) for rows in (first, second)]
    assert medians[0] != medians[1]  # pooling both copies would give one shared median
    assert summary.plot["series"][0]["y"] == medians
    assert summary.plot["series"][0]["x"] == [32, 32]


def test_intransitivity_exhaustive_nim():
    g = subtraction_nim(7, 2)
    started = time.perf_counter()
    witness = intransitivity_search(g)
    assert time.perf_counter() - started < 1.0
    assert witness is not None
    a, b, c = witness
    for first, second in ((a, b), (b, c), (c, a)):
        assert play(g, first, second).winner == 1
        assert play(g, second, first).winner == -1


def test_intransitivity_exhaustive_matches_the_scalar_search():
    # Played as columns, the exhaustive search returns the same first cycle
    # (or none) as the scalar player did.
    rng = np.random.default_rng(47)
    games = [subtraction_nim(7, 2), subtraction_nim(6, 3), fixture("fig1")]
    games += [g for g in (random_game(rng, n_max=9) for _ in range(60)) if strategy_space_size(g) <= 64]
    found = 0
    for g in games:
        got, want = intransitivity_search(g), intransitivity_search_scalar(g)
        assert (got is None) == (want is None)
        if got is not None:
            found += 1
            assert [x.choice for x in got] == [x.choice for x in want]
    assert found >= 3 and len(games) >= 30


def test_intransitivity_none_on_trivial_games():
    chain = fixture("chain3")
    assert intransitivity_search(chain) is None
    tiny = build_graph({0: [1], 1: []}, root=0)
    assert intransitivity_search(tiny) is None


def test_intransitivity_sampled_mode():
    g = subtraction_nim(10, 2)  # 256 strategies: above the exhaustive limit of 64
    rng = np.random.default_rng(7)
    witness = intransitivity_search(g, triples=5000, rng=rng)
    assert witness is not None
    a, b, c = witness
    for first, second in ((a, b), (b, c), (c, a)):
        assert play(g, first, second).winner == 1
        assert play(g, second, first).winner == -1


def test_describe_witness_with_nim_strings():
    g = subtraction_nim(7, 2)
    witness = intransitivity_search(g)
    payload = describe_intransitivity_witness(g, witness, nim_params=(7, 2))
    assert payload["found"]
    assert len(payload["nim_strings"]) == 3
    for s, x in zip(payload["nim_strings"], witness):
        assert s == nim_encode(x, 7, 2)
    assert describe_intransitivity_witness(g, None) == {
        "found": False,
        "strategies": None,
    }


def test_csv_round_trip_comma_in_params():
    (record,) = run_experiment(_chain_config())
    record = replace(record, family="custom", params='path=games/a,b "c".json', wall_ms=0.0)
    text = records_to_csv([record])
    assert text.count("\n") == 2
    assert records_from_csv(text) == [record]
