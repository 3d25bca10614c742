"""Command line entry point.

Subcommands: gen | solve | run | sweep | switch | analyze | intrans.
Exit codes: 0 success, 1 usage error, 2 runtime error. Every subcommand
returns its JSON payload and :func:`cli` writes it, deterministically and
in one place: atomically to ``--out``, else to stdout. A command that
fails writes no JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import eda, grundy, harness, oracles, switchability
from .games import FAMILIES, FIXTURE_NAMES, BadParams, GameSpec
from .graphs import game_from_dict, game_to_dict, to_dot
from .ioutil import atomic_write_text

#: Families given by ``--family`` with their integer parameters, and the
#: parameter flags in order of first use (``--n``, ``--k``, ``--m``).
_GAME_FAMILIES = {name: params for name, (_, params) in FAMILIES.items() if name != "fixture"}
_PARAM_FLAGS = tuple(dict.fromkeys(p for params in _GAME_FAMILIES.values() for p in params))


def _add_game_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--game", help="path to a game JSON file")
    parser.add_argument("--family", choices=sorted(_GAME_FAMILIES))
    for name in _PARAM_FLAGS:
        parser.add_argument(f"--{name}", type=int)
    parser.add_argument("--fixture", choices=FIXTURE_NAMES)
    parser.add_argument("--out", help="output path (stdout when omitted)")


def _add_run_arguments(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=_border)
    group.add_argument("--gamma-theorem", action="store_true")
    parser.add_argument("--max-gen", type=positive_int, default=10_000)
    parser.add_argument("--seed", type=nonnegative_int, default=0)
    parser.add_argument("--stop", choices=tuple(eda.STOP_RULES), default="exact")


def _spec(family: str, params: dict, source: str) -> GameSpec:
    try:
        return GameSpec(family, params)
    except BadParams as exc:
        raise UsageError(f"{source}: {exc}") from None


def _resolve_game(args) -> tuple:
    """Returns (graph, spec-or-None). Exactly one source must be given, and
    only the parameter flags that source takes."""
    if sum(map(bool, (args.game, args.family, args.fixture))) != 1:
        raise UsageError("give exactly one of --game, --family, or --fixture")
    params = {name: getattr(args, name) for name in _PARAM_FLAGS if getattr(args, name) is not None}
    if args.family:
        spec = _spec(args.family, params, "--family")
        return spec.build(), spec
    if params:
        raise UsageError(f"--{'game' if args.game else 'fixture'} takes no --{next(iter(params))}")
    if args.game:
        with open(args.game) as fh:
            return game_from_dict(json.load(fh)), None
    spec = GameSpec("fixture", {"name": args.fixture})
    return spec.build(), spec


class UsageError(Exception):
    pass


def _int_at_least(low: int, text: str) -> int:
    if not text.strip().isdigit() or int(text) < low:
        raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")
    return int(text)


def positive_int(text: str) -> int:
    return _int_at_least(1, text)


def nonnegative_int(text: str) -> int:
    return _int_at_least(0, text)


def mu_grid(text: str) -> tuple[int, ...]:
    grid = tuple(positive_int(m) for m in text.split(","))
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError(f"expected strictly ascending values, got {text!r}")
    return grid


def _border(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite value of at least 0, got {text!r}")
    return value


def _instances(text: str) -> list[dict]:
    grid = []
    for chunk in text.split(";"):
        pairs = [pair.partition("=") for pair in chunk.split(",")]
        try:
            params = {key.strip(): int(value) for key, _, value in pairs}
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected KEY=INT pairs, got {chunk!r}") from None
        if len(params) != len(pairs):
            raise argparse.ArgumentTypeError(f"expected each key once, got {chunk!r}")
        grid.append(params)
    return grid


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> dict:
    g, _ = _resolve_game(args)
    if args.dot:
        atomic_write_text(args.dot, to_dot(g))
    return game_to_dict(g)


def _cmd_solve(args) -> dict:
    g, _ = _resolve_game(args)
    gd = grundy.grundy_values(g)
    first_player_win = gd.values[g.root] != 0
    canonical = None
    if first_player_win:
        x = grundy.canonical_optimal_strategy(g, gd)
        canonical = {str(v): w for v, w in sorted(x.choice.items())}
    return {
        "n": g.n,
        "root": g.root,
        "grundy": list(gd.values),
        "zero_set": sorted(gd.zero_set),
        "critical": sorted(gd.critical),
        "first_player_win": first_player_win,
        "canonical_strategy": canonical,
    }


def _cmd_run(args) -> dict:
    g, spec = _resolve_game(args)
    instance = eda.prepare(g)
    gamma = float(eda.theorem_border(g)) if args.gamma_theorem else args.gamma
    cfg = eda.UmdaConfig(
        mu=args.mu,
        gamma=gamma,
        max_generations=args.max_gen,
        seed=args.seed,
        stop_rule=eda.STOP_RULES[args.stop],
    )
    result = eda.run_umda(instance.graph, cfg, trace_every=args.trace_every, instance=instance)
    witness = None
    if result.optimal_witness is not None:
        witness = {str(v): w for v, w in sorted(result.optimal_witness.choice.items())}
    return {
        "config": {
            "game": spec.family if spec else args.game,
            "params": spec.params if spec else None,
            **dataclasses.asdict(cfg),
        },
        "extended": instance.graph is not g,
        "result": {
            "succeeded": result.succeeded,
            "generations": result.generations_used,
            "evaluations": result.evaluations,
            "optimal_witness": witness,
            "final_model": {
                "gamma": result.final_model.gamma,
                "dists": result.final_model.snapshot(),
            },
        },
        "trace": [{"generation": t, "model": snap} for t, snap in result.trace],
    }


def _cmd_sweep(args) -> dict:
    games = [_spec(args.family, params, "--instances") for params in args.instances]
    template = harness.ExperimentConfig(
        game=games[0],
        mu_grid=args.mu_grid,
        gamma_rule="theorem" if args.gamma_theorem else args.gamma,
        replicates=args.replicates,
        base_seed=args.seed,
        max_generations=args.max_gen,
        stop_rule=eda.STOP_RULES[args.stop],
    )
    summary = harness.sweep_scaling(games, template)
    csv_path, plot_path = harness.write_sweep(
        args.out_dir, summary, include_timings=args.timings
    )
    return {"rows": len(summary.records), "csv": csv_path, "plot": plot_path}


def _report_fields(r: switchability.SwitchabilityReport) -> dict:
    return {"exact": r.exact, "upper_bound": r.upper_bound, "value": r.value, "method": r.method}


def _cmd_switch(args) -> dict:
    g, _ = _resolve_game(args)
    if args.vertex is not None:
        if not 0 <= args.vertex < g.n:
            raise UsageError(f"--vertex {args.vertex} outside the game's vertices 0..{g.n - 1}")
        r = switchability.switchability_reports(g, [args.vertex], args.edge_limit)[args.vertex]
        witness = None if r.witness is None else sorted(list(e) for e in r.witness)
        return {"vertex": r.vertex, **_report_fields(r), "witness": witness}
    profile = switchability.switchability_profile(g, args.edge_limit)
    reports = {str(v): _report_fields(r) for v, r in sorted(profile.reports.items())}
    mode = profile.reports[g.root].method  # every report of one call shares its method
    return {"mode": mode, "s_bar": profile.s_bar, "s_hat": profile.s_hat, "reports": reports}


def _cmd_analyze(args) -> dict:
    g, _ = _resolve_game(args)
    if args.model:
        with open(args.model) as fh:
            model = eda.model_from_snapshot(g, json.load(fh))
    else:
        model = eda.uniform_model(g, gamma=0.0)
    analysis = oracles.analyze_model(g, model)
    return {
        "reach": {str(v): float(p) for v, p in sorted(analysis.reach.items())},
        "win": {str(v): float(p) for v, p in sorted(analysis.win.items())},
        "selection": {
            str(u): [float(p) for p in vec] for u, vec in sorted(analysis.selection.items())
        },
    }


def _cmd_intrans(args) -> dict:
    g, spec = _resolve_game(args)
    rng = np.random.default_rng(args.seed)
    witness = harness.intransitivity_search(g, triples=args.triples, rng=rng)
    nim_params = None
    if spec and spec.family == "subtraction_nim":
        nim_params = (spec.params["n"], spec.params["k"])
    return harness.describe_intransitivity_witness(witness, nim_params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coevo",
        description="Impartial-game solvers and coevolutionary self-play experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a game graph as JSON")
    _add_game_arguments(p)
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("solve", help="Grundy values, critical set, canonical strategy")
    _add_game_arguments(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("run", help="run the self-play optimiser once")
    _add_game_arguments(p)
    p.add_argument("--mu", type=positive_int, required=True)
    _add_run_arguments(p)
    p.add_argument("--trace-every", type=nonnegative_int, default=0)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sweep", help="replicate grid across game instances")
    p.add_argument("--family", choices=sorted(_GAME_FAMILIES), required=True)
    p.add_argument("--instances", type=_instances, required=True, help='e.g. "n=8,k=2;n=16,k=2"')
    p.add_argument("--mu-grid", type=mu_grid, required=True, help='e.g. "256,1024"')
    p.add_argument("--replicates", type=positive_int, default=5)
    _add_run_arguments(p)
    p.add_argument("--timings", action="store_true", help="include wall_ms in the CSV")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("switch", help="switchability report")
    _add_game_arguments(p)
    p.add_argument("--vertex", type=int)
    p.add_argument("--edge-limit", type=nonnegative_int, default=20)
    p.set_defaults(handler=_cmd_switch)

    p = sub.add_parser("analyze", help="visit/win/selection analysis of a model")
    _add_game_arguments(p)
    p.add_argument("--model", help="model snapshot JSON (uniform when omitted)")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("intrans", help="search for an intransitive strategy triple")
    _add_game_arguments(p)
    p.add_argument("--triples", type=positive_int, default=1000)
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.set_defaults(handler=_cmd_intrans)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _emit(args.handler(args), getattr(args, "out", None))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 2
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
