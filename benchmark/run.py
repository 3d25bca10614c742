"""Benchmark of the coevo package: one workload per process.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload converge --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record (machine facts, working set, samples,
problems) goes to ``.bench_out/`` in the checkout. The exit code is 0
when every output check passed, 1 when one failed and 2 when the
benchmark could not run. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="tiny instances, for the self-test")
    parser.add_argument("--rss-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts["caches"][f"L{level}"] = size
    return facts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install_tracer():
    from coevo import eda, games, grundy, harness, oracles, switchability

    from tracing import Tracer

    def largest_game(c, args, g):
        if g.n > c["games.positions"]:
            c["games.positions"], c["games.moves"], c["games.max_degree"] = g.n, g.edge_count, g.max_degree

    def sampled(c, args, matrix):
        c["eda.sample.entries"] += matrix.size
        c["eda.sample.bytes"] += matrix.nbytes

    def stopped(c, args, mask):
        c["eda.stop.columns"] += args[1].shape[1]

    def critical(c, args, gd):
        c["grundy.critical"] = max(c["grundy.critical"], len(gd.critical))

    def s_bar(c, args, profile):
        c["switchability.s_bar"] = max(c["switchability.s_bar"], profile.s_bar)

    tracer = Tracer()
    tracer.wrap(games.GameSpec, "build", "games.build", largest_game)
    tracer.wrap(grundy, "grundy_values", "grundy.values", critical)
    tracer.wrap(switchability, "switchability_profile", "switchability.profile", s_bar)
    tracer.wrap(harness, "run_experiment", "harness.setup")
    tracer.wrap(eda, "run_umda", "eda.run", key=lambda args: hash(args[0]))
    tracer.wrap(eda, "generation_step", "eda.update")
    tracer.wrap(eda, "_sample_choice_matrix", "eda.sample", sampled)
    tracer.wrap(eda, "_playout", "eda.playout")
    tracer.wrap(eda, "restrict", "eda.restrict")
    tracer.wrap(eda, "population_optimal_mask", "eda.stop", stopped)
    tracer.wrap(oracles, "reach_probabilities", "oracles.reach")
    tracer.wrap(oracles, "win_probabilities", "oracles.win")
    tracer.wrap(oracles, "selection_distribution", "oracles.selection")
    tracer.wrap(oracles, "analyze_model", "oracles.analyze")
    return tracer


ENGINE_LAYERS = {
    "eda.sample_ms": "eda.sample",
    "eda.playout_ms": "eda.playout",
    "eda.update_ms": "eda.update",
    "eda.restrict_ms": "eda.restrict",
    "eda.stop_ms": "eda.stop",
}


def engine_layer_ms(tracer) -> dict:
    """Self ms per generation of each engine layer, in the fastest run.

    Per instance the optimiser run with the fewest ms per generation is
    taken, as for the untraced ``gen_ms``, and its time is split into the
    layers' self times. ``eda.run_self_ms`` is the rest of the run: its own
    code, its Grundy pass and its initial model, so the layers sum to
    ``eda.gen_ms_traced``. Values are means over instances.
    """
    fastest = {}
    for key, wall, inside, calls in tracer.breakdown("eda.run"):
        generations = calls["eda.update"]
        if generations and (key not in fastest or wall / generations < fastest[key][0]):
            fastest[key] = (wall / generations, inside, generations)
    values = dict.fromkeys([*ENGINE_LAYERS, "eda.run_self_ms", "eda.gen_ms_traced"], 0.0)
    for per_generation, inside, generations in fastest.values():
        layers = {metric: inside.get(layer, 0.0) * 1e3 / generations for metric, layer in ENGINE_LAYERS.items()}
        layers["eda.run_self_ms"] = per_generation * 1e3 - sum(layers.values())
        layers["eda.gen_ms_traced"] = per_generation * 1e3
        for metric, value in layers.items():
            values[metric] += value / len(fastest)
    return values


def layer_metrics(tracer, first_cycle: dict, tally, span_cost: float, traced_wall: float) -> dict:
    """Per-layer values of a traced run.

    Engine times are ms per generation, estimated like ``gen_ms``. Engine
    counts are per generation, and oracle times and counts are totals,
    over the first cycle of operations, which is the same work for a given
    seed. Games, grundy, switchability and harness times are ms per call.
    """
    own = tracer.self_seconds()
    first_own = tracer.self_seconds(first_cycle["spans"])
    counts, first = tracer.counts, first_cycle["counts"]
    first_generations = first.get("eda.update.calls", 0)

    def ms_per_call(name):
        calls = counts[name + ".calls"]
        return own.get(name, 0.0) * 1e3 / calls if calls else 0.0

    def first_cycle_per_generation(key):
        return first.get(key, 0) / first_generations if first_generations else 0.0

    values = {
        "games.build_ms": ms_per_call("games.build"),
        "games.positions": counts["games.positions"],
        "games.moves": counts["games.moves"],
        "games.max_degree": counts["games.max_degree"],
        "grundy.values_ms": ms_per_call("grundy.values"),
        "grundy.critical": counts["grundy.critical"],
        "switchability.profile_ms": ms_per_call("switchability.profile"),
        "switchability.s_bar": counts["switchability.s_bar"],
        "harness.setup_ms": ms_per_call("harness.setup"),
        **engine_layer_ms(tracer),
        "eda.sample.entries": first_cycle_per_generation("eda.sample.entries"),
        "eda.sample.bytes": first_cycle_per_generation("eda.sample.bytes"),
        "eda.restrict.calls": first_cycle_per_generation("eda.restrict.calls"),
        "eda.stop.columns": first_cycle_per_generation("eda.stop.columns"),
        "eda.generations": first_generations / first.get("eda.run.calls", 1),
        "eda.gen1_hits": tally.gen1_hits,
    }
    for layer in ("reach", "win", "selection", "analyze"):
        values[f"oracles.{layer}_ms"] = first_own.get(f"oracles.{layer}", 0.0) * 1e3
        if layer != "analyze":
            values[f"oracles.{layer}.calls"] = first.get(f"oracles.{layer}.calls", 0)
    values["trace.overhead_pct"] = 100.0 * span_cost * len(tracer.spans) / traced_wall
    values["trace.absent"] = len(tracer.absent)
    values["failed_share"] = tally.failed / tally.attempted
    return values


def fix_mmap_threshold() -> None:
    """Serve every allocation above 1 MiB by mmap, and return it on free.

    glibc raises its mmap threshold after large frees, up to 32 MiB, so
    whether a freed 30 MiB choice matrix stays in the heap depends on the
    allocation history, and peak RSS was seen to differ by one matrix
    between seeds. A fixed threshold makes peak RSS measure the arrays
    alive at once. Only the untimed memory pass sets it.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt(M_MMAP_THRESHOLD, 1 << 20)
    except (OSError, AttributeError):
        pass


def memory_pass(args) -> float:
    """Peak RSS in MB of one cycle of the workload's operations, in a child process.

    The child runs every operation once, checks its outputs as the timed
    run does, with the fixed mmap threshold, and prints its peak RSS.
    Linux carries the parent's peak RSS into a child's across exec, so
    this runs before the parent has imported or allocated anything large.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--rss-pass", *(["--tiny"] if args.tiny else []),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"memory pass exited with {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end_metrics(tally, names, memory_mb: float) -> tuple[dict, dict]:
    timed = [name for name in names if name in tally.samples]
    values = {name: tally.value(name) for name in timed}
    sample_counts = {name: tally.count(name) for name in timed}
    values["peak_rss_mb"] = memory_mb
    return values, sample_counts


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coevo" / "__init__.py").is_file():
        print(f"benchmark: no coevo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One single-threaded process per run: keep numpy's libraries off other cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if not args.trace and not args.rss_pass:
        try:
            memory_mb = memory_pass(args)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 2

    import workloads
    from tracing import span_cost_seconds

    w = workloads.WORKLOADS[args.workload]["tiny" if args.tiny else "full"]
    if args.rss_pass:
        fix_mmap_threshold()
        tally = workloads.run_workload(w, args.seed, 0.0)
        for problem in tally.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(peak_rss_mb())
        return 0 if tally.failed == 0 else 1
    tracer = install_tracer() if args.trace else None
    first_cycle: dict = {}

    def after_first_cycle():
        if tracer is not None:
            first_cycle.update(counts=dict(tracer.counts), spans=len(tracer.spans))

    started = time.perf_counter()
    untraced = tracer.paused if tracer is not None else nullcontext
    tally = workloads.run_workload(w, args.seed, args.seconds, after_first_cycle, untraced)
    wall = time.perf_counter() - started

    if tracer is not None:
        tracer.uninstall()
        metrics = layer_metrics(tracer, first_cycle, tally, span_cost_seconds(), wall)
        names = [m["name"] for m in SPEC["per_layer"]]
        sample_counts = {}
    else:
        names = [m["name"] for m in SPEC["end_to_end"]]
        metrics, sample_counts = end_to_end_metrics(tally, names, memory_mb)
    missing = sorted(set(names) - set(metrics))
    if missing:
        print(f"benchmark: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2

    facts = machine_facts()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "wall_s": wall,
        "machine": facts,
        "working_set": workloads.working_set(w),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "checks": tally.checks,
        "problems": tally.problems,
        "engine_runs": tally.engine_runs,
        "gen1_hits": tally.gen1_hits,
        "median_generations": {i: tally.median_generations(i) for i in tally.samples["generations"]},
        "degenerate_runs": tally.degenerate,
        "metrics": {n: metrics[n] for n in names},
        "sample_counts": sample_counts,
        "samples": tally.samples,
        "absent_layers": tracer.absent if tracer else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{args.workload}{'-tiny' if args.tiny else ''}.json")

    print(f"machine: {facts['nproc']} cpus, {facts['cpu_model']}, caches {facts['caches']}, "
          f"python {facts['python']}, numpy {facts['numpy']}")
    for ws in record["working_set"]:
        print(f"working set: {ws['instance']}: {ws['positions']} positions, mu={ws['mu']}, "
              f"one choice matrix {ws['choice_matrix_bytes'] / 2**20:.1f} MiB")
    for name in names:
        n = sample_counts.get(name)
        print(f"{name:28s} {metrics[name]:14.6g} {UNITS[name]}" + (f"  ({n} samples)" if n else ""))
    for instance, generations in record["median_generations"].items():
        print(f"generations per run: {instance}: median {generations:g}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed, {tally.checks} checks")
    for line in tally.degenerate:
        print(f"degenerate run (optimal in generation 1): {line}")
    for name in record["absent_layers"]:
        print(f"absent layer: {name}")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
