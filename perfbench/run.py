#!/usr/bin/env python3
"""choiforge benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload sampled --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and CLI subprocesses get the same ``PYTHONPATH``. Workloads:

* ``sampled``      finite-shot ``run_tomography`` calls over n1 in {2,3,4,6,8}
* ``exact_large``  ``shots=EXACT`` calls over n1 in {8,12,16}
* ``cli_roundtrip`` ``python -m choiforge.cli tomograph`` / ``compare`` subprocesses

With ``--trace 0`` the run measures the end-to-end metrics for ``--seconds``
seconds. With ``--trace 1`` it runs ops untraced and then the same ops
traced, checks that the outputs are byte-identical, and prints the per-layer
metrics. Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

# One BLAS thread: at most nproc, and the steadiest setting for a single
# caller on a small shared machine. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("CHOIFORGE_THREADS", None)

import numpy as np  # noqa: E402  (after the thread settings)
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = os.getcwd()
WORKLOADS = ("sampled", "exact_large", "cli_roundtrip")
SETUP_REPEATS = 3
# op_tail_ms percentile per workload: the highest of p50/75/90/95/99 that
# leaves at least TAIL_MIN_BEYOND samples above it in a 35-second run of
# choiforge 0.1.0.
# It is fixed, so that runs with a few more or fewer ops report the same
# percentile; sorted by time it falls inside one kind of op (see workloads).
TAIL_PERCENTILE = {"sampled": 90, "exact_large": 95, "cli_roundtrip": 75}
TAIL_MIN_BEYOND = 10
RUNS_DIR = ".perfbench_runs"


def load_package():
    """Import choiforge from the checkout's src/, or exit with an error if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "choiforge", "__init__.py")):
        sys.exit(f"perfbench: no package at {src}/choiforge; run from the root of a checkout")
    sys.path.insert(0, src)
    import choiforge
    from choiforge import channels, cli, linalg, metrics, serialize, tomography

    if not os.path.abspath(choiforge.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: choiforge imported from {choiforge.__file__}, not {src}")
    return types.SimpleNamespace(
        channels=channels, cli=cli, linalg=linalg, metrics=metrics, serialize=serialize, tomography=tomography
    )


# -- statistics ------------------------------------------------------------


def tail(values_ms: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank ``percentile`` of the values and the number of samples above it."""
    ordered = sorted(values_ms)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


# -- workloads -------------------------------------------------------------


class Workload:
    """A round of ops plus how to run and check one of them."""

    def __init__(self, cf, name: str, seed: int, smoke: bool, workdir: str):
        self.cf = cf
        self.cli = name == "cli_roundtrip"
        self.first_digest: dict[int, str] = {}  # round index -> digest of its first output
        if self.cli:
            experiments = workloads.cli_experiments(seed, smoke)
            self.runner = workloads.CliRunner(ROOT, workdir, experiments)
            self.round = workloads.cli_round(experiments)
        elif name == "sampled":
            self.round = workloads.sampled_round(cf, seed, smoke)
        else:
            self.round = workloads.exact_round(cf, seed, smoke)

    def run(self, op, in_process: bool = False, tracer=None):
        if not self.cli:
            return workloads.run_pipeline_op(self.cf, op)
        if in_process:
            result = self.runner.run_in_process(self.cf.cli, op, tracer)
        else:
            result = self.runner.run_subprocess(op)
        return self.runner.check(op, *result)


def set_up(cf, name: str, seed: int, smoke: bool, workdir: str) -> tuple[Workload, float]:
    """Build the workload SETUP_REPEATS times; return the last and the median time.

    One set-up is: import the package in a fresh interpreter, build the
    inputs (and files), and run one untimed warm-up op, the round's first.
    """
    env = workloads.subprocess_env(ROOT)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import choiforge"], env=env, check=True)
        workload = Workload(cf, name, seed, smoke, workdir)
        warm = workload.run(workload.round[0])
        times.append(time.perf_counter() - start)
        if not warm.ok:
            print(f"warm-up op failed: {warm.reason}", file=sys.stderr)
    return workload, statistics.median(times)


class Phase:
    """Ops run in one phase and their outcomes, in order."""

    def __init__(self):
        self.ops = []
        self.outcomes = []
        self.failures = []

    def add(self, op, outcome) -> None:
        self.ops.append(op)
        self.outcomes.append(outcome)
        if not outcome.ok:
            self.failures.append(f"{op.label}: {outcome.reason}")


def run_ops(workload: Workload, seconds: float, count: int | None = None, **run_kwargs) -> Phase:
    """Run the round's ops cyclically until ``seconds`` have passed, or ``count`` ops."""
    phase = Phase()
    tracer = run_kwargs.get("tracer")
    start = time.perf_counter()
    while len(phase.ops) < count if count is not None else time.perf_counter() - start < seconds:
        index = len(phase.ops) % len(workload.round)
        op = workload.round[index]
        if tracer is not None:
            tracer.op = len(phase.ops)
        outcome = workload.run(op, **run_kwargs)
        if outcome.ok and not workload.cli:
            # a repeat sees the same inputs, so it must return the same bytes
            if outcome.digest != workload.first_digest.setdefault(index, outcome.digest):
                outcome.ok, outcome.reason = False, "output differs from the first run of this op"
        phase.add(op, outcome)
    return phase


# -- metrics ---------------------------------------------------------------


def end_to_end(phase: Phase, percentile: float, setup_s: float, peak_rss_mb: float) -> tuple[dict, list[str], str]:
    times_ms = [o.seconds * 1e3 for o in phase.outcomes]
    tail_ms, beyond = tail(times_ms, percentile)
    errors = [o.error_norm for o in phase.outcomes if o.error_norm is not None]
    ranks = [o.rank_match for o in phase.outcomes if o.rank_match is not None]
    n = len(times_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / (sum(times_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "rank_match_ratio": (sum(ranks) / max(1, len(ranks)), "ratio"),
    }
    tail_note = f"p{percentile:g}, {beyond} samples beyond it, n={n}"
    if beyond < TAIL_MIN_BEYOND:
        tail_note += f"; fewer than {TAIL_MIN_BEYOND} beyond it"
    notes = {"rank_match_ratio": f"{sum(ranks)}/{len(ranks)} pipeline runs keep the true rank"}
    lines = [f"metric {k} {v:.6g} {u}" + (f"  ({notes[k]})" if k in notes else "") for k, (v, u) in metrics.items()]
    # printed, not in BENCHMARK.json: see perfbench/README.md
    lines.append(f"metric op_tail_ms {tail_ms:.6g} ms  ({tail_note})")
    lines.append(f"metric failed_ratio {len(phase.failures) / n:.6g} ratio  ({len(phase.failures)}/{n} ops)")
    groups: dict[str, list[float]] = {}
    for op, ms in zip(phase.ops, times_ms):
        groups.setdefault(op.group, []).append(ms)
    for group, values in groups.items():
        lines.append(f"group {group:<20} n={len(values):<5} p50 {statistics.median(values):.3f} ms  max {max(values):.3f} ms")
    if errors:
        lines.append(f"metric choi_err_p50 {statistics.median(errors):.6g} 1  ({len(errors)} finite-shot ops)")
    else:
        lines.append("metric choi_err_p50 n/a  (no finite-shot ops in this workload)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines, tail_note


# Per-layer metric -> unit. Layer times are per pipeline run (one
# run_tomography call) for tomography, channels and linalg, and per op for
# serialize, metrics and cli.
PER_LAYER_UNITS = {
    "tomography.run.self_ms": "ms",
    "tomography.prepare.self_ms": "ms",
    "tomography.evaluate.self_ms": "ms",
    "tomography.evaluate.calls_per_op": "count",
    "tomography.sample.self_ms": "ms",
    "tomography.sample.operators_per_op": "count",
    "tomography.sample.basis_bytes_computed": "B",
    "tomography.project.self_ms": "ms",
    "tomography.project.clipped_mass_mean": "trace",
    "tomography.reconstruct.self_ms": "ms",
    "tomography.reconstruct.rank_kept_over_true": "ratio",
    "channels.apply_kraus.calls_per_op": "count",
    "channels.apply_kraus.self_ms": "ms",
    "channels.apply_stinespring.self_ms": "ms",
    "channels.choi_to_kraus.self_ms": "ms",
    "channels.kraus_to_choi.self_ms": "ms",
    "linalg.hermitian_eig.calls_per_op": "count",
    "linalg.hermitian_eig.self_ms": "ms",
    "linalg.tensor_product.calls_per_op": "count",
    "serialize.matrix_to_payload.self_ms": "ms",
    "serialize.dump.bytes": "B",
    "serialize.payload_to_matrix.self_ms": "ms",
    "serialize.load.bytes": "B",
    "metrics.process_fidelity.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.startup_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def per_layer(tracer, phase: Phase, untraced: Phase, startup_ms: float) -> tuple[dict, list[str]]:
    table = tracer.per_span()
    ops = len(phase.outcomes)
    runs = max(1, table["tomography.run"]["calls"])
    counts = tracer.counts
    ratios = [o.rank_ratio for o in phase.outcomes if o.rank_ratio is not None]
    values = {}
    for name, row in table.items():
        per = ops if name.split(".")[0] in ("serialize", "metrics", "cli") else runs
        values[f"{name}.self_ms"] = row["self_ms"] / per
        values[f"{name}.calls_per_op"] = row["calls"] / per
    values["tomography.sample.operators_per_op"] = counts["tomography.sample.operators"] / runs
    values["tomography.sample.basis_bytes_computed"] = counts["tomography.sample.basis_bytes_computed"] / runs
    values["tomography.project.clipped_mass_mean"] = counts["tomography.project.clipped_mass"] / max(
        1.0, counts["tomography.project.calls_with_mass"]
    )
    values["tomography.reconstruct.rank_kept_over_true"] = sum(ratios) / max(1, len(ratios))
    values["serialize.dump.bytes"] = counts["serialize.dump.bytes"] / ops
    values["serialize.load.bytes"] = counts["serialize.load.bytes"] / ops
    values["cli.startup_ms"] = startup_ms
    traced_s = sum(o.seconds for o in phase.outcomes)
    untraced_s = sum(o.seconds for o in untraced.outcomes)
    values["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}

    lines = [f"layer {k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"spans  {'name':<30} {'calls':>8} {'total_ms':>12} {'self_ms':>12} {'errors':>6}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append(
            f"spans  {name:<30} {row['calls']:>8} {row['total_ms']:>12.3f} {row['self_ms']:>12.3f} {row['errors']:>6}"
        )
    lines.extend(self_time_shares(tracer, phase))
    if tracer.missing:
        lines.append("names not found (zero calls): " + ", ".join(tracer.missing))
    return metrics, lines


def self_time_shares(tracer, phase: Phase) -> list[str]:
    """Per op group: the three spans holding the most self time, as a share of op time."""
    by_op = tracer.self_ms_by_op()
    groups: dict[str, dict] = {}
    for index, (op, outcome) in enumerate(zip(phase.ops, phase.outcomes)):
        group = groups.setdefault(op.group, {"op_ms": 0.0, "spans": {}})
        group["op_ms"] += outcome.seconds * 1e3
        for name, ms in by_op.get(index, {}).items():
            group["spans"][name] = group["spans"].get(name, 0.0) + ms
    lines = []
    for group, data in groups.items():
        top = sorted(data["spans"].items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(f"{name} {ms / data['op_ms']:.0%}" for name, ms in top)
        lines.append(f"share  {group:<20} op {data['op_ms']:.1f} ms: {shares}")
    return lines


# -- main ------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",), help="all: each workload in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest size of each op grid")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        common += ["--smoke"] if args.smoke else []
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name, *common]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    cf = load_package()
    runs_dir = os.path.join(ROOT, RUNS_DIR)
    os.makedirs(runs_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        return measure(cf, args, workdir, runs_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cf, args, workdir: str, runs_dir: str) -> int:
    env = environment(args.workload, args.seed)
    print(f"# choiforge benchmark workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    workload, setup_s = set_up(cf, args.workload, args.seed, args.smoke, workdir)

    if not args.trace:
        phase = run_ops(workload, args.seconds)
        usage = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        percentile = TAIL_PERCENTILE[args.workload]
        metrics, lines, env["op_tail"] = end_to_end(phase, percentile, setup_s, peak_rss_mb)
        attempted, failures = len(phase.outcomes), phase.failures
    else:
        # untraced then traced, both in-process, over the same ops; every
        # traced op is checked against the bytes of its untraced run
        untraced = run_ops(workload, args.seconds / 2, in_process=True)
        tracer = Tracer()
        tracer.install(vars(cf))
        try:
            traced = run_ops(workload, 0.0, len(untraced.ops), in_process=True, tracer=tracer)
        finally:
            tracer.uninstall()
        startup_ms = cli_startup_ms() if workload.cli else 0.0
        metrics, lines = per_layer(tracer, traced, untraced, startup_ms)
        trace_path = os.path.join(runs_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        lines.append(f"trace written to {os.path.relpath(trace_path, ROOT)} ({len(tracer.spans)} spans)")
        attempted = len(untraced.outcomes) + len(traced.outcomes)
        failures = untraced.failures + traced.failures

    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


def cli_startup_ms(repeats: int = 5) -> float:
    """Median wall time of ``choiforge resources --dims 2 2`` as a subprocess."""
    env = workloads.subprocess_env(ROOT)
    argv = [sys.executable, "-m", "choiforge.cli", "resources", "--dims", "2", "2"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())
