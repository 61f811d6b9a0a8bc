#!/usr/bin/env python3
"""Per-stage wall time of run_tomography, for the BENCH_*.json trail.

Wraps the module-level names ``run_tomography`` calls (``joint_output_state``,
``simulate_state_tomography``, ``reconstruct_from_schmidt`` and its core
``_schmidt_kraus``, which picks the cutoff and builds the Choi estimate in
both shot modes and which a finite-shot run calls directly), the
Hermiticity judgement ``check_hermitian`` that the sampler or, in an exact
run, ``reconstruct_from_schmidt`` makes of the evaluator output, the
low-rank factor ``channels._low_rank_columns`` (a
name the package lacks fails the script rather than leave the table) and
numpy's decompositions, then times runs of three channels over a grid of
n1 and shot budgets with BLAS pinned to one thread:
depolarizing(0.3), of full Kraus rank n1**2, whose exact runs try the
factor, keep it at n1 = 2 and give it up past its pivot cap, and
random_cptp(21, 2) and unitary(21), of Kraus rank 2 and 1, whose exact runs
take it. Each stage reports its best inclusive time over
``--repeats`` runs, after one warm-up run, in ``best_ms``, and the first
quartile, median and third quartile of those runs in ``quartiles_ms``,
which show how far the runs spread on a shared machine. A stage called
inside another is reported under its caller as "caller > stage": the
decompositions sit inside the stage that asks for them.

Six more stages time what the CLI does with the last run's result,
outside ``run_tomography``, each over ``--repeats`` calls. A run ends at
its Kraus set; ``TomographyResult.estimated_choi`` builds J = V V^dagger on
first access and keeps it. So ``kraus_to_choi`` times that build from the
result's Kraus set on its own, and ``result_to_doc``, which reads the kept
J and takes J's spectrum from the Kraus weights, times the rest of the
result document, as ``choiforge tomograph`` builds it, with no decomposition.
``dump_document`` writes the document as JSON text;
``payload_to_matrix`` decodes its ``estimated_choi`` payload, as ``check``
and ``convert`` do with a Choi file; ``load_document`` parses the dumped
text and ``process_fidelity`` compares the result's Kraus set with the
Kraus set it came from, as ``choiforge compare`` does with a result file
and its truth file. A finite-shot result is not trace preserving, so there
the stage times the verdict that rejects it.

Two more stages time the same work at every grid point, one call each
just before each timed run, so ``--repeats`` calls interleaved with the
runs: ``control``, the product of two 64 x 64 complex matrices drawn once
from a fixed seed, into an array made once, so that it touches no fresh
page; and ``control_interpreter``, 200 Python-level calls of a numpy
reduction of eight numbers, the kind of work that bounds a run at small
n1. One process can run every stage uniformly slower than another, and a
burst of contention during the runs slows the controls beside them, so the
controls show which one was slow: a BLAS-bound and an interpreter-bound
stage need not slow together.

Each row names its ``channel`` and also holds ``python_calls_per_run``: the
Python-level function calls (``sys.setprofile`` "call" events) of one run,
counted after a warm-up run and before the timing wrappers are installed,
so the count repeats exactly; ``decompositions``: the numpy
decompositions of one run, in call order, each named with ``_real`` when
its argument is a real array (``eigh_real`` is the real route of
``channels._eigen_operators``), as is its stage; and ``minor_faults_per_run``:
the minor page faults of this process (``getrusage`` ``ru_minflt``) over
the timed runs, divided by ``--repeats``, which counts the fresh pages the
runs' arrays touch.

Each invocation adds its rows to the labelled table of ``--output``,
replacing rows of the same channel, n1 and shot budget, and keeps the other
tables, so one file holds the same grid for two checkouts. A machine that
drifts over minutes is best timed one n1 at a time, the two checkouts
alternately:

    for n1 in 8 12 16; do
        PYTHONPATH=../parent/src python scripts/stage_timings.py --n1 $n1 --label before --output BENCH.json
        PYTHONPATH=src python scripts/stage_timings.py --n1 $n1 --label after --output BENCH.json
    done

Rows are added to a table only with the settings it was made with.
Compare two rows of one grid point only when their best ``control`` times
are within a factor of 1.25 of each other, and so are their best
``control_interpreter`` times; otherwise rerun the slower process.
"""

import os

# One BLAS thread, set before numpy is imported: the steadiest setting on a
# small shared machine, and the one the benchmark uses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import choiforge.channels as channels  # noqa: E402
import choiforge.serialize as serialize  # noqa: E402
import choiforge.tomography as tomography  # noqa: E402
from choiforge.channels import kraus_to_choi, zoo_channel  # noqa: E402
from choiforge.metrics import process_fidelity  # noqa: E402

STAGES = (
    (tomography, "joint_output_state"),
    (tomography, "simulate_state_tomography"),
    (tomography, "reconstruct_from_schmidt"),
    (tomography, "_schmidt_kraus"),
    (tomography, "check_hermitian"),
    (channels, "_low_rank_columns"),
)
DECOMPOSITIONS = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "cholesky")
SHOTS = (tomography.EXACT, 10**4)
CHANNELS = (("depolarizing", (0.3,)), ("random_cptp", (21, 2)), ("unitary", (21,)))


class StageClock:
    """Inclusive wall time per stage path, and the decompositions called, for one run."""

    def __init__(self):
        self.ms: dict[str, float] = {}
        self.decompositions: list[str] = []
        self._stack: list[str] = []

    def reset(self) -> None:
        self.ms.clear()
        self.decompositions.clear()

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            label = name
            if name in DECOMPOSITIONS:
                # the route: a decomposition of a real array is "eigh_real", say
                label += "_real" if args[0].dtype.kind == "f" else ""
                self.decompositions.append(label)
            path = " > ".join([*self._stack, label])
            self._stack.append(label)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[path] = self.ms.get(path, 0.0) + (time.perf_counter() - start) * 1e3
                self._stack.pop()

        return timed

    def install(self) -> None:
        """Replace the stage names in their modules and the decompositions
        in ``np.linalg`` by timed wrappers, for this process."""
        for module, name in STAGES:
            setattr(module, name, self.wrap(name, getattr(module, name)))
        for name in DECOMPOSITIONS:
            setattr(np.linalg, name, self.wrap(name, getattr(np.linalg, name)))


def python_calls(channel, config) -> int:
    """Python-level function calls made by one ``run_tomography``, after a warm-up run."""
    tomography.run_tomography(channel, config)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        tomography.run_tomography(channel, config)
    finally:
        sys.setprofile(None)
    return calls


def grid_channel(name: str, params, n1: int):
    """A zoo truth of the grid, its label and its opaque channel."""
    truth = zoo_channel(name, list(params), n1)
    label = f"{name}({', '.join(map(str, params))})"
    return truth, label, tomography.OpaqueChannel.from_kraus(truth)


def count_calls(n1_values) -> dict:
    """``python_calls`` of every grid point, keyed by (channel label, n1, shots)."""
    calls = {}
    for name, params in CHANNELS:
        for n1 in n1_values:
            _, label, channel = grid_channel(name, params, n1)
            for shots in SHOTS:
                config = tomography.TomographyConfig(shots=shots, seed=1)
                calls[label, n1, shots] = python_calls(channel, config)
    return calls


def times_ms(call, repeats: int) -> list[float]:
    """Wall time of each of `repeats` calls, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) * 1e3)
    return times


def compare_fidelity(a, b) -> float | None:
    """``process_fidelity`` as ``choiforge compare`` calls it: None for a rejected map."""
    try:
        return process_fidelity(a, b)
    except ValueError:
        return None


def interpreter_work(small: np.ndarray) -> float:
    """The interpreter-bound control: 200 Python-level calls of a small numpy
    reduction, the kind of work that bounds a run at small n1."""
    total = 0.0
    for _ in range(200):
        total += float(np.add.reduce(small))
    return total


def time_grid(clock: StageClock, n1_values, repeats: int, calls: dict) -> list[dict]:
    rng = np.random.default_rng(0)
    left, right = rng.standard_normal((2, 64, 64)) + 1j * rng.standard_normal((2, 64, 64))
    product = np.empty((64, 64), dtype=complex)
    small = rng.standard_normal(8)
    rows = []
    for n1, (name, params) in itertools.product(n1_values, CHANNELS):
        truth, label, channel = grid_channel(name, params, n1)
        for shots in SHOTS:
            config = tomography.TomographyConfig(shots=shots, seed=1)
            tomography.run_tomography(channel, config)  # warm-up
            times: dict[str, list[float]] = {}
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            control, interpreter = [], []
            for _ in range(repeats):
                control += times_ms(lambda: np.matmul(left, right, out=product), 1)
                interpreter += times_ms(lambda: interpreter_work(small), 1)
                clock.reset()
                start = time.perf_counter()
                result = tomography.run_tomography(channel, config)
                total = (time.perf_counter() - start) * 1e3
                for path, ms in {"run_tomography": total, **clock.ms}.items():
                    times.setdefault(path, []).append(ms)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            decompositions = list(clock.decompositions)
            times["kraus_to_choi"] = times_ms(lambda: kraus_to_choi(result.kraus), repeats)
            doc = serialize.result_to_doc(result, config)  # warm-up; builds J once
            times["result_to_doc"] = times_ms(lambda: serialize.result_to_doc(result, config), repeats)
            times["dump_document"] = times_ms(lambda: serialize.dump_document(doc), repeats)
            times["payload_to_matrix"] = times_ms(
                lambda: serialize.payload_to_matrix(doc["estimated_choi"], "estimated_choi"), repeats
            )
            text = serialize.dump_document(doc)
            times["load_document"] = times_ms(lambda: serialize.load_document(text), repeats)
            times["process_fidelity"] = times_ms(lambda: compare_fidelity(result.kraus, truth), repeats)
            times["control"] = control
            times["control_interpreter"] = interpreter
            rows.append(
                {
                    "channel": label,
                    "n1": n1,
                    "d": n1 * n1,
                    "shots": "exact" if shots is tomography.EXACT else shots,
                    "python_calls_per_run": calls[label, n1, shots],
                    "decompositions": decompositions,
                    "minor_faults_per_run": faults / repeats,
                    "best_ms": {path: round(min(ms), 4) for path, ms in times.items()},
                    "quartiles_ms": {
                        path: [round(q, 4) for q in np.percentile(ms, [25, 50, 75]).tolist()]
                        for path, ms in times.items()
                    },
                }
            )
    return rows


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--n1", type=int, nargs="+", default=[2, 3, 8, 12, 16], help="input dimensions"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timed runs per grid point; the best and the quartiles are kept",
    )
    parser.add_argument("--label", default="current", help="name of this table in the output file")
    parser.add_argument("--output", required=True, help="JSON file to add the table to")
    args = parser.parse_args()
    if args.repeats < 1 or min(args.n1) < 2:
        parser.error("--repeats must be at least 1 and every --n1 at least 2")
    args.n1 = sorted(set(args.n1))  # a dimension named twice is timed once

    output = Path(args.output)
    doc = json.loads(output.read_text()) if output.exists() else {"tables": {}}
    settings = {
        "repeats": args.repeats,
        "blas_threads": 1,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
    }
    table = doc["tables"].setdefault(args.label, {**settings, "rows": []})
    if {key: table.get(key) for key in settings} != settings:
        sys.exit(f"table {args.label!r} of {output} was timed with other settings")

    calls = count_calls(args.n1)  # before the wrappers add calls of their own
    clock = StageClock()
    clock.install()
    rows = time_grid(clock, args.n1, args.repeats, calls)

    points = {(row["channel"], row["n1"], row["shots"]) for row in rows}
    kept = [row for row in table["rows"] if (row["channel"], row["n1"], row["shots"]) not in points]
    table["rows"] = sorted(kept + rows, key=lambda row: row["n1"])
    output.write_text(json.dumps(doc, indent=2) + "\n")

    for row in rows:
        stages = ", ".join(f"{path} {ms:.3f}" for path, ms in row["best_ms"].items())
        print(
            f"{row['channel']} n1={row['n1']:>2} shots={row['shots']!s:>5} "
            f"calls={row['python_calls_per_run']} "
            f"decompositions={len(row['decompositions'])} "
            f"faults={row['minor_faults_per_run']:g} ms: {stages}"
        )


if __name__ == "__main__":
    main()
