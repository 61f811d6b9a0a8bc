#!/usr/bin/env python3
"""Per-stage wall time of run_tomography, for the BENCH_*.json trail.

Wraps the module-level names ``run_tomography`` calls (``joint_output_state``,
``simulate_state_tomography``, ``reconstruct_from_schmidt``,
``kraus_to_choi``) and numpy's O(d^3) decompositions, then times
depolarizing(0.3) runs over a grid of n1 and shot budgets with BLAS pinned to
one thread. Each stage reports its best inclusive time over ``--repeats``
runs, after one warm-up run. A stage called inside another is reported under
its caller as "caller > stage": the evaluator builds its Choi matrix with
``kraus_to_choi`` inside ``joint_output_state``, and the decompositions sit
inside the stage that asks for them.

Three more stages time what the CLI does with the last run's result,
outside ``run_tomography``, each best of ``--repeats`` calls:
``result_to_doc`` builds the result document and ``dump_document`` writes
it as JSON text, as ``choiforge tomograph`` does; ``payload_to_matrix``
decodes the document's ``estimated_choi`` payload, as ``check`` and
``convert`` do with a Choi file.

Each invocation adds one labelled table to ``--output`` and keeps the tables
already there, so one file can hold the same grid for two checkouts:

    PYTHONPATH=src python scripts/stage_timings.py --label after --output BENCH.json
"""

import os

# One BLAS thread, set before numpy is imported: the steadiest setting on a
# small shared machine, and the one the benchmark uses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import choiforge.serialize as serialize  # noqa: E402
import choiforge.tomography as tomography  # noqa: E402
from choiforge.channels import zoo_channel  # noqa: E402

STAGES = (
    "joint_output_state",
    "simulate_state_tomography",
    "reconstruct_from_schmidt",
    "kraus_to_choi",
)
DECOMPOSITIONS = ("eigh", "eigvalsh", "eig", "eigvals", "svd")
SHOTS = (tomography.EXACT, 10**4)


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
            path = " > ".join([*self._stack, name])
            if name in DECOMPOSITIONS:
                self.decompositions.append(name)
            self._stack.append(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[path] = self.ms.get(path, 0.0) + (time.perf_counter() - start) * 1e3
                self._stack.pop()

        return timed

    def install(self) -> None:
        """Replace the stage names in ``choiforge.tomography`` and the
        decompositions in ``np.linalg`` by timed wrappers, for this process."""
        for name in STAGES:
            setattr(tomography, name, self.wrap(name, getattr(tomography, name)))
        for name in DECOMPOSITIONS:
            setattr(np.linalg, name, self.wrap(name, getattr(np.linalg, name)))


def best_ms(call, repeats: int) -> float:
    """Best wall time of `repeats` calls, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) * 1e3)
    return min(times)


def time_grid(clock: StageClock, n1_values, repeats: int) -> list[dict]:
    rows = []
    for n1 in n1_values:
        channel = tomography.OpaqueChannel.from_kraus(zoo_channel("depolarizing", [0.3], n1))
        for shots in SHOTS:
            config = tomography.TomographyConfig(shots=shots, seed=1)
            tomography.run_tomography(channel, config)  # warm-up
            best: dict[str, float] = {}
            for _ in range(repeats):
                clock.reset()
                start = time.perf_counter()
                result = tomography.run_tomography(channel, config)
                total = (time.perf_counter() - start) * 1e3
                for path, ms in {"run_tomography": total, **clock.ms}.items():
                    best[path] = min(best.get(path, ms), ms)
            decompositions = list(clock.decompositions)
            doc = serialize.result_to_doc(result, config)  # warm-up
            best["result_to_doc"] = best_ms(lambda: serialize.result_to_doc(result, config), repeats)
            best["dump_document"] = best_ms(lambda: serialize.dump_document(doc), repeats)
            best["payload_to_matrix"] = best_ms(
                lambda: serialize.payload_to_matrix(doc["estimated_choi"], "estimated_choi"), repeats
            )
            rows.append(
                {
                    "n1": n1,
                    "d": n1 * n1,
                    "shots": "exact" if shots is tomography.EXACT else shots,
                    "decompositions_per_run": len(decompositions),
                    "decompositions": decompositions,
                    "best_ms": {path: round(ms, 4) for path, ms in best.items()},
                }
            )
    return rows


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--n1", type=int, nargs="+", default=[2, 8, 12, 16], help="input dimensions"
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed runs per grid point; the best is kept"
    )
    parser.add_argument("--label", default="current", help="name of this table in the output file")
    parser.add_argument("--output", required=True, help="JSON file to add the table to")
    args = parser.parse_args()
    if args.repeats < 1 or min(args.n1) < 2:
        parser.error("--repeats must be at least 1 and every --n1 at least 2")

    clock = StageClock()
    clock.install()
    rows = time_grid(clock, args.n1, args.repeats)

    output = Path(args.output)
    doc = json.loads(output.read_text()) if output.exists() else {"tables": {}}
    doc["tables"][args.label] = {
        "channel": "depolarizing(0.3)",
        "repeats": args.repeats,
        "blas_threads": 1,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "rows": rows,
    }
    output.write_text(json.dumps(doc, indent=2) + "\n")

    for row in rows:
        stages = ", ".join(f"{path} {ms:.3f}" for path, ms in row["best_ms"].items())
        print(
            f"n1={row['n1']:>2} shots={row['shots']!s:>5} "
            f"decompositions={row['decompositions_per_run']} ms: {stages}"
        )


if __name__ == "__main__":
    main()
