#!/usr/bin/env python3
"""Accuracy of run_tomography over one fixed grid, one JSON line per cell.

A cell is (channel, n1, n2, input, shots). The grid is fixed:
n1 in {2, 3, 4, 8, 16}; at every n1 the identity, a Haar unitary,
depolarizing(0.3) and ``random_cptp`` of Kraus rank 1, 2 and n1; at n1 = 2
also amplitude damping, phase damping, project-and-discard and a 2 -> 3
``random_cptp``. Each channel runs with three inputs: the uniform
(maximally entangled) one, alpha proportional to (1, ..., n1) ("ramp") and
to (1, ..., 1, 3e-4) ("skewed"), the last two with Haar bases from a fixed
seed; and at three shot budgets: exact, 1e4 and 1e6. A finite-shot cell
runs once per seed in SEEDS; an exact cell runs once, since the seed does
not enter it. Each line holds:

- ``runs``, the number of runs in the cell;
- ``true_rank``, the Kraus rank of the channel, and ``rank``, the rank each
  run kept, in seed order;
- ``trace_excess``, Tr J_est / (n1 * success_trace) - 1;
- ``frobenius`` and ``operator``, the Frobenius and operator norm of
  J_est - J;
- ``infidelity``, 1 - ``process_fidelity`` over the runs where it is
  defined (null if none), and ``fidelity_rejected``, the runs where
  ``process_fidelity`` rejects the estimate or the channel, as ``choiforge
  compare`` does for a map that is not trace preserving;
- ``negativity_removed``, the clipped negative eigenvalue mass.

Every statistic is [min, median, max] over the cell's runs, rounded to 4
significant digits, and BLAS runs on one thread with the Haswell kernel,
so two runs of one version print the same bytes and ``diff`` of two study
files names each cell that moved. ``STUDY.jsonl`` at the root of the
repository is this version's output:

    PYTHONPATH=src python scripts/study.py | cmp - STUDY.jsonl

``--n1`` runs the listed input dimensions instead of the grid's, any n1 >=
2, in ascending order and each once, with the channels, inputs and shot
budgets above:

    PYTHONPATH=src python scripts/study.py --n1 5 2 > study_2_5.jsonl
"""

import os

# One BLAS thread and one OpenBLAS kernel, set before numpy is imported, so
# every float is the same from run to run and on every x86-64 CPU with AVX2:
# without the pin OpenBLAS picks its kernel by CPU, and an AVX-512 kernel
# rounds some results differently.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import argparse  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

from choiforge.channels import (  # noqa: E402
    choi_to_kraus,
    haar_random_unitary,
    kraus_to_choi,
    zoo_channel,
)
from choiforge.metrics import process_fidelity  # noqa: E402
from choiforge.tomography import (  # noqa: E402
    EXACT,
    OpaqueChannel,
    SchmidtInput,
    TomographyConfig,
    run_tomography,
)

N1 = (2, 3, 4, 8, 16)
SHOTS = (EXACT, 10**4, 10**6)
SEEDS = tuple(range(8))
CHANNEL_SEED = 21  # the unitary and random_cptp channels
BASIS_SEED = 5  # the Haar bases of the ramp and skewed inputs


def channels(n1: int) -> list[tuple[str, list, int]]:
    """(zoo name, params, output dimension) of every channel at input dimension n1."""
    cases = [("identity", [], n1), ("unitary", [CHANNEL_SEED], n1), ("depolarizing", [0.3], n1)]
    cases += [("random_cptp", [CHANNEL_SEED, rank], n1) for rank in sorted({1, 2, n1})]
    if n1 == 2:
        cases += [
            ("amplitude_damping", [0.25], 2),
            ("phase_damping", [0.35], 2),
            ("project_discard", [], 2),
            ("random_cptp", [CHANNEL_SEED, 2], 3),
        ]
    return cases


def inputs(n1: int) -> dict[str, SchmidtInput | None]:
    """The uniform input (None) and the ramp and skewed Schmidt inputs."""
    rng = np.random.default_rng(BASIS_SEED)
    left, right = haar_random_unitary(n1, rng), haar_random_unitary(n1, rng)
    specs = {"uniform": None}
    for label, raw in (("ramp", np.arange(1.0, n1 + 1)), ("skewed", np.r_[np.ones(n1 - 1), 3e-4])):
        specs[label] = SchmidtInput(raw / np.linalg.norm(raw), left, right)
    return specs


def stats(values) -> list[float]:
    """[min, median, max], each to 4 significant digits."""
    return [float(f"{v:.4g}") for v in (np.min(values), np.median(values), np.max(values))]


def fidelity(estimate, truth) -> float | None:
    """``process_fidelity`` as ``choiforge compare`` reports it: None for a rejected map."""
    try:
        return process_fidelity(estimate, truth)
    except ValueError:
        return None


def cell(channel: OpaqueChannel, truth, spec, shots) -> dict:
    """The statistics of one cell's runs against the true Kraus set."""
    n1 = truth.input_dim
    choi = kraus_to_choi(truth)
    runs = [
        run_tomography(channel, TomographyConfig(shots=shots, seed=seed, input_kind=spec))
        for seed in (SEEDS[:1] if shots is EXACT else SEEDS)
    ]
    errors = [run.estimated_choi.matrix - choi.matrix for run in runs]
    fidelities = [fidelity(run.kraus, truth) for run in runs]
    defined = [1.0 - f for f in fidelities if f is not None]
    return {
        "runs": len(runs),
        "true_rank": len(choi_to_kraus(choi).operators),
        "rank": [len(run.kraus.operators) for run in runs],
        "trace_excess": stats(
            [np.trace(run.estimated_choi.matrix).real / (n1 * run.success_trace) - 1 for run in runs]
        ),
        "frobenius": stats([np.linalg.norm(e) for e in errors]),
        # J_est - J is Hermitian: its operator norm is its largest |eigenvalue|
        "operator": stats([np.abs(np.linalg.eigvalsh(e)).max() for e in errors]),
        "infidelity": stats(defined) if defined else None,
        "fidelity_rejected": len(runs) - len(defined),
        "negativity_removed": stats([run.negativity_removed for run in runs]),
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--n1", type=int, nargs="+", default=N1, help="input dimensions to run, each at least 2"
    )
    args = parser.parse_args()
    if min(args.n1) < 2:
        parser.error("every --n1 must be at least 2")
    for n1 in sorted(set(args.n1)):
        specs = inputs(n1)
        for name, params, n2 in channels(n1):
            truth = zoo_channel(name, params, n1, n2)
            channel = OpaqueChannel.from_kraus(truth)
            label = f"{name}({', '.join(str(p) for p in params)})" if params else name
            for input_label, spec in specs.items():
                for shots in SHOTS:
                    row = {"channel": label, "n1": n1, "n2": n2, "input": input_label}
                    row["shots"] = "exact" if shots is EXACT else shots
                    print(json.dumps({**row, **cell(channel, truth, spec, shots)}))


if __name__ == "__main__":
    main()
