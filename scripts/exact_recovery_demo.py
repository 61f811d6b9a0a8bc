#!/usr/bin/env python3
"""Exact-mode recovery demo across the channel zoo.

For each zoo channel, runs the infinite-shot tomography pipeline against the
channel as a blackbox and prints the Choi distance between the reconstruction
and the ground truth, plus the recovered Kraus rank and trace verdict.
"""

import argparse

import numpy as np

from choiforge.channels import choi_cp_tp_verdict, kraus_to_choi, zoo_channel
from choiforge.linalg import frobenius_distance
from choiforge.tomography import (
    OpaqueChannel,
    SchmidtInput,
    TomographyConfig,
    run_tomography,
)
from choiforge.channels import haar_random_unitary

CASES = [
    ("identity", [], 2),
    ("identity", [], 3),
    ("unitary", [7], 2),
    ("unitary", [8], 3),
    ("depolarizing", [0.1], 2),
    ("depolarizing", [0.5], 2),
    ("depolarizing", [1.0], 2),
    ("depolarizing", [0.4], 3),
    ("amplitude_damping", [0.25], 2),
    ("amplitude_damping", [0.5], 2),
    ("phase_damping", [0.35], 2),
    ("project_discard", [], 2),
    ("project_discard", [], 3),
    ("random_cptp", [21, 4], 3),
]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--schmidt-seed",
        type=int,
        default=None,
        help="also run each case with a random skewed Schmidt input from this seed",
    )
    return parser.parse_args()


def schmidt_spec(dim, rng):
    raw = rng.uniform(0.3, 1.0, size=dim)
    alphas = raw / np.linalg.norm(raw)
    return SchmidtInput(
        alphas=alphas,
        left_unitary=haar_random_unitary(dim, rng),
        right_unitary=haar_random_unitary(dim, rng),
    )


def main():
    args = parse_args()
    header = f"{'channel':<28} {'dim':>3} {'kraus':>5} {'choi distance':>14} {'trace':>10}"
    print(header)
    print("-" * len(header))
    for name, params, dim in CASES:
        truth = zoo_channel(name, params, dim)
        blackbox = OpaqueChannel.from_kraus(truth)
        if args.schmidt_seed is not None:
            rng = np.random.default_rng(args.schmidt_seed)
            input_kind = schmidt_spec(dim, rng)
        else:
            input_kind = None  # the maximally entangled input
        result = run_tomography(blackbox, TomographyConfig(input_kind=input_kind))
        distance = frobenius_distance(
            result.estimated_choi.matrix, kraus_to_choi(truth).matrix
        )
        verdict = choi_cp_tp_verdict(result.estimated_choi)
        trace_label = "tp" if verdict.is_trace_preserving else "decreasing"
        label = f"{name}({', '.join(str(p) for p in params)})"
        print(
            f"{label:<28} {dim:>3} {len(result.kraus.operators):>5} "
            f"{distance:>14.3e} {trace_label:>10}"
        )


if __name__ == "__main__":
    main()
