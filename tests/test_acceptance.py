"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import time

import numpy as np

from conftest import apply_kraus, apply_stinespring, kraus_equivalent, random_density
from choiforge.channels import (
    StinespringModel,
    choi_to_kraus,
    haar_random_unitary,
    kraus_to_choi,
    random_cptp,
    zoo_channel,
)
from choiforge.cli import main
from choiforge.linalg import frobenius_distance
from choiforge.metrics import resource_report
from choiforge.serialize import dump_document
from choiforge.tomography import (
    OpaqueChannel,
    SchmidtInput,
    TomographyConfig,
    run_tomography,
)

I2 = np.eye(2, dtype=complex)


def report(criterion: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"{status} | {criterion}{suffix}")
    assert not failures, f"{criterion}: {failures[:5]}"


def cptp_corpus():
    """200 seeded random trace-preserving channels, 50 per dimension pair."""
    corpus = []
    for n1 in (2, 3):
        for n2 in (2, 3):
            rng = np.random.default_rng(9000 + 10 * n1 + n2)
            min_count = -(-n1 // n2)
            for _ in range(50):
                count = int(rng.integers(min_count, n1 * n2 + 1))
                seed = int(rng.integers(2**32))
                corpus.append((n1, n2, random_cptp(n1, n2, count, seed)))
    return corpus


CORPUS = cptp_corpus()


def test_criterion_1_choi_extraction_roundtrip():
    start = time.perf_counter()
    failures = []
    for n1, n2, kraus in CORPUS:
        rng = np.random.default_rng(17)
        choi = kraus_to_choi(kraus)
        extracted = choi_to_kraus(choi)
        distance = frobenius_distance(kraus_to_choi(extracted).matrix, choi.matrix)
        if distance >= 1e-8:
            failures.append((n1, n2, "choi distance", distance))
        for _ in range(20):
            rho = random_density(n1, rng)
            action_gap = frobenius_distance(
                apply_kraus(kraus, rho), apply_kraus(extracted, rho)
            )
            if action_gap >= 1e-8:
                failures.append((n1, n2, "action gap", action_gap))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s, budget 30s"
    report("criterion 1: Choi extraction round-trip on 200 random channels", failures, elapsed)


def test_criterion_2_canonicality():
    failures = []
    for n1, n2, kraus in CORPUS:
        choi = kraus_to_choi(kraus)
        extracted = choi_to_kraus(choi)
        if len(extracted.operators) > n1 * n2:
            failures.append((n1, n2, "operator count", len(extracted.operators)))
        eigenvalues = np.linalg.eigvalsh(choi.matrix)[::-1]
        for a, op_a in enumerate(extracted.operators):
            for b, op_b in enumerate(extracted.operators):
                inner = np.trace(op_a.conj().T @ op_b)
                expected = eigenvalues[a] if a == b else 0.0
                if abs(inner - expected) >= 1e-8:
                    failures.append((n1, n2, "orthogonality", a, b, abs(inner - expected)))
    report("criterion 2: extracted Kraus sets are canonical", failures)


def test_criterion_3_exact_tomography_identity():
    channels = [
        ("identity", zoo_channel("identity")),
        ("unitary", zoo_channel("unitary", [13])),
        ("depolarizing 0.1", zoo_channel("depolarizing", [0.1])),
        ("depolarizing 0.5", zoo_channel("depolarizing", [0.5])),
        ("depolarizing 1.0", zoo_channel("depolarizing", [1.0])),
        ("amplitude damping 0.25", zoo_channel("amplitude_damping", [0.25])),
        ("amplitude damping 0.5", zoo_channel("amplitude_damping", [0.5])),
        ("phase damping 0.35", zoo_channel("phase_damping", [0.35])),
        ("project discard", zoo_channel("project_discard")),
        ("random cptp", zoo_channel("random_cptp", [3, 3])),
    ]
    failures = []
    for name, truth in channels:
        result = run_tomography(OpaqueChannel.from_kraus(truth), TomographyConfig())
        distance = frobenius_distance(
            result.estimated_choi.matrix, kraus_to_choi(truth).matrix
        )
        if distance >= 1e-8:
            failures.append((name, distance))
    report("criterion 3: EXACT tomography recovers every zoo channel", failures)


def test_criterion_4_schmidt_input_recipe():
    failures = []
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        truth = random_cptp(2, 2, int(rng.integers(1, 5)), int(rng.integers(2**32)))
        channel = OpaqueChannel.from_kraus(truth)
        a0 = np.sqrt(rng.uniform(0.04, 0.96))
        alphas = np.array(sorted([a0, np.sqrt(1 - a0**2)], reverse=True))
        assert alphas.min() >= 0.2 - 1e-12
        spec = SchmidtInput(
            alphas=alphas,
            left_unitary=haar_random_unitary(2, rng),
            right_unitary=haar_random_unitary(2, rng),
        )
        schmidt = run_tomography(channel, TomographyConfig(input_kind=spec))
        plain = run_tomography(channel, TomographyConfig())
        distance = frobenius_distance(
            schmidt.estimated_choi.matrix, plain.estimated_choi.matrix
        )
        if distance >= 1e-7:
            failures.append((seed, "choi distance", distance))
        if not kraus_equivalent(schmidt.kraus, truth, 1e-7):
            failures.append((seed, "kraus not equivalent to truth"))
    # n1 = 8 with alpha_min = 1e-5: the rescaling amplifies float noise by
    # 1e10, and the exact cutoff carries it, so the true rank is kept
    rng = np.random.default_rng(4800)
    truth = random_cptp(8, 8, 2, int(rng.integers(2**32)))
    alphas = np.r_[np.full(7, np.sqrt((1 - 1e-10) / 7)), 1e-5]
    spec = SchmidtInput(alphas, haar_random_unitary(8, rng), haar_random_unitary(8, rng))
    schmidt = run_tomography(OpaqueChannel.from_kraus(truth), TomographyConfig(input_kind=spec))
    if len(schmidt.kraus.operators) != 2:
        failures.append(("n1 = 8", "rank", len(schmidt.kraus.operators)))
    if not kraus_equivalent(schmidt.kraus, truth, 1e-6):
        failures.append(("n1 = 8", "kraus not equivalent to truth"))
    report("criterion 4: Schmidt-input reconstruction matches, 50 seeds and n1 = 8", failures)


def test_criterion_5_depolarizing_closed_form():
    p = 0.3
    # independent blockwise oracle, built before consulting the pipeline
    oracle = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            oracle[i * 2 : (i + 1) * 2, j * 2 : (j + 1) * 2] = (
                (1 - p) * unit + p * np.trace(unit) * I2 / 2
            )
    oracle_eigs = np.linalg.eigvalsh(oracle)[::-1]

    result = run_tomography(
        OpaqueChannel.from_kraus(zoo_channel("depolarizing", [p])), TomographyConfig()
    )
    eigs = np.linalg.eigvalsh(result.estimated_choi.matrix)[::-1]

    failures = []
    if not np.allclose(oracle_eigs, [1.55, 0.15, 0.15, 0.15], atol=1e-12):
        failures.append(("oracle eigenvalues", oracle_eigs))
    if not np.allclose(eigs, [1.55, 0.15, 0.15, 0.15], atol=1e-9):
        failures.append(("reconstructed eigenvalues", eigs))
    if frobenius_distance(result.estimated_choi.matrix, oracle) >= 1e-9:
        failures.append(("choi vs oracle", frobenius_distance(result.estimated_choi.matrix, oracle)))
    report("criterion 5: depolarizing p=0.3 Choi eigenvalues {1.55, 0.15, 0.15, 0.15}", failures)


def test_criterion_6_stinespring_cross_validation():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    ground = np.diag([1, 0]).astype(complex)
    models = [
        ("cnot dephasing", StinespringModel(2, 2, 2, 2, cnot, ground, np.eye(2)),
         zoo_channel("phase_damping", [1.0])),
        ("swap constant", StinespringModel(2, 2, 2, 2, swap, ground, np.eye(2)),
         zoo_channel("amplitude_damping", [1.0])),
    ]
    failures = []
    rng = np.random.default_rng(6)
    for name, model, kraus in models:
        for _ in range(20):
            rho = random_density(2, rng)
            gap = frobenius_distance(
                apply_stinespring(model, rho), apply_kraus(kraus, rho)
            )
            if gap >= 1e-10:
                failures.append((name, gap))
    report("criterion 6: Stinespring models agree with Kraus counterparts", failures)


def test_criterion_7_shot_noise_behavior():
    start = time.perf_counter()
    truth = kraus_to_choi(zoo_channel("depolarizing", [0.3]))
    channel = OpaqueChannel.from_kraus(zoo_channel("depolarizing", [0.3]))
    shot_levels = [10**3, 10**4, 10**5, 10**6]
    medians = {}
    for shots in shot_levels:
        errors = []
        for seed in range(20):
            result = run_tomography(channel, TomographyConfig(shots=shots, seed=seed))
            errors.append(
                frobenius_distance(result.estimated_choi.matrix, truth.matrix)
            )
        medians[shots] = float(np.median(errors))
    elapsed = time.perf_counter() - start

    failures = []
    for lo, hi in zip(shot_levels, shot_levels[1:]):
        if not medians[hi] < medians[lo]:
            failures.append(("not monotone", lo, medians[lo], hi, medians[hi]))
    ratio = medians[10**4] / medians[10**6]
    if not 5.0 <= ratio <= 20.0:
        failures.append(("ratio out of range", ratio, medians))
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.1f}s, budget 120s"
    report(
        f"criterion 7: shot-noise medians {[medians[s] for s in shot_levels]} "
        f"monotone, 1e4/1e6 ratio {ratio:.1f} in [5, 20]",
        failures,
        elapsed,
    )


def test_criterion_8_resource_accounting():
    failures = []
    for n1 in (2, 3, 4):
        for n2 in (2, 3, 4):
            rep = resource_report(n1, n2)
            if rep.ensemble_measurements != (n1 * n2) ** 2:
                failures.append((n1, n2, "ensemble", rep.ensemble_measurements))
            if rep.prior_method_measurements != n1**2 * n2**2:
                failures.append((n1, n2, "prior", rep.prior_method_measurements))
            if rep.ensemble_measurements != rep.prior_method_measurements:
                failures.append((n1, n2, "counts differ"))
    report("criterion 8: resource accounting matches (n1*n2)^2 for dims 2..4", failures)


def test_criterion_9_cli_golden_pipeline(tmp_path, capsys):
    zoo_cases = [
        ("identity", []),
        ("unitary", [5]),
        ("depolarizing", [0.3]),
        ("amplitude_damping", [0.5]),
        ("phase_damping", [0.35]),
        ("project_discard", []),
        ("random_cptp", [11, 3]),
    ]
    failures = []
    for name, params in zoo_cases:
        zoo_file = tmp_path / f"{name}.json"
        argv = ["zoo", "--name", name, "--output", str(zoo_file)]
        if params:
            argv += ["--params"] + [str(p) for p in params]
        if main(argv) != 0:
            failures.append((name, "zoo command failed"))
            continue
        capsys.readouterr()
        channel_doc = json.loads(zoo_file.read_text())
        exp_file = tmp_path / f"{name}_exp.json"
        exp_file.write_text(
            dump_document(
                {"channel": channel_doc, "config": {"shots": "exact", "seed": 0}}
            ),
            encoding="utf-8",
        )
        result_file = tmp_path / f"{name}_result.json"
        if main(["tomograph", str(exp_file), "--output", str(result_file)]) != 0:
            failures.append((name, "tomograph failed"))
            continue
        capsys.readouterr()
        code = main(["compare", str(result_file), str(zoo_file)])
        out = capsys.readouterr().out
        if code != 0 or not json.loads(out)["equivalent"]:
            failures.append((name, "not equivalent", out))

    # byte determinism for a fixed-seed finite-shot run
    exp_file = tmp_path / "det_exp.json"
    exp_file.write_text(
        dump_document(
            {
                "channel": {"name": "depolarizing", "params": [0.3], "dims": [2, 2]},
                "config": {"shots": 5000, "seed": 123},
            }
        ),
        encoding="utf-8",
    )
    r1, r2 = tmp_path / "det1.json", tmp_path / "det2.json"
    main(["tomograph", str(exp_file), "--output", str(r1)])
    main(["tomograph", str(exp_file), "--output", str(r2)])
    capsys.readouterr()
    if r1.read_bytes() != r2.read_bytes():
        failures.append(("determinism", "fixed-seed runs differ"))

    report("criterion 9: CLI zoo -> tomograph -> compare golden pipeline", failures)
