"""Inputs, ops and output checks of the three benchmark workloads.

Every input is drawn from the workload seed. Channels are generated here as
Kraus sets with numpy; the truth for every check is the Choi matrix of that
generated set, and the pipeline only ever sees an ``OpaqueChannel``.

A workload is a fixed *round* of ops run again and again in a closed loop:
one caller, and the next op starts when the previous one returns. Each
round interleaves its op kinds, so that any stretch of a run holds every
kind in about its share and every kind is timed throughout the run. Repeats
of an op see identical inputs, so each repeat's output must be
byte-identical to the first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

SHOT_BUDGETS = (10**4, 10**6)
DEPOLARIZING_P = 0.3
# finite shots: ||J_est - J_true||_F * sqrt(shots) / (n1*n1*n2) must stay below this
FINITE_ERROR_CEILING = 10.0
# exact mode: ||J_est - J_true||_F <= EXACT_TOL * d * max(1, ||J_true||_F)
EXACT_TOL = 1e-12
# Hermiticity and PSD checks on J_est, per unit of d * max(1, ||J||_F)
MATRIX_TOL = 1e-10
SUBPROCESS_TIMEOUT_S = 120

# Channel kinds of the sampled grid, in the order each n1 cycles through them.
SAMPLED_KINDS = ("random_cptp", "depolarizing", "unitary", "project_discard", "identity")
# (n1, ops per round): many small calls and few large ones. Sorted by time,
# the median falls in the middle of the n1=3 ops and p90 in the middle of the
# n1=6 ops.
SAMPLED_GRID = ((2, 18), (3, 12), (4, 8), (6, 8), (8, 1))
SAMPLED_CPTP_RANK = 2
EXACT_CPTP_RANK = 3
SCHMIDT_SKEW = 10.0  # largest over smallest Schmidt coefficient


# -- channel generation ---------------------------------------------------


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def make_kraus(kind: str, n: int, rng: np.random.Generator, rank: int = 1) -> list[np.ndarray]:
    """Kraus operators of an n -> n channel; their count is the Kraus rank."""
    if kind == "identity":
        return [np.eye(n, dtype=complex)]
    if kind == "unitary":
        return [haar_unitary(n, rng)]
    if kind == "project_discard":
        op = np.zeros((n, n), dtype=complex)
        op[0, 0] = 1.0
        return [op]
    if kind == "depolarizing":
        shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        ops = []
        for a in range(n):
            for b in range(n):
                weyl = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                scale = math.sqrt(1 - DEPOLARIZING_P + DEPOLARIZING_P / n**2) if a == b == 0 else math.sqrt(DEPOLARIZING_P) / n
                ops.append(scale * weyl)
        return ops
    if kind == "random_cptp":
        z = rng.standard_normal((n * rank, n)) + 1j * rng.standard_normal((n * rank, n))
        q, _ = np.linalg.qr(z)
        return [q[k * n : (k + 1) * n] for k in range(rank)]
    raise ValueError(f"unknown channel kind {kind!r}")


def choi_of(ops: list[np.ndarray]) -> np.ndarray:
    """J = sum_k vec(A_k) vec(A_k)^dag, segment i of vec(A) being column i of A."""
    v = np.stack([op.T.reshape(-1) for op in ops], axis=1)
    return v @ v.conj().T


def stinespring_of(cf, ops: list[np.ndarray]):
    """A StinespringModel realising the Kraus set with ancilla |0><0| and P = I.

    The unitary maps |psi>|0> to sum_k (A_k|psi>)|k>, ordered (output, traced).
    Its remaining columns complete the isometry to a unitary.
    """
    n, rank = ops[0].shape[1], len(ops)
    iso = np.stack(ops, axis=1).reshape(n * rank, n)  # row o*rank + k holds A_k[o, :]
    dim = n * rank
    filler = np.random.default_rng(0).standard_normal((dim, dim - n))
    q, _ = np.linalg.qr(np.concatenate([iso, filler.astype(complex)], axis=1))
    unitary = np.zeros((dim, dim), dtype=complex)
    first_ancilla = np.arange(n) * rank  # input index (i, ancilla 0)
    unitary[:, first_ancilla] = iso
    rest = np.setdiff1d(np.arange(dim), first_ancilla)
    unitary[:, rest] = q[:, n:]
    ancilla = np.zeros((rank, rank), dtype=complex)
    ancilla[0, 0] = 1.0
    return cf.channels.StinespringModel(
        system_dim=n,
        ancilla_dim=rank,
        output_dim=n,
        trace_dim=rank,
        unitary=unitary,
        ancilla_state=ancilla,
        projector=np.eye(rank, dtype=complex),
    )


def skewed_schmidt(cf, n: int, rng: np.random.Generator):
    alphas = np.geomspace(1.0, 1.0 / SCHMIDT_SKEW, n)
    alphas /= np.linalg.norm(alphas)
    return cf.tomography.SchmidtInput(alphas, haar_unitary(n, rng), haar_unitary(n, rng))


# -- per-op outcome and checks --------------------------------------------


@dataclass
class Outcome:
    seconds: float
    ok: bool = True
    reason: str = ""
    digest: str = ""
    error_norm: float | None = None  # normalized Choi error, finite-shot ops only
    rank_match: bool | None = None  # kept Kraus count equals the true rank
    rank_ratio: float | None = None  # kept Kraus count over the true rank


def check_choi(j_est: np.ndarray, truth: np.ndarray, rank_kept: int, op) -> Outcome:
    """Check an estimated Choi matrix against the truth; ``seconds`` is left 0."""
    reason, error_norm, rank_match = _check_choi(j_est, truth, rank_kept, op)
    return Outcome(0.0, not reason, reason, "", error_norm, rank_match, rank_kept / op.rank)


def _check_choi(j_est, truth, rank_kept: int, op) -> tuple[str, float | None, bool]:
    d = op.n1 * op.n2
    if j_est.shape != (d, d) or not np.all(np.isfinite(j_est)):
        return "estimated Choi matrix has the wrong shape or non-finite entries", None, False
    scale = d * max(1.0, float(np.linalg.norm(j_est)))
    if np.max(np.abs(j_est - j_est.conj().T)) > MATRIX_TOL * scale:
        return "estimated Choi matrix is not Hermitian", None, False
    if np.linalg.eigvalsh((j_est + j_est.conj().T) / 2)[0] < -MATRIX_TOL * scale:
        return "estimated Choi matrix is not positive semidefinite", None, False
    if not 1 <= rank_kept <= d:
        return f"kept {rank_kept} Kraus operators, allowed 1..{d}", None, False
    error = float(np.linalg.norm(j_est - truth))
    rank_match = rank_kept == op.rank
    if op.shots is None:
        if error > EXACT_TOL * d * max(1.0, float(np.linalg.norm(truth))):
            return f"exact result off the truth by {error:.3e}", None, rank_match
        if not rank_match:
            return f"exact result kept rank {rank_kept}, truth has {op.rank}", None, False
        return "", None, True
    normalized = error * math.sqrt(op.shots) / (op.n1 * op.n1 * op.n2)
    if normalized > FINITE_ERROR_CEILING:
        return f"finite-shot error {normalized:.3f} above ceiling", normalized, rank_match
    return "", normalized, rank_match


# -- in-process workloads: sampled and exact_large -------------------------


class CountingEvaluator:
    """Evaluator wrapper that counts channel uses."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, bipartite):
        self.calls += 1
        return self.fn(bipartite)


@dataclass
class PipelineOp:
    label: str
    group: str
    n1: int
    n2: int
    rank: int
    shots: int | None
    truth: np.ndarray
    channel: object
    config: object
    counter: CountingEvaluator


def _pipeline_op(cf, label, group, ops, shots, seed, *, stinespring=False, schmidt=None) -> PipelineOp:
    n = ops[0].shape[1]
    if stinespring:
        channel = cf.tomography.OpaqueChannel.from_stinespring(stinespring_of(cf, ops))
    else:
        channel = cf.tomography.OpaqueChannel.from_kraus(cf.channels.KrausSet(n, n, tuple(ops)))
    counter = CountingEvaluator(channel.evaluator)
    kwargs = {"shots": shots, "seed": seed}
    if schmidt is not None:
        kwargs["input_kind"] = schmidt
    return PipelineOp(
        label=label,
        group=group,
        n1=n,
        n2=n,
        rank=len(ops),
        shots=shots,
        truth=choi_of(ops),
        channel=dataclasses.replace(channel, evaluator=counter),
        config=cf.tomography.TomographyConfig(**kwargs),
        counter=counter,
    )


def interleave(ops: list) -> list:
    """Spread each group's ops evenly through the round, keeping their order."""
    groups: dict[str, list] = {}
    for op in ops:
        groups.setdefault(op.group, []).append(op)
    keyed = [
        ((i + 0.5) / len(members), g, op)
        for g, members in enumerate(groups.values())
        for i, op in enumerate(members)
    ]
    return [op for _, _, op in sorted(keyed, key=lambda item: item[:2])]


def sampled_round(cf, seed: int, smoke: bool) -> list[PipelineOp]:
    rng = np.random.default_rng([seed, 1])
    grid = ((2, 3),) if smoke else SAMPLED_GRID
    ops = []
    for n, count in grid:
        for i in range(count):
            kind = SAMPLED_KINDS[i % len(SAMPLED_KINDS)]
            shots = SHOT_BUDGETS[(i // len(SAMPLED_KINDS)) % len(SHOT_BUDGETS)]
            kraus = make_kraus(kind, n, rng, SAMPLED_CPTP_RANK)
            tomo_seed = int(rng.integers(2**31))
            ops.append(_pipeline_op(cf, f"n1={n} {kind} shots={shots:.0e}", f"n1={n}", kraus, shots, tomo_seed))
    return interleave(ops)


def exact_round(cf, seed: int, smoke: bool) -> list[PipelineOp]:
    rng = np.random.default_rng([seed, 2])

    def op(n, kind, **extra):
        kraus = make_kraus(kind, n, rng, EXACT_CPTP_RANK)
        suffix = " stinespring" if extra.get("stinespring") else " schmidt" if extra.get("schmidt") else ""
        return _pipeline_op(cf, f"n1={n} {kind}{suffix}", f"n1={n}", kraus, None, 0, **extra)

    # The unitary, random_cptp and Schmidt ops at n1=12 sit in the middle of
    # the sorted op times, six ops cheaper and six dearer, so that the median
    # falls inside them and not on the edge between two kinds of op.
    ops = [
        op(8, "unitary"),
        op(8, "unitary"),
        op(8, "unitary"),
        op(8, "random_cptp"),
        op(8, "random_cptp"),
        op(8, "random_cptp", stinespring=True),
        op(8, "depolarizing"),
    ]
    if smoke:
        return ops[:1] + ops[5:6]
    return interleave(ops + [
        op(12, "unitary"),
        op(12, "random_cptp"),
        op(12, "random_cptp", schmidt=skewed_schmidt(cf, 12, rng)),
        op(12, "depolarizing"),
        op(16, "unitary"),
        op(16, "random_cptp"),
        op(16, "depolarizing"),
        op(16, "depolarizing"),
    ])


def result_digest(result) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.estimated_choi.matrix).tobytes())
    for op in result.kraus.operators:
        h.update(np.ascontiguousarray(op).tobytes())
    h.update(repr(float(result.success_trace)).encode())
    return h.hexdigest()


def run_pipeline_op(cf, op: PipelineOp) -> Outcome:
    op.counter.calls = 0
    start = time.perf_counter()
    try:
        result = cf.tomography.run_tomography(op.channel, op.config)
    except Exception as err:  # an op that raises counts as failed
        return Outcome(time.perf_counter() - start, False, f"{type(err).__name__}: {err}")
    seconds = time.perf_counter() - start
    if op.counter.calls != 1:
        return Outcome(seconds, False, f"evaluator called {op.counter.calls} times")
    outcome = check_choi(np.asarray(result.estimated_choi.matrix), op.truth, len(result.kraus.operators), op)
    outcome.seconds = seconds
    outcome.digest = result_digest(result)
    return outcome


# -- cli_roundtrip ---------------------------------------------------------


def matrix_payload(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def channel_doc(ops: list[np.ndarray]) -> dict:
    n2, n1 = ops[0].shape
    return {
        "format_version": 1,
        "dims": [n1, n2],
        "representation": "kraus",
        "payload": {"operators": [matrix_payload(op) for op in ops]},
    }


@dataclass
class Experiment:
    name: str
    n1: int
    n2: int
    rank: int
    shots: int | None
    truth: np.ndarray
    doc: dict
    truth_doc: dict
    first_output: dict = field(default_factory=dict)  # command -> first stdout bytes
    first_outcome: dict = field(default_factory=dict)  # command -> first checked Outcome


@dataclass
class CliOp:
    label: str
    group: str
    command: str  # "tomograph" or "compare"
    experiment: Experiment


def cli_experiments(seed: int, smoke: bool) -> list[Experiment]:
    rng = np.random.default_rng([seed, 3])
    specs = [
        ("small_n2", 2, "depolarizing", 10**4),
        ("small_n3", 3, "random_cptp", 10**6),
        ("small_discard_n3", 3, "project_discard", 10**5),
    ]
    if not smoke:
        specs += [("large_a_n16", 16, "random_cptp", None), ("large_b_n16", 16, "random_cptp", None)]
    experiments = []
    for name, n, kind, shots in specs:
        ops = make_kraus(kind, n, rng, SAMPLED_CPTP_RANK)
        config = {"shots": "exact" if shots is None else shots, "seed": int(rng.integers(2**31))}
        experiments.append(
            Experiment(
                name=name,
                n1=n,
                n2=n,
                rank=len(ops),
                shots=shots,
                truth=choi_of(ops),
                doc={"channel": channel_doc(ops), "config": config},
                truth_doc=channel_doc(ops),
            )
        )
    return experiments


def cli_round(experiments: list[Experiment]) -> list[CliOp]:
    """Each small experiment is tomographed and compared once; each large one
    is tomographed three times and compared once.

    Sorted by time that is 6 small ops, then the 2 large compares, then the 6
    large tomographs: the median falls among the large compares and p75
    among the large tomographs.
    """

    def op(command: str, exp: Experiment) -> CliOp:
        group = f"{command} {'exact' if exp.shots is None else 'finite'}"
        return CliOp(f"{command} {exp.name}", group, command, exp)

    small = [e for e in experiments if e.shots is not None]
    large = [e for e in experiments if e.shots is None]
    if not large:
        return [op(command, e) for e in small for command in ("tomograph", "compare")]
    (s1, s2, s3), (la, lb) = small, large
    t, c = (lambda e: op("tomograph", e)), (lambda e: op("compare", e))
    return [t(s1), t(la), c(s1), t(la), t(s2), t(la), c(la), c(s2), t(lb), t(s3), t(lb), c(s3), t(lb), c(lb)]


class CliRunner:
    """Writes experiment files into a work directory and runs CLI ops there."""

    def __init__(self, root: str, workdir: str, experiments: list[Experiment]):
        self.workdir = workdir
        self.env = subprocess_env(root)
        for exp in experiments:
            for suffix, doc in (("exp", exp.doc), ("truth", exp.truth_doc)):
                with open(self.path(exp, suffix), "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)

    def path(self, exp: Experiment, suffix: str) -> str:
        return os.path.join(self.workdir, f"{exp.name}.{suffix}.json")

    def argv(self, op: CliOp) -> list[str]:
        exp = op.experiment
        if op.command == "tomograph":
            return ["tomograph", self.path(exp, "exp"), "--output", self.path(exp, "result")]
        return ["compare", self.path(exp, "result"), self.path(exp, "truth"), "--output", self.path(exp, "cmp")]

    def run_subprocess(self, op: CliOp) -> tuple[float, int, bytes, str]:
        argv = [sys.executable, "-m", "choiforge.cli", *self.argv(op)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv,
                cwd=self.workdir,
                env=self.env,
                stdin=subprocess.DEVNULL,
                capture_output=True,
                timeout=SUBPROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, -1, b"", "timed out"
        return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")

    def run_in_process(self, cli_module, op: CliOp, tracer=None) -> tuple[float, int, bytes, str]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli_module.main(self.argv(op))
                else:
                    with tracer.span("cli.main"):
                        code = cli_module.main(self.argv(op))
        except Exception as exc:  # an op that raises counts as failed
            return time.perf_counter() - start, -1, b"", f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, code, out.getvalue().encode(), err.getvalue()

    def check(self, op: CliOp, seconds: float, code: int, stdout: bytes, stderr: str) -> Outcome:
        exp = op.experiment
        digest = hashlib.sha256(stdout).hexdigest()
        if code != 0:
            return Outcome(seconds, False, f"exit code {code}: {stderr.strip()[:200]}", digest)
        first = exp.first_output.get(op.command)
        if first is not None:
            if stdout != first:
                return Outcome(seconds, False, "output differs from the first run of this experiment", digest)
            repeat = exp.first_outcome[op.command]
            return dataclasses.replace(repeat, seconds=seconds)
        outcome = self._check_first(op, stdout)
        outcome.seconds, outcome.digest = seconds, digest
        exp.first_output[op.command] = stdout
        exp.first_outcome[op.command] = outcome
        return outcome

    def _check_first(self, op: CliOp, stdout: bytes) -> Outcome:
        exp = op.experiment
        output_path = self.path(exp, "result" if op.command == "tomograph" else "cmp")
        with open(output_path, "rb") as fh:
            if fh.read() != stdout:
                return Outcome(0.0, False, "stdout differs from the --output file")
        try:
            doc = json.loads(stdout)
        except ValueError:
            return Outcome(0.0, False, "stdout is not JSON")
        try:
            if op.command == "tomograph":
                return check_choi(payload_matrix(doc["estimated_choi"]), exp.truth, len(doc["kraus"]), exp)
            distance = float(doc["choi_distance"])
            if exp.shots is None and doc["equivalent"] is not True:
                return Outcome(0.0, False, "exact-mode compare is not equivalent")
            ceiling = FINITE_ERROR_CEILING * exp.n1 * exp.n1 * exp.n2 / math.sqrt(exp.shots or 1)
            if not math.isfinite(distance) or distance > ceiling:
                return Outcome(0.0, False, f"compare distance {distance} out of range")
        except (KeyError, TypeError, ValueError) as err:
            return Outcome(0.0, False, f"malformed {op.command} output: {err!r}")
        return Outcome(0.0)


def payload_matrix(payload: list) -> np.ndarray:
    pairs = np.asarray(payload, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def subprocess_env(root: str) -> dict:
    """Environment for child interpreters: the checkout's src first, no thread override."""
    env = dict(os.environ)
    env.pop("CHOIFORGE_THREADS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
