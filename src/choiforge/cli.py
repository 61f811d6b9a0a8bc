"""Command-line front end: conversions, CP/TP checks, tomography runs, comparisons.

Each ``cmd_*`` handler returns its JSON payload or raises; ``main`` alone
writes the payload to stdout and ``--output``, or the JSON diagnostic to
stderr. The exit codes live in one place, ``_step``, which maps what a
step raises: 0 success, 2 parse/validation failure (including an
``--output`` path that cannot be written and a value that overflows float
range), 3 complete-positivity violation, 4 check failure, 5 configuration
error. ``main`` runs each handler with numpy float overflow raising, so no
``Infinity`` reaches the payload and no numpy warning reaches stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .channels import (
    ChoiMatrix,
    KrausSet,
    NotCompletelyPositiveError,
    ZOO_CHANNEL_NAMES,
    choi_cp_tp_verdict,
    choi_to_kraus,
    kraus_to_choi,
    stinespring_to_choi,
    zoo_channel,
)
from .metrics import choi_distance, process_fidelity, resource_report
from .serialize import (
    ChannelObject,
    FileFormatError,
    channel_to_doc,
    doc_to_channel,
    doc_to_result_kraus,
    dump_document,
    load_document,
    parse_experiment_channel,
    parse_experiment_config,
    result_to_doc,
)
from .tomography import OpaqueChannel, run_tomography

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_CP = 3
EXIT_CHECK = 4
EXIT_CONFIG = 5

DEFAULT_COMPARE_TOL = 1e-6


class CommandError(Exception):
    """A failed command: exit code, message and extra diagnostic fields.

    ``payload``, when set, is written like a success payload before the
    diagnostic (``check`` prints its verdict and exits 4).
    """

    def __init__(self, code: int, message: str, payload: dict | None = None, **extra):
        super().__init__(message)
        self.code = code
        self.payload = payload
        self.extra = extra


@contextmanager
def _step(code: int, **extra):
    """Map what a step raises to its exit code: a non-CP map to 3 with the
    eigenvalue, a file-format fault or a float overflow to 2, any other
    ValueError to ``code`` with ``extra`` diagnostic fields."""
    try:
        yield
    except NotCompletelyPositiveError as err:
        raise CommandError(EXIT_NOT_CP, str(err), min_choi_eigenvalue=err.min_eigenvalue) from err
    except FileFormatError as err:
        raise CommandError(EXIT_PARSE, str(err)) from err
    except FloatingPointError as err:
        raise CommandError(EXIT_PARSE, f"a value overflowed float range: {err}") from err
    except ValueError as err:
        raise CommandError(code, str(err), **extra) from err


def _fail(code: int, message: str, **extra) -> int:
    diagnostic = {"error": message, "exit_code": code, **extra}
    print(json.dumps(diagnostic), file=sys.stderr)
    return code


def _emit(doc: dict, output: str | None) -> None:
    text = dump_document(doc)
    if output:
        Path(output).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _load_doc(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise FileFormatError(f"cannot read {path}: {err.strerror}") from err
    return load_document(text)


def _channel_to_choi(channel: ChannelObject) -> ChoiMatrix:
    if isinstance(channel, KrausSet):
        return kraus_to_choi(channel)
    if isinstance(channel, ChoiMatrix):
        return channel
    return stinespring_to_choi(channel)


def _load_channel_for_compare(path: str) -> KrausSet | ChoiMatrix:
    """Accept a channel file or a tomography result file; yield its Kraus set
    (a Kraus file, a result file) or its Choi matrix (any other channel file)."""
    doc = _load_doc(path)
    if "representation" in doc:
        channel = doc_to_channel(doc)
        return channel if isinstance(channel, KrausSet) else _channel_to_choi(channel)
    if "kraus" in doc:
        return doc_to_result_kraus(doc)
    raise FileFormatError(f"{path}: neither a channel file nor a tomography result file")


def cmd_convert(args) -> dict:
    with _step(EXIT_PARSE):
        channel = doc_to_channel(_load_doc(args.input))
        if args.to == "choi":
            return channel_to_doc(_channel_to_choi(channel))
        if isinstance(channel, KrausSet):
            return channel_to_doc(channel)
        return channel_to_doc(choi_to_kraus(_channel_to_choi(channel)))


def cmd_check(args) -> dict:
    with _step(EXIT_PARSE):
        verdict = choi_cp_tp_verdict(_channel_to_choi(doc_to_channel(_load_doc(args.input))))
    if verdict.is_cp and verdict.is_trace_nonincreasing:
        return asdict(verdict)
    reasons = []
    if not verdict.is_cp:
        reasons.append(f"min Choi eigenvalue {verdict.min_choi_eigenvalue:.6e}")
    if not verdict.is_trace_nonincreasing:
        reasons.append("trace increasing")
    raise CommandError(EXIT_CHECK, "check failed: " + ", ".join(reasons), asdict(verdict))


def cmd_tomograph(args) -> dict:
    with _step(EXIT_PARSE):
        doc = _load_doc(args.input)
        channel_spec = parse_experiment_channel(doc.get("channel"))
    with _step(EXIT_CONFIG):
        config = parse_experiment_config(doc)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if isinstance(channel_spec, ChoiMatrix):
            channel_spec = choi_to_kraus(channel_spec)
        if isinstance(channel_spec, KrausSet):
            channel = OpaqueChannel.from_kraus(channel_spec)
        else:
            channel = OpaqueChannel.from_stinespring(channel_spec)
        return result_to_doc(run_tomography(channel, config), config)


def cmd_compare(args) -> dict:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise CommandError(EXIT_PARSE, f"--tol must be a finite nonnegative number, got {args.tol}")
    with _step(EXIT_PARSE):
        channel_a = _load_channel_for_compare(args.file_a)
        choi_a = _channel_to_choi(channel_a)
        channel_b = _load_channel_for_compare(args.file_b)
        distance = choi_distance(choi_a, _channel_to_choi(channel_b))
        try:
            fidelity: float | None = process_fidelity(channel_a, channel_b)
        except ValueError:
            fidelity = None  # undefined unless both maps are CP and trace preserving
    return {
        "choi_distance": distance,
        "process_fidelity": fidelity,
        "equivalent": bool(distance < args.tol),
        "tol": args.tol,
    }


def cmd_zoo(args) -> dict:
    if len(args.dims) > 2:
        raise CommandError(EXIT_PARSE, f"--dims takes one or two dimensions, got {args.dims}")
    with _step(EXIT_PARSE, valid_names=list(ZOO_CHANNEL_NAMES)):
        return channel_to_doc(zoo_channel(args.name, args.params, *args.dims))


def cmd_resources(args) -> dict:
    with _step(EXIT_CONFIG):
        return asdict(resource_report(args.dims[0], args.dims[1]))


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 2 with the JSON diagnostic.

    Subparsers are built from the same class, so this covers them too.
    """

    def error(self, message):
        self.exit(_fail(EXIT_PARSE, f"{self.prog}: {message}"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="choiforge",
        description=(
            "Quantum channel representations, conversions, and simulated "
            "ancilla-assisted process tomography."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="also write the payload to this file")

    p_convert = subparsers.add_parser(
        "convert", parents=[common], help="convert a channel file between representations"
    )
    p_convert.add_argument("input")
    p_convert.add_argument("--to", choices=["kraus", "choi"], required=True)
    p_convert.set_defaults(handler=cmd_convert)

    p_check = subparsers.add_parser(
        "check", parents=[common], help="report CP / trace-preservation verdict"
    )
    p_check.add_argument("input")
    p_check.set_defaults(handler=cmd_check)

    p_tomo = subparsers.add_parser(
        "tomograph", parents=[common], help="run a tomography experiment file"
    )
    p_tomo.add_argument("input")
    p_tomo.add_argument(
        "--seed", type=int, default=None, help="override the experiment file's seed"
    )
    p_tomo.set_defaults(handler=cmd_tomograph)

    p_compare = subparsers.add_parser(
        "compare", parents=[common], help="compare two channel or result files"
    )
    p_compare.add_argument("file_a")
    p_compare.add_argument("file_b")
    p_compare.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_COMPARE_TOL,
        help="equivalence threshold on Choi distance",
    )
    p_compare.set_defaults(handler=cmd_compare)

    p_zoo = subparsers.add_parser(
        "zoo", parents=[common], help="write a named test channel as a kraus file"
    )
    p_zoo.add_argument("--name", required=True)
    p_zoo.add_argument("--params", type=float, nargs="*", default=[])
    p_zoo.add_argument("--dims", type=int, nargs="+", default=[2])
    p_zoo.set_defaults(handler=cmd_zoo)

    p_res = subparsers.add_parser(
        "resources", parents=[common], help="measurement-resource report for given dims"
    )
    p_res.add_argument("--dims", type=int, nargs=2, required=True)
    p_res.set_defaults(handler=cmd_resources)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise"):
            payload, failure = args.handler(args), None
    except CommandError as err:
        payload, failure = err.payload, err
    if payload is not None:
        try:
            _emit(payload, args.output)
        except OSError as err:
            failure = CommandError(EXIT_PARSE, f"cannot write {args.output}: {err.strerror}")
    if failure is None:
        return EXIT_OK
    return _fail(failure.code, str(failure), **failure.extra)


if __name__ == "__main__":
    sys.exit(main())
