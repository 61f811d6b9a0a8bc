"""Command-line front end: conversions, CP/TP checks, tomography runs, comparisons.

Exit codes: 0 success, 2 parse/validation failure, 3 complete-positivity
violation, 4 check failure, 5 configuration error. Every failing path writes
a JSON diagnostic to stderr; every exit-0 path writes a JSON payload to
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

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
from .tomography import (
    NotMaximumSchmidtError,
    OpaqueChannel,
    SchmidtConditioningError,
    run_tomography,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_CP = 3
EXIT_CHECK = 4
EXIT_CONFIG = 5

DEFAULT_COMPARE_TOL = 1e-6


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


def _load_channel_for_compare(path: str) -> ChoiMatrix:
    """Accept a channel file or a tomography result file; yield its Choi matrix."""
    doc = _load_doc(path)
    if "representation" in doc:
        return _channel_to_choi(doc_to_channel(doc))
    if "kraus" in doc:
        return kraus_to_choi(doc_to_result_kraus(doc))
    raise FileFormatError(
        f"{path}: neither a channel file nor a tomography result file"
    )


def cmd_convert(args) -> int:
    try:
        doc = _load_doc(args.input)
        channel = doc_to_channel(doc)
    except (FileFormatError, ValueError) as err:
        return _fail(EXIT_PARSE, str(err))

    try:
        if args.to == "choi":
            converted: ChannelObject = _channel_to_choi(channel)
        else:
            if isinstance(channel, KrausSet):
                converted = channel
            else:
                converted = choi_to_kraus(_channel_to_choi(channel))
    except NotCompletelyPositiveError as err:
        return _fail(EXIT_NOT_CP, str(err), min_choi_eigenvalue=err.min_eigenvalue)
    except ValueError as err:
        return _fail(EXIT_PARSE, str(err))

    _emit(channel_to_doc(converted), args.output)
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        doc = _load_doc(args.input)
        verdict = choi_cp_tp_verdict(_channel_to_choi(doc_to_channel(doc)))
    except (FileFormatError, ValueError) as err:
        return _fail(EXIT_PARSE, str(err))

    _emit(asdict(verdict), args.output)
    if verdict.is_cp and verdict.is_trace_nonincreasing:
        return EXIT_OK
    reasons = []
    if not verdict.is_cp:
        reasons.append(f"min Choi eigenvalue {verdict.min_choi_eigenvalue:.6e}")
    if not verdict.is_trace_nonincreasing:
        reasons.append("trace increasing")
    return _fail(EXIT_CHECK, "check failed: " + ", ".join(reasons))


def cmd_tomograph(args) -> int:
    try:
        doc = _load_doc(args.input)
        channel_spec = parse_experiment_channel(doc.get("channel"))
    except (FileFormatError, ValueError) as err:
        return _fail(EXIT_PARSE, str(err))

    try:
        config = parse_experiment_config(doc)
    except FileFormatError as err:
        return _fail(EXIT_PARSE, str(err))
    except (NotMaximumSchmidtError, SchmidtConditioningError, ValueError) as err:
        return _fail(EXIT_CONFIG, str(err))

    if args.seed is not None:
        config = replace(config, seed=args.seed)

    if isinstance(channel_spec, ChoiMatrix):
        try:
            channel_spec = choi_to_kraus(channel_spec)
        except NotCompletelyPositiveError as err:
            return _fail(EXIT_NOT_CP, str(err), min_choi_eigenvalue=err.min_eigenvalue)
    if isinstance(channel_spec, KrausSet):
        channel = OpaqueChannel.from_kraus(channel_spec)
    else:
        channel = OpaqueChannel.from_stinespring(channel_spec)

    try:
        result = run_tomography(channel, config)
    except (NotMaximumSchmidtError, SchmidtConditioningError) as err:
        return _fail(EXIT_CONFIG, str(err))
    except NotCompletelyPositiveError as err:
        return _fail(EXIT_NOT_CP, str(err), min_choi_eigenvalue=err.min_eigenvalue)
    except ValueError as err:
        return _fail(EXIT_CONFIG, str(err))

    _emit(result_to_doc(result, config), args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        choi_a = _load_channel_for_compare(args.file_a)
        choi_b = _load_channel_for_compare(args.file_b)
        distance = choi_distance(choi_a, choi_b)
    except (FileFormatError, ValueError) as err:
        return _fail(EXIT_PARSE, str(err))

    try:
        fidelity: float | None = process_fidelity(choi_a, choi_b)
    except ValueError:
        fidelity = None  # undefined unless both maps are CP and trace preserving

    _emit(
        {
            "choi_distance": distance,
            "process_fidelity": fidelity,
            "equivalent": bool(distance < args.tol),
            "tol": args.tol,
        },
        args.output,
    )
    return EXIT_OK


def cmd_zoo(args) -> int:
    dims = args.dims
    if len(dims) > 2:
        return _fail(EXIT_PARSE, f"--dims takes one or two dimensions, got {dims}")
    input_dim = dims[0]
    output_dim = dims[1] if len(dims) > 1 else None
    try:
        kraus = zoo_channel(args.name, args.params, input_dim, output_dim)
    except ValueError as err:
        return _fail(EXIT_PARSE, str(err), valid_names=list(ZOO_CHANNEL_NAMES))
    _emit(channel_to_doc(kraus), args.output)
    return EXIT_OK


def cmd_resources(args) -> int:
    try:
        report = resource_report(args.dims[0], args.dims[1])
    except ValueError as err:
        return _fail(EXIT_CONFIG, str(err))
    _emit(asdict(report), args.output)
    return EXIT_OK


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
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
