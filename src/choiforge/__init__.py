"""Quantum channels in three equivalent representations plus a simulated
ancilla-assisted process-tomography pipeline that recovers canonical Kraus
operators from an opaque channel."""

from .channels import (
    ChoiMatrix,
    CpTpVerdict,
    KrausSet,
    NotCompletelyPositiveError,
    StinespringModel,
    ZOO_CHANNEL_NAMES,
    choi_cp_tp_verdict,
    choi_to_kraus,
    haar_random_unitary,
    kraus_to_choi,
    random_cptp,
    stinespring_to_choi,
    zoo_channel,
)
from .linalg import (
    NotHermitianError,
    frobenius_distance,
    partial_trace,
)
from .metrics import ResourceReport, choi_distance, process_fidelity, resource_report
from .tomography import (
    EXACT,
    NotMaximumSchmidtError,
    OpaqueChannel,
    SchmidtConditioningError,
    SchmidtInput,
    TomographyConfig,
    TomographyResult,
    joint_output_state,
    prepare_schmidt_input,
    reconstruct_from_schmidt,
    run_tomography,
    simulate_state_tomography,
)

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "ZOO_CHANNEL_NAMES",
    "ChoiMatrix",
    "CpTpVerdict",
    "KrausSet",
    "NotCompletelyPositiveError",
    "NotHermitianError",
    "NotMaximumSchmidtError",
    "OpaqueChannel",
    "ResourceReport",
    "SchmidtConditioningError",
    "SchmidtInput",
    "StinespringModel",
    "TomographyConfig",
    "TomographyResult",
    "choi_cp_tp_verdict",
    "choi_distance",
    "choi_to_kraus",
    "frobenius_distance",
    "haar_random_unitary",
    "joint_output_state",
    "kraus_to_choi",
    "partial_trace",
    "prepare_schmidt_input",
    "process_fidelity",
    "random_cptp",
    "reconstruct_from_schmidt",
    "resource_report",
    "run_tomography",
    "simulate_state_tomography",
    "stinespring_to_choi",
    "zoo_channel",
]
