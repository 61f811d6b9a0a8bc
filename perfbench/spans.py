"""In-memory span recorder that wraps choiforge's module-level names.

The benchmark never edits the package. It replaces, for the length of a
traced phase, the names that ``run_tomography`` and ``cli.main`` look up in
their module globals with thin wrappers that record a span per call. A name
that a later version of the package no longer has is skipped and reports
zero calls.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> module-level names it covers, as (choiforge submodule, attribute)
SPANS = (
    ("tomography.run", (("tomography", "run_tomography"), ("cli", "run_tomography"))),
    (
        "tomography.prepare",
        (("tomography", "prepare_max_entangled"), ("tomography", "prepare_schmidt_input")),
    ),
    ("tomography.sample", (("tomography", "simulate_state_tomography"),)),
    ("tomography.project", (("tomography", "project_to_psd"),)),
    (
        "tomography.reconstruct",
        (
            ("tomography", "reconstruct_from_max_entangled"),
            ("tomography", "reconstruct_from_schmidt"),
        ),
    ),
    ("channels.apply_kraus", (("tomography", "apply_kraus"),)),
    ("channels.apply_stinespring", (("tomography", "apply_stinespring"),)),
    ("channels.choi_to_kraus", (("tomography", "choi_to_kraus"), ("cli", "choi_to_kraus"))),
    (
        "channels.kraus_to_choi",
        (("tomography", "kraus_to_choi"), ("cli", "kraus_to_choi"), ("channels", "kraus_to_choi")),
    ),
    (
        "linalg.hermitian_eig",
        (("tomography", "hermitian_eig"), ("channels", "hermitian_eig"), ("metrics", "hermitian_eig")),
    ),
    ("linalg.tensor_product", (("tomography", "tensor_product"), ("channels", "tensor_product"))),
    (
        "serialize.matrix_to_payload",
        (("cli", "matrix_to_payload"), ("serialize", "matrix_to_payload")),
    ),
    (
        "serialize.payload_to_matrix",
        (("cli", "payload_to_matrix"), ("serialize", "payload_to_matrix")),
    ),
    ("serialize.dump", (("cli", "dump_document"), ("serialize", "dump_document"))),
    ("serialize.load", (("cli", "load_document"), ("serialize", "load_document"))),
    ("metrics.process_fidelity", (("cli", "process_fidelity"),)),
)

# Root span the benchmark opens around an in-process ``cli.main`` call, and
# the span around each evaluator call (opened by the joint_output_state hook).
CLI_MAIN = "cli.main"
EVALUATE = "tomography.evaluate"

SPAN_NAMES = tuple(name for name, _ in SPANS) + (EVALUATE, CLI_MAIN)


class Tracer:
    """Records spans (op id, span id, parent id, name, start, end, raised).

    Counts that are not spans -- sampled basis operators, basis bytes
    computed, document bytes, clipped mass -- go to ``counts``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        raised = True
        try:
            yield
            raised = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op, sid, parent, name, start, end, raised))

    def wrap(self, name: str, fn, on_call=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn, amount=lambda args, result: 1.0):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += amount(args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------
    def _patch(self, module, attr: str, replacement_for) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, replacement_for(original))

    def install(self, modules: dict) -> None:
        """Wrap every name in SPANS plus the evaluator and sampler hooks."""
        hooks = {
            "serialize.dump": lambda args, text: self._add("serialize.dump.bytes", len(text.encode())),
            "serialize.load": lambda args, doc: self._add("serialize.load.bytes", len(args[0].encode())),
            "tomography.project": self._record_clipped_mass,
        }
        for name, targets in SPANS:
            for module_name, attr in targets:
                self._patch(modules[module_name], attr, lambda fn, name=name: self.wrap(name, fn, hooks.get(name)))
        tomography = modules["tomography"]
        self._patch(tomography, "joint_output_state", self._evaluate_hook)
        self._patch(tomography, "_sampled_coefficient", lambda fn: self.count("tomography.sample.operators", fn))
        self._patch(
            tomography,
            "hermitian_operator_basis",
            lambda fn: self.count(
                "tomography.sample.basis_bytes_computed", fn, lambda args, basis: float(sum(m.nbytes for m in basis))
            ),
        )

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _evaluate_hook(self, joint_output_state):
        def hooked(channel, input_vector, *args, **kwargs):
            traced = dataclasses.replace(channel, evaluator=self.wrap(EVALUATE, channel.evaluator))
            return joint_output_state(traced, input_vector, *args, **kwargs)

        return hooked

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def _record_clipped_mass(self, args, result) -> None:
        # project_to_psd returns (matrix, clipped mass); any other shape is skipped
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], float):
            self._add("tomography.project.clipped_mass", result[1])
            self._add("tomography.project.calls_with_mass", 1)

    # -- summaries -------------------------------------------------------
    def _self_seconds(self) -> dict[int, float]:
        """Span id -> its duration minus the durations of its child spans."""
        child_time = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return {sid: end - start - child_time[sid] for _, sid, _, _, start, end, _ in self.spans}

    def per_span(self) -> dict[str, dict]:
        """Calls, total ms, self ms and raised calls per span name."""
        self_s = self._self_seconds()
        table = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "errors": 0} for name in SPAN_NAMES}
        for _, sid, _, name, start, end, raised in self.spans:
            row = table[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += self_s[sid] * 1e3
            row["errors"] += int(raised)
        return table

    def self_ms_by_op(self) -> dict[int, dict[str, float]]:
        """Self time in ms per op id and span name."""
        self_s = self._self_seconds()
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for op, sid, _, name, _, _, _ in self.spans:
            out[op][name] += self_s[sid] * 1e3
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, times in ms from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end, raised in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "op": op,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_ms": round((start - origin) * 1e3, 6),
                            "dur_ms": round((end - start) * 1e3, 6),
                            "raised": raised,
                        }
                    )
                    + "\n"
                )
