"""In-memory spans around calls into cvqec's public functions.

The benchmark opens a root span around each operation.  While it is open,
`instrument` routes the calls the CLI makes into each module through
`Tracer.wrap`, so every span records its name, start, end and parent.
Calls made outside an operation, such as the checks, are not recorded.
Spans are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from pathlib import Path

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "cli": "cli.self_s",
    "fock.operator": "fock.operator_s",
    "bridge.generators": "bridge.generators_s",
    "bridge.gate_table": "bridge.gate_table_s",
    "verify.restrict": "verify.restrict_s",
    "verify.exact_suite": "verify.exact_suite_s",
    "verify.scan": "verify.scan_s",
    "combs.gate": "combs.gate_s",
    "isometries.pipeline": "isometries.pipeline_s",
    "isometries.certificate": "isometries.certificate_s",
    "isometries.report": "isometries.report_s",
}

# (module, attribute, span name): names the CLI binds at import, plus the
# two functions alg1_report reaches through the isometries module
PATCHES = (
    ("cli", "rot_logical_op", "fock.operator"),
    ("cli", "fock_operator", "fock.operator"),
    ("cli", "approx_ideal_rot_codeword", "fock.operator"),
    ("cli", "map_error_generators", "bridge.generators"),
    ("cli", "bridge_gate_table", "bridge.gate_table"),
    ("cli", "logical_action", "verify.restrict"),
    ("cli", "stabilizer_check", "verify.restrict"),
    ("cli", "detectability_check", "verify.restrict"),
    ("cli", "gkp_exact_suite", "verify.exact_suite"),
    ("cli", "convergence_scan", "verify.scan"),
    ("cli", "alg1_report", "isometries.report"),
    ("isometries", "alg1_pipeline", "isometries.pipeline"),
    ("isometries", "validate_spectrum_family", "isometries.certificate"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @property
    def active(self) -> bool:
        """True while an operation's root span is open."""
        return bool(self._open)

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self, first: int, factors: list[float]) -> dict[str, float]:
        """Per-layer self time summed over spans[first:]: duration minus the children's.

        The root spans are the round's operations, in order; every span is
        scaled by its operation's host-speed factor.
        """
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        scale = [0.0] * len(spans)
        roots = 0
        for k, (name, start, end, parent) in enumerate(spans):
            if parent is None:
                scale[k] = factors[roots]
                roots += 1
            else:
                child[parent - first] += end - start
                scale[k] = scale[parent - first]
        out = dict.fromkeys(SPAN_METRICS.values(), 0.0)
        for (name, start, end, _), inner, s in zip(spans, child, scale):
            out[SPAN_METRICS[name]] += (end - start - inner) * s
        return out

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


@contextlib.contextmanager
def instrument(tracer: Tracer, modules: dict):
    """Route the PATCHES through the tracer and count every FockOperator built inside an operation."""
    saved = []
    for module, attr, name in PATCHES:
        target = modules[module]
        saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, tracer.wrap(name, getattr(target, attr)))
    operator = modules["fock"].FockOperator
    post_init = operator.__post_init__
    saved.append((operator, "__post_init__", post_init))

    def counted(op):
        post_init(op)
        if tracer.active:
            tracer.counts["fock.operators"] += 1
            tracer.counts["fock.operator_bytes"] += op.entries.nbytes

    operator.__post_init__ = counted
    try:
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
