"""Observability: pipeline tracing, run-time telemetry and failure
forensics.

The substrate every benchmark and robustness experiment measures itself
against: nested wall-clock spans over the rewriting pipeline's stages,
each carrying the counters of the stage that produced them (trampolines
by kind, CFG shape), structured events for per-function failure
forensics, JSON export, and a human-readable profile table.  Each fact is counted once, on its stage's span; a
subtree's :meth:`Span.total_counters` sums it over any scope.

Everything is zero-dependency and defaults to the no-op
:data:`NULL_TRACER`, so un-instrumented runs pay near-zero cost.
Performance across commits is not tracked here: the seeded end-to-end
benchmark (``bench/run.py``) compares commits, and
:mod:`repro.obs.receipt` stamps its rows (and the ``bench_*.py`` JSON
rows) with the environment fingerprint.

:mod:`repro.obs.engine` is the one run-time instrument: the
:class:`EngineTelemetry` collector the emulator feeds at
fuse/compile/dispatch/guard time, at every control transfer and
trampoline site of cold code, and from the kernel's RA-translation and
unwind hooks, read out as a schema-versioned ``EngineReport/v2`` via
:func:`render_engine_report`.
"""

from repro.obs.degrade import render_degradation
from repro.obs.engine import (
    ENGINE_REPORT_SCHEMA,
    EngineTelemetry,
    GuardSite,
    render_engine_report,
)
from repro.obs.receipt import stamp_record
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    render_profile,
    trace_from_json,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "render_profile",
    "trace_from_json",
    "EngineTelemetry",
    "GuardSite",
    "ENGINE_REPORT_SCHEMA",
    "render_engine_report",
    "render_degradation",
    "stamp_record",
]
