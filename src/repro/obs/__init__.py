"""Observability: pipeline tracing, run-time telemetry and failure
forensics.

The substrate every benchmark and robustness experiment measures itself
against: nested wall-clock spans over the rewriting pipeline's stages,
each carrying the counters of the stage that produced them (trampolines
by kind, CFG shape, cache hits/misses/stores), structured events for
per-function failure forensics, JSON export, and a human-readable
profile table.  Each fact is counted once, on its stage's span; a
subtree's :meth:`Span.total_counters` sums it over any scope.

Everything is zero-dependency and defaults to the no-op
:data:`NULL_TRACER`, so un-instrumented runs pay near-zero cost.

:mod:`repro.obs.receipt` is the per-rewrite record: one schema-versioned,
content-addressed :class:`RewriteRecord` (provenance, cost, and on
request a per-function coverage atlas), stamped with an
:class:`EnvFingerprint`.  It is assembled only for a ledger:
:func:`record_rewrite` runs one rewrite and appends its record to the
append-only :class:`RecordLedger` (stored through
:class:`~repro.obs.store.JsonlStore`); a plain rewrite or a harness
evaluation builds none.
Performance across commits is not tracked here: the seeded end-to-end
benchmark (``bench/run.py``) compares commits.

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
from repro.obs.receipt import (
    AtlasBuilder,
    EnvFingerprint,
    RecordLedger,
    RewriteRecord,
    content_digest,
    diff_records,
    record_rewrite,
    render_record,
    render_record_diff,
    render_record_list,
    render_record_top,
    stamp_record,
)
from repro.obs.store import JsonlStore
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
    "EnvFingerprint",
    "stamp_record",
    "RewriteRecord",
    "record_rewrite",
    "RecordLedger",
    "AtlasBuilder",
    "content_digest",
    "diff_records",
    "render_record",
    "render_record_list",
    "render_record_top",
    "render_record_diff",
    "JsonlStore",
]
