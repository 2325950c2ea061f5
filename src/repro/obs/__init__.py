"""Observability: pipeline tracing, metrics, and failure forensics.

The substrate every benchmark and robustness experiment measures itself
against: nested wall-clock spans over the rewriting pipeline's stages,
counter/gauge/histogram metrics, structured events for per-function
failure forensics, JSON export, and a human-readable profile table.

Everything is zero-dependency and defaults to no-op singletons
(:data:`NULL_TRACER`, :data:`NULL_METRICS`) so un-instrumented runs pay
near-zero cost.

:mod:`repro.obs.receipt` is the per-rewrite record: one schema-versioned,
content-addressed :class:`RewriteRecord` per rewrite (provenance, cost,
and on request a per-function coverage atlas), stamped with an
:class:`EnvFingerprint` and persisted in the append-only
:class:`RecordLedger` through :class:`~repro.obs.store.JsonlStore`.
Performance across commits is not tracked here: the seeded end-to-end
benchmark (``bench/run.py``) compares commits.

:mod:`repro.obs.engine` is the engine observatory: the
:class:`EngineTelemetry` collector the superblock JIT feeds at
fuse/compile/dispatch/guard time, read out as a schema-versioned
``EngineReport/v1`` via :func:`render_engine_report`.
"""

from repro.obs.degrade import render_degradation
from repro.obs.engine import (
    ENGINE_REPORT_SCHEMA,
    EngineTelemetry,
    GuardSite,
    render_engine_report,
)
from repro.obs.flight import FlightRecorder, render_flight_report
from repro.obs.receipt import (
    AtlasBuilder,
    EnvFingerprint,
    RecordLedger,
    RewriteRecord,
    content_digest,
    delta_metrics,
    diff_records,
    fleet_summary,
    render_record,
    render_record_diff,
    render_record_list,
    render_record_top,
    snapshot_metrics,
    stamp_record,
)
from repro.obs.store import JsonlStore, atomic_write_text
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    NULL_METRICS,
    NullMetrics,
)
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
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "FlightRecorder",
    "render_flight_report",
    "EngineTelemetry",
    "GuardSite",
    "ENGINE_REPORT_SCHEMA",
    "render_engine_report",
    "render_degradation",
    "EnvFingerprint",
    "stamp_record",
    "RewriteRecord",
    "RecordLedger",
    "AtlasBuilder",
    "content_digest",
    "snapshot_metrics",
    "delta_metrics",
    "fleet_summary",
    "diff_records",
    "render_record",
    "render_record_list",
    "render_record_top",
    "render_record_diff",
    "JsonlStore",
    "atomic_write_text",
]
