"""The incremental pipeline's artifact model and execution substrate.

The rewriter is an orchestrator over :class:`FunctionWorkItem`\\ s — one
per function, each carrying the per-function artifacts the pipeline
produces for it (CFG, function-pointer scan, CFL/placement fragment).
Every artifact is a pure function of ``(function bytes, arch, mode,
construction options)`` — plus, conservatively, the whole binary image,
since analyses read jump tables and pointer slots outside the function
body — which buys two things:

* **content-addressed caching** — artifacts live in an
  :class:`repro.core.cache.ArtifactCache` keyed by a stable digest of
  their inputs, so a second rewrite of an unchanged binary performs
  zero constructions (see :class:`AnalysisCacheView`);
* **parallel batch rewriting** — independent per-function analyses run
  through a pluggable executor (:func:`make_executor`): serial by
  default, a ``concurrent.futures`` thread or process pool behind
  ``--jobs N``.

Cross-function state keeps its serial barriers: seed discovery between
construction waves, the CFL entry set, scratch-pool allocation, layout
and ``.ra_map`` emission all run in the orchestrator, in deterministic
(address-sorted) order — which is why cached, parallel and serial runs
produce byte-identical binaries.
"""

import concurrent.futures
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional

from repro.core.cache import (
    MISS,
    function_bytes_digest,
    image_digest,
)
from repro.obs import Metrics, NULL_METRICS, Span

__all__ = [
    "FunctionWorkItem",
    "AnalysisCacheView",
    "analysis_cache_view",
    "SerialExecutor",
    "PoolExecutor",
    "make_executor",
    "record_completed_span",
    "run_accounted",
    "worker_metrics",
    "options_key",
]


@dataclass
class FunctionWorkItem:
    """One function's unit of pipeline work and its artifacts.

    Identity fields name the function; artifact fields are filled in as
    the pipeline stages run (each either computed or loaded from the
    artifact cache — ``cached``/``seconds`` record which, per kind).
    """

    name: str
    entry: int
    range_end: Optional[int] = None
    pad_handlers: tuple = ()
    #: digest of the function's own byte range (None when unknown)
    byte_digest: Optional[str] = None

    #: per-function CFG (:class:`repro.analysis.cfg.FunctionCFG`)
    cfg: object = None
    #: call targets discovered while decoding this function
    discovered_calls: tuple = ()
    #: instructions decoded during construction
    instructions: int = 0
    #: per-function pointer scan (:class:`repro.analysis.funcptr.FunctionPtrScan`)
    funcptr: object = None
    #: per-function CFL/placement fragment
    #: (:class:`repro.core.placement.PlacementFragment`)
    placement: object = None

    #: artifact kind -> True when served from the cache
    cached: dict = field(default_factory=dict)
    #: artifact kind -> compute seconds (original compute time on hits)
    seconds: dict = field(default_factory=dict)

    def key_parts(self):
        """The identity portion of this item's cache keys."""
        return (self.name, self.entry, self.range_end,
                tuple(self.pad_handlers), self.byte_digest)


class AnalysisCacheView:
    """An :class:`ArtifactCache` bound to one rewrite's invariant prefix.

    The prefix digests everything common to every artifact of the run
    (binary image, arch, construction options — extended with mode and
    the relocated set for mode-dependent artifacts), so stage code only
    supplies the per-function parts.  The view also owns the per-run
    ``cache.*`` metrics so hit/miss accounting lands in the same
    registry as the rest of the rewrite's telemetry.
    """

    __slots__ = ("cache", "prefix", "metrics")

    def __init__(self, cache, prefix, metrics=None):
        self.cache = cache
        self.prefix = tuple(prefix)
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def extend(self, parts, metrics=None):
        """A narrower view: same cache, longer invariant prefix."""
        return AnalysisCacheView(
            self.cache, self.prefix + tuple(parts),
            self.metrics if metrics is None else metrics,
        )

    def fetch(self, kind, parts):
        """Look up one artifact; returns ``(value, key, seconds)`` where
        value is :data:`repro.core.cache.MISS` on a miss and ``seconds``
        is the artifact's original compute time.  Records ``cache.*``
        counters and, on a hit, the compute seconds the hit saved."""
        metrics = self.metrics
        key = self.cache.key(kind, self.prefix + tuple(parts))
        got = self.cache.get(kind, key)
        if got is MISS:
            metrics.inc("cache.misses")
            metrics.inc(f"cache.{kind}.misses")
            return MISS, key, 0.0
        seconds, value = got
        metrics.inc("cache.hits")
        metrics.inc(f"cache.{kind}.hits")
        metrics.observe("cache.seconds_saved", seconds)
        return value, key, seconds

    def store(self, kind, key, value, seconds=0.0):
        """Store a freshly computed artifact under its prefetched key."""
        self.cache.put(kind, key, value, seconds)
        self.metrics.inc("cache.stores")


def options_key(options):
    """Stable key parts for a ConstructionOptions (all public knobs)."""
    if options is None:
        return ()
    return tuple(sorted(
        (name, value) for name, value in vars(options).items()
        if not name.startswith("_")
    ))


def analysis_cache_view(cache, binary, arch_name, options, metrics=None):
    """The standard per-rewrite view: image digest + arch + options."""
    prefix = (image_digest(binary), arch_name, options_key(options))
    return AnalysisCacheView(cache, prefix, metrics)


def work_item_for(binary, name, entry, range_end=None, pad_handlers=()):
    """Build a :class:`FunctionWorkItem` with its content digest."""
    return FunctionWorkItem(
        name=name,
        entry=entry,
        range_end=range_end,
        pad_handlers=tuple(sorted(pad_handlers)),
        byte_digest=function_bytes_digest(binary, entry, range_end),
    )


# -- worker accounting ------------------------------------------------------

#: Per-thread (and, in a process pool, per-process) slot holding the
#: metrics registry of the work item currently executing — installed by
#: :func:`run_accounted` around every task.
_WORKER_STATE = threading.local()


def worker_metrics():
    """The running work item's own metrics registry.

    Task code (``_construct_work``, ``_funcptr_work``, custom
    instrumentation passes) records through this instead of a captured
    parent registry: the executor installs a fresh registry around each
    task and ships its deltas back for merge, so the counters land in
    the parent no matter which side of a process boundary the task ran
    on.  Outside a task this is :data:`~repro.obs.NULL_METRICS`.
    """
    return getattr(_WORKER_STATE, "metrics", None) or NULL_METRICS


def run_accounted(fn, task, fault=None):
    """Run one work item under fleet-accurate accounting.

    Returns ``(result, deltas)`` where ``deltas`` is the plain-data
    :meth:`repro.obs.Metrics.deltas` snapshot of everything the task
    recorded — its ``worker.tasks`` completion tick, its wall seconds
    (``worker.task_seconds``), and whatever the task itself counted via
    :func:`worker_metrics`.  Module-level (not a closure or bound
    method) so a process pool can pickle it; the deltas travel back
    over the result pipe, which is what keeps ``--jobs N`` records as
    accurate as serial ones — worker-side accounting used to die with
    the worker process.

    ``fault`` (a chaos-harness injector) is consulted before the task
    body, in the worker, modelling per-item worker crashes.
    """
    local = Metrics()
    previous = getattr(_WORKER_STATE, "metrics", None)
    _WORKER_STATE.metrics = local
    t0 = time.perf_counter()
    try:
        if fault is not None:
            fault.maybe_crash()
        value = fn(task)
    finally:
        _WORKER_STATE.metrics = previous
    local.inc("worker.tasks")
    local.observe("worker.task_seconds", time.perf_counter() - t0)
    return value, local.deltas()


# -- executors -------------------------------------------------------------

#: How many times one crashed work item is re-run serially before its
#: exception is allowed to propagate.  Transient faults (a killed pool
#: worker, an injected chaos crash) succeed on the first retry;
#: deterministic task bugs still surface after the budget is spent.
MAX_TASK_RETRIES = 2


def _run_with_retries(fn, task, retries, metrics, where, fault=None):
    """Run ``fn(task)`` inline, retrying a bounded number of times.

    The fault-tolerance contract: a *successful* ``fn(task)`` is a pure
    function of the task, so re-running a crashed item cannot change the
    result that a fault-free run would have produced — which is what
    keeps degraded (retried) runs byte-identical to clean ones.

    ``fault`` (a chaos-harness injector) is consulted only on the task's
    *first* attempt: injected crashes model transient per-item faults,
    so the retry must observe a healthy worker rather than burn the
    whole crash budget on one item.
    """
    attempt = 0
    while True:
        try:
            value, deltas = run_accounted(
                fn, task, fault=fault if attempt == 0 else None)
        except Exception:
            metrics.inc("worker.crashes")
            if attempt >= retries:
                raise
            attempt += 1
            metrics.inc("worker.retries")
            metrics.inc(f"worker.{where}.retries")
        else:
            metrics.merge_deltas(deltas)
            return value


class SerialExecutor:
    """The default: run every task inline, in submission order.

    Fault-tolerant like its pooled sibling: a crashing task is retried
    (bounded by ``retries``) before the failure propagates, and an
    attached :class:`~repro.analysis.failures.WorkerFaultInjector`
    (``fault``) is consulted per task so the chaos harness exercises the
    same code path the pools use.
    """

    jobs = 1
    kind = "serial"

    def __init__(self, metrics=None, fault=None,
                 retries=MAX_TASK_RETRIES):
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.fault = fault
        self.retries = retries

    def map(self, fn, tasks):
        return [
            _run_with_retries(fn, task, self.retries, self.metrics,
                              "serial", fault=self.fault)
            for task in tasks
        ]

    def close(self):
        pass

    def __repr__(self):
        return "<SerialExecutor>"


class PoolExecutor:
    """A ``concurrent.futures`` pool behind the same two-method API.

    ``map`` preserves submission order, so orchestrators that merge
    results positionally stay deterministic regardless of completion
    order.  Single-task batches run inline: no dispatch overhead, and
    the common tiny-wave case (one discovered function) stays cheap.

    Fault tolerance (the degradation ladder's substrate layer): each
    task runs as its own future, a per-task exception is retried
    *serially* in the orchestrator (bounded by ``retries``), and a
    broken pool (``BrokenProcessPool`` — e.g. a worker killed by the
    OOM killer, or the chaos harness) downgrades the whole batch to
    serial execution and marks the pool unusable for later batches.
    Because every successful task is pure and results merge in
    submission order, a batch that limped home serially is
    byte-identical to one that never faulted.
    """

    def __init__(self, pool, jobs, kind, metrics=None, fault=None,
                 retries=MAX_TASK_RETRIES):
        self._pool = pool
        self.jobs = jobs
        self.kind = kind
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.fault = fault
        self.retries = retries
        #: set after ``BrokenProcessPool``: all later batches run serial
        self.broken = False

    def _serial(self, fn, tasks):
        return [
            _run_with_retries(fn, task, self.retries, self.metrics,
                              "serial", fault=self.fault)
            for task in tasks
        ]

    def map(self, fn, tasks):
        tasks = list(tasks)
        if self.broken or len(tasks) <= 1:
            return self._serial(fn, tasks)
        if self.fault is not None:
            try:
                self.fault.maybe_break_pool()
            except BrokenProcessPool:
                self._mark_broken()
                return self._serial(fn, tasks)
        try:
            # run_accounted is module-level so a process pool pickles a
            # plain function reference, not this executor (whose live
            # pool handle could never cross the fork).
            futures = [self._pool.submit(run_accounted, fn, task,
                                         self.fault)
                       for task in tasks]
        except (RuntimeError, BrokenProcessPool):
            # shutdown/broken pool at submission time
            self._mark_broken()
            return self._serial(fn, tasks)
        results = []
        for task, future in zip(tasks, futures):
            try:
                value, deltas = future.result()
                self.metrics.merge_deltas(deltas)
                results.append(value)
            except BrokenProcessPool:
                # The pool is gone: every remaining future is doomed
                # too.  Mark it and finish this batch serially from the
                # current position — submission order is preserved.
                self._mark_broken()
                remaining = tasks[len(results):]
                results.extend(self._serial(fn, remaining))
                return results
            except Exception:
                # The pool attempt was this task's first crash; rerun
                # it serially with the remaining retry budget (and no
                # fault consult — the task already had its first
                # attempt).
                self.metrics.inc("worker.crashes")
                self.metrics.inc("worker.retries")
                self.metrics.inc("worker.pool.retries")
                results.append(_run_with_retries(
                    fn, task, max(0, self.retries - 1), self.metrics,
                    "pool",
                ))
        return results

    def _mark_broken(self):
        self.broken = True
        self.metrics.inc("worker.pool_breaks")

    def close(self):
        self._pool.shutdown()

    def __repr__(self):
        return f"<PoolExecutor {self.kind} jobs={self.jobs}>"


def make_executor(jobs=1, kind="thread", metrics=None, fault=None,
                  retries=MAX_TASK_RETRIES):
    """An executor for ``--jobs N``: serial for N<=1, else a pool.

    ``kind`` picks the ``concurrent.futures`` backend: ``"thread"``
    (default; shares the binary in memory) or ``"process"`` (true
    parallelism, but every task pickles its inputs across the fork —
    only worth it for large corpora on multi-core machines).

    ``metrics`` receives the fault-tolerance counters
    (``worker.crashes`` / ``worker.retries`` / ``worker.pool_breaks``);
    ``fault`` is an optional
    :class:`repro.analysis.failures.WorkerFaultInjector` the chaos
    harness uses to exercise those paths on purpose.
    """
    if jobs is None or jobs <= 1:
        return SerialExecutor(metrics=metrics, fault=fault,
                              retries=retries)
    if kind == "thread":
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=jobs)
    elif kind == "process":
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
    else:
        raise ValueError(f"unknown executor kind {kind!r}; "
                         f"use 'thread' or 'process'")
    return PoolExecutor(pool, jobs, kind, metrics=metrics, fault=fault,
                        retries=retries)


# -- tracing ---------------------------------------------------------------


def record_completed_span(tracer, name, seconds, **attrs):
    """Attach an already-timed span under the tracer's active span.

    Parallel work items are timed inside their worker; the orchestrator
    records them afterwards so every work item gets a ``pipeline-analysis``
    span with its true duration, whichever executor ran it.  No-op under
    the null tracer.
    """
    if not getattr(tracer, "enabled", False):
        return None
    span = Span(name, attrs)
    now = tracer.clock()
    span.t_start = now - seconds
    span.t_end = now
    tracer.current.children.append(span)
    return span
