"""The incremental pipeline's artifact model.

The rewriter is an orchestrator over :class:`FunctionWorkItem`\\ s — one
per function, each carrying the per-function artifacts the pipeline
produces for it (CFG, function-pointer scan, CFL/placement fragment).
Every artifact is a pure function of ``(function bytes, arch, mode,
construction options)`` — plus, conservatively, the whole binary image,
since analyses read jump tables and pointer slots outside the function
body — which buys **content-addressed caching**: artifacts live in an
:class:`repro.core.cache.ArtifactCache` keyed by a stable digest of
their inputs, so a second rewrite of an unchanged binary performs zero
constructions (see :class:`AnalysisCacheView`).

The orchestrator runs the per-function analyses as plain loops, and
cross-function state keeps its barriers: seed discovery between
construction waves, the CFL entry set, scratch-pool allocation, layout
and ``.ra_map`` emission all run in deterministic (address-sorted)
order — which is why cached and fresh runs produce byte-identical
binaries.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.core.cache import (
    MISS,
    function_bytes_digest,
    image_digest,
)
from repro.obs import NULL_METRICS, Span

__all__ = [
    "FunctionWorkItem",
    "AnalysisCacheView",
    "analysis_cache_view",
    "record_completed_span",
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


# -- tracing ---------------------------------------------------------------


def record_completed_span(tracer, name, seconds, **attrs):
    """Attach an already-timed span under the tracer's active span.

    Work items are timed where they run, then recorded once their result
    merges, so every work item gets a ``pipeline-analysis`` span with its
    true duration — or zero, when the cache served it.  No-op under the
    null tracer.
    """
    if not getattr(tracer, "enabled", False):
        return None
    span = Span(name, attrs)
    now = tracer.clock()
    span.t_start = now - seconds
    span.t_end = now
    tracer.current.children.append(span)
    return span
