"""Phase tracing for the rewriting pipeline.

A :class:`Tracer` records a tree of named *spans* (wall-clock timed
regions such as ``cfg-construction``), per-span *counters* (monotonic
tallies attributed to the innermost open span), and structured *events*
(one-off facts with arbitrary fields — a skipped function, an installed
trap, a recycled superblock).  The tree serializes to JSON
(:meth:`Tracer.to_json` / :func:`trace_from_json`) and renders as a
human-readable per-stage timing table (:func:`render_profile`).

Un-instrumented runs pay near-zero cost: :data:`NULL_TRACER` is a
stateless singleton whose ``span()`` returns one shared no-op context
manager — entering and exiting it allocates nothing and records nothing,
so tracing hooks can stay in the hot path unconditionally.

Memory accounting is opt-in per tracer (``Tracer(memory=True)``): every
span then carries ``mem_peak``, the peak ``tracemalloc`` traced-memory
high-water mark (bytes) observed while the span was open, sampled at
span boundaries and propagated child-to-parent so a parent's peak always
covers its subtree.  Tracers without memory accounting pay one ``is
None`` test per span boundary and nothing else.
"""

import itertools
import json
import time
import tracemalloc


class Span:
    """One timed region of the pipeline, with counters/events/children.

    Times are kept as raw clock readings while recording; serialization
    normalizes them relative to the root span's start.
    """

    __slots__ = ("name", "attrs", "t_start", "t_end", "children",
                 "events", "counters", "mem_peak")

    def __init__(self, name, attrs=None):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.t_start = None
        self.t_end = None
        self.children = []
        self.events = []
        self.counters = {}
        #: peak traced-memory bytes while the span was open; None when
        #: the owning tracer did not account memory
        self.mem_peak = None

    @property
    def duration(self):
        """Wall-clock seconds; 0.0 while the span is still open."""
        if self.t_start is None or self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def event(self, name, **fields):
        self.events.append({"event": name, **fields})

    def iter_spans(self):
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name):
        """First span named ``name`` in this subtree (or None)."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def total_counters(self):
        """Counters aggregated over this whole subtree."""
        totals = {}
        for span in self.iter_spans():
            for key, value in span.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def total_events(self, name=None):
        """All events of the subtree (optionally filtered by name)."""
        out = []
        for span in self.iter_spans():
            for ev in span.events:
                if name is None or ev.get("event") == name:
                    out.append(ev)
        return out

    # -- serialization -----------------------------------------------------

    def to_dict(self, origin=None):
        """JSON-ready dict; times become seconds relative to ``origin``
        (defaults to this span's own start)."""
        if origin is None:
            origin = self.t_start if self.t_start is not None else 0.0
        start = (self.t_start - origin) if self.t_start is not None else 0.0
        end = (self.t_end - origin) if self.t_end is not None else start
        node = {"name": self.name, "start": start, "end": end}
        if self.mem_peak is not None:
            node["mem_peak"] = self.mem_peak
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.counters:
            node["counters"] = dict(self.counters)
        if self.events:
            node["events"] = [dict(ev) for ev in self.events]
        if self.children:
            node["children"] = [c.to_dict(origin) for c in self.children]
        return node

    @classmethod
    def from_dict(cls, node):
        span = cls(node["name"], node.get("attrs"))
        span.t_start = node.get("start", 0.0)
        span.t_end = node.get("end", span.t_start)
        span.mem_peak = node.get("mem_peak")
        span.counters = dict(node.get("counters", {}))
        span.events = [dict(ev) for ev in node.get("events", ())]
        span.children = [cls.from_dict(c) for c in node.get("children", ())]
        return span

    def __repr__(self):
        return (f"<Span {self.name} {self.duration * 1000:.2f}ms "
                f"{len(self.children)} children>")


def _bump_mem(span, value):
    """Raise ``span.mem_peak`` to ``value`` (None-safe running max)."""
    if value is not None and (span.mem_peak is None
                              or value > span.mem_peak):
        span.mem_peak = value


class _SpanContext:
    """Context manager opening one child span under the tracer's stack."""

    __slots__ = ("tracer", "name", "attrs")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tracer = self.tracer
        span = Span(self.name, self.attrs)
        if tracer._mem is not None:
            # Close the parent's current allocation window before
            # opening this span's own: the peak so far belongs to the
            # parent, and the reset makes the child's reading start
            # clean.
            _bump_mem(tracer._stack[-1],
                      tracer._mem.get_traced_memory()[1])
            tracer._mem.reset_peak()
        span.t_start = tracer.clock()
        tracer._stack[-1].children.append(span)
        tracer._stack.append(span)
        return span

    def __exit__(self, exc_type, exc, tb):
        tracer = self.tracer
        span = tracer._stack.pop()
        span.t_end = tracer.clock()
        if tracer._mem is not None:
            _bump_mem(span, tracer._mem.get_traced_memory()[1])
            # A parent's peak must cover its whole subtree.
            _bump_mem(tracer._stack[-1], span.mem_peak)
            tracer._mem.reset_peak()
        if exc_type is not None:
            span.attrs["error"] = f"{exc_type.__name__}: {exc}"
        return False


class Tracer:
    """Records a span tree; the active span is the innermost open one."""

    enabled = True

    def __init__(self, name="trace", clock=time.perf_counter,
                 memory=False):
        self.clock = clock
        self.root = Span(name)
        self.root.t_start = clock()
        self._stack = [self.root]
        #: tracemalloc module when per-span memory accounting is on,
        #: None otherwise — span open/close pays one ``is None`` test
        self._mem = None
        self._mem_started = False
        if memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._mem_started = True
            self._mem = tracemalloc
            tracemalloc.reset_peak()

    @property
    def current(self):
        return self._stack[-1]

    def span(self, name, **attrs):
        """Open a nested span: ``with tracer.span("relocation"): ...``"""
        return _SpanContext(self, name, attrs)

    def event(self, name, **fields):
        """Record a structured event on the active span."""
        self._stack[-1].events.append(
            {"event": name, "t": self.clock() - self.root.t_start, **fields}
        )

    def count(self, name, n=1):
        """Bump a counter on the active span."""
        self._stack[-1].count(name, n)

    def finish(self):
        """Close the root span (idempotent); returns it.

        When memory accounting was on, the root's final ``mem_peak`` is
        sampled here and tracemalloc is stopped iff this tracer started
        it."""
        if self.root.t_end is None:
            self.root.t_end = self.clock()
            if self._mem is not None:
                _bump_mem(self.root, self._mem.get_traced_memory()[1])
                if self._mem_started:
                    self._mem.stop()
                self._mem = None
        return self.root

    def find(self, name):
        return self.root.find(name)

    # -- export ------------------------------------------------------------

    def to_dict(self):
        self.finish()
        return self.root.to_dict()

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def trace_from_json(text):
    """Rebuild the span tree from :meth:`Tracer.to_json` output."""
    return Span.from_dict(json.loads(text))


class _NullSpan:
    """Shared no-op span: enter/exit/count/event all do nothing.

    A single instance is reused for every ``span()`` call so the no-op
    path never allocates per-call state.
    """

    __slots__ = ()

    name = "null"
    duration = 0.0
    mem_peak = None

    @property
    def attrs(self):
        # A fresh throwaway dict per access: callers that annotate the
        # active span (``span.attrs["skipped"] = True``) must not leave
        # residue on the shared no-op instance.
        return {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def count(self, name, n=1):
        pass

    def event(self, name, **fields):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The cheap default: every operation is a no-op."""

    __slots__ = ()

    enabled = False

    def span(self, name, **attrs):
        return _NULL_SPAN

    def event(self, name, **fields):
        pass

    def count(self, name, n=1):
        pass

    def finish(self):
        return None

    def find(self, name):
        return None

    def to_dict(self):
        return {}


NULL_TRACER = NullTracer()


def format_bytes(n):
    """``2_621_440 -> "2.5MiB"`` — compact byte quantities for tables."""
    if n is None:
        return ""
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.0f}B" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024


def render_profile(trace):
    """A per-stage timing table for a :class:`Tracer` or :class:`Span`.

    One row per span (indented by depth): wall time, share of the root's
    time, peak traced memory (only when the trace carries ``mem_peak``
    readings), and a compact counter/event summary.  A run of N
    same-named sibling spans — one ``pipeline-analysis`` span per
    function, say — collapses into one ``name ×N`` row: their total
    time and share, their highest memory peak, the per-span p50/max in
    the detail column, and their summed counters and events.  Their
    children, concatenated, collapse the same way one level down.
    """
    root = trace.finish() if hasattr(trace, "finish") else trace
    if root is None:
        return "(no trace recorded)"
    total = root.duration or 1e-12
    rows = []

    def walk(group, depth):
        label = "  " * depth + group[0].name
        extras = []
        if len(group) > 1:
            label += f" ×{len(group)}"
            ms = sorted(span.duration * 1000.0 for span in group)
            extras.append(f"p50={ms[(len(ms) - 1) // 2]:.3f}ms "
                          f"max={ms[-1]:.3f}ms")
        counters = {}
        for span in group:
            for key, n in span.counters.items():
                counters[key] = counters.get(key, 0) + n
        extras.extend(f"{key}={counters[key]:.4g}"
                      if isinstance(counters[key], float)
                      else f"{key}={counters[key]}"
                      for key in sorted(counters))
        events = sum(len(span.events) for span in group)
        if events:
            extras.append(f"events={events}")
        skipped = sum(1 for span in group if span.attrs.get("skipped"))
        if skipped:
            extras.append("(skipped)" if len(group) == 1
                          else f"(skipped ×{skipped})")
        peaks = [span.mem_peak for span in group
                 if span.mem_peak is not None]
        seconds = sum(span.duration for span in group)
        rows.append((
            label,
            seconds * 1000.0,
            seconds / total,
            max(peaks) if peaks else None,
            " ".join(extras),
        ))
        children = [child for span in group for child in span.children]
        for _, run in itertools.groupby(children, key=lambda c: c.name):
            walk(list(run), depth + 1)

    walk([root], 0)
    # A row without a reading gets a "-" placeholder, so trees with
    # mixed mem_peak presence (old trace JSON round-tripped through the
    # mem column) render instead of misaligning or crashing.
    has_mem = any(mem is not None for _, _, _, mem, _ in rows)
    width = max(len(r[0]) for r in rows)
    mem_col = f"  {'mem peak':>9}" if has_mem else ""
    lines = [f"{'stage':<{width}}  {'ms':>9}  {'%':>6}{mem_col}  detail",
             "-" * (width + 30 + (11 if has_mem else 0))]
    for label, ms, frac, mem, extra in rows:
        cell = format_bytes(mem) if mem is not None else "-"
        mem_cell = f"  {cell:>9}" if has_mem else ""
        lines.append(f"{label:<{width}}  {ms:>9.3f}  {frac:>6.1%}"
                     f"{mem_cell}  {extra}")
    return "\n".join(lines)
