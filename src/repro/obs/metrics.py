"""A zero-dependency metrics registry: counters, gauges, histograms.

Names are dotted paths (``trampolines.hop``, ``machine.instructions``);
the registry auto-creates instruments on first use so call sites stay
one-liners.  :data:`NULL_METRICS` is the no-op twin used by default on
hot paths, mirroring :data:`repro.obs.trace.NULL_TRACER`.
"""

import math

#: Samples retained per histogram for percentile queries.  Beyond this
#: the streaming summary (count/sum/min/max/mean) stays exact but
#: percentiles reflect the first RESERVOIR observations.
RESERVOIR = 4096


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def __repr__(self):
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = None

    def set(self, value):
        self.value = value

    def __repr__(self):
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean),
    plus nearest-rank percentiles over a bounded sample reservoir."""

    __slots__ = ("name", "count", "total", "vmin", "vmax", "samples")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0
        self.vmin = None
        self.vmax = None
        self.samples = []

    def observe(self, value):
        self.count += 1
        self.total += value
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)
        if len(self.samples) < RESERVOIR:
            self.samples.append(value)

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, p):
        """Nearest-rank ``p``-th percentile (``0 <= p <= 100``) over the
        retained samples; None when nothing was observed."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        return ordered[rank - 1]

    def summary(self):
        out = {"count": self.count, "sum": self.total,
               "min": self.vmin, "max": self.vmax, "mean": self.mean}
        if self.samples:
            # Persisted metrics keep the distribution, not just moments.
            out["p50"] = self.percentile(50)
            out["p90"] = self.percentile(90)
            out["p99"] = self.percentile(99)
        return out

    def __repr__(self):
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3g}>"


class Metrics:
    """Registry of named instruments, auto-created on first use."""

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- instrument accessors ----------------------------------------------

    def counter(self, name):
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name):
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name):
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- one-line conveniences ---------------------------------------------

    def inc(self, name, n=1):
        self.counter(name).inc(n)

    def set_gauge(self, name, value):
        self.gauge(name).set(value)

    def observe(self, name, value):
        self.histogram(name).observe(value)

    # -- reading -----------------------------------------------------------

    def counter_values(self, prefix=""):
        """``{name: value}`` for counters under ``prefix`` (full names)."""
        return {name: c.value for name, c in self._counters.items()
                if name.startswith(prefix)}

    def group(self, prefix):
        """Counters under ``prefix.`` keyed by the remainder of the name:
        ``group("trampolines")`` -> ``{"hop": 3, "trap": 1, ...}``."""
        dot = prefix + "."
        return {name[len(dot):]: c.value
                for name, c in self._counters.items()
                if name.startswith(dot)}

    def as_dict(self):
        out = {"counters": self.counter_values()}
        gauges = {name: g.value for name, g in self._gauges.items()}
        if gauges:
            out["gauges"] = gauges
        histograms = {name: h.summary()
                      for name, h in self._histograms.items()}
        if histograms:
            out["histograms"] = histograms
        return out


class _NullInstrument:
    __slots__ = ()

    value = 0
    count = 0
    total = 0
    mean = 0.0

    def inc(self, n=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass

    def percentile(self, p):
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """No-op registry: every instrument is one shared inert object."""

    __slots__ = ()

    def counter(self, name):
        return _NULL_INSTRUMENT

    def gauge(self, name):
        return _NULL_INSTRUMENT

    def histogram(self, name):
        return _NULL_INSTRUMENT

    def inc(self, name, n=1):
        pass

    def set_gauge(self, name, value):
        pass

    def observe(self, name, value):
        pass

    def counter_values(self, prefix=""):
        return {}

    def group(self, prefix):
        return {}

    def as_dict(self):
        return {"counters": {}}


NULL_METRICS = NullMetrics()
