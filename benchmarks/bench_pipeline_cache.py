"""Incremental pipeline payoff: warm-cache rewrites must skip analysis.

The artifact cache's value proposition is that a second rewrite of an
unchanged binary performs zero CFG constructions and pointer scans,
served by one lookup per cached stage.  This bench rewrites a reference workload cold and then
warm through one shared :class:`ArtifactCache`, asserts the warm run is
construction-free, and registers both timings (plus the cache's own
accounting and the cold rewrite's peak traced memory) as a
schema-stamped machine-readable record.
"""

import time

import pytest

from repro.core import ArtifactCache, IncrementalRewriter, RewriteMode
from repro.obs import Metrics, Tracer
from repro.toolchain.workloads import build_workload, spec_workload

REFERENCE = ("602.sgcc_s", "x86")
MODE = RewriteMode.JT


def _rewrite(binary, cache, metrics, tracer=None):
    rewriter = IncrementalRewriter(mode=MODE, cache=cache,
                                   metrics=metrics, tracer=tracer)
    t0 = time.perf_counter()
    rewriter.rewrite(binary)
    return time.perf_counter() - t0


@pytest.mark.benchmark(group="pipeline-cache")
def test_warm_cache_rewrite(benchmark, print_section, runtime_records):
    name, arch = REFERENCE
    _, binary = build_workload(spec_workload(name, arch), arch)
    cache = ArtifactCache()

    cold_metrics = Metrics()
    cold_tracer = Tracer(name="cold-rewrite", memory=True)
    cold_seconds = _rewrite(binary, cache, cold_metrics, cold_tracer)
    cold_mem_peak = cold_tracer.finish().mem_peak

    warm_seconds = benchmark(lambda: _rewrite(binary, cache, Metrics()))
    warm_metrics = Metrics()
    _rewrite(binary, cache, warm_metrics)

    # The acceptance property: a warm rewrite constructs nothing, and
    # makes exactly one lookup per cached stage (cfg, funcptr).
    assert warm_metrics.counter("cfg.constructions").value == 0
    assert warm_metrics.counter("cache.misses").value == 0
    assert warm_metrics.counter("cache.hits").value == 2

    counters = cold_metrics.counter_values()
    record = {
        "bench": "pipeline_cache",
        "benchmark": name,
        "arch": arch,
        "mode": str(MODE),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_constructions": counters.get("cfg.constructions", 0),
        "cold_mem_peak": cold_mem_peak,
        "cache": cache.stats(),
    }
    runtime_records(record)
    print_section(
        "pipeline artifact cache — cold vs warm",
        f"{name} ({arch}, {MODE})\n"
        f"cold : {cold_seconds * 1e3:8.2f} ms "
        f"({record['cold_constructions']} constructions)\n"
        f"warm : {warm_seconds * 1e3:8.2f} ms (0 constructions, "
        f"{cache.stats()['hits']} artifact hits)",
    )
