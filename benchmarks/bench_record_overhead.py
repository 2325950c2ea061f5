"""Record tax: emitting a rewrite record must stay cheap.

Records are on by default for every batch rewrite and every harness
evaluation, so the cost of assembling one — metric snapshot/delta, span
walk, digesting the input and output images, canonical-JSON content
addressing — has to be a small fraction of the rewrite it describes.
The atlas section (per-function row accounting fed by the pipeline
stages, rollup aggregation) is opt-in but built on every CI smoke
rewrite, so it gets its own, looser budget.

This bench measures a reference rewrite plain, with a record sink, and
with a record sink plus the atlas section (best-of-N each), and holds
the marginal costs to 12% (record) and 15% (record + atlas) on the
deliberately tiny reference workload, where the fixed per-record cost
(serializing and digesting both images, ~1.5ms) is proportionally at
its worst; the record budget is sized to catch a regression back to
per-record environment fingerprinting, which alone cost ~20%.  The
budgets are regression tripwires, not targets.  A second bench
isolates the dominant term, content digesting, and reports digest
throughput alongside the projected share of a rewrite.
"""

import time

from repro.core import IncrementalRewriter, RewriteMode
from repro.obs import Metrics
from repro.obs.receipt import content_digest
from repro.toolchain.workloads import build_workload, spec_workload

REFERENCE = ("602.sgcc_s", "x86")
MODE = RewriteMode.JT
BUDGET = 0.12  # record assembly tax ceiling on the tiny reference
ATLAS_BUDGET = 0.15  # record + atlas section tax ceiling
DIGEST_BUDGET = 0.05  # two content digests against one rewrite


def _rewrite_seconds(binary, record, atlas=False, repeats=5):
    """Best-of-N wall time of a reference rewrite, with or without a
    record sink discarding into a list."""
    best = None
    for _ in range(repeats):
        sink = [].append if record else None
        rewriter = IncrementalRewriter(mode=MODE, metrics=Metrics(),
                                       record_sink=sink, atlas=atlas)
        t0 = time.perf_counter()
        rewriter.rewrite(binary)
        elapsed = time.perf_counter() - t0
        if record:
            assert rewriter.last_record.has_atlas is atlas
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_record_emission_overhead(benchmark, print_section,
                                  runtime_records):
    name, arch = REFERENCE
    _, binary = build_workload(spec_workload(name, arch), arch)

    def experiment():
        plain_s = _rewrite_seconds(binary, record=False)
        record_s = _rewrite_seconds(binary, record=True)
        atlas_s = _rewrite_seconds(binary, record=True, atlas=True)
        return {
            "plain_ms": plain_s * 1e3,
            "record_ms": record_s * 1e3,
            "atlas_ms": atlas_s * 1e3,
            "overhead": max(0.0, record_s - plain_s) / plain_s,
            "atlas_overhead": max(0.0, atlas_s - plain_s) / plain_s,
        }

    r = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert r["overhead"] < BUDGET, (
        f"record emission adds {r['overhead']:.2%} to a reference "
        f"rewrite (budget {BUDGET:.0%})"
    )
    assert r["atlas_overhead"] < ATLAS_BUDGET, (
        f"record + atlas emission adds {r['atlas_overhead']:.2%} to a "
        f"reference rewrite (budget {ATLAS_BUDGET:.0%})"
    )
    benchmark.extra_info.update(r)
    runtime_records({"bench": "record_overhead",
                     "benchmark": name, "arch": arch,
                     "mode": str(MODE), **r})
    print_section(
        "Record-emission overhead on a reference rewrite",
        f"reference        : {name} / {arch} / {MODE}\n"
        f"plain rewrite    : {r['plain_ms']:.2f} ms\n"
        f"with record      : {r['record_ms']:.2f} ms "
        f"(tax {r['overhead']:.3%}, budget {BUDGET:.0%})\n"
        f"record + atlas   : {r['atlas_ms']:.2f} ms "
        f"(tax {r['atlas_overhead']:.3%}, budget {ATLAS_BUDGET:.0%})",
    )


def test_content_digest_throughput(benchmark, print_section,
                                   runtime_records):
    """The digest of the input and output images is the record's
    biggest fixed cost; report its throughput and the projected share
    of a reference rewrite (two digests per record)."""
    name, arch = REFERENCE
    _, binary = build_workload(spec_workload(name, arch), arch)
    payload = binary.to_bytes()

    def experiment(repeats=20):
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            content_digest(binary)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        rewrite_s = _rewrite_seconds(binary, record=False)
        return {
            "image_bytes": len(payload),
            "digest_us": best * 1e6,
            "mib_per_s": (len(payload) / best) / (1 << 20),
            "share_of_rewrite": 2 * best / rewrite_s,
        }

    r = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert r["share_of_rewrite"] < DIGEST_BUDGET, (
        f"two content digests project to {r['share_of_rewrite']:.2%} "
        f"of a reference rewrite (budget {DIGEST_BUDGET:.0%})"
    )
    benchmark.extra_info.update(r)
    runtime_records({"bench": "record_digest",
                     "benchmark": name, "arch": arch,
                     "mode": str(MODE), **r})
    print_section(
        "Content-digest cost per rewrite record",
        f"reference        : {name} / {arch} / {MODE}\n"
        f"image size       : {r['image_bytes']} bytes\n"
        f"digest time      : {r['digest_us']:.1f} us "
        f"({r['mib_per_s']:.0f} MiB/s)\n"
        f"share of rewrite : {r['share_of_rewrite']:.3%} "
        f"(two digests, budget {DIGEST_BUDGET:.0%})",
    )
