"""Record tax: emitting a rewrite record must stay cheap.

Every ``repro rewrite --record`` and ``repro batch --record`` rewrite
goes through :func:`~repro.obs.receipt.record_rewrite`, so the cost of
assembling its record — the span walk for stage timings and cache
counters, the atlas section, digesting the input and output images,
canonical-JSON content addressing — has to be a small fraction of the
rewrite it describes.

Wall-clock ratios are too noisy on a shared machine to gate on, so
``test_record_emission_overhead`` gates on the work record assembly
does, counted exactly per record: the bytes passed to
:func:`~repro.obs.receipt.content_digest` must equal the input plus
output image sizes (one digest each), and after the session's one
fingerprint collection no record may call
:func:`~repro.obs.receipt.collect_fingerprint` (the git-sha subprocess
once cost ~20% of a reference rewrite).  Both counts grow when record
assembly regresses; the plain/record timings are printed as
information only.  A second bench isolates the dominant term, content
digesting, and reports digest throughput alongside the projected share
of a rewrite.
"""

import time

from repro.core import IncrementalRewriter, RewriteMode
from repro.obs import Tracer, receipt
from repro.obs.receipt import content_digest
from repro.toolchain.workloads import build_workload, spec_workload

REFERENCE = ("602.sgcc_s", "x86")
MODE = RewriteMode.JT
DIGEST_BUDGET = 0.05  # two content digests against one rewrite


def _rewrite(binary, record):
    """One reference rewrite, plain or recorded into a list; returns
    ``(rewritten, records)``."""
    rewriter = IncrementalRewriter(mode=MODE, tracer=Tracer())
    if not record:
        return rewriter.rewrite(binary)[0], []
    records = []
    rewritten, _ = receipt.record_rewrite(rewriter, binary, records)
    assert len(records) == 1 and records[0].functions
    return rewritten, records


def _rewrite_seconds(binary, record, repeats=3):
    """Best-of-N wall time of a reference rewrite, plain or recorded
    into a list."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        _rewrite(binary, record)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _record_work(binary, monkeypatch):
    """What assembling one record costs, counted: ``(bytes digested,
    image bytes, fingerprint collections)`` for one reference
    rewrite."""
    digested = []
    collected = []
    digest = receipt.content_digest
    collect = receipt.collect_fingerprint

    def counting_digest(obj):
        if obj is not None:
            digested.append(len(obj.to_bytes()))
        return digest(obj)

    def counting_collect():
        collected.append(1)
        return collect()

    receipt.session_fingerprint()   # the process's one collection
    with monkeypatch.context() as m:
        m.setattr(receipt, "content_digest", counting_digest)
        m.setattr(receipt, "collect_fingerprint", counting_collect)
        rewritten, _ = _rewrite(binary, record=True)
    images = len(binary.to_bytes()) + len(rewritten.to_bytes())
    return sum(digested), images, len(collected)


def test_record_emission_overhead(benchmark, print_section,
                                  runtime_records, monkeypatch):
    name, arch = REFERENCE
    _, binary = build_workload(spec_workload(name, arch), arch)

    def experiment():
        plain_s = _rewrite_seconds(binary, record=False)
        record_s = _rewrite_seconds(binary, record=True)
        digested, images, collects = _record_work(binary, monkeypatch)
        return {
            "plain_ms": plain_s * 1e3,
            "record_ms": record_s * 1e3,
            "overhead": max(0.0, record_s - plain_s) / plain_s,
            "digest_bytes": digested,
            "image_bytes": images,
            "fingerprint_collects": collects,
        }

    r = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert r["digest_bytes"] == r["image_bytes"], (
        f"{r['digest_bytes']} bytes digested per record, expected the "
        f"input plus output images ({r['image_bytes']} bytes)"
    )
    assert r["fingerprint_collects"] == 0, (
        f"{r['fingerprint_collects']} environment fingerprint "
        "collections per record, expected 0 after the session "
        "fingerprint"
    )
    benchmark.extra_info.update(r)
    runtime_records({"bench": "record_overhead",
                     "benchmark": name, "arch": arch,
                     "mode": str(MODE), **r})
    print_section(
        "Record-emission work and overhead on a reference rewrite",
        f"reference        : {name} / {arch} / {MODE}\n"
        f"digested/record  : {r['digest_bytes']} bytes "
        f"(input + output images: {r['image_bytes']})\n"
        f"fingerprints     : {r['fingerprint_collects']} per record\n"
        f"plain rewrite    : {r['plain_ms']:.2f} ms\n"
        f"with record      : {r['record_ms']:.2f} ms "
        f"(tax {r['overhead']:.3%}, information only)",
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
