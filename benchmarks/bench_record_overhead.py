"""Record tax: emitting a rewrite record must stay cheap.

Records are on by default for every batch rewrite and every harness
evaluation, so the cost of assembling one — the span walk for stage
timings and cache counters, digesting the input and output images,
canonical-JSON content addressing — has to be a small fraction of the
rewrite it describes.

Wall-clock ratios are too noisy on a shared machine to gate on, so
``test_record_emission_overhead`` gates on the work record assembly
does, counted exactly per record (with and without the atlas
section): the bytes passed to :func:`~repro.obs.receipt.content_digest`
must equal the input plus output image sizes (one digest each), and
after the session's one fingerprint collection no record may call
:meth:`~repro.obs.receipt.EnvFingerprint.collect` (the git-sha
subprocess once cost ~20% of a reference rewrite).  Both counts grow
when record assembly regresses; the plain/record/atlas timings are
printed as information only.  A second bench isolates the dominant
term, content digesting, and reports digest throughput alongside the
projected share of a rewrite.
"""

import time

from repro.core import IncrementalRewriter, RewriteMode
from repro.obs import Tracer, receipt
from repro.obs.receipt import EnvFingerprint, content_digest
from repro.toolchain.workloads import build_workload, spec_workload

REFERENCE = ("602.sgcc_s", "x86")
MODE = RewriteMode.JT
DIGEST_BUDGET = 0.05  # two content digests against one rewrite


def _rewriter(record, atlas=False):
    sink = [].append if record else None
    return IncrementalRewriter(mode=MODE, tracer=Tracer(),
                               record_sink=sink, atlas=atlas)


def _rewrite_seconds(binary, record, atlas=False, repeats=3):
    """Best-of-N wall time of a reference rewrite, with or without a
    record sink discarding into a list."""
    best = None
    for _ in range(repeats):
        rewriter = _rewriter(record, atlas)
        t0 = time.perf_counter()
        rewriter.rewrite(binary)
        elapsed = time.perf_counter() - t0
        if record:
            assert rewriter.last_record.has_atlas is atlas
        best = elapsed if best is None else min(best, elapsed)
    return best


def _record_work(binary, atlas, monkeypatch):
    """What assembling one record costs, counted: ``(bytes digested,
    image bytes, fingerprint collections)`` for one reference
    rewrite."""
    digested = []
    collected = []
    digest = receipt.content_digest
    collect = EnvFingerprint.collect.__func__

    def counting_digest(obj):
        if obj is not None:
            digested.append(len(obj.to_bytes()))
        return digest(obj)

    def counting_collect(cls, git_sha=None):
        collected.append(git_sha)
        return collect(cls, git_sha)

    receipt.session_fingerprint()   # the process's one collection
    with monkeypatch.context() as m:
        m.setattr(receipt, "content_digest", counting_digest)
        m.setattr(EnvFingerprint, "collect", classmethod(counting_collect))
        rewriter = _rewriter(record=True, atlas=atlas)
        rewritten, _ = rewriter.rewrite(binary)
    assert rewriter.last_record.has_atlas is atlas
    images = len(binary.to_bytes()) + len(rewritten.to_bytes())
    return sum(digested), images, len(collected)


def test_record_emission_overhead(benchmark, print_section,
                                  runtime_records, monkeypatch):
    name, arch = REFERENCE
    _, binary = build_workload(spec_workload(name, arch), arch)

    def experiment():
        plain_s = _rewrite_seconds(binary, record=False)
        record_s = _rewrite_seconds(binary, record=True)
        atlas_s = _rewrite_seconds(binary, record=True, atlas=True)
        out = {
            "plain_ms": plain_s * 1e3,
            "record_ms": record_s * 1e3,
            "atlas_ms": atlas_s * 1e3,
            "overhead": max(0.0, record_s - plain_s) / plain_s,
            "atlas_overhead": max(0.0, atlas_s - plain_s) / plain_s,
        }
        for key, atlas in (("record", False), ("atlas", True)):
            digested, images, collects = _record_work(binary, atlas,
                                                      monkeypatch)
            out[f"{key}_digest_bytes"] = digested
            out[f"{key}_image_bytes"] = images
            out[f"{key}_fingerprint_collects"] = collects
        return out

    r = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for key in ("record", "atlas"):
        assert r[f"{key}_digest_bytes"] == r[f"{key}_image_bytes"], (
            f"{key}: {r[f'{key}_digest_bytes']} bytes digested per "
            f"record, expected the input plus output images "
            f"({r[f'{key}_image_bytes']} bytes)"
        )
        assert r[f"{key}_fingerprint_collects"] == 0, (
            f"{key}: {r[f'{key}_fingerprint_collects']} environment "
            "fingerprint collections per record, expected 0 after the "
            "session fingerprint"
        )
    benchmark.extra_info.update(r)
    runtime_records({"bench": "record_overhead",
                     "benchmark": name, "arch": arch,
                     "mode": str(MODE), **r})
    print_section(
        "Record-emission work and overhead on a reference rewrite",
        f"reference        : {name} / {arch} / {MODE}\n"
        f"digested/record  : {r['record_digest_bytes']} bytes "
        f"(input + output images: {r['record_image_bytes']})\n"
        f"fingerprints     : {r['record_fingerprint_collects']} per "
        f"record, {r['atlas_fingerprint_collects']} with atlas\n"
        f"plain rewrite    : {r['plain_ms']:.2f} ms\n"
        f"with record      : {r['record_ms']:.2f} ms "
        f"(tax {r['overhead']:.3%}, information only)\n"
        f"record + atlas   : {r['atlas_ms']:.2f} ms "
        f"(tax {r['atlas_overhead']:.3%}, information only)",
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
