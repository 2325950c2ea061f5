"""The runtime collector's flight data (block ring, trampoline hits,
block-cycle histogram) and the differential runner."""

import json

import pytest

from repro.baselines import (
    DynamicTranslationRewriter,
    InstructionPatcher,
)
from repro.core import IncrementalRewriter, RewriteMode
from repro.core.runtime_lib import unpack_addr_map
from repro.eval.diffrun import (
    differential_run,
    render_forensics,
)
from repro.isa import get_arch
from repro.isa.insn import Instruction
from repro.machine import run_binary
from repro.obs import EngineTelemetry, render_engine_report
from repro.util.errors import ReproError
from tests.conftest import compiled, small_program


def _rewritten(arch="x86", mode=RewriteMode.JT):
    binary = compiled(small_program("c"), arch)
    rewriter = IncrementalRewriter(mode=mode, scorch_original=True)
    out, report = rewriter.rewrite(binary)
    return binary, out, rewriter.runtime_library(out)


class TestRing:
    def test_keeps_only_the_last_capacity_items(self):
        collector = EngineTelemetry(ring_size=4)
        for i in range(10):
            collector.record_block(i, 10 * i)
        assert len(collector.ring) == 4
        assert collector.last_blocks() == [(6, 60), (7, 70), (8, 80),
                                           (9, 90)]
        assert collector.last_blocks(2) == [(8, 80), (9, 90)]
        # Every entry after the first still counts one latency.
        assert collector.block_cycles == {10: 9}

    def test_under_capacity_preserves_everything(self):
        collector = EngineTelemetry(ring_size=8)
        collector.record_block(0x10, 1)
        collector.record_block(0x20, 5)
        assert collector.last_blocks() == [(0x10, 1), (0x20, 5)]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            EngineTelemetry(ring_size=0)


class TestFlightData:
    def test_records_blocks_and_trampoline_hits(self):
        binary, out, runtime = _rewritten()
        collector = EngineTelemetry()
        result = run_binary(out, runtime_lib=runtime, telemetry=collector)
        assert len(collector.last_blocks()) > 0
        hits = sum(collector.tramp_hits.values())
        assert hits > 0
        # Every hit site resolves to a known kind at a known site.
        kinds = collector.hits_by_kind()
        assert sum(kinds.values()) == hits
        assert "?" not in kinds
        # Entries mirror the run, not some stale state.
        assert collector.last_blocks()[-1][1] <= result.cycles

    def test_site_resolution_uses_rewriter_metadata(self):
        binary, out, runtime = _rewritten()
        collector = EngineTelemetry()
        run_binary(out, runtime_lib=runtime, telemetry=collector)
        declared = {site: (kind, fn) for site, kind, fn
                    in out.metadata["rewrite"]["trampoline_sites"]}
        assert collector.tramp_hits
        # Non-PIE test binaries load at bias 0, so loaded == link-time.
        for loaded_site in collector.tramp_hits:
            assert declared[loaded_site] \
                == collector.tramp_sites[loaded_site]

    def test_ring_is_bounded(self):
        binary, out, runtime = _rewritten()
        collector = EngineTelemetry(ring_size=8)
        run_binary(out, runtime_lib=runtime, telemetry=collector)
        assert collector.last_blocks(3) == collector.last_blocks()[-3:]
        assert len(collector.last_blocks()) == 8
        # More happened than was retained: one latency per entry after
        # the first.
        assert sum(collector.block_cycles.values()) > 8

    def test_summary_and_json_round_trip(self):
        binary, out, runtime = _rewritten()
        collector = EngineTelemetry()
        run_binary(out, runtime_lib=runtime, telemetry=collector)
        report = json.loads(collector.to_json())
        assert report["trampolines"]["hits_total"] \
            == sum(collector.tramp_hits.values())
        assert 0 < report["trampolines"]["occupancy"] <= 1
        cycles = report["block_cycles"]
        assert cycles["count"] == sum(collector.block_cycles.values())
        assert cycles["min"] <= cycles["p50"] <= cycles["p90"] \
            <= cycles["p99"] <= cycles["max"]
        assert cycles["sum"] == sum(
            d * n for d, n in collector.block_cycles.items())
        assert len(report["last_blocks"]) == len(collector.ring)

    def test_render_runtime_sections(self):
        binary, out, runtime = _rewritten()
        collector = EngineTelemetry()
        run_binary(out, runtime_lib=runtime, telemetry=collector)
        text = render_engine_report(collector)
        assert "block cycles" in text
        assert "trampolines" in text
        assert "hot site" in text
        assert ".instr" in text

    def test_disabled_recorder_changes_nothing(self):
        binary, out, runtime = _rewritten()
        plain = run_binary(out, runtime_lib=runtime)
        observed = run_binary(out, runtime_lib=runtime,
                              telemetry=EngineTelemetry())
        assert observed.checksum == plain.checksum
        assert observed.cycles == plain.cycles
        assert observed.icount == plain.icount


def _corrupt_trampoline(out):
    """Clone ``out`` with one long trampoline retargeted at the wrong
    relocated block; returns (bad binary, site, wrong orig target)."""
    spec = get_arch(out.arch_name)
    reloc_map = unpack_addr_map(bytes(out.get_section(".reloc_map").data))
    sites = {s: k for s, k, f in
             out.metadata["rewrite"]["trampoline_sites"]}
    site = next(s for s, k in sorted(sites.items())
                if k == "long" and s != out.entry)
    wrong_orig, wrong = max(
        (k, v) for k, v in reloc_map.items() if k != site)
    bad = out.clone()
    bad.write(site, spec.encode(
        Instruction("jmp", wrong - site, addr=site)))
    return bad, site, wrong_orig


class TestDifferentialRun:
    @pytest.mark.parametrize("mode", [RewriteMode.JT, RewriteMode.DIR])
    def test_clean_rewrite_is_equivalent(self, arch, mode):
        binary = compiled(small_program("c"), arch)
        out, _ = IncrementalRewriter(
            mode=mode, scorch_original=True).rewrite(binary)
        bundle = differential_run(binary, out)
        assert not bundle.diverged
        assert bundle.divergence is None
        assert bundle.syncs > 0
        assert bundle.original["exit_code"] \
            == bundle.rewritten["exit_code"]

    def test_clean_baselines_are_equivalent(self):
        binary = compiled(small_program("c"), "x86")
        for rewriter in (DynamicTranslationRewriter(),
                         InstructionPatcher()):
            out, _ = rewriter.rewrite(binary)
            bundle = differential_run(binary, out)
            assert not bundle.diverged, bundle.divergence

    def test_bad_relocation_is_pinpointed(self):
        binary, out, runtime = _rewritten()
        bad, site, wrong_orig = _corrupt_trampoline(out)
        bundle = differential_run(binary, bad)
        assert bundle.diverged
        d = bundle.divergence
        assert d.kind == "control-flow"
        # The exact diverging block pair: the original entered the
        # corrupted site's block; the rewrite landed in the wrong one.
        assert d.expected["orig"] == site
        assert d.actual["orig"] == wrong_orig
        assert d.actual["orig"] != d.expected["orig"]
        # The trampoline chain ends at the corrupted site.
        assert bundle.tramp_chain
        last_site, last_kind, _fn = bundle.tramp_chain[-1]
        assert last_site == site  # non-PIE: loaded == link-time
        assert last_kind == "long"

    def test_forensics_bundle_contents(self):
        binary, out, runtime = _rewritten()
        bad, site, wrong_orig = _corrupt_trampoline(out)
        bundle = differential_run(binary, bad, ring=16)
        assert bundle.original["last_blocks"]
        assert bundle.rewritten["last_blocks"]
        assert len(bundle.original["last_blocks"]) <= 16
        as_dict = bundle.to_dict()
        json.dumps(as_dict)  # JSON-serializable end to end
        assert as_dict["divergence"]["kind"] == "control-flow"
        text = render_forensics(bundle)
        assert "DIVERGED" in text
        assert "control-flow" in text
        assert "trampoline chain" in text

    def test_render_forensics_clean(self):
        binary, out, runtime = _rewritten()
        bundle = differential_run(binary, out)
        text = render_forensics(bundle)
        assert "EQUIVALENT" in text

    def test_missing_reloc_map_is_refused(self):
        binary = compiled(small_program("c"), "x86")
        with pytest.raises(ReproError, match="reloc_map"):
            differential_run(binary, binary)

    def test_stall_budget(self):
        binary, out, runtime = _rewritten()
        bundle = differential_run(binary, out, max_steps=10)
        assert bundle.diverged
        assert bundle.divergence.kind == "stall"
