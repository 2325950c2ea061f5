"""The incremental pipeline: content-addressed artifact cache,
per-function work units, and batch rewriting.

Covers the subsystem's acceptance property: a warm-cache rewrite
performs **zero** CFG constructions (proven via the
``cfg.constructions`` / ``cache.*`` metrics) and its output is
byte-identical to the cold-cache rewrite.
"""

import pickle

import pytest

from repro.core import (
    ArtifactCache,
    IncrementalRewriter,
    stable_digest,
)
from repro.core.cache import ARTIFACT_VERSIONS, MISS
from repro.obs import Metrics
from tests.conftest import compiled, oracle_of, small_program
from repro.machine import run_binary


@pytest.fixture(scope="module")
def binary():
    return compiled(small_program("c"), "x86")


def _rewrite(binary, cache=None, mode="jt"):
    metrics = Metrics()
    rewriter = IncrementalRewriter(mode=mode, cache=cache,
                                   metrics=metrics)
    out, report = rewriter.rewrite(binary)
    return out, report, metrics


class TestStableDigest:
    def test_deterministic(self):
        parts = ("f", 0x1000, None, (1, 2), b"\x90\x90")
        assert stable_digest(parts) == stable_digest(parts)

    def test_type_tags_distinguish_lookalikes(self):
        # repr-based keys would collide on all of these.
        assert stable_digest(1) != stable_digest("1")
        assert stable_digest("ab") != stable_digest(b"ab")
        assert stable_digest(True) != stable_digest(1)
        assert stable_digest(None) != stable_digest("None")
        assert stable_digest((1, 2)) != stable_digest((12,))

    def test_dict_and_set_order_independent(self):
        assert stable_digest({"a": 1, "b": 2}) == \
            stable_digest({"b": 2, "a": 1})
        assert stable_digest({3, 1, 2}) == stable_digest({2, 3, 1})

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_digest(object())


class TestArtifactCache:
    def test_miss_then_hit_roundtrip(self):
        cache = ArtifactCache()
        key = cache.key("cfg", ("f", 1))
        assert cache.get("cfg", key) is MISS
        cache.put("cfg", key, {"blocks": [1, 2]}, seconds=0.5)
        seconds, value = cache.get("cfg", key)
        assert seconds == 0.5 and value == {"blocks": [1, 2]}

    def test_copy_on_hit_prevents_mutation_poisoning(self):
        cache = ArtifactCache()
        key = cache.key("cfg", ("f",))
        cache.put("cfg", key, [1, 2, 3])
        _, first = cache.get("cfg", key)
        first.append(99)   # downstream mutation (e.g. split_block)
        _, second = cache.get("cfg", key)
        assert second == [1, 2, 3]

    def test_lru_eviction(self):
        cache = ArtifactCache(max_entries=2)
        keys = [cache.key("cfg", (i,)) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put("cfg", key, i)
        assert cache.get("cfg", keys[0]) is MISS   # evicted
        assert cache.get("cfg", keys[2])[1] == 2
        assert cache.stats()["evictions"] == 1

    def test_version_bump_invalidates(self, monkeypatch):
        cache = ArtifactCache()
        old_key = cache.key("cfg", ("f",))
        cache.put("cfg", old_key, "old-shape")
        monkeypatch.setitem(ARTIFACT_VERSIONS, "cfg",
                            ARTIFACT_VERSIONS["cfg"] + 1)
        new_key = cache.key("cfg", ("f",))
        assert new_key != old_key
        assert cache.get("cfg", new_key) is MISS

    def test_disk_roundtrip_across_instances(self, tmp_path):
        first = ArtifactCache(directory=tmp_path)
        key = first.key("cfg", ("f",))
        first.put("cfg", key, "artifact", seconds=1.25)
        fresh = ArtifactCache(directory=tmp_path)   # new process, say
        assert fresh.get("cfg", key) == (1.25, "artifact")
        assert fresh.stats()["disk_hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        key = cache.key("cfg", ("f",))
        cache.put("cfg", key, "artifact")
        path = cache._disk_path("cfg", key)
        with open(path, "wb") as f:
            f.write(b"\x80truncated garbage")
        fresh = ArtifactCache(directory=tmp_path)
        assert fresh.get("cfg", key) is MISS

    def test_missing_directory_degrades_to_memory(self, tmp_path):
        ro = tmp_path / "nope" / "deeper"
        cache = ArtifactCache(directory=ro)
        key = cache.key("cfg", ("f",))
        cache.put("cfg", key, "v")
        assert cache.get("cfg", key)[1] == "v"


class TestWarmCacheRewrite:
    def test_second_rewrite_runs_zero_constructions(self, binary):
        cache = ArtifactCache()
        out_cold, _, m_cold = _rewrite(binary, cache=cache)
        out_warm, _, m_warm = _rewrite(binary, cache=cache)
        assert m_cold.counter("cfg.constructions").value > 0
        assert m_warm.counter("cfg.constructions").value == 0
        assert m_warm.counter("cache.misses").value == 0
        assert m_warm.counter("cache.cfg.misses").value == 0
        assert m_warm.counter("cache.hits").value == \
            m_cold.counter("cache.stores").value

    def test_warm_output_byte_identical_to_cold(self, binary):
        cache = ArtifactCache()
        out_cold, _, _ = _rewrite(binary, cache=cache)
        out_warm, _, _ = _rewrite(binary, cache=cache)
        assert out_cold.to_bytes() == out_warm.to_bytes()

    def test_cache_on_off_identical_output(self, binary):
        out_nocache, _, _ = _rewrite(binary, cache=None)
        out_cache, _, _ = _rewrite(binary, cache=ArtifactCache())
        assert out_nocache.to_bytes() == out_cache.to_bytes()

    def test_mode_change_shares_cfg_but_not_placement(self, binary):
        cache = ArtifactCache()
        _rewrite(binary, cache=cache, mode="jt")
        _, _, metrics = _rewrite(binary, cache=cache, mode="dir")
        counters = metrics.counter_values()
        # CFG and funcptr artifacts are mode-independent: all hits.
        assert counters.get("cache.cfg.misses", 0) == 0
        assert counters.get("cache.funcptr-fn.misses", 0) == 0
        # Placement keys pin the mode: a dir rewrite recomputes them.
        assert counters.get("cache.placement.misses", 0) > 0

    def test_disk_cache_warms_a_fresh_process(self, binary, tmp_path):
        _rewrite(binary, cache=ArtifactCache(directory=tmp_path))
        fresh = ArtifactCache(directory=tmp_path)
        _, _, metrics = _rewrite(binary, cache=fresh)
        assert metrics.counter("cfg.constructions").value == 0
        assert metrics.counter("cache.misses").value == 0
        assert fresh.stats()["disk_hits"] > 0

    def test_cached_rewrite_still_behaves(self, binary):
        cache = ArtifactCache()
        _rewrite(binary, cache=cache)
        out, report, _ = _rewrite(binary, cache=cache)
        rewriter = IncrementalRewriter(mode="jt")
        code, output = oracle_of(small_program("c"))
        result = run_binary(out,
                            runtime_lib=rewriter.runtime_library(out))
        assert (result.exit_code, result.output) == (code, output)


class TestWorkItems:
    def test_work_items_carry_artifacts_and_provenance(self, binary):
        cache = ArtifactCache()
        metrics = Metrics()
        rewriter = IncrementalRewriter(mode="jt", cache=cache,
                                       metrics=metrics)
        rewriter.rewrite(binary)

        from repro.analysis import build_cfg
        cfg = build_cfg(binary, cache=cache, metrics=Metrics())
        assert cfg.work_items, "work items should be populated"
        for entry, item in cfg.work_items.items():
            assert item.cfg is not None
            assert item.entry == entry
            assert item.cached["cfg"] is True   # second pass: all hits

    def test_work_item_artifacts_are_picklable(self, binary):
        from repro.analysis import build_cfg
        cfg = build_cfg(binary)
        for item in cfg.work_items.values():
            pickle.loads(pickle.dumps(
                (item.cfg, item.discovered_calls, item.instructions)))


class TestHarnessCacheAccounting:
    def test_tool_run_reports_hit_miss_deltas(self, binary):
        from repro.eval.harness import baseline_run, evaluate_tool
        oracle, cycles = baseline_run(binary)
        cache = ArtifactCache()
        metrics = Metrics()
        r1 = evaluate_tool("jt", binary, oracle, cycles, metrics=metrics,
                           cache=cache)
        r2 = evaluate_tool("jt", binary, oracle, cycles, metrics=metrics,
                           cache=cache)
        assert r1.passed and r2.passed
        assert r1.cache_hits == 0 and r1.cache_misses > 0
        assert r2.cache_misses == 0
        assert r2.cache_hits == r1.cache_misses
        assert r2.analysis_seconds_saved >= 0.0


class TestCliPipeline:
    def test_load_error_exit_code(self, tmp_path, capsys):
        from repro.cli import EXIT_LOAD_ERROR, main
        assert main(["run", str(tmp_path / "missing.bin")]) == \
            EXIT_LOAD_ERROR
        assert "cannot read" in capsys.readouterr().err

    def test_garbage_binary_exit_code(self, tmp_path, capsys):
        from repro.cli import EXIT_LOAD_ERROR, main
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a binary image")
        assert main(["layout", str(bad)]) == EXIT_LOAD_ERROR

    def test_unknown_workload_exit_code(self, capsys):
        from repro.cli import EXIT_LOAD_ERROR, main
        assert main(["rewrite", "--workload", "no_such_workload"]) == \
            EXIT_LOAD_ERROR

    def test_rewrite_with_cache_dir(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "rw.bin"
        rc = main(["rewrite", "--workload", "619.lbm_s",
                   "--cache-dir", str(tmp_path / "cache"),
                   "-o", str(out)])
        assert rc == 0
        assert "cache" in capsys.readouterr().out
        assert out.exists()

    def test_batch_second_round_all_hits(self, capsys, tmp_path,
                                         monkeypatch):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)   # the default record ledger
        rc = main(["batch", "619.lbm_s", "--repeat", "2"])
        assert rc == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("619.lbm_s")]
        assert len(lines) == 2
        # "cache H/T hits": second round must be 100% hits.
        frac = lines[1].split("cache")[1].split()[0]
        hits, total = frac.split("/")
        assert hits == total and int(total) > 0

    def test_batch_no_cache(self, capsys):
        from repro.cli import main
        assert main(["batch", "619.lbm_s", "--no-cache",
                     "--no-records"]) == 0
        out = capsys.readouterr().out
        assert "cache 0/0" in out
