"""The incremental pipeline: content-addressed artifact cache,
whole-stage artifacts (cfg, funcptr), and batch rewriting.

Covers the subsystem's acceptance property: a warm-cache rewrite
performs **zero** CFG constructions (proven via the
``cfg.constructions`` / ``cache.*`` span counters) and its output is
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
from repro.obs import Tracer
from tests.conftest import compiled, oracle_of, small_program
from repro.machine import run_binary


@pytest.fixture(scope="module")
def binary():
    return compiled(small_program("c"), "x86")


def _rewrite(binary, cache=None, mode="jt", **kwargs):
    """(output, report, counters summed over the rewrite's trace)."""
    tracer = Tracer()
    rewriter = IncrementalRewriter(mode=mode, cache=cache, tracer=tracer,
                                   **kwargs)
    out, report = rewriter.rewrite(binary)
    return out, report, tracer.finish().total_counters()


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
        out_cold, _, cold = _rewrite(binary, cache=cache)
        out_warm, _, warm = _rewrite(binary, cache=cache)
        assert cold["cfg.constructions"] > 0
        assert warm.get("cfg.constructions", 0) == 0
        assert warm.get("cache.misses", 0) == 0
        assert warm.get("cache.cfg.misses", 0) == 0
        assert warm["cache.hits"] == cold["cache.stores"]

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
        _, _, counters = _rewrite(binary, cache=cache, mode="dir")
        # CFG and funcptr artifacts are mode-independent: both hit.
        assert counters.get("cache.cfg.hits") == 1
        assert counters.get("cache.funcptr.hits") == 1
        assert counters.get("cache.misses", 0) == 0
        # Placement is always recomputed: it has no artifact kind.
        assert not any(name.startswith("cache.placement")
                       for name in counters)
        assert "placement" not in ARTIFACT_VERSIONS

    def test_disk_cache_warms_a_fresh_process(self, binary, tmp_path):
        _rewrite(binary, cache=ArtifactCache(directory=tmp_path))
        fresh = ArtifactCache(directory=tmp_path)
        _, _, counters = _rewrite(binary, cache=fresh)
        assert "cfg.constructions" not in counters
        assert "cache.misses" not in counters
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


class TestStageArtifacts:
    @pytest.mark.parametrize("mode", ["dir", "jt", "func-ptr"])
    def test_warm_rewrite_hits_each_stage_once(self, binary, mode):
        cache = ArtifactCache()
        _, _, cold = _rewrite(binary, cache=cache, mode=mode)
        _, _, warm = _rewrite(binary, cache=cache, mode=mode)
        assert {k: v for k, v in cold.items()
                if k.startswith("cache.")} == \
            {"cache.misses": 2, "cache.stores": 2,
             "cache.cfg.misses": 1, "cache.funcptr.misses": 1}
        assert warm.pop("cache.seconds_saved") > 0
        assert {k: v for k, v in warm.items()
                if k.startswith("cache.")} == \
            {"cache.hits": 2, "cache.cfg.hits": 1,
             "cache.funcptr.hits": 1}
        assert cold["cfg.constructions"] == cold["functions"]
        assert "cfg.constructions" not in warm
        assert len(cache) == 2

    def test_cfg_hook_keeps_funcptr_out_of_the_cache(self, binary):
        cache = ArtifactCache()
        for _ in range(2):
            _, _, counters = _rewrite(binary, cache=cache,
                                      cfg_hook=lambda cfg: cfg)
        assert counters.get("cache.cfg.hits") == 1
        assert not any(name.startswith("cache.funcptr")
                       for name in counters)
        assert len(cache) == 1

    def test_stage_artifacts_survive_pickle_round_trip(self, binary):
        from repro.analysis import analyze_function_pointers, build_cfg
        from repro.isa import get_arch
        cfg = build_cfg(binary)
        funcptrs = analyze_function_pointers(binary, cfg,
                                             get_arch(binary.arch_name))
        cfg2 = pickle.loads(pickle.dumps(cfg))
        assert list(cfg2.functions) == list(cfg.functions)
        assert cfg2.instructions == cfg.instructions
        assert cfg2.seconds == cfg.seconds
        for entry, fcfg in cfg.functions.items():
            copy = cfg2.functions[entry]
            assert cfg2.by_name[fcfg.name] is copy
            assert (copy.name, copy.failed, sorted(copy.blocks)) == \
                (fcfg.name, fcfg.failed, sorted(fcfg.blocks))
            assert [b.succs for b in copy.sorted_blocks()] == \
                [b.succs for b in fcfg.sorted_blocks()]
        assert pickle.loads(pickle.dumps(funcptrs)) == funcptrs


class TestHarnessCacheAccounting:
    def test_tool_run_reports_hit_miss_deltas(self, binary):
        from repro.eval.harness import baseline_run, evaluate_tool
        oracle, cycles = baseline_run(binary)
        cache = ArtifactCache()
        tracer = Tracer()
        r1 = evaluate_tool("jt", binary, oracle, cycles, tracer=tracer,
                           cache=cache)
        r2 = evaluate_tool("jt", binary, oracle, cycles, tracer=tracer,
                           cache=cache)
        assert r1.passed and r2.passed
        # Each run's accounting is on its own rewrite span.
        c1, c2 = (span.total_counters() for span in tracer.root.children
                  if span.name == "rewrite")
        assert c1.get("cache.hits", 0) == 0 and c1["cache.misses"] > 0
        assert c2.get("cache.misses", 0) == 0
        assert c2["cache.hits"] == c1["cache.misses"]
        assert c2["cache.seconds_saved"] > 0.0


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
