"""Command-line behaviour: count options reject values below 1 with a
usage error (exit 2) before any command runs, a one-shot rewrite or
chaos run pays for no cache it cannot read back, and a warm rewrite's
profile shows each cached stage's hit on that stage's row."""

import pytest

from repro.cli import main
from repro.core import ArtifactCache


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_diff_run_ring_must_be_positive(capsys):
    err = _usage_error(["diff-run", "a.bin", "b.bin", "--ring", "0"],
                       capsys)
    assert "--ring: expected a positive integer, got '0'" in err


def test_diff_run_max_steps_must_be_positive(capsys):
    err = _usage_error(
        ["diff-run", "a.bin", "b.bin", "--max-steps", "0"], capsys)
    assert "--max-steps: expected a positive integer, got '0'" in err


def test_batch_repeat_must_be_positive(capsys):
    err = _usage_error(["batch", "619.lbm_s", "--repeat", "-1"], capsys)
    assert "--repeat: expected a positive integer, got '-1'" in err


def test_one_shot_rewrite_makes_no_cache_lookups(tmp_path, monkeypatch,
                                                 capsys):
    lookups = []
    get = ArtifactCache.get

    def counting_get(self, kind, key):
        lookups.append(kind)
        return get(self, kind, key)

    monkeypatch.setattr(ArtifactCache, "get", counting_get)
    plain = tmp_path / "plain.bin"
    assert main(["rewrite", "--workload", "619.lbm_s",
                 "-o", str(plain)]) == 0
    assert lookups == []
    assert "cache" not in capsys.readouterr().out
    # With --cache-dir the same rewrite looks up each cached stage
    # once and writes the same bytes.
    cached = tmp_path / "cached.bin"
    assert main(["rewrite", "--workload", "619.lbm_s", "--cache-dir",
                 str(tmp_path / "cache"), "-o", str(cached)]) == 0
    assert sorted(lookups) == ["cfg", "funcptr"]
    assert "cache         : 0 hits, 2 misses" in capsys.readouterr().out
    assert cached.read_bytes() == plain.read_bytes()


def _profile_row(out, stage):
    """The ``--profile`` row of ``stage`` in a rewrite's stdout."""
    return next(line for line in out.splitlines()
                if line.strip().startswith(stage + " "))


def test_warm_rewrite_profile_shows_stage_cache_hits(tmp_path, capsys):
    argv = ["rewrite", "--workload", "619.lbm_s", "--cache-dir",
            str(tmp_path / "cache"), "--profile"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "cache         : 0 hits, 2 misses" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "cache         : 2 hits, 0 misses" in warm
    # Each cached stage counts its own lookup on its own profile row.
    for stage, kind in (("cfg-construction", "cfg"),
                        ("funcptr-analysis", "funcptr")):
        assert "cache.misses=1" in _profile_row(cold, stage)
        row = _profile_row(warm, stage)
        assert "cache.hits=1" in row
        assert f"cache.{kind}.hits=1" in row
        assert "cache.seconds_saved=" in row
        assert "cache.misses" not in row


def test_one_shot_chaos_builds_a_cache_only_to_corrupt_it(capsys,
                                                          monkeypatch):
    lookups = []
    get = ArtifactCache.get

    def counting_get(self, kind, key):
        lookups.append(kind)
        return get(self, kind, key)

    monkeypatch.setattr(ArtifactCache, "get", counting_get)
    assert main(["chaos", "--workload", "619.lbm_s", "--report", "1"]) == 0
    out = capsys.readouterr().out
    assert lookups == []
    assert "substrate" not in out
    assert main(["chaos", "--workload", "619.lbm_s",
                 "--corrupt-cache", "1"]) == 0
    assert "substrate : cache_corrupt=1" in capsys.readouterr().out
    # The warming rewrite looks each stage up once, then the chaos run.
    assert sorted(lookups) == ["cfg", "cfg", "funcptr", "funcptr"]


@pytest.mark.parametrize("command", [
    ["rewrite", "--workload", "619.lbm_s"],
    ["batch", "619.lbm_s"],
    ["chaos", "--workload", "619.lbm_s"],
], ids=["rewrite", "batch", "chaos"])
def test_no_cache_flag_is_gone(command, capsys):
    err = _usage_error(command + ["--no-cache"], capsys)
    assert "unrecognized arguments: --no-cache" in err
