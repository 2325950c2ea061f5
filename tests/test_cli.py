"""Command-line behaviour: count options reject values below 1 with a
usage error (exit 2) before any command runs, and a one-shot rewrite
pays for no cache it cannot read back."""

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
