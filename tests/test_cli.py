"""Command-line behaviour: count options reject values below 1 (the
chaos fault counts: below 0) with a usage error (exit 2) before any
command runs, and each class of load failure exits with
:data:`~repro.cli.EXIT_LOAD_ERROR`."""

import pytest

from repro.cli import EXIT_LOAD_ERROR, build_parser, main


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


@pytest.mark.parametrize("flag", ["--report", "--overapprox",
                                  "--underapprox"])
def test_chaos_counts_must_be_non_negative(flag, capsys):
    err = _usage_error(["chaos", "--workload", "619.lbm_s", flag, "-1"],
                       capsys)
    assert f"{flag}: expected a non-negative integer, got '-1'" in err
    args = build_parser().parse_args(
        ["chaos", "--workload", "619.lbm_s", flag, "0"])
    assert getattr(args, flag[2:]) == 0


def test_load_error_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.bin")]) == \
        EXIT_LOAD_ERROR
    assert "cannot read" in capsys.readouterr().err


def test_garbage_binary_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a binary image")
    assert main(["layout", str(bad)]) == EXIT_LOAD_ERROR


def test_unknown_workload_exit_code(capsys):
    assert main(["rewrite", "--workload", "no_such_workload"]) == \
        EXIT_LOAD_ERROR


@pytest.mark.parametrize("command", [
    ["rewrite", "--workload", "619.lbm_s"],
    ["chaos", "--workload", "619.lbm_s"],
], ids=["rewrite", "chaos"])
def test_no_cache_flag_is_gone(command, capsys):
    err = _usage_error(command + ["--no-cache"], capsys)
    assert "unrecognized arguments: --no-cache" in err
