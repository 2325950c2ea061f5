"""Command-line input validation: count options reject values below 1
with a usage error (exit 2) before any command runs."""

import pytest

from repro.cli import main


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
