"""Inject a record-assembly regression and run the record-overhead check.

Usage: PYTHONPATH=src python3 .github/record_regression.py REGRESSION

REGRESSION is one of:

* ``fingerprint`` — every record collects its own environment
  fingerprint (a git subprocess per rewrite) instead of sharing the
  session's;
* ``digest`` — every record digests its output image a second time.

Exits with pytest's status: 1 when the check caught the regression,
0 when it let it through.
"""

import sys

import pytest

import repro.obs.receipt as receipt

CHECK = ("benchmarks/bench_record_overhead.py::"
         "test_record_emission_overhead")


def per_record_fingerprint():
    receipt.session_fingerprint = lambda: receipt.EnvFingerprint.collect()


def doubled_digest():
    from_rewrite = receipt.RewriteRecord.from_rewrite.__func__

    def digest_twice(cls, binary, rewritten, *args, **kwargs):
        receipt.content_digest(rewritten)
        return from_rewrite(cls, binary, rewritten, *args, **kwargs)

    receipt.RewriteRecord.from_rewrite = classmethod(digest_twice)


REGRESSIONS = {"fingerprint": per_record_fingerprint,
               "digest": doubled_digest}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in REGRESSIONS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(REGRESSIONS)}}}")
    REGRESSIONS[sys.argv[1]]()
    sys.exit(pytest.main(["--benchmark-only", "-q", "-p",
                          "no:cacheprovider", CHECK]))
