"""Benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures and
prints the reproduced rows (run with ``-s`` to see them; they are also
attached to the pytest-benchmark ``extra_info``).

Scale knobs: set REPRO_BENCH_FULL=1 to run the full 19-benchmark suite
in the Table 3 benches (the default uses a representative subset so
``pytest benchmarks/ --benchmark-only`` stays in CI-friendly time).

Machine-readable output: ``--json OUT`` collects every record a bench
registers through the ``runtime_records`` fixture and writes them as one
``BENCH_runtime/v2`` JSON document at session end.  Every record is
routed through the shared schema stamp (:func:`repro.obs.stamp_record`):
each row carries ``schema`` + the session's environment fingerprint, so
downstream consumers can attribute and compare rows without guessing
where they came from.
"""

import json
import os

import pytest

from repro.obs import stamp_record
from repro.obs.receipt import session_fingerprint

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Representative subset: C-heavy, exception-using, Fortran, hostile.
SUBSET = (
    "602.sgcc_s",
    "605.mcf_s",
    "619.lbm_s",
    "620.omnetpp_s",
    "623.xalancbmk_s",
    "648.exchange2_s",
)


def table3_benchmarks():
    if FULL:
        from repro.toolchain.workloads import SPEC_BENCHMARK_NAMES
        return SPEC_BENCHMARK_NAMES
    return SUBSET


@pytest.fixture(scope="session")
def print_section(request):
    def _print(title, body):
        print()
        print("=" * 72)
        print(title)
        print("=" * 72)
        print(body)
    return _print


def pytest_addoption(parser):
    parser.addoption(
        "--json", action="store", default=None, metavar="OUT",
        help="write collected runtime benchmark records to OUT as JSON",
    )


_RUNTIME_RECORDS = []


def register_record(record):
    """The one place every bench's machine-readable record goes through:
    stamps schema + environment fingerprint and queues it for the
    session's ``--json`` document."""
    _RUNTIME_RECORDS.append(stamp_record(record))


@pytest.fixture
def runtime_records():
    """Register machine-readable results: call with a dict per record
    (e.g. tool/benchmark/cycles/instructions/trampoline hits); each is
    stamped with schema + fingerprint via :func:`register_record`."""
    return register_record


def pytest_sessionfinish(session, exitstatus):
    out = session.config.getoption("--json")
    if not out or not _RUNTIME_RECORDS:
        return
    with open(out, "w") as f:
        json.dump({"schema": "BENCH_runtime/v2",
                   "fingerprint": session_fingerprint(),
                   "results": _RUNTIME_RECORDS}, f, indent=2)
