"""The environment fingerprint stamped on benchmark rows.

The fingerprint (python, platform, cpu count, git sha) is a plain dict,
collected once per process by :func:`session_fingerprint`;
:func:`stamp_record` puts it, with a schema tag, on the ``bench_*.py``
JSON rows, and ``bench/run.py`` collects it before it times any cell.
"""

import os
import platform
import subprocess
import sys

#: Schema tag; bump the version when a field changes meaning.
BENCH_RECORD_SCHEMA = "BENCH_record/v1"

__all__ = [
    "BENCH_RECORD_SCHEMA",
    "collect_fingerprint",
    "session_fingerprint",
    "stamp_record",
]


def collect_fingerprint():
    """Where a benchmark row comes from, as a plain dict: the interpreter,
    platform and cpu count, plus the git sha of the checkout this
    package was loaded from, when it is one (the key is omitted
    otherwise)."""
    out = {"python": "%d.%d.%d" % sys.version_info[:3],
           "platform": f"{platform.system()}-{platform.machine()}",
           "cpus": os.cpu_count() or 1}
    sha = _git_sha()
    if sha:
        out["git_sha"] = sha
    return out


def _git_sha():
    """Short HEAD sha of the checkout holding this package's source, or
    None when it is not in one.  Asked from the package's own directory:
    the process's working directory may be any other repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def stamp_record(record, fingerprint=None):
    """Stamp one benchmark JSON row with schema + fingerprint.

    The shared helper behind every ``bench_*.py`` machine-readable
    record (``benchmarks/conftest.py`` routes all of them through here),
    so BENCH_*.json rows are self-describing and attributable.
    """
    if fingerprint is None:
        fingerprint = session_fingerprint()
    stamped = {"schema": BENCH_RECORD_SCHEMA,
               "fingerprint": dict(fingerprint)}
    stamped.update(record)
    return stamped


_SESSION_FINGERPRINT = None


def session_fingerprint():
    """The process-wide fingerprint dict, collected once.

    :func:`collect_fingerprint` shells out for the git sha — a few
    milliseconds per call.  The environment cannot change under a
    running process, so every row shares one collection.
    """
    global _SESSION_FINGERPRINT
    if _SESSION_FINGERPRINT is None:
        _SESSION_FINGERPRINT = collect_fingerprint()
    return _SESSION_FINGERPRINT
