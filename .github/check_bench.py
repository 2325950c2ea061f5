"""Check the seeded benchmark's deterministic outputs against a committed
expectation.

Usage, from the repository root::

    python3 bench/run.py --workload table3-x86 --seed 0 --seconds 0 \\
        > bench-untraced.out
    python3 bench/run.py --workload table3-x86 --seed 0 --seconds 0 \\
        --trace 1 > bench-traced.out
    python3 .github/check_bench.py .github/bench-expect.json \\
        bench-untraced.out bench-traced.out

``--seconds 0`` runs exactly one round, so every value compared here
depends on the source alone, never on machine speed.  The expectation
file maps each run (``untraced``, ``traced``) to the values the last
JSON line of its output must carry.  A key names a top-level field of
that line (``correct``, ``attempted``, ``failed``) or one of its
metrics.  Integers and booleans must match exactly.  Floats must match
to a relative 1e-9, which absorbs last-ulp libm differences between
machines but no real change.  On any mismatch the script prints each
differing key and exits 1.
"""

import json
import math
import sys

RUNS = ("untraced", "traced")


def last_result(path):
    """The JSON object on the last non-blank line of ``path``."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{path}: last line is not a JSON result")


def lookup(result, key):
    if key in result:
        return result[key]
    metric = result.get("metrics", {}).get(key)
    return None if metric is None else metric["value"]


def matches(expected, actual):
    if isinstance(expected, float):
        return (isinstance(actual, (int, float))
                and not isinstance(actual, bool)
                and math.isclose(actual, expected, rel_tol=1e-9))
    return type(actual) is type(expected) and actual == expected


def main(argv):
    if len(argv) != 1 + len(RUNS):
        print("usage: check_bench.py EXPECT.json UNTRACED.out TRACED.out",
              file=sys.stderr)
        return 2
    expect_path, *out_paths = argv
    with open(expect_path) as f:
        expect = json.load(f)
    mismatches = []
    for run, path in zip(RUNS, out_paths):
        result = last_result(path)
        for key, want in expect[run].items():
            got = lookup(result, key)
            if not matches(want, got):
                mismatches.append(
                    f"{run} {key}: expected {want!r}, got {got!r}")
    for line in mismatches:
        print(line)
    if mismatches:
        print(f"{len(mismatches)} value(s) differ from {expect_path}; "
              f"a change that moves them updates that file and says why")
        return 1
    checked = sum(len(expect[run]) for run in RUNS)
    print(f"all {checked} benchmark values match {expect_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
