"""Calibrate the benchmark: run every workload over several seeds and
record each end-to-end metric's median and quartiles.

    python3 bench/calibrate.py --seeds 0 1 2 3 4 5 6 8 9 10 \\
        --out bench/calibration.json

Runs are sequential, each in its own process, exactly as the benchmark
is driven (``run_seconds`` from ``BENCHMARK.json``).  For every metric
the spread is the interquartile range as a share of the median; a
timing metric is steady enough when its spread is under a third of its
bound.  Exits non-zero if any run fails or any spread (``setup_s``
aside) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stdout}{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, too_wide = {}, []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in args.seeds]
        report[workload] = {
            name: summarize([run[name] for run in runs]) for name in bounds}
        for name, row in report[workload].items():
            print(f"{workload:<14} {name:<16} median {row['median']:<12.6g}"
                  f" spread {row['spread']:7.2%}  bound {bounds[name]:.0%}")
            if name != "setup_s" and row["spread"] > bounds[name]:
                too_wide.append(f"{workload} {name}")
    if args.out:
        args.out.write_text(json.dumps(
            {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
             "workloads": report}, indent=1) + "\n")
    if too_wide:
        sys.exit("spread above bound: " + ", ".join(too_wide))
    return 0


if __name__ == "__main__":
    sys.exit(main())
