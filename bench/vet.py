"""Find the program variants of each workload on which every cell passes.

    python3 bench/vet.py [--workload NAME]

Variant 0, the paper's programs, comes first.  Then variants 1, 2, ...
are tried in order, one untraced pass each, and the first ones whose
pass has no failure are kept.  The printed lines are the ``VARIANTS``
table of ``cells.py``.
"""

import argparse
import sys

from run import Pass, judge  # first: run puts src/ on sys.path
from cells import WORKLOADS
from repro.obs import NULL_TRACER

#: Variants per workload; ``cells.setup`` cycles through them by seed.
COUNT = 16


def vet(workload):
    found, variant = [], 0
    while len(found) < COUNT:
        cells = WORKLOADS[workload](variant, NULL_TRACER)
        failed, _, _ = judge(cells, [Pass(cells)])
        if failed:
            print(f"{workload} variant {variant}: {failed[0]}",
                  file=sys.stderr, flush=True)
        else:
            found.append(variant)
        variant += 1
    return tuple(found)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in [args.workload] if args.workload else WORKLOADS:
        print(f"    {workload!r}: {vet(workload)},", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
