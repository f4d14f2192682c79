"""Walk-DP probe: ``origin_sequence`` wall time of one source tree against
another.

Each model of MODELS is swept to its depth by ``origin_sequence``.  For
every round, one fresh process per source tree, in alternating order,
imports ``quarterwalks`` from that tree, times ``--calls`` calls per model
and reports each model's median.  The script prints, per model and tree,
the median over the processes with its quartiles in milliseconds, and the
ratio of each tree's median to the first tree's.

It takes about a minute for two trees at the defaults, so the test suite
does not collect it:

    python tests/dp_probe.py PARENT/src src --processes 5 --calls 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

MODELS = [
    ("Gessel", "E,W,NE,SW", 300),
    ("Gessel", "E,W,NE,SW", 500),
    ("diagonal", "NE,NW,SE,SW", 300),
    ("Gouyou-Beauchamps", "E,W,NW,SE", 300),
    ("king", "E,W,N,S,NE,NW,SE,SW", 200),
    ("Kreweras", "W,S,NE", 200),
    ("Kreweras", "W,S,NE", 500),
    ("simple", "E,W,N,S", 300),
]


def child(src, calls):
    """Each model's median seconds over ``calls`` calls, as one JSON list."""
    sys.path.insert(0, os.path.abspath(src))
    from quarterwalks import origin_sequence, parse_step_set

    medians = []
    for _, steps, depth in MODELS:
        step_set = parse_step_set(steps)
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            origin_sequence(step_set, depth)
            times.append(time.perf_counter() - start)
        medians.append(statistics.median(times))
    print(json.dumps(medians))


def quartiles(values):
    """(median, q1, q3) of ``values``."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("srcs", nargs="+", help="source trees, each a src directory")
    parser.add_argument("--processes", type=int, default=5, help="fresh processes per tree")
    parser.add_argument("--calls", type=int, default=5, help="timed calls per model and process")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.srcs[0], args.calls)
        return
    runs = {src: [] for src in args.srcs}
    for r in range(args.processes):
        for src in args.srcs if r % 2 == 0 else reversed(args.srcs):
            out = subprocess.run(
                [sys.executable, __file__, src, "--child", "--calls", str(args.calls)],
                capture_output=True, text=True, check=True,
            ).stdout
            runs[src].append(json.loads(out))
    print(f"origin_sequence, ms: median [q1, q3] of {args.processes} processes, "
          f"each the median of {args.calls} calls")
    for m, (name, _, depth) in enumerate(MODELS):
        cells = []
        for k, src in enumerate(args.srcs):
            med, q1, q3 = quartiles([1000 * run[m] for run in runs[src]])
            if k == 0:
                base = med
            cells.append(f"{med:.1f} [{q1:.1f}, {q3:.1f}]" + (f" x{med / base:.3f}" if k else ""))
        print(f"{name + ', ' + str(depth):24} " + " | ".join(cells))


if __name__ == "__main__":
    main()
