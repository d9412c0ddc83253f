"""Run all four workloads and print every metric, the trace and its checks.

Usage, from the repository root:

    python3 perfbench/report.py [--seed 1] [--seconds 32]

Per workload: one untraced run (end-to-end metrics with unit, median,
quartiles and sample count, plus fail_frac), then two traced runs with the
same seed.  It prints the per-layer metrics of the first traced run, the
tracing overhead, and every deterministic counter that differs between the
two traced runs.  Exits 1 if an operation failed or a counter differed.
"""

from __future__ import annotations

import argparse
import sys

from run import DETERMINISTIC, BenchError, print_result, run_workload
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    args = parser.parse_args(argv)
    bad = False
    try:
        for name in WORKLOADS:
            print(f"== {name}: end to end, tracing off")
            plain = run_workload(name, args.seed, args.seconds, trace=False)
            print_result(plain)
            print(f"fail_frac {len(plain['failures']) / plain['attempted']:.6g} ratio "
                  f"({len(plain['failures'])} of {plain['attempted']} operations)")
            print(f"== {name}: per layer, traced")
            first = run_workload(name, args.seed, args.seconds, trace=True)
            print_result(first)
            second = run_workload(name, args.seed, args.seconds, trace=True)
            differ = first["unsteady"] + second["unsteady"] + [
                k for k in DETERMINISTIC
                if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
            print(f"tracing overhead {first['metrics']['trace.overhead_s']['value']:.4f} s")
            print("counters differing between two traced runs: " + (", ".join(differ) or "none"))
            bad |= bool(differ or plain["failures"] or first["failures"] or second["failures"])
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
