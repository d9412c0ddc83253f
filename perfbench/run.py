"""End-to-end benchmark of the prismradio CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 32 --trace 0

Each repeat runs the workload's operation list (see ``workloads``) through
``prismradio.cli.main`` in a fresh interpreter (``repeat.py``), one at a
time, single-threaded, with numeric-library threads pinned to 1.  Repeats
are launched until the next one would overrun ``--seconds``; at least one
always runs.  Import-only processes then top up the set-up samples, so
``setup_s`` is a median of at least five set-ups.  Outputs are checked by independent oracles after each
repeat, outside the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over repeats:

    setup_s      s      fresh interpreter to ``import prismradio.cli`` done,
                        scaled (below)
    run_s        s      wall time of the operation list through cli.main,
                        scaled (below)
    peak_rss_mb  MB     peak resident memory of the repeat process
    ok_frac      ratio  operations accepted by exit code and oracle over
                        operations attempted (1 - fail_frac)

setup_s and run_s are wall times in seconds of a reference core
(``speed``): probes in each repeat process measure how fast the shared core
runs, stretch by stretch, and each stretch is rescaled to the reference
core's speed, so contention from other tenants of the host does not move
them.  The unscaled wall time of the operations and the median probe time
are printed beside them.

With ``--trace 1`` repeats alternate between untraced and traced, and the
last line reports per-layer self times (scaled as run_s is) and counters of
the traced repeats (``tracing.layer_metrics``) plus the tracing overhead.  The lines before
the last give quartiles, sample counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# set for every repeat process: numeric-library threads pinned to 1
CHILD_VARS = {"PYTHONHASHSEED": "0", **{name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}}
MIN_SETUPS = 5  # import-only processes top up the set-ups the repeats give
RUN_LIMIT = 165.0  # seconds; a run still busy then stops without a result

UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
LAYER_UNITS = {
    "graphs.build_s": "s", "graphs.builds": "count", "graphs.lookups": "count",
    "graphs.cache_hit_ratio": "ratio", "graphs.dist_mb": "MB", "graphs.query_s": "s",
    "graphs.queries": "count", "bounds.triple_sweep_s": "s",
    "bounds.triples_checked": "count", "labeling.construct_s": "s",
    "labeling.vertices_placed": "count", "verification.verify_s": "s",
    "verification.pairs_checked": "count", "verification.violations": "count",
    "verification.pairs_per_s": "1/s", "exact.search_s": "s", "exact.nodes": "count",
    "exact.nodes_per_s": "1/s", "exact.proven": "count", "cli.parse_s": "s",
    "cli.self_s": "s", "cli.ops": "count", "cli.failed": "count", "selftest.run_s": "s",
    "selftest.checks": "count", "trace.run_s": "s", "trace.overhead_s": "s",
}
# per-layer metrics that must repeat exactly for the same code and seed
DETERMINISTIC = tuple(k for k, unit in LAYER_UNITS.items() if unit == "count") + (
    "graphs.dist_mb",)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_repeat(ops: list[Op], workdir: Path, trace: bool, timeout: float = RUN_LIMIT) -> dict:
    """Run one repeat in a fresh interpreter and score it.

    Returns the start, import and op times with the speed probes (``timed``
    turns them into setup_s and run_s), peak_rss_mb, per-op failure reasons
    (None when accepted) and, when traced, the per-layer metrics.
    """
    plan, result_file = workdir / "plan.json", workdir / "result.json"
    plan.write_text(json.dumps({"trace": trace, "ops": [op.spec() for op in ops]}))
    result_file.unlink(missing_ok=True)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "repeat.py"), plan.name, result_file.name],
            cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a repeat overran the {RUN_LIMIT} s limit of a run") from None
    if proc.returncode != 0 or not result_file.exists():
        raise BenchError(f"repeat process exited {proc.returncode}:\n{proc.stdout[-3000:]}")
    res = json.loads(result_file.read_text())
    failures = [_score(op, out, workdir) for op, out in zip(ops, res["ops"])]
    rep = timed({
        "started": t0,
        "imported_at": res["imported_at"],
        "op_spans": [(out["start"], out["end"]) for out in res["ops"]],
        "probes": res["probes"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "failures": failures,
        "versions": res["versions"],
    })
    if trace:
        layers = tracing.layer_metrics(
            res["spans"], res["counts"], lambda a, b: speed.scaled_seconds(a, b, res["probes"]))
        layers["cli.ops"] = len(ops)
        layers["cli.failed"] = sum(f is not None for f in failures)
        rep["layers"] = layers
    return rep


def timed(rep: dict) -> dict:
    """Add setup_s, run_s (both scaled, see ``speed``) and wall_run_s to a repeat."""
    probes = rep["probes"]
    if not probes:
        raise BenchError("no speed probe ran in a repeat")
    rep["setup_s"] = speed.scaled_seconds(rep["started"], rep["imported_at"], probes)
    rep["run_s"] = sum(speed.scaled_seconds(a, b, probes) for a, b in rep["op_spans"])
    rep["wall_run_s"] = sum(b - a for a, b in rep["op_spans"])
    return rep


def _score(op: Op, out: dict, workdir: Path) -> str | None:
    """None if the op returned the expected code and its output passed its check."""
    if out["rc"] != op.expect_rc:
        return f"{' '.join(op.argv)}: exit {out['rc']}, expected {op.expect_rc}: {out['stderr']}"
    try:
        reason = op.check(out["stdout"], workdir)
    except (ValueError, KeyError, TypeError, IndexError) as e:  # malformed output
        reason = f"unreadable output: {type(e).__name__}: {e}"
    return None if reason is None else f"{' '.join(op.argv)}: {reason}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cpu_quota() -> str:
    """The cgroup CPU limit, read only: "max" or "quota/period" in microseconds."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    v1 = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    try:
        if v2.exists():
            return v2.read_text().strip()
        quota = v1.read_text().strip()
        period = v1.with_name("cpu.cfs_period_us").read_text().strip()
    except OSError:
        return "unknown"
    return "max" if quota == "-1" else f"{quota}/{period}"


def environment(seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": _cpu_quota(),
        "python": platform.python_version(),
        **versions,
        "seed": seed,
        "child_env": CHILD_VARS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; returns samples and metrics."""
    if not (SRC / "prismradio" / "cli.py").is_file():
        raise BenchError(f"prismradio sources not found under {SRC}")
    ops = WORKLOADS[name](seed)
    workdir = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.monotonic()
    try:
        plain, traced, longest = [], [], 0.0
        while True:
            # with tracing, alternate untraced and traced repeats
            is_traced = trace and len(traced) < len(plain)
            t0 = time.monotonic()
            rep = run_repeat(ops, workdir, is_traced, RUN_LIMIT - (t0 - start))
            longest = max(longest, time.monotonic() - t0)
            (traced if is_traced else plain).append(rep)
            enough = plain and (traced or not trace)
            if enough and time.monotonic() - start + longest > seconds:
                break
        setup_only = [run_repeat([], workdir, False, RUN_LIMIT - (time.monotonic() - start))
                      for _ in range(MIN_SETUPS - len(plain) - len(traced))]
        repeats = plain + traced
        setups = [r["setup_s"] for r in repeats + setup_only]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    failures = [f for r in repeats for f in r["failures"] if f is not None]
    attempted = sum(len(r["failures"]) for r in repeats)
    samples = {
        "setup_s": setups,
        "run_s": [r["run_s"] for r in plain],
        "wall_run_s": [r["wall_run_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "ok_frac": [1 - sum(f is not None for f in r["failures"]) / len(r["failures"])
                    for r in plain],
    }
    if trace:
        layer_samples = {k: [r["layers"][k] for r in traced] for k in traced[0]["layers"]}
        layer_samples["trace.run_s"] = [r["run_s"] for r in traced]
        layer_samples["trace.overhead_s"] = [statistics.median(layer_samples["trace.run_s"])
                                             - statistics.median(samples["run_s"])]
        unsteady = [k for k in DETERMINISTIC if len(set(layer_samples[k])) > 1]
        samples, units = layer_samples, LAYER_UNITS
    else:
        unsteady, units = [], UNITS
    return {
        "workload": name,
        "samples": samples,
        "metrics": {k: {"value": statistics.median(samples[k]), "unit": units[k]}
                    for k in units},
        "attempted": attempted,
        "failures": failures,
        "unsteady": unsteady,
        "probe_s": statistics.median(took for r in repeats + setup_only
                                     for _, took in r["probes"]),
        "env": environment(seed, repeats[0]["versions"]),
    }


def print_result(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    print(json.dumps({"env": result["env"]}))
    for msg in result["failures"][:20]:
        print(f"FAIL {msg}")
    if result["unsteady"]:
        print("counters differing between traced repeats: " + ", ".join(result["unsteady"]))
    print(f"{'metric':<28} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    rows = [(key, key, m["unit"]) for key, m in result["metrics"].items()]
    if "wall_run_s" in result["samples"]:
        rows.append(("wall_run_s (unscaled)", "wall_run_s", "s"))
    for label, key, unit in rows:
        values = result["samples"][key]
        q1, med, q3 = quartiles(values)
        print(f"{label:<28} {unit:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>3}")
    print(f"median probe {result['probe_s'] * 1e3:.4f} ms, "
          f"reference core {speed.REF_PROBE_S * 1e3:.4f} ms")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": result["metrics"],
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the repeat, and the
    # work dir is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
