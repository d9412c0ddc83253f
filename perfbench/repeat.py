"""One repeat of a workload, in a fresh interpreter.

Usage: python3 repeat.py PLAN_JSON RESULT_JSON   (run with the work dir as cwd)

Starts the speed probes (``speed.Probe``), then imports ``prismradio.cli``,
so the import cost and the cold build_graph cache that every CLI call pays
are part of the repeat.  Then it runs each planned operation through
``cli.main`` in-process, saving stdout where the plan says, and writes
timings, exit codes, peak memory, the probe samples and (when tracing)
spans and counters to RESULT_JSON.  An empty plan only measures the import.
All times are on ``time.monotonic``, the clock the parent starts from.
"""

import time

from speed import Probe

PROBE = Probe()
PROBE.start()

import prismradio.cli as cli

IMPORTED_AT = time.monotonic()

# imported after the measured import on purpose
import contextlib
import io
import json
import resource
import sys


def _corrupt(src: str, dst: str, swaps: list) -> None:
    with open(src, encoding="utf-8") as fh:
        data = json.load(fh)
    labels = data["labels"]
    for i, j in swaps:
        labels[i]["label"], labels[j]["label"] = labels[j]["label"], labels[i]["label"]
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _run_op(op: dict, tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc = None
    t0 = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(op["argv"])
            else:
                with tracer.span("cli.main"):
                    rc = cli.main(op["argv"])
    except SystemExit as e:  # argparse rejects its input by exiting
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a crash is a failed operation, not a failed repeat
        err.write(f"{type(e).__name__}: {e}")
    t1 = time.monotonic()
    if op["save_as"]:
        with open(op["save_as"], "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    return {"rc": rc, "start": t0, "end": t1, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:]}


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        from tracing import Tracer, traced
        tracer = Tracer()
        context = traced(tracer)
    else:
        context = contextlib.nullcontext()
    ops = []
    with context:
        for op in plan["ops"]:
            if op["corrupt"]:
                try:
                    _corrupt(*op["corrupt"])
                except (OSError, ValueError, KeyError, IndexError) as e:
                    now = time.monotonic()
                    ops.append({"rc": None, "start": now, "end": now, "stdout": "",
                                "stderr": f"preparing input failed: {e!r}"})
                    continue
            ops.append(_run_op(op, tracer))
    PROBE.stop()
    result = {
        "imported_at": IMPORTED_AT,
        "ops": ops,
        "probes": PROBE.samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {name: sys.modules[name].__version__ for name in ("numpy", "scipy")},
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
