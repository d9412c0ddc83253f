"""Command-line interface.

Subcommands: rn (closed-form radio number), label (emit an optimal
labeling), verify (audit a labeling file), exact (branch-and-bound search),
table (formula vs construction sweep), selftest (invariant suites).

Exit codes: 0 success / labeling valid, 1 labeling invalid, 2 bad input,
3 internal inconsistency (a result failed its own audit, a selftest suite
went red, or an unexpected exception, reported as one ``internal error:``
line).  A reader that closes stdout early (``| head``) changes nothing:
the rest of the output is dropped and the command exits with its own code.

The JSON labeling schema, shared by ``label --format json`` output and
``verify --file`` input, is::

    {"n": int, "s": int, "diameter": int, "span": int,
     "labels": [{"cycle": 1|2, "pos": int, "label": int}, ...]}

with labels sorted by (cycle, pos).  On input, n, s, and labels are
required; diameter and span are recomputed rather than trusted.  CSV output
has a cycle,pos,label header row, and DOT output names nodes c<cycle>_p<pos>
inside graph Z_<n>_<s>.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Iterator

from .bounds import phi, radio_number
from .exact import SearchConfig, exact_radio_number
from .graphs import PrismGraph, Vertex, build_graph
from .labeling import CaseId, Labeling, case_select, construct_labeling
from .selftest import run_selftest
from .verification import verify

# The library needs no scipy.  perfbench/repeat.py records
# sys.modules["scipy"].__version__ after each benchmark run, so the bare
# package root (about 12 ms to import, none of its submodules) stays loaded
# until the benchmark reads versions from package metadata instead.
try:
    import scipy  # noqa: F401
except ImportError:
    pass

EXIT_OK = 0
EXIT_INVALID_LABELING = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


def _print(*args, **kwargs) -> None:
    """print() to stdout that outlives its reader: once the pipe is closed,
    stdout is pointed at the null device, so no later write nor the flush at
    exit meets it, and the command keeps the exit code it decided."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # no real file descriptor
            sys.stdout = open(os.devnull, "w")
        finally:
            os.close(devnull)


def labeling_to_dict(g: PrismGraph, lab: Labeling) -> dict:
    return {
        "n": g.n,
        "s": g.s,
        "diameter": g.diameter,
        "span": lab.span,
        "labels": [
            {"cycle": v.cycle, "pos": v.position, "label": c} for v, c in lab.assignment.items()
        ],
    }


def labeling_from_dict(data: object) -> Labeling:
    """Parse the JSON labeling schema; ValueError on anything malformed.

    Checks the JSON types and that no vertex is listed twice; ``Labeling``
    checks the rest.  Works in time and memory proportional to the document
    and builds no graph, so a short file that names a huge n costs little.
    """
    if not isinstance(data, dict):
        raise ValueError("malformed labeling file: top level must be an object")
    for key in ("n", "s", "labels"):
        if key not in data:
            raise ValueError(f"malformed labeling file: missing key {key!r}")
    n, s = data["n"], data["s"]
    # exact type checks: bool is an int subclass, and JSON true must not pass for 1
    if type(n) is not int or type(s) is not int:
        raise ValueError("malformed labeling file: n and s must be integers")
    entries = data["labels"]
    if not isinstance(entries, list):
        raise ValueError("malformed labeling file: labels must be a list")
    assignment: dict = {}
    for entry in entries:
        if not isinstance(entry, dict) or not {"cycle", "pos", "label"} <= set(entry):
            raise ValueError("malformed labeling file: each label needs cycle, pos, label")
        cycle, pos, label = entry["cycle"], entry["pos"], entry["label"]
        if not (type(cycle) is int and type(pos) is int and type(label) is int):
            raise ValueError("malformed labeling file: cycle, pos, label must be integers")
        v = Vertex(cycle, pos)
        if v in assignment:
            raise ValueError(f"malformed labeling file: vertex ({cycle},{pos}) labeled twice")
        assignment[v] = label
    return Labeling(n=n, s=s, assignment=assignment)


def _dot_lines(g: PrismGraph, lab: Labeling) -> Iterator[str]:
    yield f"graph Z_{g.n}_{g.s} {{"
    for v, c in lab.assignment.items():
        yield f'  c{v.cycle}_p{v.position} [label="{c}"];'
    for u, v in g.edges():
        yield f"  c{u.cycle}_p{u.position} -- c{v.cycle}_p{v.position};"
    yield "}"


def _parse_budget(text: str) -> float:
    scale = {"s": 1.0, "m": 60.0, "h": 3600.0}
    raw, unit = (text[:-1], text[-1]) if text and text[-1] in scale else (text, "s")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"cannot parse time budget {text!r} (use e.g. 60s, 5m, 1h)") from None
    seconds = value * scale[unit]
    if not math.isfinite(seconds):  # NaN would make a deadline no clock reaches
        raise ValueError(f"time budget must be finite, got {text!r}")
    if seconds < 0:
        raise ValueError("time budget must be nonnegative")
    return seconds


def cmd_rn(args: argparse.Namespace) -> int:
    value, method = radio_number(args.n, args.s)
    if args.format == "json":
        _print(json.dumps({"n": args.n, "s": args.s, "rn": value, "method": method}))
    else:
        _print(value)
    return EXIT_OK


def cmd_label(args: argparse.Namespace) -> int:
    lab = construct_labeling(args.n, args.s)
    g = build_graph(args.n, args.s)
    report = verify(g, lab)
    if not report.valid:
        print(
            f"internal inconsistency: constructed labeling of Z({args.n},{args.s}) "
            f"failed verification ({len(report.violations)} violations)",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    if args.format == "json":
        _print(json.dumps(labeling_to_dict(g, lab)))
    elif args.format == "csv":
        _print("cycle,pos,label")
        for v, c in lab.assignment.items():
            _print(f"{v.cycle},{v.position},{c}")
    elif args.format == "dot":
        for line in _dot_lines(g, lab):
            _print(line)
    else:
        _print(f"Z({g.n},{g.s}): diameter {g.diameter}, span {lab.span}")
        for v, c in lab.assignment.items():
            _print(f"({v.cycle},{v.position}) {c}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read {args.file}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed labeling file: {e}") from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("malformed labeling file: nested too deeply") from None
    lab = labeling_from_dict(data)
    g = build_graph(lab.n, lab.s)
    report = verify(g, lab)
    if args.format == "json":
        _print(json.dumps(report.to_dict()))
    elif report.valid:
        _print(f"valid: span={report.span}, pairs_checked={report.pairs_checked}")
    else:
        _print(
            f"INVALID: {len(report.violations)} violations "
            f"(span={report.span}, pairs_checked={report.pairs_checked})"
        )
        for w in report.violations[:20]:
            _print(
                f"  {w.u} -- {w.v}: distance {w.distance} + gap {w.label_gap} "
                f"< required {w.required}"
            )
        if len(report.violations) > 20:
            _print(f"  ... and {len(report.violations) - 20} more")
    return EXIT_OK if report.valid else EXIT_INVALID_LABELING


def cmd_exact(args: argparse.Namespace) -> int:
    g = build_graph(args.n, args.s)
    cfg = SearchConfig(
        upper_bound_hint=args.hint,
        time_budget=None if args.budget is None else _parse_budget(args.budget),
    )
    result = exact_radio_number(g, cfg)
    report = verify(g, result.witness)
    if not report.valid or result.witness.span != result.rn:
        print("internal inconsistency: exact witness failed verification", file=sys.stderr)
        return EXIT_INTERNAL
    status = "proven optimal" if result.proven_optimal else "budget exhausted (upper bound)"
    if args.format == "json":
        _print(
            json.dumps(
                {
                    "n": args.n,
                    "s": args.s,
                    "rn": result.rn,
                    "proven_optimal": result.proven_optimal,
                    "nodes_explored": result.nodes_explored,
                    "witness": labeling_to_dict(g, result.witness),
                }
            )
        )
    else:
        _print(f"rn = {result.rn}")
        _print(f"status = {status}")
        _print(f"nodes_explored = {result.nodes_explored}")
    return EXIT_OK


def _table_rows(n_min: int, n_max: int) -> Iterator[dict]:
    for n in range(n_min, n_max + 1):
        for s in (1, 2, 3):
            if s > n:
                continue
            if case_select(n, s) is CaseId.UNSUPPORTED:
                yield {"n": n, "s": s, "phi": None, "rn_formula": None, "span": None,
                       "match": None, "note": "outside scope"}
                continue
            g = build_graph(n, s)
            lab = construct_labeling(n, s)
            valid = verify(g, lab).valid
            formula, method = radio_number(n, s)
            special = method == "special"
            yield {"n": n, "s": s, "phi": None if special else phi(n, s),
                   "rn_formula": formula, "span": lab.span,
                   "match": valid and lab.span == formula, "note": "special" if special else ""}


def cmd_table(args: argparse.Namespace) -> int:
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    rows = list(_table_rows(args.n_min, args.n_max))
    if args.format == "json":
        _print(json.dumps(rows))
    elif args.format == "csv":
        _print("n,s,phi,rn_formula,span,match,note")
        for r in rows:
            cells = [r["n"], r["s"], r["phi"], r["rn_formula"], r["span"], r["match"], r["note"]]
            _print(",".join("" if c is None else str(c) for c in cells))
    else:
        _print(f"{'n':>4} {'s':>2} {'phi':>4} {'rn':>6} {'span':>6} {'match':>6} note")
        for r in rows:
            def cell(x, width):
                if x is None:
                    x = "-"
                elif isinstance(x, bool):
                    x = "yes" if x else "NO"
                return f"{x:>{width}}"
            _print(
                f"{r['n']:>4} {r['s']:>2} {cell(r['phi'], 4)} {cell(r['rn_formula'], 6)} "
                f"{cell(r['span'], 6)} {cell(r['match'], 6)} {r['note']}"
            )
    if any(r["match"] is False for r in rows):
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(n_max=args.n_max, inject_fault=args.inject_fault)
    for r in results:
        _print(f"{r.name}: {'PASS' if r.passed else 'FAIL'} ({r.detail})")
    failed = [r for r in results if not r.passed]
    _print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return EXIT_OK if not failed else EXIT_INTERNAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prismradio",
        description="Radio labelings of generalized prism graphs Z(n, s), 1 <= s <= 3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ns(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="cycle length (n >= 3)")
        p.add_argument("--s", type=int, required=True, help="cross-edge count (1..3)")

    p_rn = sub.add_parser("rn", help="radio number by closed form")
    add_ns(p_rn)
    p_rn.add_argument("--format", choices=["text", "json"], default="text")
    p_rn.set_defaults(func=cmd_rn)

    p_label = sub.add_parser("label", help="emit an optimal radio labeling")
    add_ns(p_label)
    p_label.add_argument("--format", choices=["text", "json", "csv", "dot"], default="text")
    p_label.set_defaults(func=cmd_label)

    p_verify = sub.add_parser("verify", help="audit a labeling file (JSON schema)")
    p_verify.add_argument("--file", required=True, help="path to a labeling JSON file")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_exact = sub.add_parser("exact", help="prove the radio number by search")
    add_ns(p_exact)
    p_exact.add_argument("--budget", default=None, help="time budget, e.g. 60s, 5m")
    p_exact.add_argument("--hint", type=int, default=None,
                         help="initial incumbent span (must be a true upper bound)")
    p_exact.add_argument("--format", choices=["text", "json"], default="text")
    p_exact.set_defaults(func=cmd_exact)

    p_table = sub.add_parser("table", help="formula vs construction sweep")
    p_table.add_argument("--n-min", type=int, default=4)
    p_table.add_argument("--n-max", type=int, default=12)
    p_table.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_table.set_defaults(func=cmd_table)

    p_self = sub.add_parser("selftest", help="run cross-module invariant suites")
    p_self.add_argument("--n-max", type=int, default=20)
    p_self.add_argument("--inject-fault", choices=["phi"], default=None,
                        help=argparse.SUPPRESS)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        _print(end="", flush=True)  # a reader gone after the last write shows here, not at exit
        return code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as e:  # exit 1 means "labeling invalid"; a crash must not look like it
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
