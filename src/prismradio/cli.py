"""Command-line interface.

Subcommands: rn (closed-form radio number), label (emit an optimal
labeling), verify (audit a labeling file), exact (branch-and-bound search),
table (formula vs construction sweep), selftest (invariant suites).

Exit codes: 0 success / labeling valid, 1 labeling invalid, 2 bad input,
3 internal inconsistency (a result failed its own audit, a selftest suite
went red, or an unexpected exception, reported as one ``internal error:``
line).

Each ``cmd_*`` only computes: it returns its exit code and its stdout in
pieces, lazily for ``label``, ``verify --format json`` and ``exact --format
json``.  ``main`` is the one writer and the one place that handles a closed
stdout: a reader that closes it early (``| head``) changes nothing, since
the rest of the output is dropped and the command exits with its own code.

The JSON labeling schema, shared by ``label --format json`` output and
``verify --file`` input, is::

    {"n": int, "s": int, "diameter": int, "span": int,
     "labels": [{"cycle": 1|2, "pos": int, "label": int}, ...]}

with labels sorted by (cycle, pos).  On input, n, s, and labels are
required; diameter and span are recomputed rather than trusted.  The reader
pulls the cycle, pos and label columns out of the entries, and
``Labeling.from_columns`` checks them as whole columns (see ``labeling``);
the entries may come in any order.  The writers format the label array a
chunk of vertices at a time, so output never holds one object per vertex.
CSV output has a cycle,pos,label header row, and DOT output names nodes
c<cycle>_p<pos> inside graph Z_<n>_<s>.

``verify --file`` reads the file once as bytes.  The layout ``label
--format json`` writes, which ``json.dump`` of the same dict gives without
the final newline, is the pattern ``_LAYOUT``::

    {"n": N, "s": N, "diameter": N, "span": N, "labels": [E, E, ..., E]}

with E ``{"cycle": N, "pos": N, "label": N}``, N ``[1-9][0-9]{0,17}``, any
number of entries, and only JSON whitespace after it.  A document that it
matches in full has its columns read from its bytes a chunk at a time,
building no object per entry; ``json.loads`` would read the same n, s and
columns.  Any other document, including one with a zero or negative entry,
is decoded as text mode decodes it and goes through ``json.loads`` and
``labeling_from_dict``.  Both paths end in ``Labeling.from_columns``, so a
fault gives one message whichever path read the file.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import operator
import os
import re
import sys
from typing import Iterable, Iterator

import numpy as np

from .bounds import phi, radio_number
from .exact import exact_radio_number
from .graphs import PrismGraph, build_graph
from .labeling import CaseId, Labeling, case_select, construct_labeling
from .selftest import run_selftest
from .verification import VerificationReport, verify

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

# What a command returns: its exit code and its stdout in pieces, which main writes.
Output = tuple[int, Iterable[str]]


def labeling_from_dict(data: object) -> Labeling:
    """Parse the JSON labeling schema; ValueError on anything malformed.

    Checks the document's layout and pulls the cycle, pos and label
    columns out of its entries; ``Labeling.from_columns`` checks the rest.
    Works in time and memory proportional to the document and builds no
    graph, so a short file that names a huge n costs little.
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
    try:
        # one column at a time: zip(*rows) would build a tuple per entry
        cycle, pos, label = (list(map(operator.itemgetter(key), entries))
                             for key in ("cycle", "pos", "label"))
    except (KeyError, TypeError):  # a missing key, or an entry that is no object
        raise ValueError("malformed labeling file: each label needs cycle, pos, label") from None
    if not set(map(type, cycle)) | set(map(type, pos)) | set(map(type, label)) <= {int}:
        raise ValueError("malformed labeling file: cycle, pos, label must be integers")
    return Labeling.from_columns(n, s, cycle, pos, label)


# Vertices per piece of output: the text of one piece is built at a time.
_CHUNK = 1 << 14

# One labeled vertex of cycle c per output format: a %-template of (pos, label).
_ENTRY = {
    "json": lambda c: f'{{"cycle": {c}, "pos": %d, "label": %d}}',
    "csv": lambda c: f"{c},%d,%d",
    "text": lambda c: f"({c},%d) %d",
    "dot": lambda c: f'  c{c}_p%d [label="%d"];',
}

# One violating pair per output format: a %-template of the (cycle, pos) of its lower
# and higher vertex, its distance, its label gap and the sum the pair needs.
_VIOLATION = {
    "json": '{"u": {"cycle": %d, "pos": %d}, "v": {"cycle": %d, "pos": %d}, '
            '"distance": %d, "label_gap": %d, "required": %d}',
    "text": "  (%d,%d) -- (%d,%d): distance %d + gap %d < required %d",
}


# The layout of the module docstring, built from the writer's templates with
# each number marked %d: groups 1 and 2 are n and s, group 3 the entry list.
# The repeats are possessive, so a match keeps no backtracking state per entry.
_HEAD_FORMAT = '{"n": %s, "s": %s, "diameter": %s, "span": %s, "labels": ['
_LAYOUT = re.compile(
    (re.escape(_HEAD_FORMAT) % ("(%d)", "(%d)", "%d", "%d")
     + "((?:{0}(?:, {0})*+)?+)".format(re.escape(_ENTRY["json"]("%d")))
     + r"\]\}[ \t\n\r]*+").replace("%d", "[1-9][0-9]{0,17}+").encode())
_DIGITS_IN_SPACES = bytes(c if c in b"0123456789" else ord(" ") for c in range(256))
# Bytes of the entry list read at a time, so no copy of the whole list is made.
_READ_CHUNK = 1 << 16


def _labeling_columns(raw: bytes) -> tuple[int, int, np.ndarray] | None:
    """n, s and the cycle, pos, label values of the entries in turn, for a
    document that ``_LAYOUT`` matches in full; None for any other document.

    Every number there is a JSON integer from 1 to 10**18 - 1, which int64
    holds, so ``json.loads`` would read the same n, s and values.  The entry
    list is read a chunk at a time.
    """
    layout = _LAYOUT.fullmatch(raw)
    if layout is None:
        return None
    start, end = layout.span(3)
    values = np.empty(3 * raw.count(b"{", start, end), dtype=np.int64)
    filled = 0
    while start < end:
        # a chunk ends before a space, so no number spans two chunks
        stop = raw.find(b" ", start + _READ_CHUNK, end)
        piece = raw[start:end if stop == -1 else stop]
        start += len(piece)
        numbers = np.fromstring(piece.translate(_DIGITS_IN_SPACES), dtype=np.int64, sep=" ")
        values[filled:filled + numbers.size] = numbers
        filled += numbers.size
    return int(layout[1]), int(layout[2]), values


def _read_labeling(path: str) -> Labeling:
    """The labeling in the file at ``path``; ValueError on anything malformed.

    A document in the layout ``label --format json`` writes is read by
    ``_labeling_columns``, any other by ``json.loads`` and
    ``labeling_from_dict``; both end in ``Labeling.from_columns``.  The
    file's bytes are released before the labeling is checked or parsed.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from None
    columns = _labeling_columns(raw)
    if columns is not None:
        del raw
        n, s, values = columns
        return Labeling.from_columns(n, s, values[0::3], values[1::3], values[2::3])
    # decoded as open(path, encoding="utf-8") reads it: \r\n and a lone \r become
    # \n, which the line and column of a JSONDecodeError count
    try:
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        del raw
        data = json.loads(text)
    except ValueError as e:  # invalid UTF-8, invalid JSON, or an integer int() refuses
        raise ValueError(f"malformed labeling file: {e}") from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("malformed labeling file: nested too deeply") from None
    del text
    return labeling_from_dict(data)


def _labeled_vertices(lab: Labeling, fmt: str, sep: str) -> Iterator[str]:
    """Every vertex with its label in index order, as ``_ENTRY[fmt]`` formats
    it, joined by ``sep``, in pieces of at most ``_CHUNK`` vertices."""
    n = lab.n
    for c in (1, 2):
        for p in range(1, n + 1, _CHUNK):
            k = min(_CHUNK, n + 1 - p)
            start = (c - 1) * n + p - 1
            values = np.empty(2 * k, dtype=np.int64)  # pos, label, pos, label, ...
            values[0::2] = np.arange(p, p + k)
            values[1::2] = lab.labels[start:start + k]
            piece = sep.join([_ENTRY[fmt](c)] * k) % tuple(values.tolist())
            yield piece if start == 0 else sep + piece


def _edge_lines(g: PrismGraph) -> Iterator[str]:
    """The DOT edge lines of g in ``edge_indices()`` order, ``_CHUNK`` edges per piece."""
    ii, jj = g.edge_indices()
    for k in range(0, ii.size, _CHUNK):
        i, j = ii[k:k + _CHUNK], jj[k:k + _CHUNK]
        values = np.empty((i.size, 4), dtype=np.int64)  # cycle, pos of each end, per edge
        values[:, 0], values[:, 1] = np.divmod(i, g.n)
        values[:, 2], values[:, 3] = np.divmod(j, g.n)
        values += 1
        yield "  c%d_p%d -- c%d_p%d;\n" * i.size % tuple(values.ravel().tolist())


def _violation_entries(report: VerificationReport, fmt: str, sep: str,
                       stop: int | None = None) -> Iterator[str]:
    """The violating pairs of the report before ``stop`` in (lower, higher)
    order, as ``_VIOLATION[fmt]`` formats them, joined by ``sep``, in pieces
    of at most ``_CHUNK`` pairs."""
    pairs = report.pairs[:stop]
    for k in range(0, len(pairs), _CHUNK):
        rows = pairs[k:k + _CHUNK]
        values = np.empty((len(rows), 7), dtype=np.int64)  # the numbers of _VIOLATION, per pair
        values[:, 0], values[:, 1] = np.divmod(rows[:, 0], report.n)
        values[:, 2], values[:, 3] = np.divmod(rows[:, 1], report.n)
        values[:, :4] += 1
        values[:, 4:6] = rows[:, 2:]
        values[:, 6] = report.required
        piece = sep.join([_VIOLATION[fmt]] * len(rows)) % tuple(values.ravel().tolist())
        yield piece if k == 0 else sep + piece


def _labeling_json(g: PrismGraph, lab: Labeling, span: int) -> Iterator[str]:
    """The JSON labeling schema of ``lab`` with its verified span, in pieces, as json.dumps."""
    yield _HEAD_FORMAT % (g.n, g.s, g.diameter, span)
    yield from _labeled_vertices(lab, "json", ", ")
    yield "]}"


def _label_output(g: PrismGraph, lab: Labeling, span: int, fmt: str) -> Iterator[str]:
    """The output of ``label --format fmt`` in pieces, each formatted when it is asked for."""
    if fmt == "json":
        yield from _labeling_json(g, lab, span)
        yield "\n"
        return
    yield {"csv": "cycle,pos,label",
           "dot": f"graph Z_{g.n}_{g.s} {{",
           "text": f"Z({g.n},{g.s}): diameter {g.diameter}, span {span}"}[fmt] + "\n"
    yield from _labeled_vertices(lab, fmt, "\n")
    yield "\n"
    if fmt == "dot":
        yield from _edge_lines(g)
        yield "}\n"


def _lines(lines: Iterable[object]) -> list[str]:
    """The lines as one piece of output, each ended by a newline as print() ends it."""
    return ["".join(f"{line}\n" for line in lines)]


def _write(pieces: Iterable[str]) -> None:
    """Write the pieces to stdout back to back and flush it.

    Once the reader has gone, on a write or on the flush, stdout is pointed
    at the null device, so neither a later write nor the flush at exit meets
    the closed pipe, and the pieces not yet written are dropped, so lazy
    output leaves them unformatted.
    """
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # no real file descriptor
            sys.stdout = open(os.devnull, "w")
        finally:
            os.close(devnull)


def _parse_budget(text: str) -> float:
    scale = {"s": 1.0, "m": 60.0, "h": 3600.0}
    raw, unit = (text[:-1], text[-1]) if text and text[-1] in scale else (text, "s")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"cannot parse time budget {text!r} (use e.g. 60s, 5m, 1h)") from None
    return value * scale[unit]


def cmd_rn(args: argparse.Namespace) -> Output:
    value, method = radio_number(args.n, args.s)
    if args.format == "json":
        return EXIT_OK, _lines([json.dumps({"n": args.n, "s": args.s, "rn": value,
                                            "method": method})])
    return EXIT_OK, _lines([value])


def cmd_label(args: argparse.Namespace) -> Output:
    lab = construct_labeling(args.n, args.s)
    g = build_graph(args.n, args.s)
    report = verify(g, lab)
    if not report.valid:
        print(f"internal inconsistency: constructed labeling of Z({args.n},{args.s}) "
              f"failed verification ({len(report.pairs)} violations)", file=sys.stderr)
        return EXIT_INTERNAL, []
    return EXIT_OK, _label_output(g, lab, report.span, args.format)


def cmd_verify(args: argparse.Namespace) -> Output:
    lab = _read_labeling(args.file)
    g = build_graph(lab.n, lab.s)
    report = verify(g, lab)
    code = EXIT_OK if report.valid else EXIT_INVALID_LABELING
    if args.format == "json":
        head = json.dumps({"valid": report.valid, "span": report.span,
                           "pairs_checked": report.pairs_checked})
        # the object reopened after its last key, for the violations to go last
        return code, itertools.chain([head[:-1], ', "violations": ['],
                                     _violation_entries(report, "json", ", "), ["]}\n"])
    if report.valid:
        return code, _lines([f"valid: span={report.span}, pairs_checked={report.pairs_checked}"])
    count = len(report.pairs)
    lines = [f"INVALID: {count} violations "
             f"(span={report.span}, pairs_checked={report.pairs_checked})",
             "".join(_violation_entries(report, "text", "\n", 20))]
    if count > 20:
        lines.append(f"  ... and {count - 20} more")
    return code, _lines(lines)


def cmd_exact(args: argparse.Namespace) -> Output:
    g = build_graph(args.n, args.s)
    result = exact_radio_number(g, None if args.budget is None else _parse_budget(args.budget))
    report = verify(g, result.witness)
    if not report.valid or report.span != result.rn:
        print("internal inconsistency: exact witness failed verification", file=sys.stderr)
        return EXIT_INTERNAL, []
    if args.format == "json":
        head = json.dumps({"n": args.n, "s": args.s, "rn": result.rn,
                           "proven_optimal": result.proven_optimal,
                           "nodes_explored": result.nodes_explored})
        # the object reopened after its last key, for the witness to go last
        return EXIT_OK, itertools.chain([head[:-1], ', "witness": '],
                                        _labeling_json(g, result.witness, report.span), ["}\n"])
    status = "proven optimal" if result.proven_optimal else "budget exhausted (upper bound)"
    return EXIT_OK, _lines([f"rn = {result.rn}", f"status = {status}",
                            f"nodes_explored = {result.nodes_explored}"])


def _table_rows(n_min: int, n_max: int) -> Iterator[dict]:
    for n in range(n_min, n_max + 1):
        for s in (1, 2, 3):
            if case_select(n, s) is CaseId.UNSUPPORTED:
                yield {"n": n, "s": s, "phi": None, "rn_formula": None, "span": None,
                       "match": None, "note": "outside scope"}
                continue
            g = build_graph(n, s)
            lab = construct_labeling(n, s)
            report = verify(g, lab)
            formula, method = radio_number(n, s)
            special = method == "special"
            yield {"n": n, "s": s, "phi": None if special else phi(n, s),
                   "rn_formula": formula, "span": report.span,
                   "match": report.valid and report.span == formula,
                   "note": "special" if special else ""}


def _cell(x: object, width: int) -> str:
    """A right-aligned cell of the text table: - for none, yes or NO for a match."""
    if x is None:
        x = "-"
    elif isinstance(x, bool):
        x = "yes" if x else "NO"
    return f"{x:>{width}}"


def cmd_table(args: argparse.Namespace) -> Output:
    if args.n_min < 3:
        raise ValueError(f"--n-min must be at least 3, got {args.n_min}")
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    rows = list(_table_rows(args.n_min, args.n_max))
    code = EXIT_INTERNAL if any(r["match"] is False for r in rows) else EXIT_OK
    if args.format == "json":
        return code, _lines([json.dumps(rows)])
    if args.format == "csv":
        keys = ("n", "s", "phi", "rn_formula", "span", "match", "note")
        return code, _lines([",".join(keys)] + [
            ",".join("" if r[k] is None else str(r[k]) for k in keys) for r in rows])
    header = f"{'n':>4} {'s':>2} {'phi':>4} {'rn':>6} {'span':>6} {'match':>6} note"
    return code, _lines([header] + [
        f"{r['n']:>4} {r['s']:>2} {_cell(r['phi'], 4)} {_cell(r['rn_formula'], 6)} "
        f"{_cell(r['span'], 6)} {_cell(r['match'], 6)} {r['note']}" for r in rows])


def cmd_selftest(args: argparse.Namespace) -> Output:
    results = run_selftest(n_max=args.n_max, inject_fault=args.inject_fault)
    passed = sum(r.passed for r in results)
    lines = [f"{r.name}: {'PASS' if r.passed else 'FAIL'} ({r.detail})" for r in results]
    code = EXIT_OK if passed == len(results) else EXIT_INTERNAL
    return code, _lines(lines + [f"{passed}/{len(results)} suites passed"])


@functools.cache  # one parser per process; parse_args leaves it unchanged
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
        code, pieces = args.func(args)
        _write(pieces)
        return code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as e:  # exit 1 means "labeling invalid"; a crash must not look like it
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
