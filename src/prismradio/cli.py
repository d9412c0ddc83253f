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
required; diameter and span are recomputed rather than trusted.  The reader
pulls the cycle, pos and label columns out of the entries, and
``Labeling.from_columns`` checks them as whole columns (see ``labeling``);
the entries may come in any order.  The writers format the label array a
chunk of vertices at a time, so output never holds one object per vertex.
CSV output has a cycle,pos,label header row, and DOT output names nodes
c<cycle>_p<pos> inside graph Z_<n>_<s>.

``verify --file`` reads the file once as bytes.  A document in exactly the
layout ``label --format json`` writes (``json.dump`` of the same dict gives
it too, without the final newline) has its columns pulled out with
whole-buffer operations a chunk at a time, building no object per entry:
the text without its digits must be the fixed head, entry skeletons and
tail, and every number a JSON integer of at most 18 digits in its slot, so
the reader accepts a document only where ``json.loads`` would read the same
n, s and columns.  Any other document is decoded as text mode decodes it
and goes through ``json.loads`` and ``labeling_from_dict``.  Both paths end
in ``Labeling.from_columns``, so a fault gives one message whichever path
read the file.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import operator
import os
import re
import sys
from typing import Iterable, Iterator

import numpy as np

from .bounds import phi, radio_number
from .exact import SearchConfig, exact_radio_number
from .graphs import PrismGraph, build_graph
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


def _print(*args, **kwargs) -> bool:
    """print() to stdout that outlives its reader: once the pipe is closed,
    stdout is pointed at the null device, so no later write nor the flush at
    exit meets it, and the command keeps the exit code it decided.  False
    when the reader has gone."""
    try:
        print(*args, **kwargs)
        return True
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # no real file descriptor
            sys.stdout = open(os.devnull, "w")
        finally:
            os.close(devnull)
        return False


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


# The layout ``label --format json`` writes, in bytes: the head, the entries
# joined by ", " and the tail.  _SKELETON is an entry with its digits deleted
# and the separator after it.
_HEAD = re.compile(rb'\{"n": (%s), "s": (%s), "diameter": %s, "span": %s, "labels": \['
                   % ((rb"-?(?:0|[1-9][0-9]{0,17})",) * 4))  # longer numbers go to json.loads
_TAIL = b"]}"
_DIGITS = b"0123456789"
_SEP = b", "
_SKELETON = (_ENTRY["json"](0) % (0, 0)).encode().translate(None, _DIGITS) + _SEP
_DIGITS_IN_SPACES = bytes(c if c in _DIGITS else ord(" ") for c in range(256))
_POWERS_OF_TEN = 10 ** np.arange(1, 18, dtype=np.int64)  # a value's digits, less 1, up to 17
# Bytes of the entry list checked at a time, so no copy of the whole list is made.
_READ_CHUNK = 1 << 16


def _labeling_columns(raw: bytes) -> tuple[int, int, np.ndarray] | None:
    """n, s and the cycle, pos, label values of the entries in turn, for a
    document in exactly the layout ``label --format json`` writes (which
    ``json.dump`` gives for the same dict); None for any other document.

    The entry list is checked a chunk at a time with whole-buffer
    operations.  Without its digits it must be k skeletons joined by
    ``", "``.  No number slot may be empty and there may be no more than 3k
    digit runs, so the runs fill the 3k slots.  Each run must be a JSON
    integer below 10**18: the values ``np.fromstring`` reads must have as
    many decimal digits in total as the runs have bytes, counting at most
    18 per value, which fails on a leading zero, on a longer run and on the
    one 0 that fromstring reads from a piece with no digits.  Then
    ``json.loads`` would read the same n, s and values.
    """
    head = _HEAD.match(raw)
    last = raw[-64:]  # a longer run of trailing whitespace goes to json.loads
    # JSON's whitespace only: a bare rstrip() also strips \v and \f
    end = len(raw) - len(last) + len(last.rstrip(b" \t\n\r")) - len(_TAIL)
    if head is None or raw[end:end + len(_TAIL)] != _TAIL:
        return None
    start = head.end()
    k = raw.count(b"{", start, end)
    values = np.empty(3 * k, dtype=np.int64)
    filled = matched = 0  # values read; skeleton bytes matched
    while start < end:
        # a chunk ends before a space, so no digit run and no " ," spans two chunks
        stop = raw.find(b" ", start + _READ_CHUNK, end)
        piece = raw[start:end if stop == -1 else stop]
        start += len(piece)
        b = np.frombuffer(piece, dtype=np.uint8)
        if ((b[:-1] == ord(" ")) & ((b[1:] == ord(",")) | (b[1:] == ord("}")))).any():
            return None  # an empty number slot
        skeleton = piece.translate(None, _DIGITS)
        at = matched % len(_SKELETON)
        if skeleton != (_SKELETON * (len(skeleton) // len(_SKELETON) + 2))[at:at + len(skeleton)]:
            return None
        matched += len(skeleton)
        numbers = np.fromstring(piece.translate(_DIGITS_IN_SPACES), dtype=np.int64, sep=" ")
        digits = numbers.size + int(np.searchsorted(_POWERS_OF_TEN, numbers, "right").sum())
        if filled + numbers.size > values.size or digits != len(piece) - len(skeleton):
            return None
        values[filled:filled + numbers.size] = numbers
        filled += numbers.size
    if matched != max(k * len(_SKELETON) - len(_SEP), 0):
        return None
    return int(head[1]), int(head[2]), values


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
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    del raw
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
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
    """The DOT edge lines of g in ``edges()`` order, ``_CHUNK`` edges per piece."""
    ii, jj = g.edge_indices()
    for k in range(0, ii.size, _CHUNK):
        i, j = ii[k:k + _CHUNK], jj[k:k + _CHUNK]
        values = np.empty((i.size, 4), dtype=np.int64)  # cycle, pos of each end, per edge
        values[:, 0], values[:, 1] = np.divmod(i, g.n)
        values[:, 2], values[:, 3] = np.divmod(j, g.n)
        values += 1
        yield "  c%d_p%d -- c%d_p%d;\n" * i.size % tuple(values.ravel().tolist())


def _labeling_json(g: PrismGraph, lab: Labeling) -> Iterator[str]:
    """The JSON labeling schema of ``lab`` in pieces, the text json.dumps gives."""
    yield (f'{{"n": {g.n}, "s": {g.s}, "diameter": {g.diameter}, "span": {lab.span}, '
           f'"labels": [')
    yield from _labeled_vertices(lab, "json", ", ")
    yield "]}"


def _label_output(g: PrismGraph, lab: Labeling, fmt: str) -> Iterator[str]:
    """The output of ``label --format fmt`` in pieces, each formatted when it is asked for."""
    if fmt == "json":
        yield from _labeling_json(g, lab)
        yield "\n"
        return
    yield {"csv": "cycle,pos,label",
           "dot": f"graph Z_{g.n}_{g.s} {{",
           "text": f"Z({g.n},{g.s}): diameter {g.diameter}, span {lab.span}"}[fmt] + "\n"
    yield from _labeled_vertices(lab, fmt, "\n")
    yield "\n"
    if fmt == "dot":
        yield from _edge_lines(g)
        yield "}\n"


def _write(pieces: Iterable[str]) -> None:
    """Print the pieces back to back, stopping once the reader has gone."""
    all(_print(piece, end="") for piece in pieces)


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
    _write(_label_output(g, lab, args.format))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    lab = _read_labeling(args.file)
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
        head = json.dumps({"n": args.n, "s": args.s, "rn": result.rn,
                           "proven_optimal": result.proven_optimal,
                           "nodes_explored": result.nodes_explored})
        # the object reopened after its last key, for the witness to go last
        _write([head[:-1], ', "witness": ', *_labeling_json(g, result.witness), "}\n"])
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
