"""Cross-module invariant suites backing the ``prismradio selftest`` command.

The five suites are the one registry of the paper's invariants; the
acceptance tests run them at their own n ranges rather than restating them.
Each suite re-derives facts one module promises from another module's
independent route: graph diameters against the closed form, the metric
rows from (1, 1) and (2, 1), which rotation extends to the whole metric,
against the Bellman equations of the edge rule from those two sources
(whose only solution is the hop metric, so it is also symmetric and obeys
the triangle inequality), the standard cycle against the hop counts from
(1, 1), the phi table against ``pair_gap`` of the built graph (the
consecutive-triple bound read from the graph's own metric) and the
triple-distance budget that bound rests on, constructions against the
pair-by-pair verifier, and the exact solver against formula values on tiny
instances.  The suites check each graph on int64 vertex-index arrays read
from ``g.rows`` and build no ``Vertex`` tuples.  A suite yields one
``(passed, detail)`` pair per check, and ``_run_suite`` names, counts and
guards them: it reports the first failing check, or the exception a suite
raises, so a defect localizes to the module whose suite goes red.
``run_selftest`` hands every suite one memo of ``build_graph`` made for the
run, so each graph of the sweep is built once however many suites read it
(``build_graph``'s own cache of 128 graphs is smaller than the sweep from
n_max = 45 on), and the memo is dropped when the run returns.

``inject_fault="phi"`` deliberately perturbs one phi-table entry for the
duration of the run (test mode for the localization story itself); the
bounds suite and only the bounds suite must catch it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator

import numpy as np

from . import bounds as _bounds
from .bounds import check_triple_bound, in_phi_scope, pair_gap, phi, radio_number
from .exact import exact_radio_number
from .graphs import PrismGraph, _hops, build_graph
from .labeling import (
    CaseId,
    Labeling,
    _d_offset,
    _omega,
    case_select,
    construct_labeling,
    label_order,
    label_sequence,
)
from .verification import verify

__all__ = ["SuiteResult", "run_selftest"]

# entry perturbed by fault injection: (r=2, s=1), i.e. n = 4k+2 with s = 1
_FAULT_KEY = (2, 1)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


_Checks = Iterator[tuple[bool, str]]  # one (passed, detail) pair per check
_Graphs = Callable[[int, int], PrismGraph]  # (n, s) -> Z(n, s), as build_graph


def _supported_params(n_max: int):
    for n in range(3, n_max + 1):
        for s in (1, 2, 3):
            yield n, s


def _neighbours(n: int, s: int) -> np.ndarray:
    """(2n, 2 + s) vertex indices adjacent to each index, from the edge rule.

    (1, p) is joined to (1, p +- 1) and to (2, p + d) for each cross offset
    d, and (2, p) to (2, p +- 1) and to (1, p - d).
    """
    offsets = np.arange(-((s - 1) // 2), s // 2 + 1)
    # [cycle, j]: neighbour j's position step, and the first index of the cycle it lies on
    step = np.array([[1, -1, *offsets], [1, -1, *-offsets]])
    base = np.zeros_like(step)
    base[0, 2:] = base[1, :2] = n
    return ((np.arange(n)[:, None] + step[:, None]) % n + base[:, None]).reshape(2 * n, 2 + s)


def _standard_cycle(n: int, s: int) -> np.ndarray:
    """The vertex indices of the (n + 3 - s)-cycle the paper's lower bound works on.

    For s = 1 it runs (1,1), (1,2), (2,2), (2,3), ..., (2,n), (2,1); for
    s in {2, 3} it runs (1,1), (2,2), (2,3), ..., (2, n + 3 - s), position
    n + 1 standing for 1.  Its length is twice the diameter or one more.
    """
    if s == 1:
        return np.concatenate(([0, 1], n + np.arange(1, n + 1) % n))
    return np.concatenate(([0], n + np.arange(1, n + 3 - s) % n))


def _graphs_suite(n_max: int, graph: _Graphs) -> _Checks:
    for n, s in _supported_params(n_max):
        g = graph(n, s)
        # rotation is an automorphism, so the rows from (1, 1) and (2, 1) are the metric
        d = g.rows.reshape(2, 2 * n)
        yield (int(d.max()) == g.diameter == (n + 3 - s) // 2,
               f"diameter of Z({n},{s}) is {int(d.max())}, closed form says {(n + 3 - s) // 2}")
        yield (bool(((d == 1).sum(axis=1) == 2 + s).all()),
               f"Z({n},{s}) has a vertex of degree != {2 + s}")
        # Bellman equations of the defined edges from both sources: their only
        # solution is the hop metric of the undirected edge rule, hence a metric
        source = np.arange(2 * n) == np.array([[0], [n]])
        bellman = np.where(source, 0, 1 + d[:, _neighbours(n, s)].min(axis=2))
        yield (bool((d == bellman).all()),
               f"distance matrix of Z({n},{s}) is not the hop metric of its edges")
        pos = np.arange(n)
        ring = np.minimum(pos, n - pos)
        for which in (1, 2):  # principal cycle `which`, in cycle order
            yield (bool((d[which - 1, (which - 1) * n:which * n] == ring).all()),
                   f"principal cycle {which} of Z({n},{s}) not distance-true")
        sc = _standard_cycle(n, s)
        yield (sc.size == n + 3 - s and sc[0] == 0,
               f"standard cycle of Z({n},{s}) has length {sc.size} and starts at "
               f"({sc[0] // n + 1},{sc[0] % n + 1})")
        steps = _hops(g, sc, np.concatenate((sc[1:], sc[:1])))
        yield (np.bincount(sc).max() == 1 and bool((steps == 1).all()),
               f"standard cycle of Z({n},{s}) is not a simple cycle of the graph")
        around = np.arange(sc.size)
        yield (bool((_hops(g, 0, sc) == np.minimum(around, sc.size - around)).all()),
               f"standard cycle of Z({n},{s}) not tight at (1,1)")


def _bounds_suite(n_max: int, graph: _Graphs) -> _Checks:
    # the table against the graph's own pair gap; the sweep reaches n = 40 whatever
    # n_max is, so a fault in any table cell (the injected one sits at n = 6) shows
    for n, s in _supported_params(max(n_max, 40)):
        if not in_phi_scope(n, s):
            continue
        g = graph(n, s)
        step, gap = phi(n, s), pair_gap(g)
        yield (step == gap,
               f"phi table disagrees with the pair gap of the metric at (n={n}, s={s}): "
               f"{step} vs {gap}")
        yield (2 * step >= g.diameter, f"2*phi < diam at (n={n}, s={s})")
        if case_select(n, s) is CaseId.CASE1:
            w = _omega(n)
            yield (step + w >= g.diameter + 1, f"phi + omega < diam + 1 at (n={n}, s={s})")
            slack = 1 if (n - s) % 2 == 0 else 2
            yield (step - w >= slack, f"phi - omega < {slack} at (n={n}, s={s})")
    for n, s in _supported_params(n_max):
        g = graph(n, s)
        yield (int(g.rows[0, 1, _d_offset(n, s) % n]) == g.diameter,
               f"d_offset does not realize the diameter on Z({n},{s})")
        if n <= 16:
            yield (check_triple_bound(g), f"triple-distance budget exceeded in Z({n},{s})")


def _labeling_suite(n_max: int, graph: _Graphs) -> _Checks:
    for n, s in _supported_params(n_max):
        case = case_select(n, s)
        if case is CaseId.UNSUPPORTED:
            continue
        g = graph(n, s)
        lab = construct_labeling(n, s)
        report = verify(g, lab)
        yield (report.valid,
               f"constructed labeling of Z({n},{s}) is invalid: first violating "
               f"(lower, higher, distance, gap) {report.pairs[:1].tolist()}")
        rn = radio_number(n, s)[0]
        yield (int(lab.labels.min()) == 1 and report.span == rn,
               f"labels of Z({n},{s}) do not run from 1 to rn = {rn}")
        if case is CaseId.SPECIAL:
            continue
        index = label_order(n, s)
        yield (np.array_equal(np.sort(index), np.arange(2 * n)),
               f"label order of Z({n},{s}) is not a bijection onto the vertex indices")
        yield (bool((_hops(g, index[0::2], index[1::2]) == g.diameter).all()),
               f"consecutive sorted pair not at diameter distance in Z({n},{s})")
        seq, step = label_sequence(n, s), phi(n, s)
        yield (bool((seq[4:] - seq[:-4] >= 2 * step).all()),
               f"window property fails for Z({n},{s})")


def _verification_suite(n_max: int, graph: _Graphs) -> _Checks:
    for n, s in [(5, 1), (8, 2), (min(n_max, 12), 3)]:
        g = graph(n, s)
        lab = construct_labeling(n, s)
        shifted = Labeling.from_labels(n, s, lab.labels + 7)
        yield (verify(g, shifted).valid, f"label translation broke validity on Z({n},{s})")
        broken = lab.labels.copy()
        broken[0] = broken[1]  # duplicate one label
        report = verify(g, Labeling.from_labels(n, s, broken))
        yield (bool((report.pairs[:, 3] == 0).any()),
               f"duplicate label not flagged on Z({n},{s})")


def _exact_suite(n_max: int, graph: _Graphs) -> _Checks:
    # the witness of a special graph cannot certify its own span: search proves it
    for n, s in sorted([(4, 1), (4, 2), *_bounds._SPECIAL_LABELS]):
        if n > n_max:
            continue
        expected = radio_number(n, s)[0]
        g = graph(n, s)
        res = exact_radio_number(g)
        yield (res.rn == expected and res.proven_optimal,
               f"exact search on Z({n},{s}) returned {res.rn}, expected {expected}")
        report = verify(g, res.witness)
        yield (report.valid and report.span == res.rn,
               f"exact witness for Z({n},{s}) does not verify")


# run in this order by run_selftest; the acceptance tests call them one by one
_SUITES = (_graphs_suite, _bounds_suite, _labeling_suite, _verification_suite, _exact_suite)


@contextmanager
def _injected_phi_fault():
    _bounds._PHI_STEP[_FAULT_KEY] += 1
    try:
        yield
    finally:
        _bounds._PHI_STEP[_FAULT_KEY] -= 1


def _run_suite(suite, n_max: int, graph: _Graphs | None = None) -> SuiteResult:
    """Run one suite: "N checks" if all pass, else its first failing detail.

    The suite reads its graphs from ``graph(n, s)``, by default a memo of
    ``build_graph`` of its own.  A suite that raises fails with
    "<Type>: <message>" as its detail.
    """
    name = suite.__name__.removeprefix("_").removesuffix("_suite")
    checks, first_failure = 0, None
    try:
        for passed, detail in suite(n_max, graph or cache(build_graph)):
            checks += 1
            if not passed and first_failure is None:
                first_failure = detail
    except Exception as e:
        return SuiteResult(name, False, f"{type(e).__name__}: {e}")
    if first_failure is None:
        return SuiteResult(name, True, f"{checks} checks")
    return SuiteResult(name, False, first_failure)


def run_selftest(n_max: int = 20, inject_fault: str | None = None) -> list[SuiteResult]:
    """Run all suites up to n_max, a plain int >= 3, and return their results in module order.

    A suite that raises fails with "<Type>: <message>" and the rest still
    run, so a crash localizes like a failed check.  The suites share one
    memo of ``build_graph`` for the run.
    """
    if type(n_max) is not int:  # else each suite would fail on it alone
        raise ValueError(f"selftest needs an integer n_max, got {n_max!r}")
    if n_max < 3:
        raise ValueError(f"selftest needs n_max >= 3, got {n_max}")
    if inject_fault not in (None, "phi"):
        raise ValueError(f"unknown fault kind: {inject_fault!r}")

    # wraps build_graph as it is at call time, so a builder swapped in is used
    graph = cache(build_graph)
    with _injected_phi_fault() if inject_fault == "phi" else nullcontext():
        return [_run_suite(suite, n_max, graph) for suite in _SUITES]
