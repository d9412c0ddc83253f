"""Cross-module invariant suites backing the ``prismradio selftest`` command.

The five suites are the one registry of the paper's invariants; the
acceptance tests run them at their own n ranges rather than restating them.
Each suite re-derives facts one module promises from another module's
independent route: graph diameters against the closed form, the metric
rows from (1, 1) and (2, 1), which rotation extends to the whole metric,
against the Bellman equations of the edge rule from those two sources
(whose only solution is the hop metric, so it is also symmetric and obeys
the triangle inequality), the phi table against ``pair_gap`` of the built
graph (the consecutive-triple bound read from the graph's own metric),
constructions against the pair-by-pair verifier, and the exact solver
against formula values on tiny instances.  A suite reports its first
failing check, so a defect localizes to the module whose suite goes red.

``inject_fault="phi"`` deliberately perturbs one phi-table entry for the
duration of the run (test mode for the localization story itself); the
bounds suite and only the bounds suite must catch it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from .bounds import (
    check_triple_bound,
    d_offset,
    in_phi_scope,
    omega,
    pair_gap,
    phi,
    radio_number,
)
from .exact import exact_radio_number
from .graphs import Vertex, build_graph, is_v_tight, standard_cycle
from .labeling import (
    CaseId,
    Labeling,
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


class _Suite:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.first_failure: str | None = None

    def check(self, condition: bool, detail: str) -> None:
        self.checks += 1
        if not condition and self.first_failure is None:
            self.first_failure = detail

    def result(self) -> SuiteResult:
        if self.first_failure is None:
            return SuiteResult(self.name, True, f"{self.checks} checks")
        return SuiteResult(self.name, False, self.first_failure)


def _supported_params(n_max: int):
    for n in range(3, n_max + 1):
        for s in (1, 2, 3):
            if s <= n:
                yield n, s


def _neighbours(n: int, s: int) -> np.ndarray:
    """(2n, 2 + s) vertex indices adjacent to each index, from the edge rule.

    (1, p) is joined to (1, p +- 1) and to (2, p + d) for each cross offset
    d, and (2, p) to (2, p +- 1) and to (1, p - d).
    """
    pos = np.arange(n)[:, None]
    offsets = np.arange(-((s - 1) // 2), s // 2 + 1)
    ring = np.array([1, -1])
    return np.concatenate([
        np.hstack([(pos + ring) % n, n + (pos + offsets) % n]),
        np.hstack([n + (pos + ring) % n, (pos - offsets) % n]),
    ])


def _graphs_suite(n_max: int) -> SuiteResult:
    suite = _Suite("graphs")
    for n, s in _supported_params(n_max):
        g = build_graph(n, s)
        # rotation is an automorphism, so the rows from (1, 1) and (2, 1) are the metric
        d = g.rows.reshape(2, 2 * n)
        suite.check(
            int(d.max()) == g.diameter == (n + 3 - s) // 2,
            f"diameter of Z({n},{s}) is {int(d.max())}, closed form says {(n + 3 - s) // 2}",
        )
        suite.check(bool(((d == 1).sum(axis=1) == 2 + s).all()),
                    f"Z({n},{s}) has a vertex of degree != {2 + s}")
        # Bellman equations of the defined edges from both sources: their only
        # solution is the hop metric of the undirected edge rule, hence a metric
        source = np.arange(2 * n) == np.array([[0], [n]])
        bellman = np.where(source, 0, 1 + d[:, _neighbours(n, s)].min(axis=2))
        suite.check(bool((d == bellman).all()),
                    f"distance matrix of Z({n},{s}) is not the hop metric of its edges")
        pos = np.arange(n)
        ring = np.minimum(pos, n - pos)
        for which in (1, 2):  # principal cycle `which`, in cycle order
            suite.check(bool((d[which - 1, (which - 1) * n:which * n] == ring).all()),
                        f"principal cycle {which} of Z({n},{s}) not distance-true")
        sc = standard_cycle(g)
        suite.check(len(sc) == n + 3 - s and sc[0] == Vertex(1, 1),
                    f"standard cycle of Z({n},{s}) has length {len(sc)} and starts at {sc[0]}")
        suite.check(len(set(sc)) == len(sc)
                    and all(g.distance(u, v) == 1 for u, v in zip(sc, sc[1:] + sc[:1])),
                    f"standard cycle of Z({n},{s}) is not a simple cycle of the graph")
        suite.check(is_v_tight(g, sc, Vertex(1, 1)),
                    f"standard cycle of Z({n},{s}) not tight at (1,1)")
    return suite.result()


def _bounds_suite(n_max: int) -> SuiteResult:
    suite = _Suite("bounds")
    # the table against the graph's own pair gap; the sweep reaches n = 40 whatever
    # n_max is, so a fault in any table cell (the injected one sits at n = 6) shows
    for n, s in _supported_params(max(n_max, 40)):
        if not in_phi_scope(n, s):
            continue
        g = build_graph(n, s)
        step, gap = phi(n, s), pair_gap(g)
        suite.check(step == gap,
                    f"phi table disagrees with the pair gap of the metric at (n={n}, s={s}): "
                    f"{step} vs {gap}")
        suite.check(2 * step >= g.diameter, f"2*phi < diam at (n={n}, s={s})")
        if case_select(n, s) is CaseId.CASE1:
            w = omega(n)
            suite.check(step + w >= g.diameter + 1,
                        f"phi + omega < diam + 1 at (n={n}, s={s})")
            slack = 1 if (n - s) % 2 == 0 else 2
            suite.check(step - w >= slack, f"phi - omega < {slack} at (n={n}, s={s})")
    for n, s in _supported_params(n_max):
        g = build_graph(n, s)
        suite.check(int(g.rows[0, 1, d_offset(n, s) % n]) == g.diameter,
                    f"d_offset does not realize the diameter on Z({n},{s})")
        if n <= 16:
            suite.check(check_triple_bound(g),
                        f"triple-distance budget exceeded in Z({n},{s})")
    return suite.result()


def _labeling_suite(n_max: int) -> SuiteResult:
    suite = _Suite("labeling")
    for n, s in _supported_params(n_max):
        case = case_select(n, s)
        if case is CaseId.UNSUPPORTED:
            continue
        g = build_graph(n, s)
        lab = construct_labeling(n, s)
        report = verify(g, lab)
        suite.check(report.valid,
                    f"constructed labeling of Z({n},{s}) is invalid: {report.violations[:1]}")
        rn = radio_number(n, s)[0]
        suite.check(int(lab.labels.min()) == 1 and lab.span == rn,
                    f"labels of Z({n},{s}) do not run from 1 to rn = {rn}")
        if case in (CaseId.SPECIAL_3_3, CaseId.SPECIAL_4_3):
            continue
        index = label_order(n, s)
        suite.check(np.array_equal(np.sort(index), np.arange(2 * n)),
                    f"label order of Z({n},{s}) is not a bijection onto the vertex indices")
        order = [g.vertex_at(i) for i in index.tolist()]
        suite.check(
            all(g.distance(u, v) == g.diameter for u, v in zip(order[::2], order[1::2])),
            f"consecutive sorted pair not at diameter distance in Z({n},{s})",
        )
        seq, step = label_sequence(n, s), phi(n, s)
        suite.check(all(seq[j + 4] - seq[j] >= 2 * step for j in range(2 * n - 4)),
                    f"window property fails for Z({n},{s})")
    return suite.result()


def _verification_suite(n_max: int) -> SuiteResult:
    suite = _Suite("verification")
    for n, s in [(5, 1), (8, 2), (min(n_max, 12), 3)]:
        if case_select(n, s) is CaseId.UNSUPPORTED:
            continue
        g = build_graph(n, s)
        lab = construct_labeling(n, s)
        shifted = Labeling.from_labels(n, s, lab.labels + 7)
        suite.check(verify(g, shifted).valid,
                    f"label translation broke validity on Z({n},{s})")
        broken = lab.labels.copy()
        broken[0] = broken[1]  # duplicate one label
        report = verify(g, Labeling.from_labels(n, s, broken))
        suite.check(not report.valid and any(w.label_gap == 0 for w in report.violations),
                    f"duplicate label not flagged on Z({n},{s})")
    return suite.result()


def _exact_suite(n_max: int) -> SuiteResult:
    suite = _Suite("exact")
    instances = [(3, 3), (4, 1), (4, 2), (4, 3)] if n_max >= 4 else [(3, 3)]
    for n, s in instances:
        expected = radio_number(n, s)[0]
        g = build_graph(n, s)
        res = exact_radio_number(g)
        suite.check(res.rn == expected and res.proven_optimal,
                    f"exact search on Z({n},{s}) returned {res.rn}, expected {expected}")
        suite.check(verify(g, res.witness).valid and res.witness.span == res.rn,
                    f"exact witness for Z({n},{s}) does not verify")
    return suite.result()


# run in this order by run_selftest; the acceptance tests call them one by one
_SUITES = (_graphs_suite, _bounds_suite, _labeling_suite, _verification_suite, _exact_suite)


@contextmanager
def _injected_phi_fault():
    _bounds._PHI_STEP[_FAULT_KEY] += 1
    try:
        yield
    finally:
        _bounds._PHI_STEP[_FAULT_KEY] -= 1


def _run_suite(suite, n_max: int) -> SuiteResult:
    """A suite's result; one that raises fails with the exception as its detail."""
    try:
        return suite(n_max)
    except Exception as e:
        name = suite.__name__.removeprefix("_").removesuffix("_suite")
        return SuiteResult(name, False, f"{type(e).__name__}: {e}")


def run_selftest(n_max: int = 20, inject_fault: str | None = None) -> list[SuiteResult]:
    """Run all suites up to n_max and return their results in module order.

    A suite that raises fails with "<Type>: <message>" and the rest still
    run, so a crash localizes like a failed check.
    """
    if n_max < 3:
        raise ValueError(f"selftest needs n_max >= 3, got {n_max}")
    if inject_fault not in (None, "phi"):
        raise ValueError(f"unknown fault kind: {inject_fault!r}")

    with _injected_phi_fault() if inject_fault == "phi" else nullcontext():
        return [_run_suite(suite, n_max) for suite in _SUITES]
