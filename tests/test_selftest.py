"""One selftest run builds each graph of its sweep once, through one memo, and
checks it on vertex-index arrays."""

from collections import Counter
from itertools import product

import numpy as np
import pytest

from prismradio import Vertex, selftest
from prismradio.bounds import in_phi_scope
from prismradio.selftest import run_selftest
from reference import standard_route


def _sweep(n_max: int) -> set[tuple[int, int]]:
    """Every (n, s) a run reads: all up to n_max, and the phi scope up to 40."""
    every = product(range(3, max(n_max, 40) + 1), (1, 2, 3))
    return {(n, s) for n, s in every if n <= n_max or in_phi_scope(n, s)}


@pytest.mark.parametrize("n_max", [10, 45])
def test_each_graph_is_built_once_per_run(monkeypatch, n_max):
    # n_max = 45 sweeps 129 graphs, one more than build_graph's own cache holds
    build, builds = selftest.build_graph, Counter()

    def counting(n, s):
        builds[n, s] += 1
        return build(n, s)

    monkeypatch.setattr(selftest, "build_graph", counting)
    results = run_selftest(n_max=n_max)
    assert [r.passed for r in results] == [True] * 5
    assert set(builds) == _sweep(n_max)
    assert set(builds.values()) == {1}


def test_a_failing_build_fails_each_suite_that_reads_it(monkeypatch):
    # the memo stores no exception, so every suite that asks for Z(7,2) sees it
    build = selftest.build_graph

    def failing(n, s):
        if (n, s) == (7, 2):
            raise ValueError("no Z(7,2) today")
        return build(n, s)

    monkeypatch.setattr(selftest, "build_graph", failing)
    results = {r.name: (r.passed, r.detail) for r in run_selftest(n_max=10)}
    failed = (False, "ValueError: no Z(7,2) today")
    assert results["graphs"] == results["bounds"] == results["labeling"] == failed
    assert results["verification"] == (True, "6 checks")
    assert results["exact"] == (True, "8 checks")


@pytest.mark.parametrize("n_max", [5.0, "10", None])
def test_a_non_int_n_max_is_rejected_before_any_suite_runs(monkeypatch, n_max):
    # else every suite fails on the argument alone, like five broken invariants
    builds = []
    monkeypatch.setattr(selftest, "build_graph", lambda n, s: builds.append((n, s)))
    with pytest.raises(ValueError, match=r"selftest needs an integer n_max, got"):
        run_selftest(n_max=n_max)
    assert builds == []


def test_standard_cycle_indices_follow_the_route():
    for n in range(3, 61):
        for s in (1, 2, 3):
            want = [(v.cycle - 1) * n + v.position - 1 for v in standard_route(n, s)]
            assert selftest._standard_cycle(n, s).tolist() == want, (n, s)


def test_a_cycle_that_is_not_tight_fails_the_graphs_suite(monkeypatch):
    # for s = 2: all of cycle 1, then (2, 1), a simple cycle of the right length,
    # but (1, n) sits 2 hops round it from (1, 1) and 1 hop away in the graph
    standard = selftest._standard_cycle

    def loop(n, s):
        return np.append(np.arange(n), n) if s == 2 else standard(n, s)

    monkeypatch.setattr(selftest, "_standard_cycle", loop)
    results = {r.name: (r.passed, r.detail) for r in run_selftest(n_max=8)}
    assert results["graphs"] == (False, "standard cycle of Z(3,2) not tight at (1,1)")
    assert all(passed for name, (passed, _) in results.items() if name != "graphs")


def test_suites_build_no_vertex_objects(monkeypatch):
    def refuse(cls, *args):
        raise AssertionError("Vertex built")

    monkeypatch.setattr(Vertex, "__new__", refuse)
    with pytest.raises(AssertionError, match="Vertex built"):
        Vertex(1, 1)
    assert [r.passed for r in run_selftest(60)] == [True] * 5
