"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Each criterion enforces its own wall-clock budget, so a
regression in speed fails the suite just like a regression in correctness.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import numpy as np

from prismradio import (
    build_graph,
    check_triple_bound,
    exact_radio_number,
    greedy_span_for_order,
    lower_bound_rn,
    verify,
)
from prismradio.selftest import _bounds_suite, _graphs_suite, _labeling_suite, _run_suite


def assert_suite_passes(suite, n_max: int) -> None:
    """Run one selftest suite, the registry of the invariant, up to n_max."""
    result = _run_suite(suite, n_max)
    assert result.passed, f"{result.name} suite at n_max={n_max}: {result.detail}"


@contextmanager
def criterion(num: int, summary: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({summary}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed > budget:
        print(f"criterion {num} ({summary}): FAIL (runtime {elapsed:.1f}s > {budget:.0f}s)")
        raise AssertionError(
            f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s > {budget:.0f}s"
        )
    print(f"criterion {num} ({summary}): PASS ({elapsed:.2f}s)")


def test_criterion_1_construction_is_valid_and_optimal():
    # Every supported (n, s) with 4 <= n <= 100: the construction verifies
    # with zero violations and its span equals (n - 1) * phi(n, s) + 2
    # exactly, or the special value for (4, 3).  Budget: 10 seconds total.
    with criterion(1, "construction valid and span-optimal, n <= 100", budget=10.0):
        assert_suite_passes(_labeling_suite, 100)


def test_criterion_2_exact_search_matches_formula_small():
    # The branch-and-bound solver proves the closed form on the desk-scale
    # instances and reproduces the two special values rn(Z(3,3)) = 6 and
    # rn(Z(4,3)) = 9.  Budget: 5 minutes total.
    with criterion(2, "exact search matches closed form, n <= 5", budget=300.0):
        cases = [(4, 1), (4, 2), (5, 1), (5, 2), (5, 3)]
        for n, s in cases:
            g = build_graph(n, s)
            result = exact_radio_number(g)
            assert result.proven_optimal, f"(n={n}, s={s}) not proven"
            want = lower_bound_rn(n, s)
            assert result.rn == want, f"exact {result.rn} != formula {want} at ({n},{s})"
            assert verify(g, result.witness).valid
        for (n, s), want in [((3, 3), 6), ((4, 3), 9)]:
            g = build_graph(n, s)
            result = exact_radio_number(g)
            assert result.proven_optimal
            assert result.rn == want, f"exact {result.rn} != {want} at ({n},{s})"
            assert verify(g, result.witness).valid


def test_criterion_2_stretch_n6_within_budget():
    # Stretch goal: the three n = 6 instances.  Budget exhaustion is reported,
    # not failed — but any proven value must match the closed form, and the
    # returned witness must always verify at the returned span.
    with criterion(2, "stretch: exact search at n = 6"):
        for s in (1, 2, 3):
            g = build_graph(6, s)
            result = exact_radio_number(g, time_budget=300.0)
            want = lower_bound_rn(6, s)
            assert verify(g, result.witness).valid
            assert result.rn == want, f"exact {result.rn} != formula {want} at (6,{s})"
            status = "proven" if result.proven_optimal else "budget exhausted"
            print(f"  n=6 s={s}: rn={result.rn} ({status}, {result.nodes_explored} nodes)")


def test_criterion_3_metric_diameter_matches_closed_form():
    # The largest entry of the distance matrix equals floor((n + 3 - s) / 2)
    # for all s, 3 <= n <= 200.
    with criterion(3, "metric diameter equals closed form, n <= 200", budget=60.0):
        assert_suite_passes(_graphs_suite, 200)


def test_criterion_4_triple_distance_budget_exhaustive():
    # Exhaustive check over every 3-subset of vertices for 4 <= n <= 24:
    # pairwise distances sum to at most n + 3 - s, except the exempt s = 3
    # triples that contain a cross-cycle partner pair.  Budget: 2 minutes.
    with criterion(4, "triple distance budget, exhaustive n <= 24", budget=120.0):
        for n in range(4, 25):
            for s in (1, 2, 3):
                g = build_graph(n, s)
                assert check_triple_bound(g), f"triple budget violated at (n={n}, s={s})"


def test_criterion_5_position_maps_are_bijections():
    # For every supported (n, s) up to n = 200, the construction order
    # alpha_1..alpha_2n visits every vertex exactly once.
    with criterion(5, "position maps are bijections, n <= 200"):
        assert_suite_passes(_labeling_suite, 200)


def test_criterion_6_gap_and_rotation_inequalities():
    # Across the whole case-1 space up to n = 200: phi + omega >= diam + 1,
    # and phi - omega >= 1 when n - s is even, >= 2 when n - s is odd.
    with criterion(6, "phi/omega inequalities over case-1 space, n <= 200"):
        assert_suite_passes(_bounds_suite, 200)


def test_criterion_7_tight_cycles():
    # For all supported (n, s) up to n = 100: both principal cycles are tight
    # (along-cycle distance equals graph distance for every pair), and the
    # standard cycle has length n + 3 - s and is (1, 1)-tight.
    with criterion(7, "principal cycles tight, standard cycle (1,1)-tight, n <= 100"):
        assert_suite_passes(_graphs_suite, 100)


def test_criterion_8_greedy_order_oracle():
    # 200 seeded random vertex orders per instance never beat the exact radio
    # number, and at least one enumerated order attains it (the enumeration
    # includes the order induced by the exact witness).
    with criterion(8, "greedy span over random orders bounded by exact rn"):
        rng = random.Random(20260817)
        for n, s in [(4, 1), (4, 2), (4, 3), (3, 3)]:
            g = build_graph(n, s)
            result = exact_radio_number(g)
            assert result.proven_optimal
            orders = [np.argsort(result.witness.labels)]
            for _ in range(200):
                order = np.arange(2 * n)
                rng.shuffle(order)
                orders.append(order)
            spans = [greedy_span_for_order(g, order)[0] for order in orders]
            assert all(span >= result.rn for span in spans), f"greedy beat rn at ({n},{s})"
            assert min(spans) == result.rn, f"no enumerated order attains rn at ({n},{s})"
