import pytest

from prismradio import (
    Vertex,
    build_graph,
    check_triple_bound,
    d_offset,
    in_phi_scope,
    lower_bound_rn,
    omega,
    pair_gap,
    phi,
    triple_bound_violations,
)
from prismradio.bounds import _phi_from_triple_budget
from prismradio.labeling import CaseId, case_select


@pytest.mark.parametrize(
    "n,s,expected",
    [
        # one value per (n mod 4, s) table cell
        (8, 1, 4), (8, 2, 3), (8, 3, 4),
        (5, 1, 3), (5, 2, 3), (5, 3, 2),
        (6, 1, 4), (6, 2, 3), (6, 3, 3),
        (7, 1, 3), (7, 2, 4), (7, 3, 3),
        # and the values the worked examples pin down
        (4, 1, 3), (4, 2, 2), (12, 3, 5),
    ],
)
def test_phi_table_values(n, s, expected):
    assert phi(n, s) == expected


@pytest.mark.parametrize("s", [1, 2, 3])
def test_pair_gap_from_the_metric_matches_phi(s):
    # the consecutive-triple gap, read from the graph, is the table's phi
    for n in range(4, 41):
        if (n, s) == (4, 3):
            continue
        assert pair_gap(build_graph(n, s)) == phi(n, s), (n, s)


def test_phi_rejects_out_of_scope():
    for n, s in [(3, 1), (3, 3), (4, 3), (10, 4), (2, 1)]:
        assert not in_phi_scope(n, s)
        with pytest.raises(ValueError, match="outside theorem scope"):
            phi(n, s)


def test_phi_agrees_with_triple_budget_derivation():
    # the table is a closed form of ceil((3 + 3*diam - (n+3-s)) / 2)
    for n in range(4, 201):
        for s in (1, 2, 3):
            if in_phi_scope(n, s):
                assert phi(n, s) == _phi_from_triple_budget(n, s), (n, s)


def test_two_phi_dominates_diameter():
    for n in range(4, 201):
        for s in (1, 2, 3):
            if in_phi_scope(n, s):
                assert 2 * phi(n, s) >= (n + 3 - s) // 2


@pytest.mark.parametrize("n,s,expected", [(8, 2, 23), (5, 1, 14), (4, 1, 11), (6, 1, 22)])
def test_lower_bound_examples(n, s, expected):
    assert lower_bound_rn(n, s) == expected


@pytest.mark.parametrize("n,s,expected", [(5, 1, 3), (8, 2, 5), (7, 2, 4), (8, 3, 4), (3, 3, 2)])
def test_d_offset_values(n, s, expected):
    assert d_offset(n, s) == expected


@pytest.mark.parametrize("s", [1, 2, 3])
def test_d_offset_realizes_diameter_everywhere(s):
    for n in range(3, 101):
        if s > n:
            continue
        g = build_graph(n, s)
        off = d_offset(n, s)
        for y in range(1, n + 1):
            assert g.distance(Vertex(1, y), g.vertex(2, y + off)) == g.diameter


@pytest.mark.parametrize("n,expected", [(5, 1), (6, 1), (7, 2), (9, 2), (10, 3), (11, 3), (14, 3), (18, 5)])
def test_omega_values(n, expected):
    assert omega(n) == expected


def test_omega_rejects_multiples_of_four():
    for n in (4, 8, 12):
        with pytest.raises(ValueError, match="case-1 only"):
            omega(n)


def test_useful_fact_inequalities_over_case1():
    # phi + omega >= diam + 1 and phi - omega >= 1 or 2 by parity of n - s
    seen = 0
    for n in range(5, 201):
        for s in (1, 2, 3):
            if not in_phi_scope(n, s) or case_select(n, s) is not CaseId.CASE1:
                continue
            seen += 1
            diam = (n + 3 - s) // 2
            assert phi(n, s) + omega(n) >= diam + 1, (n, s)
            slack = 1 if (n - s) % 2 == 0 else 2
            assert phi(n, s) - omega(n) >= slack, (n, s)
    assert seen > 300


@pytest.mark.parametrize("s", [1, 2, 3])
def test_triple_bound_holds_small(s):
    for n in range(max(3, s), 15):
        assert check_triple_bound(build_graph(n, s))


def test_triple_bound_exemption_is_needed_for_s3():
    # without the exemption, {(1,j), (2,j), far vertex} exceeds the budget
    g = build_graph(8, 3)
    u, v = Vertex(1, 1), Vertex(2, 1)
    w = Vertex(1, 5)
    total = g.distance(u, v) + g.distance(u, w) + g.distance(v, w)
    assert total > g.n  # n + 3 - s = n for s = 3
    assert check_triple_bound(g)  # exempt, so the sweep stays clean


def test_triple_bound_violations_empty_on_supported_graphs():
    assert triple_bound_violations(build_graph(9, 2)) == []
