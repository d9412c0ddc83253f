import pytest

from prismradio import (
    Vertex,
    build_graph,
    check_triple_bound,
    d_offset,
    in_phi_scope,
    lower_bound_rn,
    omega,
    phi,
    triple_bound_violations,
)


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


def test_phi_rejects_out_of_scope():
    for n, s in [(3, 1), (3, 3), (4, 3), (10, 4), (2, 1)]:
        assert not in_phi_scope(n, s)
        with pytest.raises(ValueError, match="outside theorem scope"):
            phi(n, s)


@pytest.mark.parametrize("n,s,expected", [(8, 2, 23), (5, 1, 14), (4, 1, 11), (6, 1, 22)])
def test_lower_bound_examples(n, s, expected):
    assert lower_bound_rn(n, s) == expected


@pytest.mark.parametrize("n,s,expected", [(5, 1, 3), (8, 2, 5), (7, 2, 4), (8, 3, 4), (3, 3, 2)])
def test_d_offset_values(n, s, expected):
    assert d_offset(n, s) == expected


@pytest.mark.parametrize("n,expected", [(5, 1), (6, 1), (7, 2), (9, 2), (10, 3), (11, 3), (14, 3), (18, 5)])
def test_omega_values(n, expected):
    assert omega(n) == expected


def test_omega_rejects_multiples_of_four():
    for n in (4, 8, 12):
        with pytest.raises(ValueError, match="case-1 only"):
            omega(n)


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
