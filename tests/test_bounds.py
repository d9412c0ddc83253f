import tracemalloc

import pytest

from prismradio import (
    Vertex,
    build_graph,
    check_triple_bound,
    construct_labeling,
    d_offset,
    in_phi_scope,
    lower_bound_rn,
    omega,
    pair_gap,
    phi,
)
from prismradio import bounds
from prismradio.selftest import run_selftest
from reference import (
    all_pairs_distances,
    bicirculant_distances,
    brute_force_radio_number,
    dense_pair_gap,
    graph_of,
    largest_triple_sum,
    pair_gap_every_triple,
    triple_budget_violations,
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


_NOT_INTS = {
    "phi bool s": lambda: phi(6, True),
    "phi float n": lambda: phi(6.0, 1),
    "lower_bound_rn float n": lambda: lower_bound_rn(6.0, 1),
    "lower_bound_rn str n": lambda: lower_bound_rn("6", 1),
    "d_offset float n": lambda: d_offset(5.0, 1),
    "d_offset bool s": lambda: d_offset(5, True),
    "omega float n": lambda: omega(6.0),
    "omega float n in range": lambda: omega(5.0),
    "omega bool n": lambda: omega(True),
}


@pytest.mark.parametrize("call", list(_NOT_INTS))
def test_closed_forms_require_plain_ints(call):
    # the same check and message as build_graph's, before any range or arithmetic
    with pytest.raises(ValueError, match=r"unsupported graph parameters.*\(integers required\)"):
        _NOT_INTS[call]()


@pytest.mark.parametrize("n,s", [(6.0, 1), (6, True), (6, 1.0), ("6", 1)])
def test_phi_scope_holds_only_plain_ints(n, s):
    assert in_phi_scope(n, s) is False


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


@pytest.mark.parametrize("call,message", [
    (lambda: d_offset(5, 4), r"outside theorem scope: s=4 \(need s in \{1, 2, 3\}\)"),
    (lambda: d_offset(2, 1), r"outside theorem scope: n=2 \(need n >= 3\)"),
    (lambda: omega(3), r"case-1 only: omega needs n >= 5, got n=3"),
    (lambda: run_selftest(inject_fault="x"), r"unknown fault kind: 'x'"),
], ids=["d_offset s=4", "d_offset n=2", "omega n=3", "selftest fault x"])
def test_domain_errors_name_their_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_triple_bound_exemption_is_needed_for_s3():
    # without the exemption, {(1,j), (2,j), far vertex} exceeds the budget
    g = build_graph(8, 3)
    u, v = Vertex(1, 1), Vertex(2, 1)
    w = Vertex(1, 5)
    total = g.distance(u, v) + g.distance(u, w) + g.distance(v, w)
    assert total > g.n  # n + 3 - s = n for s = 3
    assert check_triple_bound(g)  # exempt, so the sweep stays clean


def test_triple_bound_violations_empty_on_supported_graphs():
    g = build_graph(9, 2)
    assert bounds._max_triple_sum(g) == g.n + 3 - g.s  # the budget is met, not passed
    assert not triple_budget_violations(all_pairs_distances(9, 2), 2)


def test_anchored_triple_sweep_matches_every_triple_up_to_rotation(monkeypatch):
    # the supported graphs meet the budget; the rows of Z(n, 1) fail the budget
    # of s = 2 and 3, and those of GP(9, 3) and GP(12, 3) fail it within cycle 2
    cases = [(all_pairs_distances(n, s), s) for n in range(3, 13) for s in (1, 2, 3) if s <= n]
    cases += [(all_pairs_distances(n, 1), s) for n in range(3, 13) for s in (2, 3)]
    cases += [(bicirculant_distances(9, 3, (0,)), 1), (bicirculant_distances(12, 3, (0,)), 2)]
    failing = 0
    for cells in (bounds._BLOCK_CELLS, 1):  # the default block, then one row of p per block
        monkeypatch.setattr(bounds, "_BLOCK_CELLS", cells)
        for dist, s in cases:
            g = graph_of(dist, s)
            assert bounds._max_triple_sum(g) == largest_triple_sum(dist, s), (g, s, cells)
            expected = triple_budget_violations(dist, s)
            assert check_triple_bound(g) == (not expected)
            failing += bool(expected)
    assert failing >= 20


def test_triple_bound_holds_less_than_an_n_by_n_array():
    g = build_graph.__wrapped__(2000, 2)  # uncached: its rows are not charged to another test
    tracemalloc.start()
    try:
        assert check_triple_bound(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 2000 * 4  # one n x n int32 array: 16 MB


@pytest.fixture(params=["default-block", "one-row-blocks"])
def largest_n(request, monkeypatch):
    """Run pair_gap with its default block, then with one row of p per block, so
    every graph merges n block minima; the largest n checked on Z(n, s) for each."""
    if request.param == "default-block":
        return 200
    monkeypatch.setattr(bounds, "_BLOCK_CELLS", 1)
    return 60


def test_pair_gap_matches_every_triple(largest_n):  # the fixture sets the block; n <= 10 here
    # Z(n, s) for every s <= n (s >= 4 from the definition) and the
    # generalized Petersen graphs GP(n, k): the same bound over every triple
    dists = [all_pairs_distances(n, s) for n in range(3, 11) for s in range(1, n + 1)]
    dists += [bicirculant_distances(n, k, offsets)
              for n in range(5, 11) for k in (2, 3, 4) for offsets in [(0,), (0, 1)]]
    for dist in dists:
        assert pair_gap(graph_of(dist, 1)) == pair_gap_every_triple(dist), len(dist)


def test_pair_gap_matches_the_dense_gap_matrix(largest_n):
    # the dense matrix from a breadth-first search, not from the rows under test
    for n in range(3, largest_n + 1):
        for s in range(1, min(n, 3) + 1):
            assert pair_gap(build_graph(n, s)) == dense_pair_gap(all_pairs_distances(n, s)), (n, s)


def test_pair_gap_holds_less_than_an_n_by_n_array():
    g = build_graph.__wrapped__(2000, 2)  # uncached: its rows are not charged to another test
    tracemalloc.start()
    try:
        assert pair_gap(g) == phi(2000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 2000 * 4  # one n x n int32 array: 16 MB


def _root_bound(g):
    """The exact search's lower bound at its root: the first label is 1 and
    the other 2n - 1 cost at least (n - 1) * pair_gap + 1 more."""
    return (g.n - 1) * pair_gap(g) + 2


@pytest.mark.parametrize("n,s", [(n, s) for n in (3, 4) for s in range(1, n + 1)])
def test_root_bound_never_exceeds_the_brute_force_radio_number(n, s):
    # Z(4, 4) is outside build_graph's range: its graph comes from the definition
    dist = all_pairs_distances(n, s)
    assert _root_bound(graph_of(dist, s)) <= brute_force_radio_number(dist)


def test_root_bound_never_exceeds_the_construction_span():
    for n in range(4, 121):
        for s in (1, 2, 3):
            assert _root_bound(build_graph(n, s)) <= construct_labeling(n, s).span, (n, s)
