import tracemalloc

import numpy as np
import pytest

import prismradio
from prismradio import (
    Labeling,
    PrismGraph,
    Vertex,
    build_graph,
    case_select,
    check_triple_bound,
    construct_labeling,
    exact_radio_number,
    pair_gap,
    radio_number,
)
from prismradio.selftest import run_selftest
from reference import all_pairs_distances, bfs_row


@pytest.mark.parametrize("n,s", [(2, 1), (3, 4), (3, 0), (5, 4), (2, 3)])
def test_build_graph_rejects_bad_params(n, s):
    with pytest.raises(ValueError, match="unsupported graph parameters"):
        build_graph(n, s)


@pytest.mark.parametrize("n,s", [(3, 1), (3, 3), (4, 2), (7, 3), (10, 1), (12, 2)])
def test_every_vertex_has_degree_two_plus_s(n, s):
    g = build_graph(n, s)
    degree = np.bincount(np.concatenate(g.edge_indices()), minlength=2 * n)
    assert (degree == 2 + s).all()


def test_known_distances():
    g = build_graph(8, 1)
    assert g.distance(Vertex(1, 1), Vertex(2, 5)) == 5
    assert g.distance(Vertex(1, 1), Vertex(1, 5)) == 4
    assert g.distance(Vertex(1, 1), Vertex(2, 1)) == 1
    g = build_graph(8, 2)
    assert g.distance(Vertex(1, 1), Vertex(2, 6)) == 4


def test_z33_is_complete():
    g = build_graph(3, 3)
    assert g.diameter == 1
    for u in g.vertices():
        for v in g.vertices():
            if u != v:
                assert g.distance(u, v) == 1


@pytest.mark.parametrize("n,s", [(6, 1), (9, 2), (11, 3), (30, 1), (30, 2), (30, 3)])
def test_distance_matrix_is_a_metric(n, s):
    g = build_graph(n, s)
    d = g.dist
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    for k in range(2 * n):
        assert (d <= d[:, k][:, None] + d[k][None, :]).all()


@pytest.mark.parametrize("n", range(3, 31))
def test_s1_distances_match_closed_form(n):
    # d((x1,y1),(x2,y2)) = |x1-x2| + ring distance of the positions
    g = build_graph(n, 1)
    for u in g.vertices():
        for v in g.vertices():
            ring = min(abs(u.position - v.position), n - abs(u.position - v.position))
            assert g.distance(u, v) == abs(u.cycle - v.cycle) + ring


def test_distance_matrix_is_read_only():
    g = build_graph(7, 2)
    with pytest.raises(ValueError):
        g.dist[0, 0] = 5


def test_index_round_trip():
    g = build_graph(9, 3)
    index = np.array([g.index(v) for v in g.vertices()])
    assert np.array_equal(index, np.arange(18))
    assert np.array_equal(np.divmod(index, 9), np.array(list(g.vertices())).T - 1)
    with pytest.raises(ValueError, match="unknown vertex"):
        g.index(Vertex(3, 1))
    with pytest.raises(ValueError, match="unknown vertex"):
        g.index(Vertex(1, 10))


def test_edge_count():
    # 2n ring edges plus s*n cross edges, all distinct for n >= 3
    for n, s in [(8, 1), (8, 2), (8, 3), (3, 3), (4, 3)]:
        g = build_graph(n, s)
        assert g.edge_indices()[0].size == 2 * n + s * n


# each library reader of the metric, on fresh graphs outside the build_graph cache
_ROW_READERS = {
    "pair_gap": lambda: pair_gap(build_graph.__wrapped__(60, 2)) == 16,
    "check_triple_bound": lambda: check_triple_bound(build_graph.__wrapped__(12, 3)),
    "exact": lambda: exact_radio_number(build_graph.__wrapped__(5, 3)).rn == 10,
    "selftest": lambda: [r for r in run_selftest(n_max=8) if not r.passed] == [],
}


@pytest.mark.parametrize("reader", list(_ROW_READERS))
def test_library_leaves_dense_matrix_unbuilt(monkeypatch, reader):
    # every layer reads the two rows; the dense matrix is the benchmark's alone
    def refuse(rows):
        raise AssertionError("dense distance matrix built")

    monkeypatch.setattr(prismradio.graphs, "_dense_from_rows", refuse)
    assert _ROW_READERS[reader]()


def test_build_graph_memoizes():
    assert build_graph(12, 2) is build_graph(12, 2)


_NOT_INTS = {
    "build_graph float n": lambda: build_graph(5.0, 1),
    "build_graph bool s": lambda: build_graph(6, True),
    "radio_number bool s": lambda: radio_number(6, True),
    "case_select bool s": lambda: case_select(6, True),
    "Labeling bool s": lambda: Labeling(n=6, s=True,
                                        assignment=construct_labeling(6, 1).assignment),
}


@pytest.mark.parametrize("call", list(_NOT_INTS))
def test_parameters_are_checked_before_the_cache_answers(call):
    # equal keys hash alike, so an untyped cache would answer 5.0 with Z(5,1)
    # and 6, True with Z(6,1), and a cold one would cache s=True for (6, 1)
    build_graph(5, 1), build_graph(6, 1)
    with pytest.raises(ValueError, match=r"unsupported graph parameters.*\(integers required\)"):
        _NOT_INTS[call]()
    assert type(build_graph(6, 1).s) is int


@pytest.mark.parametrize("name", ["neighbors", "edges"])
def test_removed_graph_methods_stay_removed(name):
    # edge_indices is the one reader of adjacency
    assert not hasattr(PrismGraph, name)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_distances_match_scipy_all_pairs_bfs(s):
    # the rows-derived matrix against scipy over the explicit edge list
    for n in list(range(max(3, s), 41)) + [63, 64, 97, 128, 150, 199, 200]:
        g = build_graph(n, s)
        assert g.dist.dtype == np.int32
        assert (g.dist == all_pairs_distances(n, s)).all(), (n, s)


def test_rows_shape_and_read_only():
    g = build_graph(50, 3)
    assert g.rows.shape == (2, 2, 50) and g.rows.dtype == np.int32
    with pytest.raises(ValueError):
        g.rows[0, 0, 1] = 7


def test_distance_rejects_unknown_vertex():
    g = build_graph(9, 2)
    with pytest.raises(ValueError, match="unknown vertex"):
        g.distance(Vertex(1, 1), Vertex(1, 10))
    with pytest.raises(ValueError, match="unknown vertex"):
        g.distance(Vertex(3, 1), Vertex(1, 1))
    # coordinates are plain ints, as Labeling requires: not 1.0, not True
    for v in (Vertex(1, 1.0), Vertex(True, 1)):
        assert not g.contains(v)
        with pytest.raises(ValueError, match="unknown vertex"):
            g.distance(v, Vertex(1, 1))
        with pytest.raises(ValueError, match="unknown vertex"):
            g.distance(Vertex(1, 1), v)


@pytest.mark.parametrize("n", [200_000, 200_001, 200_002])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_build_graph_holds_a_few_row_arrays(n, s):
    # the rows are filled in place, beside a few single rows (1.75x in all, measured)
    tracemalloc.start()
    try:
        rows = build_graph.__wrapped__(n, s).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * rows.nbytes, peak / rows.nbytes


@pytest.mark.parametrize("s", [1, 2, 3])
def test_rows_match_breadth_first_search(s):
    # the closed-form rows against a BFS from (1, 1) and from (2, 1)
    for n in list(range(max(3, s), 301)) + [10001, 10002, 10003, 10004, 199999]:
        rows = build_graph(n, s).rows
        want = np.array([bfs_row(n, s, 0), bfs_row(n, s, n)]).reshape(2, 2, n)
        assert (rows == want).all(), (n, s)
