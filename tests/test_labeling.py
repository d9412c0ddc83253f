import numpy as np
import pytest

from prismradio import (
    CaseId,
    Labeling,
    Vertex,
    build_graph,
    case_select,
    construct_labeling,
    label_order,
    label_sequence,
    lower_bound_rn,
    phi,
    verify,
)
from reference import scalar_label_order


def alpha(n, s, j):
    """alpha_j, 1-based as in the paper."""
    return build_graph(n, s).vertex_at(int(label_order(n, s)[j - 1]))


def vertex_order(n, s):
    """alpha_1, ..., alpha_2n as vertices."""
    return [build_graph(n, s).vertex_at(i) for i in label_order(n, s).tolist()]


@pytest.mark.parametrize(
    "n,s,expected",
    [
        (3, 3, CaseId.SPECIAL_3_3),
        (4, 3, CaseId.SPECIAL_4_3),
        (3, 1, CaseId.UNSUPPORTED),
        (3, 2, CaseId.UNSUPPORTED),
        (8, 1, CaseId.CASE2),
        (8, 3, CaseId.CASE2),
        (8, 2, CaseId.CASE3),
        (10, 3, CaseId.CASE4),
        (18, 3, CaseId.CASE4),
        (6, 3, CaseId.CASE1),   # k odd, so not case 4
        (14, 3, CaseId.CASE1),
        (5, 1, CaseId.CASE1),
        (7, 2, CaseId.CASE1),
        (10, 1, CaseId.CASE1),
        (10, 2, CaseId.CASE1),
    ],
)
def test_case_select(n, s, expected):
    assert case_select(n, s) is expected


def test_case_select_rejects_bad_params():
    for n, s in [(2, 1), (3, 4), (5, 0)]:
        with pytest.raises(ValueError, match="unsupported graph parameters"):
            case_select(n, s)


def test_label_sequence_5_1():
    assert label_sequence(5, 1) == [1, 2, 4, 5, 7, 8, 10, 11, 13, 14]


@pytest.mark.parametrize("n,s", [(5, 1), (8, 2), (12, 3), (9, 2)])
def test_label_sequence_shape(n, s):
    seq = label_sequence(n, s)
    step = phi(n, s)
    assert len(seq) == 2 * n
    assert seq[0] == 1 and seq[1] == 2
    assert seq[-1] == (n - 1) * step + 2 == lower_bound_rn(n, s)
    assert all(b > a for a, b in zip(seq, seq[1:]))
    # window property: labels four apart differ by 2*phi, which covers the diameter
    assert all(seq[j + 4] - seq[j] == 2 * step for j in range(2 * n - 4))


def test_position_case1_examples():
    assert alpha(5, 1, 1) == Vertex(1, 1)
    assert alpha(5, 1, 2) == Vertex(2, 4)
    assert alpha(5, 1, 3) == Vertex(1, 2)
    assert alpha(5, 1, 10) == Vertex(2, 3)
    assert alpha(7, 2, 2) == Vertex(2, 5)


def test_position_case2_examples():
    assert alpha(8, 1, 1) == Vertex(1, 1)
    assert alpha(8, 1, 2) == Vertex(2, 5)
    assert alpha(8, 1, 9) == Vertex(2, 8)
    assert alpha(8, 1, 10) == Vertex(1, 4)


def test_position_case3_examples():
    assert alpha(8, 2, 1) == Vertex(1, 1)
    assert alpha(8, 2, 2) == Vertex(1, 5)
    assert alpha(8, 2, 5) == Vertex(1, 4)


def test_position_case4_examples():
    # raw cycle coordinate 0 normalizes to cycle 2
    assert alpha(10, 3, 1) == Vertex(2, 1)
    assert alpha(10, 3, 2) == Vertex(2, 6)
    assert alpha(10, 3, 4) == Vertex(2, 8)
    assert alpha(10, 3, 11) == Vertex(1, 1)


@pytest.mark.parametrize(
    "n,s,message",
    [(3, 1, "unsupported graph parameters"), (3, 2, "unsupported graph parameters"),
     (3, 3, "labels it directly"), (4, 3, "labels it directly")],
)
def test_label_order_rejects_graphs_without_a_sorted_order(n, s, message):
    with pytest.raises(ValueError, match=message):
        label_order(n, s)


def test_label_order_holds_plain_ints():
    # label_order is an index array; NumPy scalars must not leak out of a
    # Labeling into JSON output and Vertex comparisons
    assert label_order(2501, 2).dtype == np.int64
    for v, c in construct_labeling(2501, 2).assignment.items():
        assert type(v.cycle) is int and type(v.position) is int and type(c) is int


@pytest.mark.parametrize("s", [1, 2, 3])
def test_label_order_matches_scalar_formulas(s):
    cases = {CaseId.CASE1: 1, CaseId.CASE2: 2, CaseId.CASE3: 3, CaseId.CASE4: 4}
    for n in list(range(4, 201)) + [10_001, 10_002, 10_003, 10_004]:
        case = case_select(n, s)
        if case in cases:
            assert vertex_order(n, s) == scalar_label_order(cases[case], n, s), (n, s)


def test_construct_labeling_special_3_3():
    lab = construct_labeling(3, 3)
    assert lab.span == 6
    assert sorted(lab.assignment.values()) == [1, 2, 3, 4, 5, 6]
    assert verify(build_graph(3, 3), lab).valid


def test_construct_labeling_special_4_3():
    lab = construct_labeling(4, 3)
    assert lab.span == 9
    assert verify(build_graph(4, 3), lab).valid


def test_construct_labeling_unsupported():
    for n, s in [(3, 1), (3, 2)]:
        with pytest.raises(ValueError, match="unsupported graph parameters"):
            construct_labeling(n, s)


def test_labeling_rejects_nonpositive_labels():
    with pytest.raises(ValueError, match="positive integers"):
        Labeling(n=3, s=3, assignment={Vertex(1, 1): 0})
    with pytest.raises(ValueError, match="positive integers"):
        Labeling(n=3, s=3, assignment={Vertex(1, 1): 1.5})


def test_labeling_is_frozen():
    lab = construct_labeling(5, 1)
    with pytest.raises(TypeError):
        lab.assignment[Vertex(1, 1)] = 99


def test_labeling_span_requires_labels():
    with pytest.raises(ValueError, match="labeling incomplete"):
        Labeling(n=5, s=1, assignment={})


def test_labels_are_indexed_like_the_graph():
    g = build_graph(5, 1)
    lab = construct_labeling(5, 1)
    assert lab.labels.dtype == np.int64 and lab.labels.shape == (10,)
    assert lab.labels[g.index(Vertex(1, 1))] == 1 and lab.labels[g.index(Vertex(2, 4))] == 2
    reordered = dict(reversed(list(lab.assignment.items())))
    assert (Labeling(n=5, s=1, assignment=reordered).labels == lab.labels).all()
    with pytest.raises(ValueError):
        lab.labels[0] = 99


@pytest.mark.parametrize("key", [(1, 9), (3, 1), (0, 1), (1.0, 1), (True, 1), (1, 2, 3), "ab", 7])
def test_labeling_rejects_keys_that_are_not_vertices(key):
    # the bad key comes first, so an equal vertex key later keeps its object
    rest = {v: i + 1 for i, v in enumerate(build_graph(4, 1).vertices())}
    with pytest.raises(ValueError, match="unknown vertex"):
        Labeling(n=4, s=1, assignment={key: 1} | rest)
