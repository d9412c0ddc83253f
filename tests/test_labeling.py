import tracemalloc

import numpy as np
import pytest

from prismradio import (
    CaseId,
    Labeling,
    Vertex,
    build_graph,
    case_select,
    construct_labeling,
    greedy_span_for_order,
    in_phi_scope,
    label_order,
    label_sequence,
    lower_bound_rn,
    phi,
    radio_number,
    verify,
)
from prismradio import bounds
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import entry_labels, scalar_label_order


def alphas(n, s, js):
    """alpha_j for each j, 1-based as in the paper, as vertex indices."""
    return label_order(n, s)[np.subtract(js, 1)]


def indices(n, vertices):
    """The vertex indices (c - 1) * n + (p - 1) of (c, p) pairs."""
    return np.array([(c - 1) * n + p - 1 for c, p in vertices])


@pytest.mark.parametrize(
    "n,s,expected",
    [
        (3, 3, CaseId.SPECIAL),
        (4, 3, CaseId.SPECIAL),
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


@pytest.mark.parametrize("patch", ["drop Z(4,3)", "add Z(5,2)"])
def test_the_special_table_is_the_one_home_of_the_scope(monkeypatch, patch):
    if patch == "drop Z(4,3)":
        monkeypatch.delitem(bounds._SPECIAL_LABELS, (4, 3))
    else:
        monkeypatch.setitem(bounds._SPECIAL_LABELS, (5, 2), tuple(range(1, 11)))
    for n in range(3, 13):
        for s in (1, 2, 3):
            special = (n, s) in bounds._SPECIAL_LABELS
            scope = n >= 4 and not special
            assert in_phi_scope(n, s) is scope, (n, s)
            try:
                phi(n, s)
            except ValueError:
                assert not scope, (n, s)
            else:
                assert scope, (n, s)
            assert (case_select(n, s) is CaseId.SPECIAL) is special, (n, s)
            try:
                source = radio_number(n, s)[1]
            except ValueError:
                source = None
            assert (source == "special") is special, (n, s)


def test_case_select_rejects_bad_params():
    for n, s in [(2, 1), (3, 4), (5, 0)]:
        with pytest.raises(ValueError, match="unsupported graph parameters"):
            case_select(n, s)


def test_label_sequence_5_1():
    assert label_sequence(5, 1).tolist() == [1, 2, 4, 5, 7, 8, 10, 11, 13, 14]


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
    assert np.array_equal(alphas(5, 1, [1, 2, 3, 10]),
                          indices(5, [(1, 1), (2, 4), (1, 2), (2, 3)]))
    assert np.array_equal(alphas(7, 2, [2]), indices(7, [(2, 5)]))


def test_position_case2_examples():
    assert np.array_equal(alphas(8, 1, [1, 2, 9, 10]),
                          indices(8, [(1, 1), (2, 5), (2, 8), (1, 4)]))


def test_position_case3_examples():
    assert np.array_equal(alphas(8, 2, [1, 2, 5]), indices(8, [(1, 1), (1, 5), (1, 4)]))


def test_position_case4_examples():
    # raw cycle coordinate 0 normalizes to cycle 2
    assert np.array_equal(alphas(10, 3, [1, 2, 4, 11]),
                          indices(10, [(2, 1), (2, 6), (2, 8), (1, 1)]))


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
            assert np.array_equal(label_order(n, s),
                                  indices(n, scalar_label_order(cases[case], n, s))), (n, s)


def test_the_construction_labels_are_the_forced_labels_of_its_order():
    # sorted by label, the construction's order forces exactly its labels:
    # each is the least its predecessors allow
    graphs = [(n, s) for s in (1, 2, 3) for n in range(4, 61) if in_phi_scope(n, s)]
    assert len(graphs) == 170
    for n, s in graphs:
        assert greedy_span_for_order(build_graph(n, s), label_order(n, s)) == (
            lower_bound_rn(n, s), label_sequence(n, s).tolist()), (n, s)


@pytest.mark.parametrize("n", [200_000, 200_001, 200_002])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_construction_holds_a_few_order_arrays(n, s):
    # these nine graphs take all four construction cases
    for build in (label_order, construct_labeling):
        tracemalloc.start()
        try:
            build(n, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * (2 * n * 8), (build.__name__, peak / (2 * n * 8))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_construction_labels_alpha_in_order_with_the_label_sequence(s):
    # construct_labeling writes its labels straight into the vertex array; read
    # back in label_order they must be the documented 1 + (i - 1) * phi, 2 + (i - 1) * phi
    for n in list(range(4, 301)) + [200_000, 200_001, 200_002]:
        if case_select(n, s) is CaseId.SPECIAL:
            continue
        i = np.arange(2 * n)
        seq = label_sequence(n, s)
        assert (seq == 1 + i // 2 * phi(n, s) + i % 2).all(), (n, s)
        assert (construct_labeling(n, s).labels[label_order(n, s)] == seq).all(), (n, s)


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


_ODD_KEYS = [(1, 9), (3, 1), (0, 1), (1, 0), (1.0, 1), (True, 1), (1, np.int64(2)), (None, 5),
             (2**80, 1), (1, -(2**80)), (1, 2, 3), "ab", 7, None, frozenset()]
_ODD_LABELS = [0, -1, 1.5, True, None, "3", np.int64(3), 2**63, -(2**63) - 1, 2**63 - 1]


@st.composite
def _assignments(draw):
    """(n, s, mapping): a construction keyed by vertices and plain tuples,
    reordered, with up to three keys dropped, odd keys added or odd labels."""
    n, s = draw(st.sampled_from([(3, 3), (4, 1), (5, 2), (8, 3)]))
    items = [(tuple(v) if draw(st.booleans()) else v, c)
             for v, c in construct_labeling(n, s).assignment.items()]
    items = draw(st.permutations(items))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(items)))
        kind = draw(st.sampled_from(["drop", "key", "label"]))
        if kind == "drop" and items:
            del items[min(at, len(items) - 1)]
        elif kind == "key":
            items.insert(at, (draw(st.sampled_from(_ODD_KEYS)), draw(st.integers(1, 40))))
        elif kind == "label" and items:
            at = min(at, len(items) - 1)
            items[at] = (items[at][0], draw(st.sampled_from(_ODD_LABELS)))
    return n, s, dict(items)


def _labels_or_error(read, *args):
    try:
        return list(read(*args))
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(_assignments())
def test_mapping_constructor_matches_the_entry_by_entry_reference(case):
    n, s, mapping = case
    got = _labels_or_error(lambda: Labeling(n=n, s=s, assignment=mapping).labels.tolist())
    assert got == _labels_or_error(entry_labels, n, s, mapping)
