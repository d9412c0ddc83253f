import pytest
from hypothesis import given
from hypothesis import strategies as st

import prismradio.graphs
from prismradio import (
    Labeling,
    Vertex,
    build_graph,
    construct_labeling,
    span_of,
    verify,
)
from reference import all_pairs_distances, all_pairs_violations


def test_valid_labeling_report():
    g = build_graph(8, 2)
    report = verify(g, construct_labeling(8, 2))
    assert report.valid
    assert report.violations == ()
    assert report.span == 23
    assert report.pairs_checked == 16 * 15 // 2


def test_single_bad_label_is_caught_with_witness():
    g = build_graph(5, 1)
    lab = construct_labeling(5, 1)
    broken = dict(lab.assignment)
    # give two vertices the same label; gap 0 can never cover the diameter
    items = lab.items_sorted()
    broken[items[0][0]] = items[1][1]
    report = verify(g, Labeling(n=5, s=1, assignment=broken))
    assert not report.valid
    assert any(w.label_gap == 0 for w in report.violations)
    w = report.violations[0]
    assert w.distance + w.label_gap < w.required


def test_violations_are_lexicographically_ordered():
    g = build_graph(4, 1)
    flat = Labeling(n=4, s=1, assignment={v: 1 for v in g.vertices()})
    report = verify(g, flat)
    assert not report.valid
    pairs = [(w.u, w.v) for w in report.violations]
    assert pairs == sorted(pairs)
    assert all(w.u < w.v for w in report.violations)


@given(st.integers(1, 1000))
def test_translation_preserves_validity(delta):
    g = build_graph(6, 2)
    lab = construct_labeling(6, 2)
    shifted = Labeling(n=6, s=2, assignment={v: c + delta for v, c in lab.assignment.items()})
    assert verify(g, shifted).valid


def test_incomplete_labeling_raises():
    g = build_graph(5, 2)
    partial = {v: i + 1 for i, v in enumerate(g.vertices()) if v.position != 3}
    with pytest.raises(ValueError, match="labeling incomplete"):
        verify(g, Labeling(n=5, s=2, assignment=partial))


def test_unknown_vertex_raises():
    g = build_graph(5, 2)
    bad = {v: i + 1 for i, v in enumerate(g.vertices())}
    bad[Vertex(1, 9)] = 99
    with pytest.raises(ValueError, match="unknown vertex"):
        verify(g, Labeling(n=5, s=2, assignment=bad))


def test_span_of():
    assert span_of(construct_labeling(5, 1)) == 14
    with pytest.raises(ValueError, match="empty labeling"):
        span_of(Labeling(n=5, s=1, assignment={}))


def test_report_serializes_to_plain_dict():
    g = build_graph(4, 2)
    report = verify(g, construct_labeling(4, 2))
    data = report.to_dict()
    assert data["valid"] is True
    assert data["span"] == 8
    assert data["violations"] == []
    # all values must be JSON-friendly primitives
    import json

    json.dumps(data)


def test_report_dict_carries_violation_fields():
    g = build_graph(4, 1)
    flat = Labeling(n=4, s=1, assignment={v: 2 for v in g.vertices()})
    data = verify(g, flat).to_dict()
    assert data["valid"] is False
    first = data["violations"][0]
    assert set(first) == {"u", "v", "distance", "label_gap", "required"}
    assert first["u"] == {"cycle": 1, "pos": 1}


@st.composite
def labeled_graphs(draw):
    """(n, s, labels in vertex-index order): random, few distinct, all equal, swapped."""
    n = draw(st.integers(3, 40))
    s = draw(st.integers(1, min(3, n)))
    nv = 2 * n
    kind = draw(st.sampled_from(["random", "duplicates", "all-equal", "swapped"]))
    if kind == "random":
        labels = draw(st.lists(st.integers(1, 4 * n), min_size=nv, max_size=nv))
    elif kind == "duplicates":
        pool = draw(st.lists(st.integers(1, 3 * n), min_size=1, max_size=4))
        labels = draw(st.lists(st.sampled_from(pool), min_size=nv, max_size=nv))
    elif kind == "all-equal":
        labels = [draw(st.integers(1, 100))] * nv
    else:  # a construction with a few labels swapped
        if n == 3 and s < 3:  # no construction there
            s = 3
        lab = construct_labeling(n, s)
        labels = [c for _, c in lab.items_sorted()]
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1))
            labels[i], labels[j] = labels[j], labels[i]
    return n, s, labels


@given(labeled_graphs())
def test_windowed_verify_equals_all_pairs_reference(case):
    n, s, labels = case
    g = build_graph(n, s)
    verts = list(g.vertices())
    report = verify(g, Labeling(n=n, s=s, assignment=dict(zip(verts, labels))))
    expected = tuple(
        (verts[i], verts[j], d, gap, g.diameter + 1)
        for i, j, d, gap in all_pairs_violations(all_pairs_distances(n, s), labels, g.diameter)
    )
    assert report.violations == expected
    assert report.valid == (not expected)
    assert report.span == max(labels)
    assert report.pairs_checked == 2 * n * (2 * n - 1) // 2


def test_verify_leaves_dense_matrix_unbuilt(monkeypatch):
    def refuse(rows):
        raise AssertionError("dense distance matrix built")

    monkeypatch.setattr(prismradio.graphs, "_dense_from_rows", refuse)
    g = build_graph.__wrapped__(5000, 2)  # a fresh instance, outside the cache
    report = verify(g, construct_labeling(5000, 2))
    assert report.valid and report.pairs_checked == 10000 * 9999 // 2
    broken = dict(construct_labeling(5000, 2).assignment)
    broken[Vertex(1, 1)], broken[Vertex(2, 7)] = broken[Vertex(2, 7)], broken[Vertex(1, 1)]
    assert not verify(g, Labeling(n=5000, s=2, assignment=broken)).valid
