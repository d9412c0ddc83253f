import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismradio import (
    CaseId,
    Vertex,
    build_graph,
    construct_labeling,
    exact_radio_number,
    greedy_span_for_order,
    lower_bound_rn,
    radio_number,
    verify,
)
from prismradio import exact
from prismradio.exact import (
    _frame_key,
    _key_typecode,
    _least_roll,
    _reflection,
    _swap_shift,
    _twin_shift,
)
from reference import (
    all_pairs_distances,
    bicirculant_distances,
    brute_force_radio_number,
    graph_of,
    interleaved_circulant,
    recursive_exact_search,
    swap_orbit_is_everything,
    true_twin_pairs,
)


def _solve(n, s, **kwargs):
    g = build_graph(n, s)
    return g, exact_radio_number(g, **kwargs)


@pytest.mark.parametrize(
    "n,s,expected",
    [(3, 3, 6), (4, 1, 11), (4, 2, 8), (4, 3, 9), (5, 1, 14), (5, 2, 14), (5, 3, 10)],
)
def test_exact_matches_known_values(n, s, expected):
    g, result = _solve(n, s)
    assert result.rn == expected
    assert result.proven_optimal
    report = verify(g, result.witness)
    assert report.valid and result.witness.span == expected


@pytest.mark.parametrize("n,s", [(4, 1), (4, 2), (5, 1), (5, 2), (5, 3)])
def test_exact_agrees_with_formula(n, s):
    _, result = _solve(n, s)
    assert result.rn == lower_bound_rn(n, s)


def test_exact_handles_graphs_without_construction():
    # rn(Z(3,1)) = 6: the complement is a 6-cycle, so consecutive labels can
    # always move to a non-neighbor.  rn(Z(3,2)) = 8: the complement is a
    # perfect matching, so runs of consecutive labels have length at most 2.
    for n, s, expected in [(3, 1, 6), (3, 2, 8)]:
        g = build_graph(n, s)
        result = exact_radio_number(g)
        assert result.rn == expected and result.proven_optimal
        assert verify(g, result.witness).valid


@pytest.mark.parametrize("n,s", [(n, s) for n in (3, 4) for s in (1, 2, 3)])
def test_exact_matches_brute_force_over_all_orders(n, s):
    result = exact_radio_number(build_graph(n, s))
    assert result.proven_optimal
    assert result.rn == brute_force_radio_number(all_pairs_distances(n, s))


def test_search_is_deterministic():
    g = build_graph(5, 2)
    a = exact_radio_number(g)
    b = exact_radio_number(g)
    assert (a.rn, a.nodes_explored) == (b.rn, b.nodes_explored)


def test_zero_budget_returns_constructive_incumbent():
    g = build_graph(10, 1)
    result = exact_radio_number(g, time_budget=0.0)
    assert not result.proven_optimal
    assert result.rn == construct_labeling(10, 1).span
    assert verify(g, result.witness).valid


def test_root_work_holds_less_than_an_n_by_n_array():
    g = build_graph.__wrapped__(2000, 2)
    tracemalloc.start()
    try:
        result = exact_radio_number(g, time_budget=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.rn == construct_labeling(2000, 2).span
    assert peak < 2000 * 2000 * 4  # one n x n int32 array: 16 MB


GREEDY_SEEDED = {
    "Z-3-1": (lambda: build_graph(3, 1), 10),
    "Z-3-2": (lambda: build_graph(3, 2), 11),
    "GP-6-2": (lambda: graph_of(bicirculant_distances(6, 2, (0,)), 1), 34),
    "Z-4-4": (lambda: graph_of(all_pairs_distances(4, 4), 4), 15),
}


@pytest.mark.parametrize("name", GREEDY_SEEDED)
def test_zero_budget_returns_the_greedy_incumbent(name):
    # Z(3,1) and Z(3,2) have no construction, Z(6,1)'s is no radio labeling
    # of GP(6,2), and Z(4,4), built from its definition, has s outside the
    # constructions' 1..3, so the index-order greedy seeds the search
    graph, span = GREEDY_SEEDED[name]
    g = graph()
    result = exact_radio_number(g, time_budget=0.0)
    assert not result.proven_optimal and result.nodes_explored == 1
    assert result.rn == span == greedy_span_for_order(g, np.arange(2 * g.n))[0]
    assert verify(g, result.witness).valid


@pytest.mark.parametrize("name", [*GREEDY_SEEDED, "Z-4-3"])
def test_the_search_builds_no_vertex_objects(monkeypatch, name):
    # the greedy seed and the search work on vertex indices alone; Z(4,3)
    # is seeded from its special labeling
    g = build_graph(4, 3) if name == "Z-4-3" else GREEDY_SEEDED[name][0]()

    def refuse(cls, *args):
        raise AssertionError("Vertex built")

    monkeypatch.setattr(Vertex, "__new__", refuse)
    with pytest.raises(AssertionError, match="Vertex built"):
        Vertex(1, 1)
    result = exact_radio_number(g)
    assert result.proven_optimal and verify(g, result.witness).valid


@pytest.mark.parametrize("n,s", [(4, 1), (5, 2), (6, 3), (7, 1)])
def test_prisms_are_vertex_transitive(n, s):
    assert _swap_shift(build_graph(n, s)) is not None


def test_transitivity_matches_the_orbit_oracle_on_supported_graphs():
    for n in range(3, 13):
        for s in range(1, min(n, 3) + 1):
            expected = swap_orbit_is_everything(all_pairs_distances(n, s))
            assert (_swap_shift(build_graph(n, s)) is not None) == expected, (n, s)


# (n, ring step of cycle 2, cross offsets, whether rotation and swap reach every vertex)
OTHER_BICIRCULANTS = [
    # generalized Petersen graphs GP(n, k): no swap keeps the inner ring step
    (5, 2, (0,), False), (7, 2, (0,), False), (8, 3, (0,), False), (13, 5, (0,), False),
    # rings with equal steps, so rows[0, 0] == rows[1, 1]; a swap exists iff
    # the cross offsets are a reflection of themselves
    (10, 1, (0, 1, 3), False), (12, 1, (0, 1, 5), False),
    (10, 1, (0, 2), True), (12, 1, (0, 3), True),
    # Z(n, s) for s >= 4, which build_graph does not cover
    (15, 1, (-1, 0, 1, 2), True), (14, 1, (-2, -1, 0, 1, 2), True),
]


@pytest.mark.parametrize("n,step,offsets,expected", OTHER_BICIRCULANTS)
def test_transitivity_matches_the_orbit_oracle_on_other_bicirculants(n, step, offsets, expected):
    dist = bicirculant_distances(n, step, offsets)
    assert swap_orbit_is_everything(dist) == expected
    assert (_swap_shift(graph_of(dist, 1)) is not None) == expected


@pytest.mark.parametrize("n,s", [(n, s) for n in range(3, 8) for s in (1, 2, 3) if s <= n])
def test_search_matches_the_recursive_oracle(n, s):
    g, result = _solve(n, s)
    rn, oracle_nodes = recursive_exact_search(all_pairs_distances(n, s), s)
    assert result.proven_optimal and result.rn == rn
    assert result.nodes_explored <= oracle_nodes
    assert verify(g, result.witness).valid


def _reflection_maps(dist):
    """For each k, the map (1, p) -> (1, -p), (2, p) -> (2, k - p) on indices,
    and whether it carries every edge of ``dist`` onto an edge."""
    n = len(dist) // 2
    a, b = np.nonzero(dist == 1)
    p = np.arange(n)
    for k in range(n):
        r = np.concatenate([(-p) % n, n + (k - p) % n])
        yield r, bool((dist[r[a], r[b]] == 1).all())


def _check_reflection(n, offsets):
    dist = bicirculant_distances(n, 1, offsets)
    r = _reflection(graph_of(dist, 1))
    preserving = [m for m, ok in _reflection_maps(dist) if ok]
    assert (r is None) == (not preserving), (n, offsets)
    if r is not None:
        assert r[0] == 0 and sorted(r) == list(range(2 * n))
        assert np.array_equal(r, preserving[0]), (n, offsets)  # the least k that works
    return r


@pytest.mark.parametrize("s", range(1, 9))
def test_prism_reflection_matches_the_edge_by_edge_oracle(s):
    # Z(n, s) for s >= 4 too, built from its definition
    for n in range(max(3, s), 21):
        assert _check_reflection(n, range(-((s - 1) // 2), s // 2 + 1)) is not None


def test_reflection_is_none_when_no_reflection_preserves_the_edges():
    assert _check_reflection(7, (0, 1, 3)) is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=6), st.integers(1, 3), st.data())
def test_least_roll_is_the_least_of_every_shift(block, reps, data):
    # b repeats a block, so several shifts may carry it onto a rotation of
    # itself; a rearrangement of b's entries is mostly no rotation of it
    b = np.tile(block, reps)
    a = np.array(data.draw(st.one_of(
        st.integers(0, len(b) - 1).map(lambda t: np.roll(b, t).tolist()),
        st.permutations(b.tolist()))))
    least = next((t for t in range(len(b)) if np.array_equal(a, np.roll(b, t))), None)
    assert _least_roll(a, b) == least


def test_root_symmetries_compare_only_the_aligned_shifts(monkeypatch):
    # the cross row of Z(n, s) holds s ones, so each rotation search has s
    # candidates; for s = 2 the swap's shift is n - 1, which a search over
    # every shift reaches after about n comparisons
    g, s = build_graph(20_000, 2), 2
    array_equal, compared = np.array_equal, []

    def counting(a, b):
        compared.append(1)
        return array_equal(a, b)

    monkeypatch.setattr(np, "array_equal", counting)
    assert _swap_shift(g) is not None and (refl := _reflection(g)) is not None
    assert len(compared) <= 1 + 2 * s
    compared.clear()
    assert _twin_shift(g, refl) is None
    assert len(compared) <= s  # at most one per neighbour of (1, 1) on cycle 2


def test_greedy_rejects_non_permutation():
    g = build_graph(4, 1)
    for order in [
        [0, 1, 2, 3, 4, 5, 6, 6],  # a repeated index
        [-1, 1, 2, 3, 4, 5, 6, 7],
        [0, 1, 2, 3, 4, 5, 6, 8],  # 2n
        list(range(7)),  # short
        np.arange(8.0),  # float, though integral
        np.arange(8) % 2 == 1,  # bool
        [(c, p) for c in (1, 2) for p in (1, 2, 3, 4)],  # the (cycle, position) pairs
        [(1, 2, 3)] * 8,  # raised TypeError when orders were Vertex tuples
        [(1, 1), 2, 3, 4, 5, 6, 7, 8],  # ragged: NumPy makes no array of them
        [[0, 1], [2, 3, 4], 5, 6, 7],
    ]:
        with pytest.raises(ValueError, match="not a permutation"):
            greedy_span_for_order(g, order)


def test_greedy_takes_any_integer_dtype():
    g = build_graph(5, 2)
    order = np.random.default_rng(7).permutation(10)
    span, labels = greedy_span_for_order(g, order)
    for dtype in (np.int8, np.uint8, np.int32, np.uint64):
        assert greedy_span_for_order(g, order.astype(dtype)) == (span, labels)
    assert greedy_span_for_order(g, order.tolist()) == (span, labels)


def test_a_construction_that_fails_on_the_graph_does_not_seed_the_search():
    # a 6-cycle whose spokes lead to two triangles: the construction of
    # Z(6, 1) is no radio labeling of this graph, so it cannot seed the search
    g = graph_of(bicirculant_distances(6, 2, (0,)), 1)
    result = exact_radio_number(g)
    assert verify(g, result.witness).valid
    assert result.witness.span == result.rn == 23 and result.proven_optimal


def test_greedy_labels_are_monotone_and_start_at_one():
    g = build_graph(5, 3)
    span, labels = greedy_span_for_order(g, np.arange(10))
    assert labels[0] == 1
    assert all(b > a for a, b in zip(labels, labels[1:]))
    assert span == labels[-1]


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(6)))
def test_greedy_never_beats_rn_on_z33(order):
    g = build_graph(3, 3)
    span, _ = greedy_span_for_order(g, order)
    assert span == 6  # complete graph: every order forces exactly 1..6


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(8)))
def test_greedy_never_beats_rn_on_z41(order):
    g = build_graph(4, 1)
    span, _ = greedy_span_for_order(g, order)
    assert span >= 11


@pytest.mark.parametrize("n,s,untabled_nodes", [(5, 3, 80), (6, 2, 18119)])
def test_search_without_table_explores_the_untabled_tree(monkeypatch, n, s, untabled_nodes):
    # with no room for entries the search is the one before the table
    monkeypatch.setattr(exact, "_TABLE_BYTES", 0)
    _, result = _solve(n, s)
    assert result.proven_optimal and result.rn == radio_number(n, s)[0]
    assert result.nodes_explored == untabled_nodes


@pytest.mark.parametrize("n,s", [(5, 1), (5, 3), (6, 1), (6, 2), (6, 3), (7, 2)])
def test_a_tiny_table_keeps_the_answer(monkeypatch, n, s):
    _, full = _solve(n, s)
    monkeypatch.setattr(exact, "_TABLE_BYTES", 2000)
    g, capped = _solve(n, s)
    assert (capped.rn, capped.proven_optimal) == (full.rn, full.proven_optimal) == (
        radio_number(n, s)[0], True)
    assert full.nodes_explored <= capped.nodes_explored
    assert verify(g, capped.witness).valid


def test_a_full_table_is_cleared_not_frozen(monkeypatch):
    # a table that stops taking entries at this cap explores 6,768 nodes and
    # one that is cleared 3,730; uncapped, the search explores 177
    monkeypatch.setattr(exact, "_TABLE_BYTES", 1 << 10)
    g, result = _solve(7, 2)
    assert result.proven_optimal and result.rn == 26
    assert result.nodes_explored < 5_000
    assert verify(g, result.witness).valid


# nodes explored from the greedy seed, with the construction withheld
LOOSE_SEED_NODES = {(8, 2): 641, (9, 1): 10_074, (7, 3): 491}


def _no_construction(n, s):
    return CaseId.UNSUPPORTED


@pytest.mark.parametrize("n,s", [(8, 2), (9, 1), (7, 3)])
def test_table_search_from_a_loose_seed_finds_the_optimum(monkeypatch, n, s):
    # without the construction the greedy seed (61, 85 and 40) is a loose
    # incumbent that leaves many transposed frames to tell apart by their
    # labels; skipping a frame one label below its twin loses Z(9,1)
    monkeypatch.setattr(exact, "case_select", _no_construction)
    rn = radio_number(n, s)[0]
    g, result = _solve(n, s)
    assert result.rn == rn and result.proven_optimal
    assert result.nodes_explored <= LOOSE_SEED_NODES[n, s]
    assert verify(g, result.witness).valid


def test_the_table_cap_counts_entries_held_not_pushes(monkeypatch):
    # from the loose seed, Z(9,1) holds 4,988 distinct 18-byte keys but
    # pushes some of them again with a lower label; a cap charged per push
    # would clear the table at room for 5,000 and explore 12,222 nodes
    monkeypatch.setattr(exact, "case_select", _no_construction)
    _, full = _solve(9, 1)
    monkeypatch.setattr(exact, "_TABLE_BYTES", 5_000 * (18 + exact._TABLE_ENTRY_BYTES))
    _, capped = _solve(9, 1)
    assert capped.proven_optimal and capped.rn == full.rn == 34
    assert capped.nodes_explored == full.nodes_explored


def _key_symmetries(g, dist):
    """The swap shift and reflection that exact verifies on g, and every
    product of those automorphisms and the rotation as an index map, each
    generator checked to keep every distance of the dense matrix."""
    n = g.n
    p = np.arange(n)
    maps = [np.r_[(p + 1) % n, n + (p + 1) % n]]
    swap = _swap_shift(g)
    refl = None if swap is None else _reflection(g)
    if swap is not None:  # (1, p) -> (2, p), (2, p) -> (1, p + swap)
        maps.append(np.r_[n + p, (p + swap) % n])
    if refl is not None:
        maps.append(np.array(refl))
    for m in maps:
        assert (dist[np.ix_(m, m)] == dist).all()
    group = {tuple(range(2 * n))}
    while True:
        grown = group | {tuple(m[list(e)]) for m in maps for e in group}
        if grown == group:
            return swap, refl, [np.array(e) for e in sorted(group)]
        group = grown


def _check_frame_key(g, dist, data, rotations_only=False):
    # key(psi . state, psi(v)) == key(state, v) for psi in the group, and
    # equal keys only for states that some psi in the group carries over
    n, diam = g.n, g.diameter
    swap, refl, group = _key_symmetries(g, dist)

    def key(state, v):
        return _frame_key(array(_key_typecode(diam), state), v, n, swap, refl)

    state = np.array(data.draw(st.lists(st.integers(0, diam), min_size=2 * n, max_size=2 * n)))
    v = data.draw(st.integers(0, 2 * n - 1))
    state[v] = 0  # the frame's own vertex is placed
    p = np.arange(n)
    rotations = [np.r_[(p + t) % n, n + (p + t) % n] for t in range(n)]
    psi = data.draw(st.sampled_from(rotations if rotations_only else group))
    image = np.empty_like(state)
    image[psi] = state
    w = int(psi[v])
    assert key(image.tolist(), w) == key(state.tolist(), v)
    # the image with two labels swapped: the same multiset, mostly no image
    others = [u for u in range(2 * n) if u != w]
    a, b = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
    image[[a, b]] = image[[b, a]]
    if key(image.tolist(), w) == key(state.tolist(), v):
        assert any(e[v] == w and (image[e] == state).all() for e in group)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(n, 3)))),
       st.data())
def test_frame_key_is_invariant_under_the_verified_symmetries(ns, data):
    n, s = ns
    _check_frame_key(build_graph(n, s), all_pairs_distances(n, s), data)


@settings(max_examples=60, deadline=None)
@given(st.data())
@pytest.mark.parametrize("n,step,offsets,expected", OTHER_BICIRCULANTS)
def test_frame_key_is_invariant_under_rotation_on_other_bicirculants(
        n, step, offsets, expected, data):
    dist = bicirculant_distances(n, step, offsets)
    _check_frame_key(graph_of(dist, 1), dist, data, rotations_only=True)


def test_frame_key_is_exact_past_one_byte():
    g = build_graph(600, 3)  # 2n = 1200 vertices, diameter 300
    n, diam = g.n, g.diameter
    assert diam == 300 and _key_typecode(255) == "B" and _key_typecode(diam) == "H"
    assert _key_typecode(1 << 16) == "Q"
    swap, refl = _swap_shift(g), _reflection(g)
    state = array("H", [0]) * (2 * n)
    state[1], state[n + 300], state[2 * n - 1] = 1, diam, 256
    key = _frame_key(state, 0, n, swap, refl)
    # no automorphism relates states whose labels differ as multisets: one
    # label 256 higher or lower, or one more or one fewer vertex placed
    for u, x in [(1, 257), (n + 300, diam - 256), (2 * n - 1, 0), (5, 256)]:
        other = state[:]
        other[u] = x
        assert _frame_key(other, 0, n, swap, refl) != key


@pytest.mark.parametrize("n,s", [(508, 1), (509, 2), (510, 3)])
def test_search_runs_at_the_widest_one_byte_diameter(n, s):
    # diameter 255 is the largest label a one-byte key holds; the child's own
    # vertex, whose row entry is diam + 1, must stay out of the key
    g = build_graph(n, s)
    assert g.diameter == 255 and _key_typecode(g.diameter) == "B"
    result = exact_radio_number(g, time_budget=0.05)
    assert result.rn == result.witness.span
    assert verify(g, result.witness).valid


# rn and nodes explored of generalized Petersen graphs GP(n, k), which only
# rotation maps onto themselves among the maps exact verifies: the search
# runs the unpinned root and the rotation-only key, which no other count pins
GP_RN = {(5, 2): (10, 2666), (7, 2): (14, 670), (8, 3): (26, 63_342), (10, 3): (38, 3640)}


@pytest.mark.parametrize("n,k", sorted(GP_RN))
def test_generalized_petersen_graphs_are_proven(n, k):
    rn, nodes = GP_RN[n, k]
    g = graph_of(bicirculant_distances(n, k, (0,)), 1)
    result = exact_radio_number(g)
    assert result.proven_optimal and result.rn == rn
    assert result.nodes_explored <= nodes
    assert verify(g, result.witness).valid and result.witness.span == result.rn


def test_generalized_petersen_search_matches_the_recursive_oracle():
    # GP(5,2), GP(7,3) and the 6-cycle whose spokes lead to two triangles,
    # GP(6,2), as (n, k, rn): none has a verified swap
    for n, k, expected in [(5, 2, 10), (7, 3, 14), (6, 2, 23)]:
        dist = bicirculant_distances(n, k, (0,))
        g = graph_of(dist, 1)
        assert _swap_shift(g) is None
        result = exact_radio_number(g)
        rn, oracle_nodes = recursive_exact_search(dist, 1)
        assert result.proven_optimal and result.rn == rn == expected, (n, k)
        assert result.nodes_explored <= oracle_nodes, (n, k)


# nodes explored proving rn(C_2m), by m
EVEN_CYCLE_NODES = {3: 6, 4: 17, 5: 10, 6: 40, 7: 14, 8: 103, 9: 18, 10: 179, 11: 22, 12: 826}


@pytest.mark.parametrize("m", sorted(EVEN_CYCLE_NODES))
def test_even_cycles_match_the_published_radio_number(m):
    # a closed form from outside this repository: the computed values match
    # Liu and Zhu's rn(C_n) for even n = 2m (SIAM J. Discrete Math. 19, 2005),
    # (n - 2)/2 * (floor(n/4) + 2) + 1 with labels from 0, so one more from 1
    dist = interleaved_circulant(m, [1])
    x = np.r_[0:2 * m:2, 1:2 * m:2]  # the cycle vertex at each index
    gap = abs(x[:, None] - x)
    assert (dist == np.minimum(gap, 2 * m - gap)).all()
    g = graph_of(dist, 1)
    result = exact_radio_number(g)
    assert result.proven_optimal and result.rn == (m - 1) * (m // 2 + 2) + 2
    assert result.nodes_explored <= EVEN_CYCLE_NODES[m]
    report = verify(g, result.witness)
    assert report.valid and report.span == result.rn


@pytest.mark.parametrize("n,s", [(8, 3), (10, 2), (11, 2)])
def test_table_brings_larger_instances_into_reach(n, s):
    # untabled, Z(10,2) takes 3.79 M nodes (5.4 s) and Z(8,3) 8,148
    g, result = _solve(n, s)
    assert result.proven_optimal and result.rn == radio_number(n, s)[0]
    assert verify(g, result.witness).valid


# rn and nodes explored on the instances of the prove benchmark workload: a
# change that adds work to the search raises one of these counts
PROVE_RN_NODES = {
    (3, 1): (6, 6), (3, 2): (8, 8), (3, 3): (6, 21), (4, 1): (11, 14), (4, 2): (8, 40),
    (4, 3): (9, 23), (5, 1): (14, 118), (5, 2): (14, 29), (5, 3): (10, 46),
    (6, 1): (22, 85), (6, 2): (17, 876), (6, 3): (17, 33), (7, 1): (20, 25),
    (7, 2): (26, 177), (8, 1): (30, 141), (8, 2): (23, 168), (9, 1): (34, 4124),
    (9, 2): (34, 230),
}


@pytest.mark.parametrize("n,s", sorted(PROVE_RN_NODES))
def test_search_effort_is_pinned(n, s):
    rn, nodes = PROVE_RN_NODES[n, s]
    _, result = _solve(n, s)
    assert result.proven_optimal and result.rn == rn
    assert result.nodes_explored <= nodes


# nodes explored proving rn(Z(n, 3)): the twins (1, p), (2, p) cut each tree
# 5 to 100 times; Z(19,3), which takes 602,726 nodes, is left out
Z3_NODES = {7: 418, 8: 147, 9: 18, 10: 81, 11: 4484, 12: 629, 13: 26, 14: 244,
            15: 53_601, 16: 3297, 17: 34, 18: 692, 20: 17_672}


@pytest.mark.parametrize("n", sorted(Z3_NODES))
def test_twins_bring_larger_z3_into_reach(n):
    g, result = _solve(n, 3)
    assert result.proven_optimal and result.rn == radio_number(n, 3)[0]
    assert result.nodes_explored <= Z3_NODES[n]
    report = verify(g, result.witness)
    assert report.valid and report.span == result.rn


def test_twins_on_the_rows_match_the_closed_neighbourhood_oracle():
    for n in range(3, 13):
        for s in range(1, min(n, 3) + 1):
            g, pairs = build_graph(n, s), true_twin_pairs(all_pairs_distances(n, s))
            cross = sorted(j - n for i, j in pairs if i == 0 and j >= n)  # (2, 1 + t)
            refl = _reflection(g)
            kept = [t for t in cross if refl[n + t] == n + t]
            assert _twin_shift(g, None) == (cross[0] if cross else None), (n, s)
            t = _twin_shift(g, refl)
            assert t == (kept[0] if kept else None), (n, s)
            if t is not None:  # rotation makes (1, p), (2, p + t) twins for every p
                assert {(p, n + (p + t) % n) for p in range(n)} <= pairs
            assert bool(kept) == (s == 3), (n, s)  # Z(n, 3) is C_n[K_2]


def test_twins_need_a_reflection_that_maps_pairs_to_pairs():
    # with the map (1, p) -> (1, -p), (2, p) -> (2, k - p) for k = 1, which
    # fixes (2, 1 + t) only where 2t = 1 mod n: every t of K_6 = Z(3,3) is a
    # twin shift and t = 2 is kept; Z(5,3) has only t = 0, which is dropped
    for n, expected in [(3, 2), (5, None)]:
        p = np.arange(n)
        refl = np.r_[(-p) % n, n + (1 - p) % n].tolist()
        assert _twin_shift(build_graph(n, 3), refl) == expected


def test_no_twins_where_the_oracle_finds_none():
    # the rule is inert on the generalized Petersen graphs, the other
    # bicirculants and the even cycles: their search trees are unchanged
    for dist in ([bicirculant_distances(n, k, (0,)) for n, k in [*GP_RN, (7, 3), (6, 2)]]
                 + [bicirculant_distances(n, step, offsets)
                    for n, step, offsets, _ in OTHER_BICIRCULANTS]
                 + [interleaved_circulant(m, [1]) for m in EVEN_CYCLE_NODES]):
        assert true_twin_pairs(dist) == set()
        assert _twin_shift(graph_of(dist, 1), None) is None


# the prove instances; the loose-seed trio, searched from the greedy seed; and
# GP(5,2), GP(7,3) and GP(6,2), the 6-cycle whose spokes lead to two
# triangles, whose roots are not pinned
WITNESS_ORDER_GRAPHS = ([("Z", n, s) for n, s in sorted(PROVE_RN_NODES)]
                        + [("loose", n, s) for n, s in sorted(LOOSE_SEED_NODES)]
                        + [("GP", n, k) for n, k in [(5, 2), (7, 3), (6, 2)]])


@pytest.mark.parametrize("kind,n,s", WITNESS_ORDER_GRAPHS)
def test_greedy_is_optimal_on_witness_order(monkeypatch, kind, n, s):
    # the witness is read off the search stack: sorted by label, its order
    # forces exactly its own labels
    if kind == "loose":
        monkeypatch.setattr(exact, "case_select", _no_construction)
    g = graph_of(bicirculant_distances(n, s, (0,)), 1) if kind == "GP" else build_graph(n, s)
    result = exact_radio_number(g)
    labels = result.witness.labels
    order = np.argsort(labels)
    span, forced = greedy_span_for_order(g, order)
    assert forced == labels[order].tolist()
    assert span == result.rn


@pytest.mark.parametrize("loose,n,s", [(False, 600, 3), (False, 5, 1), (True, 9, 1)],
                         ids=["Z-600-3", "Z-5-1", "greedy-seeded-Z-9-1"])
def test_budget_is_read_at_every_node(monkeypatch, loose, n, s):
    # a clock that advances one second per read: a 3 s budget stops at the
    # fourth node, whatever n and the seed, after the deadline's read and four more
    if loose:
        monkeypatch.setattr(exact, "case_select", _no_construction)
    ticks = iter(range(10**6))
    monkeypatch.setattr(exact.time, "monotonic", lambda: next(ticks))
    _, result = _solve(n, s, time_budget=3)
    assert not result.proven_optimal
    assert result.nodes_explored == 4
    assert next(ticks) == 5


def test_a_budgeted_deep_search_is_pinned(monkeypatch):
    # a clock that advances one second per read, so the search stops at its
    # 2,001st node.  From the greedy seed the incumbent falls as the search
    # goes, so its span names the search tree: a change to the tree changes it
    monkeypatch.setattr(exact, "case_select", _no_construction)
    ticks = iter(range(10**6))
    monkeypatch.setattr(exact.time, "monotonic", lambda: next(ticks))
    g, result = _solve(200, 1, time_budget=2000)
    assert not result.proven_optimal
    assert (result.nodes_explored, result.rn) == (2001, 10_411)
    report = verify(g, result.witness)
    assert report.valid and report.span == result.rn


def test_zero_budget_stops_at_the_first_node():
    _, result = _solve(10, 1, time_budget=0.0)
    assert result.nodes_explored == 1 and not result.proven_optimal


@pytest.mark.parametrize("budget,message", [(float("nan"), "must be finite"),
                                            (float("inf"), "must be finite"),
                                            (-1.0, "must be nonnegative")])
def test_a_budget_no_clock_can_pass_is_rejected(budget, message):
    # a NaN deadline compares False with every clock reading, so it never expires
    with pytest.raises(ValueError, match=message):
        _solve(4, 1, time_budget=budget)
