"""Exact radio numbers for small prisms by branch-and-bound over vertex orders.

Any radio labeling is determined by the order in which it sorts the vertices:
given the order, the cheapest labels are forced greedily (label 1 for the
first vertex, then for each next vertex the smallest integer exceeding the
previous label that satisfies the radio condition against everything already
placed).  ``greedy_span_for_order`` computes that forced span for one order
of vertex indices, the currency of ``label_order`` and ``Labeling.labels``;
``exact_radio_number`` searches the tree of all orders depth-first, keeping
the best completed labeling as incumbent and pruning a branch as soon as its
forced span plus an admissible bound on the remaining vertices reaches the
incumbent.

The remaining-vertex bound uses only the graph: labels two apart in sorted
order differ by at least ``bounds.pair_gap(g)``, the least label range of
three consecutive vertices, computed from g's metric and not from the phi
table the search certifies, so m more labels cost at least
max(m, floor(m / 2) * pair_gap + m mod 2) beyond the current maximum.
Pruning is tie-preserving (only branches strictly worse than the incumbent
are cut), so the search always recovers an optimal witness.  When
automorphisms verified on g's two metric rows (rotation and a cycle swap)
show g is vertex-transitive (every supported Z(n, s) is), the order starts
at (1, 1): any order maps onto one that does, with equal span.  The rows
also verify a reflection r that fixes (1, 1) (see ``_reflection``; every
Z(n, s) has one).  While every placed vertex is a fixed point of r, the
order and its image under r share the placed prefix and the span, so of
each pair of children v, r(v) only the one with the smaller index is
expanded.

The rows may also verify true twins (see ``_twin_shift``): (1, p) and
(2, p + t) for every p, adjacent and equally far from every other vertex,
as (1, p) and (2, p) are in Z(n, 3), the lexicographic product C_n[K_2].
Swapping two twins is an automorphism that fixes every other vertex, so
transposing two unplaced twins in an order leaves every forced label
unchanged, and of two unplaced twins only the lower index (1, p) is a
child; (1, 1), the first vertex, is the lower of its pair.  With r
verified, the rule is applied only where r fixes (2, 1 + t), which is
exactly where r maps each twin pair onto a twin pair.  Then, as r keeps
each cycle, it keeps each lower twin ahead of its partner: the image of an
order that obeys the twin rule obeys it too, so the two rules together
still keep one order of each mirror pair.

Different placed prefixes often leave the same subproblem up to an
automorphism: unplaced vertices whose forced labels, shifted by a constant,
match those of another prefix once the graph is rotated, its cycles swapped
or mirrored.  A transposition table keys each child frame, before it is
pushed, by its state seen from its own vertex v (``_frame_key``): the forced
labels minus the child's label c by vertex index, 0 for a placed vertex
(every unplaced one is at least 1), carried by the verified automorphism
that takes v to (1, 1), or by rotation alone to (2, 1) when no swap is
verified; of that and its image under the verified reflection, the lesser.
So equal keys mean that one state is the image of the other under an
automorphism verified on the rows, and the table keeps the least c pushed
with each key.  Everything below a frame depends only on its state, its
label and the incumbent bound, which never rises, and an automorphism maps
the orders below one state onto those below its image with the same
labels.  So a child whose key was pushed before with a label c' <= c is
skipped: its completions are the images of the earlier node's, shifted up
by c - c' >= 0, and the earlier visit already explored every completion not
strictly worse than the bound of its time.  A visit restricted by the
mirror pairs and the twins still covers its node's whole subtree, since each
skipped child mirrors an explored sibling or is the twin of one, which has
the same forced labels below it.  No key can match while its first visit is
still open: only descendants are visited meanwhile, and they have fewer
unplaced vertices, which no automorphism changes.  Once its entries, each
charged its key and ``_TABLE_ENTRY_BYTES``, pass ``_TABLE_BYTES``, the table
is cleared, which only skips fewer children: a later entry still stands for
a finished visit, or for an open one, which cannot match.  A skipped child still counts
in nodes_explored, which counts the children that pass the label cut.

The search is single-threaded and deterministic: children are expanded in
ascending (forced label, vertex index) order, so nodes_explored is
reproducible for a given graph.  It runs on an explicit stack of frames, one
per depth, each holding the vertex it placed and its label, its children
already cut and sorted, its unplaced vertices and its state, the one copy of
their forced labels, from which its table key was cut, so a search 2n deep
needs no recursion, and a completed order is read off the stack.  The distances
come from g's two metric rows, rotated per placed vertex, so the search holds
O(n) of the metric.  The time budget starts after the root work (``pair_gap``,
the seed and its ``verify``, and the symmetry checks), and the clock is read
at every counted node.  The incumbent is seeded from ``construct_labeling``
when that covers (n, s) and its labeling verifies on g, which need not be
Z(n, s), else from the greedy labeling of the index order 0..2n - 1, so a
witness always exists even when the time budget runs out.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import pair_gap
from .graphs import PrismGraph, _hops
from .labeling import CaseId, Labeling, case_select, construct_labeling
from .verification import verify

__all__ = ["ExactResult", "greedy_span_for_order", "exact_radio_number"]

# memory cap of the transposition table: it is cleared once the entries it
# holds, each charged its key and _TABLE_ENTRY_BYTES, pass the cap.
# tracemalloc measured about 62 bytes of bytes-object header and dict slot
# beyond the key at 20,000 entries; the rest covers a label's int above 256
_TABLE_BYTES = 64 << 20
_TABLE_ENTRY_BYTES = 96


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the search; witness always verifies with span == rn.

    When proven_optimal is False (time budget exhausted), rn is only the best
    upper bound found.
    """

    rn: int
    witness: Labeling
    nodes_explored: int
    proven_optimal: bool


def greedy_span_for_order(
    g: PrismGraph, order: Sequence[int] | np.ndarray
) -> tuple[int, list[int]]:
    """Minimal span achievable with the given sorted order, plus its labels.

    order holds the vertex indices (c - 1) * n + (p - 1) of (c, p), a
    permutation of 0..2n - 1 as a 1-D integer sequence or array, as
    ``label_order`` returns it.  Labels are forced: the first vertex gets 1
    and each later one the smallest integer above its predecessor
    satisfying the radio condition against all earlier vertices.  This
    greedy choice is optimal for the fixed order because every constraint
    is a lower bound on the next label.
    """
    try:
        index = np.asarray(order)
    except ValueError:  # a ragged order makes no array
        index = np.empty(0)  # and is refused below, as a float array
    if index.dtype.kind not in "iu" or not np.array_equal(np.sort(index), np.arange(2 * g.n)):
        raise ValueError("not a permutation of the vertex set")
    index = index.astype(np.int64)  # unsigned offsets would wrap in _hops
    required = g.diameter + 1
    labels = np.ones(len(index), dtype=np.int64)
    for t in range(1, len(index)):
        # the radio condition against each earlier vertex
        need = labels[:t] + required - _hops(g, index[t], index[:t])
        labels[t] = max(labels[t - 1] + 1, need.max())
    return int(labels[-1]), labels.tolist()


def _first_roll(a: np.ndarray, b: np.ndarray, shifts) -> int | None:
    """The least t of shifts with a == np.roll(b, t, axis=-1), or None.

    Each shift is one comparison of a with a window of b doubled along its
    last axis, np.roll(b, t, axis=-1) being doubled[..., n - t:2n - t].
    """
    n = a.shape[-1]
    doubled = np.concatenate((b, b), axis=-1)
    return next((t for t in sorted(shifts)
                 if np.array_equal(a, doubled[..., n - t:2 * n - t])), None)


def _least_roll(a: np.ndarray, b: np.ndarray) -> int | None:
    """The least t with a == np.roll(b, t), or None.  A t that works is
    (i - j) mod n for i = a.argmin() and some b[j] == a[i]: few, tried ascending."""
    i = int(a.argmin())
    return _first_roll(a, b, ((i - j) % len(a) for j in np.nonzero(b == a[i])[0].tolist()))


def _swap_shift(g: PrismGraph) -> int | None:
    """The shift u of a cycle swap verified on g's two metric rows, or None.

    The swap (1, p) -> (2, p), (2, p) -> (1, p + u) is an automorphism
    exactly when rows[0, 0] == rows[1, 1] and rows[1, 0] is rows[0, 1]
    rolled by u; this returns the least such u.  With rotation, which
    carries (1, 1) over cycle 1, a swap, which carries it to cycle 2, makes
    g vertex-transitive.
    """
    rows = g.rows
    if not np.array_equal(rows[0, 0], rows[1, 1]):
        return None
    return _least_roll(rows[1, 0], rows[0, 1])


def _reflection(g: PrismGraph) -> list[int] | None:
    """A reflection fixing (1, 1), verified on g's two metric rows, as an index map.

    With positions counted from 0, r maps (1, p) to (1, -p) and (2, p) to
    (2, k - p).  It preserves the distances within a cycle, whose rows are
    symmetric under negation, and across the cycles exactly when rows[0, 1]
    is its reversal rolled by k.  Returns r[i], the index of the image of
    vertex index i, for the least such k, or None.
    """
    n, x = g.n, np.arange(g.n)
    k = _least_roll(g.rows[0, 1], g.rows[0, 1][(-x) % n])
    return None if k is None else np.concatenate([(-x) % n, n + (k - x) % n]).tolist()


def _twin_shift(g: PrismGraph, refl: list[int] | None) -> int | None:
    """The least t such that (1, 1) and (2, 1 + t) are true twins and refl,
    if given, fixes (2, 1 + t), verified on g's two metric rows, or None.

    True twins are adjacent and equally far from every other vertex, so
    swapping them is an automorphism; with rotation, (1, p) and (2, p + t)
    are then twins for every p.  Raised to at least 1, which sets both pair
    entries to 1, their distances agree exactly when max(rows[0], 1) is
    max(rows[1], 1) rolled by t; only the t with rows[0, 1, t] == 1 are
    tried.  refl fixes (1, 1), so it maps every pair onto a pair exactly
    when it fixes (2, 1 + t): refl[n + t] == n + t.
    """
    n, rows = g.n, g.rows
    shifts = [t for t in np.nonzero(rows[0, 1] == 1)[0].tolist()
              if refl is None or refl[n + t] == n + t]
    return _first_roll(np.maximum(rows[0], 1), np.maximum(rows[1], 1), shifts)


def _key_typecode(diam: int) -> str:
    """The narrowest ``array`` typecode holding every relative label 0..diam."""
    return next(t for t in "BHQ" if diam < 1 << 8 * array(t).itemsize)


def _frame_key(state: array, v: int, n: int, swap: int | None,
               refl: list[int] | None) -> bytes:
    """The transposition key of a frame placed at vertex index v, whose state
    holds the forced labels minus its own label by vertex index, 0 where placed;
    entries past index 2n - 1 are left out.

    The key is the state seen from v, carried by the automorphism that takes
    v to (1, 1): when v is on cycle 2 and swap is not None, first the swap
    (1, p) -> (2, p), (2, p) -> (1, p + swap) of ``_swap_shift``, then the
    rotation by v's position.  With no swap, v on cycle 2 goes to (2, 1).
    With refl, the reflection of ``_reflection``, the key is the lesser,
    label by label, of the carried state and its image under refl, which
    fixes (1, 1).  Equal keys therefore mean states that are images of each
    other under an automorphism these generate.  On Z(n, s) the converse
    holds as well: only refl fixes (1, 1) in that group, so a state and its
    image, each seen from its own vertex, get equal keys.
    """
    cv, pv = divmod(v, n)
    h = n + pv
    if cv and swap is not None:
        t = (pv + swap) % n
        key = state[h:2 * n] + state[n:h] + state[t:n] + state[:t]
    else:
        key = state[pv:n] + state[:pv] + state[h:2 * n] + state[n:h]
    if refl is None:
        return key.tobytes()
    j = refl[n]  # refl's image of (2, 1): cycle 1 reverses about index 0, cycle 2 about j
    mirrored = key[:1] + key[n - 1:0:-1] + key[j:n - 1:-1] + key[:j:-1]
    return min(key, mirrored).tobytes()


def exact_radio_number(g: PrismGraph, time_budget: float | None = None) -> ExactResult:
    """Branch-and-bound search for the radio number of g.

    time_budget: wall-clock seconds, finite and nonnegative, counted from
    the end of the root work, before the search stops at the first node past
    it with its best incumbent (proven_optimal False).  Without one the
    search is deterministic.
    """
    if time_budget is not None:
        if not math.isfinite(time_budget):  # NaN would make a deadline no clock reaches
            raise ValueError(f"time budget must be finite, got {time_budget!r}")
        if time_budget < 0:
            raise ValueError("time budget must be nonnegative")
    n = g.n
    nv = 2 * n
    pair_step = max(0, pair_gap(g) - 2)
    # doubled[c][c'][n - p + k] = diam + 1 - d((c, p), (c', k)) with positions
    # counted from 0: how far the label of (c', k) must lie above that of (c, p)
    doubled = [[row * 2 for row in (g.diameter + 1 - g.rows[c]).tolist()] for c in (0, 1)]

    # the incumbent, labels by vertex index: the construction's labeling when
    # (n, s) has one and it verifies on g, which need not be Z(n, s), else
    # the greedy labeling of the index order
    if (g.s in (1, 2, 3) and n >= 3 and case_select(n, g.s) is not CaseId.UNSUPPORTED
            and (report := verify(g, seed := construct_labeling(n, g.s))).valid):
        best_span, best_labels = report.span, seed.labels.tolist()
    else:
        best_span, best_labels = greedy_span_for_order(g, np.arange(nv))

    swap = _swap_shift(g)
    pinned = swap is not None
    refl = _reflection(g) if pinned else None
    # lead[u]: the vertex that must be placed before u: (1, p) for its twin
    # (2, p + t), else the slot nv past the vertices, which every child state
    # holds at 0, as if placed
    lead = [nv] * nv
    if (t := _twin_shift(g, refl)) is not None:
        lead[n:] = [(q - t) % n for q in range(n)]
    # tails[m]: with m vertices unplaced, a child labeled c forces a span of at
    # least c + tails[m] + 1, since m - 1 more labels cost at least
    # max(m - 1, floor((m - 1) / 2) * pair_gap + (m - 1) mod 2)
    tails = [m - 2 + (m - 1) // 2 * pair_step for m in range(nv + 1)]

    # seen[key] = the least label c of a frame pushed with that key, where the
    # key is its forced labels minus c by vertex index, 0 where placed, seen
    # from its own vertex (``_frame_key``); room: the entries it may hold
    seen: dict[bytes, int] = {}
    typecode = _key_typecode(g.diameter)
    no_labels = array(typecode, [0]) * (nv + 1)
    room = _TABLE_BYTES // (nv * no_labels.itemsize + _TABLE_ENTRY_BYTES)

    # A frame is one node of the tree, labeled base: an iterator over its
    # children (label - base, vertex index), ascending and already cut against
    # best_span; its unplaced vertices, ascending; its state, their forced
    # labels minus base by vertex index, 0 where placed; base; whether every
    # placed vertex is a fixed point of refl; and its vertex, -1 at the root.
    root_kids = [(1, 0)] if pinned else [(1, v) for v in range(nv)]
    stack = [(iter(root_kids), list(range(nv)), array(typecode, [1]) * nv, 0,
              refl is not None, -1)]
    nodes = 0
    stopped = False
    deadline = None if time_budget is None else time.monotonic() + time_budget

    while stack and not stopped:
        kids, rest, state, base, sym, _ = stack[-1]
        m = len(rest)
        tail = tails[m]
        for r, v in kids:
            c = base + r
            if c + tail >= best_span:
                stack.pop()  # children are label-sorted: the rest are no better
                break
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                stopped = True
                break
            if m == 1:
                # order complete; the cut above guarantees c <= best_span
                best_span = c
                best_labels = [0] * nv
                best_labels[v] = c
                for _, _, _, cw, _, w in stack[1:]:
                    best_labels[w] = cw
                continue
            cv, pv = divmod(v, n)
            to_1, to_2 = doubled[cv]
            row = to_1[n - pv:nv - pv] + to_2[n - pv:nv - pv]  # by vertex index, >= 1
            child_rest = rest.copy()
            child_rest.remove(v)
            # each unplaced vertex's forced label minus c, which is positive
            child = no_labels[:]
            for u in child_rest:
                child[u] = o if (o := row[u]) > (x := state[u] - r) else x
            key = _frame_key(child, v, n, swap, refl)
            first = seen.get(key)
            if first is not None and first <= c:
                continue  # the completions below are those of the first, shifted up
            seen[key] = c
            if len(seen) > room:
                seen.clear()
            lim = best_span - tails[m - 1] - c
            # while every placed vertex is fixed by refl, an order and its
            # image under refl tie: keep only the child u <= refl[u] of each pair
            child_sym = sym and refl[v] == v
            cands = [u for u in child_rest if u <= refl[u]] if child_sym else child_rest
            # of two unplaced twins, only the lower is a child
            child_kids = [(x, u) for u in cands if (x := child[u]) < lim and not child[lead[u]]]
            child_kids.sort()
            stack.append((iter(child_kids), child_rest, child, c, child_sym, v))
            break
        else:
            stack.pop()

    witness = Labeling.from_labels(n, g.s, best_labels)
    return ExactResult(
        rn=best_span,
        witness=witness,
        nodes_explored=nodes,
        proven_optimal=not stopped,
    )
