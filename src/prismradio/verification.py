"""Independent audit of radio labelings.

``verify`` checks the radio condition d(u, v) + |c(u) - c(v)| >= diam + 1
for every unordered vertex pair and returns a report rather than a verdict
bit.  Duplicate labels need no special treatment: a pair with gap 0 always
violates the condition, so collisions surface as ordinary violations with
label_gap = 0.

The report keeps the violating pairs as one (k, 4) int64 array,
``VerificationReport.pairs``, whose columns are the lower vertex index, the
higher vertex index, the distance and the label gap, with rows in
lexicographic (lower, higher) order, which is (cycle, position) order of
the pair, so reports are stable.  Nothing builds an object per pair: the
CLI formats the rows a chunk at a time, and ``violations`` reads them as
``Violation`` tuples only when it is asked for.

Only a window of pairs needs a distance.  A pair whose label gap exceeds
diam satisfies the condition whatever its distance, so it is certified by
the gap alone (the consecutive-labels argument of Liu and Zhu, "Multilevel
distance labelings for paths and cycles", SIAM J. Discrete Math. 19
(2005)).  With the vertices sorted by label, the partners of each sorted
position within diam below it are one run of earlier positions, whose
length, the window width, one ``searchsorted`` gives for all positions at
once.  The pairs are formed ``_CHUNK`` at a time, each chunk cut by a
cumulative sum of the widths and formed by ``repeat`` by its widths; a
position whose own run is longer forms a chunk by itself, so the sweep holds
O(n) memory beyond the rows of the violating pairs, even when many labels
are equal.
Distances are read in sorted space from a flat copy of the graph's O(n)
rotation-invariant rows, doubled along the offset axis: the distance of a
pair is one entry of it, at the sum of a gather index of the lower vertex
and one of the higher, so no remainder is taken per pair.  Labels come
straight from ``Labeling.labels``, which is indexed like the graph's
vertices, so a construction with O(n) pairs in its window verifies in
O(n log n) time and O(n) memory; ``pairs_checked`` still counts all
nv(nv - 1)/2 pairs, because every pair is certified, by its distance or by
its gap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import PrismGraph, Vertex
from .labeling import Labeling

__all__ = ["Violation", "VerificationReport", "verify"]

_CHUNK = 8192  # window pairs formed at a time; bounds the sweep's temporaries


class Violation(NamedTuple):
    u: Vertex
    v: Vertex
    distance: int
    label_gap: int
    required: int


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of checking every pair of Z(n, s): valid iff no pair violates.

    ``pairs`` is a read-only (k, 4) int64 array with one row per violating
    pair: its lower and higher vertex index (``(c - 1) * n + p - 1`` for
    vertex (c, p)), its distance and its label gap, in (lower, higher)
    order.  Every pair needs distance + gap >= ``required``, which is
    diam + 1.
    """

    n: int
    required: int
    span: int
    pairs_checked: int
    pairs: np.ndarray

    @property
    def valid(self) -> bool:
        return not len(self.pairs)

    @functools.cached_property
    def violations(self) -> tuple[Violation, ...]:
        """The rows of ``pairs`` as ``Violation`` tuples, built when first read."""
        n, required = self.n, self.required
        return tuple(
            Violation(Vertex(lo // n + 1, lo % n + 1), Vertex(hi // n + 1, hi % n + 1),
                      d, gap, required)
            for lo, hi, d, gap in self.pairs.tolist()
        )


def verify(g: PrismGraph, labeling: Labeling) -> VerificationReport:
    """Check the radio condition on all pairs of g under the given labels.

    Raises ValueError when the labeling is for another Z(n, s) than g; a
    ``Labeling`` labels every vertex of its own graph by construction.
    """
    if (labeling.n, labeling.s) != (g.n, g.s):
        raise ValueError(f"labeling is for Z({labeling.n},{labeling.s}), not for Z({g.n},{g.s})")
    n, nv = g.n, 2 * g.n
    labels = labeling.labels
    required = g.diameter + 1
    # stable, not the default: construction labels come in long ascending runs, which it
    # sorts 3-5x faster (0.022 vs 0.073 ms at n = 2500, 10.6 vs 58 ms at n = 10^6)
    order = labels.argsort(kind="stable")
    sorted_labels = labels[order]
    # sorted position b pairs with the width[b] positions before it, whose labels lie
    # within diam below its own (looking down: labels + diam could pass 2**63 - 1);
    # ends[b] counts the window pairs before b
    width = sorted_labels.searchsorted(sorted_labels - g.diameter)
    np.subtract(np.arange(nv), width, out=width)
    ends = np.zeros(nv + 1, dtype=np.int64)
    np.add.accumulate(width, out=ends[1:])
    # d(c*n + p, c2*n + p2) = rows[c, c2, p2 - p + n] of the rows doubled along the offset
    # axis, laid out (c2, c, offset): the entry (3n*c + n - v) + (3n*c2 + v2) of their flat
    # copy for v = c*n + p and v2 = c2*n + p2, one index per side
    right = order // n * (3 * n)
    left = right + n - order
    right += order
    del order
    doubled = np.empty((2, 2, 2 * n), dtype=g.rows.dtype)
    doubled[..., :n] = doubled[..., n:] = g.rows.transpose(1, 0, 2)
    found = []  # per chunk: (lower index, higher index, distance, gap) rows of violations
    start = 0
    while start < nv:  # positions start .. stop - 1: at most _CHUNK pairs, or one position
        k0 = int(ends[start])
        stop = max(int(ends.searchsorted(k0 + _CHUNK, "right")) - 1, start + 1)
        runs = width[start:stop]
        # pair k of position b is (b - (ends[b + 1] - k), b)
        a = (np.arange(start, stop) - ends[start + 1:stop + 1]).repeat(runs)
        a += np.arange(k0, ends[stop])
        higher = right[start:stop].repeat(runs)
        d = doubled.ravel()[left[a] + higher]
        gap = sorted_labels[start:stop].repeat(runs) - sorted_labels[a]
        bad = d + gap < required
        if np.count_nonzero(bad):
            u, v = right[a[bad]], higher[bad]
            u, v = u - 3 * n * (u >= n), v - 3 * n * (v >= n)  # back to vertex indices
            found.append(np.column_stack((np.minimum(u, v), np.maximum(u, v), d[bad], gap[bad])))
        start = stop
    pairs = np.empty((0, 4), dtype=np.int64)
    if found:
        pairs = np.concatenate(found)
        del found  # before the sort's index: the rows are held twice at most
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        for j in range(4):  # a column at a time: the rows are held once, plus one column
            pairs[:, j] = pairs[order, j]
    pairs.flags.writeable = False
    return VerificationReport(n=n, required=required, span=int(sorted_labels[-1]),
                              pairs_checked=nv * (nv - 1) // 2, pairs=pairs)
