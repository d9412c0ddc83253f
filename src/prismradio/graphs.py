"""Generalized prism graphs with exact hop distances.

A generalized prism Z(n, s) is built from two disjoint n-cycles.  Vertices
are (cycle, position) pairs with cycle in {1, 2} and position in {1..n};
each cycle carries the usual ring edges, and vertex (1, i) is additionally
joined to (2, i + d) for the s consecutive offsets

    d in {-floor((s - 1) / 2), ..., 0, ..., floor(s / 2)}.

So s = 1 gives the ordinary prism ladder rungs, s = 2 adds one diagonal per
rung, and s = 3 adds diagonals on both sides.  Supported parameters are
plain ints n >= 3 and 1 <= s <= 3; every vertex then has degree 2 + s,
and the diameter is floor((n + 3 - s) / 2), which is asserted when a graph
is built.

A Vertex holds plain int coordinates already in range; lookups reject any
other (``PrismGraph.index``) rather than wrap or coerce them.

Distances are hop counts.  Shifting every position by the same amount maps
edges to edges, so d((c, i), (c', j)) depends only on c, c' and (j - i) mod
n, and the whole metric is two rows, one from (1, 1) and one from (2, 1).
For s <= 3 the rows have a closed form: a cross offset moves the position by
at most 1, so crossing over and back (2 hops) shifts it by at most 2, which
2 ring hops do as well, and some shortest path crosses between the cycles at
most once (see ``build_graph``).  ``PrismGraph.rows`` holds the rows as a
read-only (2, 2, n) array, so a graph costs O(n) memory and O(n) build time
in a fixed number of NumPy calls, and every layer of the library reads the
rows.  Inside the library a vertex is its index (c - 1) * n + (p - 1), and
``_hops`` gathers the distances between index arrays from the rows;
``Vertex`` tuples are built only where the API takes or returns them.  The
dense 2n x 2n matrix ``PrismGraph.dist`` is derived from them on
each access and not kept; no library code reads it.  Built graphs are
immutable and safe to share across threads.  ``build_graph`` memoizes the
last 128 instances in a typed cache keyed on (n, s), so a float or bool
argument meets the parameter check rather than the entry of an equal int;
``selftest.run_selftest`` sweeps more graphs than that and keeps a memo of
its own for the run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "Vertex",
    "PrismGraph",
    "build_graph",
]


class Vertex(NamedTuple):
    """A prism vertex, written (cycle, position) with both coordinates 1-based."""

    cycle: int
    position: int

    def __str__(self) -> str:
        return f"({self.cycle},{self.position})"


def _require_ints(n: int, s: int) -> None:
    """Raise unless n and s are plain ints."""
    if type(n) is not int or type(s) is not int:  # exact: bool is an int subclass
        raise ValueError(f"unsupported graph parameters: n={n!r}, s={s!r} (integers required)")


def _validate_params(n: int, s: int) -> None:
    _require_ints(n, s)
    if n < 3 or s < 1 or s > 3:
        raise ValueError(f"unsupported graph parameters: n={n}, s={s} (need n >= 3, 1 <= s <= 3)")


def _dense_from_rows(rows: np.ndarray) -> np.ndarray:
    """The 2n x 2n matrix dist[c*n + i, c'*n + j] = rows[c, c', (j - i) mod n]."""
    n = rows.shape[2]
    k = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    dist = np.block([[rows[0, 0][k], rows[0, 1][k]], [rows[1, 0][k], rows[1, 1][k]]])
    dist.setflags(write=False)
    return dist


class PrismGraph:
    """An immutable Z(n, s) instance with its rotation-invariant metric.

    ``rows[c, c', k]`` is the hop distance from (c + 1, 1) to (c' + 1, 1 + k)
    (0-based c, c', k); ``diameter`` is its maximum, read from the rows.
    Vertex (c, p) has vertex index (c - 1) * n + (p - 1), the index every
    layer uses (``index``, ``Labeling.labels``, ``label_order``, ``verify``
    and ``exact``, whose ``greedy_span_for_order`` takes an order of them).
    ``vertices``, ``index`` and ``contains`` serve callers that name
    vertices as ``Vertex`` tuples.  Use ``build_graph`` to obtain instances.
    """

    __slots__ = ("n", "s", "rows", "diameter")

    def __init__(self, n: int, s: int, rows: np.ndarray):
        self.n = n
        self.s = s
        self.rows = rows
        self.diameter = int(rows.max())

    def __repr__(self) -> str:
        return f"PrismGraph(n={self.n}, s={self.s}, diameter={self.diameter})"

    @property
    def dist(self) -> np.ndarray:
        """Read-only 2n x 2n int32 distance matrix; O(n^2) memory, built per access.

        No library code reads it: it is kept for the benchmark's tracing and
        tests, and is deleted once those read ``rows``.
        """
        return _dense_from_rows(self.rows)

    def contains(self, v: Vertex) -> bool:
        c, p = v.cycle, v.position
        return type(c) is int and type(p) is int and c in (1, 2) and 1 <= p <= self.n

    def index(self, v: Vertex) -> int:
        if not self.contains(v):
            raise ValueError(f"unknown vertex {v} for Z({self.n},{self.s})")
        return (v.cycle - 1) * self.n + (v.position - 1)

    def vertices(self) -> Iterator[Vertex]:
        """All 2n vertices in (cycle, position) lexicographic order."""
        for c in (1, 2):
            for p in range(1, self.n + 1):
                yield Vertex(c, p)

    def edge_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Each edge once, as index arrays: edge t joins ii[t] < jj[t], sorted by (ii, jj)."""
        n = self.n
        pos = np.arange(n)
        ii, jj = [], []
        for c in (0, 1):
            for c2 in (0, 1):
                ks = np.flatnonzero(self.rows[c, c2] == 1)
                ii.append(np.repeat(c * n + pos, ks.size))
                jj.append((c2 * n + (pos[:, None] + ks[None, :]) % n).ravel())
        ii, jj = np.concatenate(ii), np.concatenate(jj)
        keep = ii < jj
        ii, jj = ii[keep], jj[keep]
        order = np.lexsort((jj, ii))
        return ii[order], jj[order]

    def distance(self, u: Vertex, v: Vertex) -> int:
        return int(_hops(self, self.index(u), self.index(v)))


@lru_cache(maxsize=128, typed=True)
def build_graph(n: int, s: int) -> PrismGraph:
    """Construct Z(n, s) and its distance rows from (1, 1) and (2, 1).

    The rows come from the one-crossing lemma: for s <= 3 every cross
    offset sigma lies in {-1, 0, 1}, so a path that crosses to the other
    cycle and back moves the position by at most 2 in 2 hops, no further
    than 2 ring hops, and some shortest path crosses at most once.  With
    ring(k) = min(k, n - k),

        d((c, 1), (c, 1 + k)) = ring(k),
        d((1, 1), (2, 1 + k)) = 1 + min over sigma of ring(k - sigma),
        d((2, 1), (1, 1 + k)) = 1 + min over sigma of ring(k + sigma).

    The rows are written in place into one (2, 2, n) int32 array.  As
    |sigma| <= 1, each cross row is 1 plus a running minimum of slices of
    ring wrapped by one entry on each side.  The lemma fails for s >= 4,
    which is rejected.  Raises ValueError("unsupported graph parameters")
    outside the supported range.  Asserts that the rows describe a
    symmetric metric (d(u, v) = d(v, u) and d(v, v) = 0) and that the
    diameter matches the closed form.
    """
    _validate_params(n, s)
    rows = np.empty((2, 2, n), dtype=np.int32)
    k = np.arange(n, dtype=np.int32)
    ring = np.minimum(k, n - k, out=rows[0, 0])
    rows.reshape(4, n)[1:] = ring  # the cross rows start from sigma = 0
    wrapped = np.concatenate((ring[-1:], ring, ring[:1]))  # wrapped[1 + j] = ring(j)
    for sigma in (1, -1)[:s - 1]:  # the cross offsets other than 0
        np.minimum(rows[0, 1], wrapped[1 - sigma:n + 1 - sigma], out=rows[0, 1])
        np.minimum(rows[1, 0], wrapped[1 + sigma:n + 1 + sigma], out=rows[1, 0])
    rows.reshape(4, n)[1:3] += 1
    # d((c, 1), (c', 1 + k)) == d((c', 1), (c, 1 - k)), k -> n - k being [..., :0:-1]
    assert (rows[..., 1:] == rows.transpose(1, 0, 2)[..., :0:-1]).all()
    assert rows[0, 1, 0] == rows[1, 0, 0] and rows[0, 0, 0] == rows[1, 1, 0] == 0  # d(v, v) == 0

    rows.setflags(write=False)
    g = PrismGraph(n, s, rows)
    assert g.diameter == (n + 3 - s) // 2, (
        f"diameter {g.diameter} of Z({n},{s}) deviates from closed form {(n + 3 - s) // 2}")
    return g


def _hops(g: PrismGraph, u, v) -> np.ndarray:
    """The distances from vertex indices u to v (ints or int arrays), gathered from the rows."""
    n = g.n
    return g.rows[u // n, v // n, (v % n - u % n) % n]
