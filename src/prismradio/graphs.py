"""Generalized prism graphs with exact hop distances.

A generalized prism Z(n, s) is built from two disjoint n-cycles.  Vertices
are (cycle, position) pairs with cycle in {1, 2} and position in {1..n};
each cycle carries the usual ring edges, and vertex (1, i) is additionally
joined to (2, i + d) for the s consecutive offsets

    d in {-floor((s - 1) / 2), ..., 0, ..., floor(s / 2)}.

So s = 1 gives the ordinary prism ladder rungs, s = 2 adds one diagonal per
rung, and s = 3 adds diagonals on both sides.  Supported parameters are
n >= 3 and 1 <= s <= min(3, n); every vertex then has degree 2 + s, and the
diameter is floor((n + 3 - s) / 2), which is asserted when a graph is built.

A Vertex holds coordinates already in range; lookups reject any other
(``PrismGraph.index``) rather than wrap them.

Distances are hop counts.  Shifting every position by the same amount maps
edges to edges, so d((c, i), (c', j)) depends only on c, c' and (j - i)
mod n, and the whole metric is two rows, one from (1, 1) and one from
(2, 1).  For s <= 3 the rows have a closed form: a cross offset moves the
position by at most 1, so crossing over and back (2 hops) shifts it by at
most 2, which 2 ring hops do as well, and some shortest path crosses between
the cycles at most once (see ``build_graph``).  ``PrismGraph.rows`` holds
the rows as a read-only (2, 2, n) array, so a graph costs O(n) memory and
O(n) NumPy build time, and every layer of the library reads the rows.
The dense 2n x 2n matrix ``PrismGraph.dist`` is derived from them on each
access and not kept; no library code reads it.  It stays only because the
benchmark's tracing and tests read it, and goes once they count and compare
the rows instead.  Built graphs are immutable and safe to share across
threads.  ``build_graph`` memoizes instances keyed on (n, s).

A cycle is a plain tuple of vertices.  ``standard_cycle`` gives the cycle
the paper's lower bound works on, and ``is_v_tight`` tells whether going
around a cycle from v, the shorter way, reaches every entry in as few hops
as the graph itself does.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Vertex",
    "PrismGraph",
    "build_graph",
    "standard_cycle",
    "is_v_tight",
]


class Vertex(NamedTuple):
    """A prism vertex, written (cycle, position) with both coordinates 1-based."""

    cycle: int
    position: int

    def __str__(self) -> str:
        return f"({self.cycle},{self.position})"


def _validate_params(n: int, s: int) -> None:
    if not (isinstance(n, int) and isinstance(s, int)):
        raise ValueError(f"unsupported graph parameters: n={n!r}, s={s!r} (integers required)")
    if n < 3 or s < 1 or s > 3 or s > n:
        raise ValueError(
            f"unsupported graph parameters: n={n}, s={s} (need n >= 3, 1 <= s <= 3, s <= n)"
        )


def _dense_from_rows(rows: np.ndarray) -> np.ndarray:
    """The 2n x 2n matrix dist[c*n + i, c'*n + j] = rows[c, c', (j - i) mod n].

    Only ``PrismGraph.dist`` calls it; both go when the benchmark stops
    reading ``dist``.
    """
    n = rows.shape[2]
    k = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    dist = np.block([[rows[0, 0][k], rows[0, 1][k]], [rows[1, 0][k], rows[1, 1][k]]])
    dist.setflags(write=False)
    return dist


class PrismGraph:
    """An immutable Z(n, s) instance with its rotation-invariant metric.

    ``rows[c, c', k]`` is the hop distance from (c + 1, 1) to (c' + 1, 1 + k)
    (0-based c, c', k); ``diameter`` is its maximum.  Vertex (c, p) maps to
    matrix index (c - 1) * n + (p - 1), and ``dist`` is the read-only dense
    matrix of hop counts over those indices, rebuilt on each access.  Use
    ``build_graph`` to obtain instances.
    """

    __slots__ = ("n", "s", "rows", "diameter")

    def __init__(self, n: int, s: int, rows: np.ndarray, diam: int):
        self.n = n
        self.s = s
        self.rows = rows
        self.diameter = diam

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
        return v.cycle in (1, 2) and 1 <= v.position <= self.n

    def index(self, v: Vertex) -> int:
        if not self.contains(v):
            raise ValueError(f"unknown vertex {v} for Z({self.n},{self.s})")
        return (v.cycle - 1) * self.n + (v.position - 1)

    def vertex_at(self, i: int) -> Vertex:
        c, p = divmod(i, self.n)
        return Vertex(c + 1, p + 1)

    def vertices(self) -> Iterator[Vertex]:
        """All 2n vertices in (cycle, position) lexicographic order."""
        for c in (1, 2):
            for p in range(1, self.n + 1):
                yield Vertex(c, p)

    def neighbors(self, v: Vertex) -> list[Vertex]:
        """Adjacent vertices in (cycle, position) lexicographic order."""
        i = self.index(v)
        c, p = divmod(i, self.n)
        out = []
        for c2 in (0, 1):
            ks = np.flatnonzero(self.rows[c, c2] == 1)
            out += [Vertex(c2 + 1, int(q) + 1) for q in np.sort((p + ks) % self.n)]
        return out

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        """Each edge once, endpoint indices ascending, sorted by index pair."""
        ii, jj = self.edge_indices()
        return [(self.vertex_at(i), self.vertex_at(j)) for i, j in zip(ii.tolist(), jj.tolist())]

    def edge_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """The endpoint index arrays of ``edges()``: edge t joins ii[t] < jj[t]."""
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
        (c, p), (c2, p2) = divmod(self.index(u), self.n), divmod(self.index(v), self.n)
        return int(self.rows[c, c2, (p2 - p) % self.n])


@lru_cache(maxsize=128)
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

    The lemma fails for s >= 4, which is rejected.  Raises
    ValueError("unsupported graph parameters") outside the supported range.
    Asserts that the rows describe a symmetric metric (d(u, v) = d(v, u)
    and d(v, v) = 0) and that the diameter matches the closed form.
    """
    _validate_params(n, s)
    k = np.arange(n)
    ring = np.minimum(k, n - k).astype(np.int32)
    sigma = np.arange(-((s - 1) // 2), s // 2 + 1)[:, None]  # the cross offsets
    to_2 = 1 + ring[(k - sigma) % n].min(axis=0)
    to_1 = 1 + ring[(k + sigma) % n].min(axis=0)
    rows = np.stack([ring, to_2, to_1, ring]).reshape(2, 2, n)
    # d((c, 1), (c', 1 + k)) == d((c', 1), (c, 1 - k)), and d(v, v) == 0
    back = (-k) % n
    assert (rows == rows.transpose(1, 0, 2)[:, :, back]).all()
    assert rows[0, 0, 0] == rows[1, 1, 0] == 0

    diam = int(rows.max())
    assert diam == (n + 3 - s) // 2, (
        f"diameter {diam} of Z({n},{s}) deviates from closed form {(n + 3 - s) // 2}"
    )
    rows.setflags(write=False)
    return PrismGraph(n, s, rows, diam)


def standard_cycle(g: PrismGraph) -> tuple[Vertex, ...]:
    """The canonical (n + 3 - s)-cycle through (1, 1).

    For s = 1 it runs (1,1), (1,2), (2,2), (2,3), ..., (2,n), (2,1); for
    s in {2, 3} it runs (1,1), (2,2), (2,3), ..., (2, n + 3 - s), position
    n + 1 standing for 1.  Its length equals n + 3 - s, i.e. twice the
    diameter or one more, and the cycle is tight from (1, 1) (see
    ``is_v_tight``); the selftest graphs suite checks that it is a simple
    cycle of g.
    """
    n = g.n
    head = [Vertex(1, 1), Vertex(1, 2)] if g.s == 1 else [Vertex(1, 1)]
    end = n + 2 if g.s == 1 else n + 4 - g.s
    return tuple(head + [Vertex(2, (p - 1) % n + 1) for p in range(2, end)])


def is_v_tight(g: PrismGraph, cycle: Sequence[Vertex], v: Vertex) -> bool:
    """True iff the cycle is tight from v: the hops from v to each entry,
    going around the cycle the shorter way, equal the distance in g.

    Raises ValueError("vertex not on cycle") when v is not an entry of the
    cycle.  A cycle that is v-tight for every v realizes the host metric on
    its vertex set.  Costs O(len(cycle)) distance lookups.
    """
    try:
        i = cycle.index(v)
    except ValueError:
        raise ValueError(f"vertex not on cycle: {v}") from None
    length = len(cycle)
    return all(g.distance(v, u) == min(abs(k - i), length - abs(k - i))
               for k, u in enumerate(cycle))
