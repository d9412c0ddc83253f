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

Coordinates wrap: cycle index modulo 2, position modulo n, both mapped back
into 1-based ranges.  Wrapping happens when a Vertex is created (see
``normalize_vertex`` / ``PrismGraph.vertex``), never at lookup time.

Distances are hop counts.  Shifting every position by the same amount maps
edges to edges, so d((c, i), (c', j)) depends only on c, c' and (j - i)
mod n, and the whole metric is two breadth-first-search rows, one from (1, 1)
and one from (2, 1).  ``PrismGraph.rows`` holds them as a read-only
(2, 2, n) array, so a graph costs O(n) memory and O(n) build time.  The
dense 2n x 2n matrix ``PrismGraph.dist`` is derived from the rows on first
access and cached; only small-n consumers (the exact search, the
triple-budget sweep, the selftest graphs suite) read it.  Built graphs are
immutable and safe to share across threads.  ``build_graph`` memoizes
instances keyed on (n, s).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "Vertex",
    "PrismGraph",
    "CycleView",
    "normalize_vertex",
    "build_graph",
    "distance",
    "diameter",
    "cycle_view",
    "principal_cycle",
    "standard_cycle",
    "is_v_tight",
]


class Vertex(NamedTuple):
    """A prism vertex, written (cycle, position) with both coordinates 1-based."""

    cycle: int
    position: int

    def __str__(self) -> str:
        return f"({self.cycle},{self.position})"


def normalize_vertex(cycle: int, position: int, n: int) -> Vertex:
    """Wrap raw coordinates into cycle {1, 2} and position {1..n}.

    The wrap is ((x - 1) mod m) + 1 on each coordinate, so e.g. cycle 0
    means cycle 2 and position n + 1 means position 1.
    """
    return Vertex((cycle - 1) % 2 + 1, (position - 1) % n + 1)


def _validate_params(n: int, s: int) -> None:
    if not (isinstance(n, int) and isinstance(s, int)):
        raise ValueError(f"unsupported graph parameters: n={n!r}, s={s!r} (integers required)")
    if n < 3 or s < 1 or s > 3 or s > n:
        raise ValueError(
            f"unsupported graph parameters: n={n}, s={s} (need n >= 3, 1 <= s <= 3, s <= n)"
        )


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
    (0-based c, c', k); ``diameter`` is its maximum.  Vertex (c, p) maps to
    matrix index (c - 1) * n + (p - 1), and ``dist`` is the read-only dense
    matrix of hop counts over those indices, built on first access.  Use
    ``build_graph`` to obtain instances.
    """

    __slots__ = ("n", "s", "rows", "diameter", "_dist")

    def __init__(self, n: int, s: int, rows: np.ndarray, diam: int):
        self.n = n
        self.s = s
        self.rows = rows
        self.diameter = diam
        self._dist: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"PrismGraph(n={self.n}, s={self.s}, diameter={self.diameter})"

    @property
    def dist(self) -> np.ndarray:
        """Read-only 2n x 2n int32 distance matrix; O(n^2) memory, built lazily."""
        if self._dist is None:
            self._dist = _dense_from_rows(self.rows)
        return self._dist

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    def vertex(self, cycle: int, position: int) -> Vertex:
        """Normalizing vertex factory for this graph's n."""
        return normalize_vertex(cycle, position, self.n)

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
        return [(self.vertex_at(int(i)), self.vertex_at(int(j)))
                for i, j in zip(ii[order], jj[order])]

    def distance(self, u: Vertex, v: Vertex) -> int:
        (c, p), (c2, p2) = divmod(self.index(u), self.n), divmod(self.index(v), self.n)
        return int(self.rows[c, c2, (p2 - p) % self.n])


def _bfs_row(n: int, s: int, source: int) -> list[int]:
    """Hop distances from vertex index ``source`` to every index of Z(n, s).

    Index c * n + p is vertex (c + 1, p + 1).  (1, p) is joined to (2, p + d)
    for each cross offset d, so (2, p) is joined to (1, p - d).
    """
    offsets = range(-((s - 1) // 2), s // 2 + 1)
    steps = (
        [(0, 1), (0, -1)] + [(n, d) for d in offsets],
        [(n, 1), (n, -1)] + [(0, -d) for d in offsets],
    )
    dist = [-1] * (2 * n)
    dist[source] = 0
    queue = [source]
    for u in queue:  # the list grows while it is read: a FIFO queue
        du = dist[u] + 1
        c = u >= n
        p = u - n if c else u
        for base, delta in steps[c]:
            w = base + (p + delta) % n
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


@lru_cache(maxsize=128)
def build_graph(n: int, s: int) -> PrismGraph:
    """Construct Z(n, s) and its distance rows from (1, 1) and (2, 1).

    Raises ValueError("unsupported graph parameters") outside the supported
    range.  Asserts that the graph is connected, that the rows describe a
    symmetric metric (d(u, v) = d(v, u) and d(v, v) = 0) and that the
    diameter matches the closed form.
    """
    _validate_params(n, s)
    rows = np.array([_bfs_row(n, s, 0), _bfs_row(n, s, n)], dtype=np.int32).reshape(2, 2, n)
    assert (rows >= 0).all(), "prism graph must be connected"
    # d((c, 1), (c', 1 + k)) == d((c', 1), (c, 1 - k)), and d(v, v) == 0
    back = (-np.arange(n)) % n
    assert (rows == rows.transpose(1, 0, 2)[:, :, back]).all()
    assert rows[0, 0, 0] == rows[1, 1, 0] == 0

    diam = int(rows.max())
    assert diam == (n + 3 - s) // 2, (
        f"diameter {diam} of Z({n},{s}) deviates from closed form {(n + 3 - s) // 2}"
    )
    rows.setflags(write=False)
    return PrismGraph(n, s, rows, diam)


def distance(g: PrismGraph, u: Vertex, v: Vertex) -> int:
    """Hop distance between two (normalized) vertices of g."""
    return g.distance(u, v)


def diameter(g: PrismGraph) -> int:
    return g.diameter


@dataclass(frozen=True)
class CycleView:
    """An ordered simple cycle inside a host graph.

    Consecutive entries (cyclically) are adjacent in the host graph and all
    entries are distinct; ``cycle_view`` validates this.  Distances *along*
    the view are index distances on the ring, independent of the host metric.
    """

    vertices: tuple[Vertex, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.vertices

    def index_of(self, v: Vertex) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise ValueError(f"vertex not on cycle: {v}") from None

    def cycle_distance(self, u: Vertex, v: Vertex) -> int:
        """Hops between u and v going around the view itself."""
        gap = abs(self.index_of(u) - self.index_of(v))
        return min(gap, len(self.vertices) - gap)


def cycle_view(g: PrismGraph, vertices: Iterable[Vertex]) -> CycleView:
    """Validate a vertex list as a simple cycle of g and wrap it."""
    vs = tuple(vertices)
    if len(vs) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(vs)) != len(vs):
        raise ValueError("cycle entries must be distinct")
    for i, u in enumerate(vs):
        v = vs[(i + 1) % len(vs)]
        if g.distance(u, v) != 1:
            raise ValueError(f"consecutive cycle entries not adjacent: {u} -- {v}")
    return CycleView(vs)


def principal_cycle(g: PrismGraph, which: int) -> CycleView:
    """One of the two n-cycles the prism is built from (which in {1, 2})."""
    if which not in (1, 2):
        raise ValueError(f"principal cycle index must be 1 or 2, got {which}")
    return CycleView(tuple(Vertex(which, p) for p in range(1, g.n + 1)))


def standard_cycle(g: PrismGraph) -> CycleView:
    """The canonical (n + 3 - s)-cycle through (1, 1).

    For s = 1 it runs (1,1), (1,2), (2,2), (2,3), ..., (2,n), (2,1); for
    s in {2, 3} it runs (1,1), (2,2), (2,3), ..., (2, n + 3 - s).  Its length
    equals n + 3 - s, i.e. twice the diameter or one more, and the cycle is
    distance-true from (1, 1) (see ``is_v_tight``).
    """
    n = g.n
    if g.s == 1:
        vs = [Vertex(1, 1), Vertex(1, 2)]
        vs += [g.vertex(2, p) for p in range(2, n + 2)]
    else:
        vs = [Vertex(1, 1)]
        vs += [g.vertex(2, p) for p in range(2, n + 4 - g.s)]
    return cycle_view(g, vs)


def is_v_tight(g: PrismGraph, cycle: CycleView, v: Vertex) -> bool:
    """True iff along-cycle distances from v all equal host-graph distances.

    Raises ValueError("vertex not on cycle") when v is not an entry of the
    view.  A cycle that is v-tight for every v realizes the host metric on
    its vertex set.
    """
    cycle.index_of(v)
    return all(g.distance(v, u) == cycle.cycle_distance(v, u) for u in cycle)
