"""Slow, independent references for the fast paths, used by the tests only.

``all_pairs_distances`` runs scipy's all-pairs BFS over an edge list written
straight from the definition of Z(n, s), so it shares nothing with the
rotation-invariant rows of ``prismradio.graphs``.  ``bfs_row`` is a
pure-Python breadth-first search from one vertex over the same edge rule,
the oracle for the closed-form rows at n up to about 2 * 10^5.
``all_pairs_violations`` is the dense radio-condition check that ``verify``
replaced: it compares every pair, with no label window.
``brute_force_radio_number`` tries every vertex order, sharing no code with
``prismradio.exact``.
``scalar_label_order`` evaluates the construction's position formulas one
index at a time in Python integers, as ``label_order`` did before it worked
on NumPy arrays.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from prismradio.bounds import d_offset, omega


@lru_cache(maxsize=None)
def all_pairs_distances(n: int, s: int) -> np.ndarray:
    """Hop counts of Z(n, s); index (c - 1) * n + (p - 1) is vertex (c, p)."""
    edges = []
    for p in range(n):
        edges.append((p, (p + 1) % n))  # ring of cycle 1
        edges.append((n + p, n + (p + 1) % n))  # ring of cycle 2
        for d in range(-((s - 1) // 2), s // 2 + 1):
            edges.append((p, n + (p + d) % n))  # (1, p) -- (2, p + d)
    a, b = np.array(edges).T
    adj = csr_matrix((np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])), shape=(2 * n, 2 * n))
    d = shortest_path(adj, method="D", unweighted=True)
    assert np.isfinite(d).all()
    return d.astype(np.int32)


def bfs_row(n: int, s: int, source: int) -> list[int]:
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


def all_pairs_violations(dist: np.ndarray, labels: list[int], diam: int):
    """(i, j, distance, gap) of every violated pair i < j, in (i, j) order."""
    lab = np.array(labels, dtype=np.int64)
    i, j = np.triu_indices(lab.size, k=1)
    gap = np.abs(lab[i] - lab[j])
    bad = dist[i, j] + gap < diam + 1
    return [(int(a), int(b), int(dist[a, b]), int(g))
            for a, b, g in zip(i[bad], j[bad], gap[bad])]


def brute_force_radio_number(n: int, s: int) -> int:
    """Least greedy span over all (2n)! vertex orders of Z(n, s).

    A labeling sorts the vertices in some order, and for a fixed order each
    label is at least the previous one plus one and at least
    c(u) + diam + 1 - d(u, v) for every earlier u; taking the least such
    value at each step is optimal for that order.  Practical for n <= 4 only.
    """
    dist = all_pairs_distances(n, s).tolist()
    required = int(max(map(max, dist))) + 1
    best = None
    for order in permutations(range(2 * n)):
        labels = [1]
        for t in range(1, len(order)):
            v = order[t]
            labels.append(max(labels[-1] + 1,
                              *(labels[j] + required - dist[order[j]][v] for j in range(t))))
            if best is not None and labels[-1] >= best:
                break
        else:
            best = labels[-1]
    return best


def scalar_label_order(case: int, n: int, s: int) -> list[tuple[int, int]]:
    """alpha_1..alpha_2n of construction case 1..4 as (cycle, position) pairs."""
    out = []
    for j in range(1, 2 * n + 1):
        i, odd = (j + 1) // 2, j % 2 == 1
        if case == 1:
            w = omega(n)
            c, p = (1, 1 + w * (i - 1)) if odd else (2, 1 + d_offset(n, s) + w * (i - 1))
        elif case == 2:
            k, l = n // 4, (i - 1) // 4
            c, p = (1 + l, 1 + k * (i - 1) - l) if odd else (2 + l, 1 + k * (i + 1) - l)
        elif case == 3:
            k, l = n // 4, (i - 1) // 2
            c, p = (i, 1 + k * (i - 1) - l) if odd else (i, 1 + k * (i + 1) - l)
        else:
            k = (n - 2) // 4
            l = 0 if i <= 2 * k + 1 else 1
            c, p = (l, 1 + (i - 1) * k) if odd else (l, 2 + (i + 1) * k)
        out.append(((c - 1) % 2 + 1, (p - 1) % n + 1))
    return out
