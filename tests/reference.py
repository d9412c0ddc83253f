"""Slow, independent references for the fast paths, used by the tests only.

``all_pairs_distances`` runs scipy's all-pairs BFS over an edge list written
straight from the definition of Z(n, s), so it shares nothing with the
rotation-invariant rows of ``prismradio.graphs``.  ``all_pairs_violations``
is the dense radio-condition check that ``verify`` replaced: it compares
every pair, with no label window.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


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


def all_pairs_violations(dist: np.ndarray, labels: list[int], diam: int):
    """(i, j, distance, gap) of every violated pair i < j, in (i, j) order."""
    lab = np.array(labels, dtype=np.int64)
    i, j = np.triu_indices(lab.size, k=1)
    gap = np.abs(lab[i] - lab[j])
    bad = dist[i, j] + gap < diam + 1
    return [(int(a), int(b), int(dist[a, b]), int(g))
            for a, b, g in zip(i[bad], j[bad], gap[bad])]
