"""Lower bounds and gap parameters for radio labelings of Z(n, s).

A radio labeling of a graph with diameter ``diam`` assigns distinct positive
integers c(v) so that d(u, v) + |c(u) - c(v)| >= diam + 1 for every pair.
Sort the vertices by label as alpha_1, ..., alpha_2n.  Because any three
vertices of Z(n, s) have pairwise distances summing to at most n + 3 - s
(with a known exceptional family when s = 3, see ``check_triple_bound``),
labels two apart in the sorted order must differ by at least a value phi(n, s)
that depends only on n mod 4 and s.  Chaining that gap over the whole order
gives the lower bound

    rn(Z(n, s)) >= (n - 1) * phi(n, s) + 2,

which the constructive labelings in ``labeling`` meet exactly.

``in_phi_scope`` alone decides where that formula applies: s in {1, 2, 3},
n >= 4 and no special graph.  The special graphs, Z(3, 3) = K_6 and
Z(4, 3), are named only in ``_SPECIAL_LABELS``, with a least-span labeling
each.  ``phi`` is a table lookup on (n mod 4, s) with n = 4k + r, k >= 1.
``pair_gap`` reads the gap from a graph's own metric, and
``check_triple_bound`` the triple budget, both up to rotation from (1, 1)
and (2, 1) through one windowed kernel, in O(n^2) time with one block of
sums held at a time.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .graphs import PrismGraph, _require_ints, _validate_params

__all__ = [
    "in_phi_scope",
    "phi",
    "lower_bound_rn",
    "radio_number",
    "pair_gap",
    "check_triple_bound",
]

# the special graphs, named nowhere else: (n, s) -> a least-span radio labeling
# in vertex-index order.  Z(3, 3) is K_6; rn(Z(4, 3)) = 9 was found, and is
# reproved by the selftest, by the exact search
_SPECIAL_LABELS: dict[tuple[int, int], tuple[int, ...]] = {
    (3, 3): (1, 2, 3, 4, 5, 6),
    (4, 3): (9, 4, 8, 3, 7, 2, 6, 1),
}

# sums formed at a time by ``_window_reduce``, or one row of p (6n sums) if more;
# bounds its temporaries (4 MB of int32), and covers every p in one block up to n = 418
_BLOCK_CELLS = 1 << 20

# (r, s) -> step, where phi(4k + r, s) = k + step, n = 4k + r with k >= 1
_PHI_STEP: dict[tuple[int, int], int] = {
    (0, 1): 2, (0, 2): 1, (0, 3): 2,
    (1, 1): 2, (1, 2): 2, (1, 3): 1,
    (2, 1): 3, (2, 2): 2, (2, 3): 2,
    (3, 1): 2, (3, 2): 3, (3, 3): 2,
}


def in_phi_scope(n: int, s: int) -> bool:
    """True iff the phi formula gives rn(Z(n, s)); False for any but plain ints."""
    return (type(n) is int and type(s) is int and s in (1, 2, 3) and n >= 4
            and (n, s) not in _SPECIAL_LABELS)


def phi(n: int, s: int) -> int:
    """Minimum gap between labels two apart in sorted order, table lookup."""
    if not in_phi_scope(n, s):  # which is False unless both are plain ints
        _require_ints(n, s)
        raise ValueError(f"outside theorem scope: no phi for (n, s) = ({n}, {s})")
    k, r = divmod(n, 4)
    return k + _PHI_STEP[(r, s)]


def lower_bound_rn(n: int, s: int) -> int:
    """(n - 1) * phi(n, s) + 2; met with equality by the construction."""
    return phi(n, s) * (n - 1) + 2  # phi first: its type check goes before n - 1


def radio_number(n: int, s: int) -> tuple[int, str]:
    """rn(Z(n, s)) and its source, "formula" or "special".

    Raises ValueError for unsupported parameters, and for the others outside
    ``in_phi_scope`` and the special graphs, which the exact search covers.
    """
    _validate_params(n, s)
    if (n, s) in _SPECIAL_LABELS:
        return max(_SPECIAL_LABELS[(n, s)]), "special"
    if not in_phi_scope(n, s):
        raise ValueError(f"(n={n}, s={s}) is outside theorem scope; use exact")
    return lower_bound_rn(n, s), "formula"


def _window_reduce(first: np.ndarray, second: np.ndarray, reduce: np.ufunc) -> np.ndarray:
    """out[b, block, k] = reduce over p of first[b, block, p] + second[b, block, (p + k) % n].

    Both inputs are (2, 3, n).  second is read through a read-only window
    over its rows doubled along the position axis, so no index array or
    gathered copy is made, and the sums are formed a block of rows of p at
    a time, at most ``_BLOCK_CELLS`` of them or one row, merged with
    ``reduce`` (np.minimum or np.maximum).
    """
    n = first.shape[-1]
    doubled = np.concatenate((second, second), axis=-1)
    # partner[b, block, p, k] = doubled[b, block, p + k]; the last entry read is 2n - 2
    partner = as_strided(doubled, doubled.shape[:-1] + (n, n),
                         doubled.strides + doubled.strides[-1:], writeable=False)
    head = first[..., None]  # [b, block, p, 1]
    rows = max(1, _BLOCK_CELLS // first.size)  # values of p summed at a time
    out = reduce.reduce(head[:, :, :rows] + partner[:, :, :rows], axis=2)
    for p in range(rows, n, rows):
        reduce(out, reduce.reduce(head[:, :, p:p + rows] + partner[:, :, p:p + rows], axis=2),
               out=out)
    return out


def pair_gap(g: PrismGraph) -> int:
    """The least label range of three vertices consecutive in sorted order, from g's metric.

    Labels two apart in sorted order differ by at least this.  For sorted
    a, b, c with D = diam + 1, the radio condition and distinct labels give
    c(b) - c(a) >= max(1, D - d(a, b)), c(c) - c(b) >= max(1, D - d(b, c))
    and c(c) - c(a) >= D - d(a, c), so c(c) - c(a) is at least the larger of
    the first two summed and the third; the bound is its least value over
    triples of distinct vertices (the consecutive-triple argument of Liu and
    Zhu, SIAM J. Discrete Math. 19 (2005)).  It is never below
    ceil((3D - T) / 2), T the largest distance sum of a triple, and it
    equals phi(n, s) for every s and 4 <= n <= 200, which the selftest
    bounds suite enforces at the acceptance range.

    Rotation maps every middle vertex b onto (1, 1) or (2, 1), and for
    a = (ca, p), c = (cc, p + k) the term D - d(a, c) = D - rows[ca, cc, k]
    does not depend on p, so the least value is the least over (b, ca, cc, k)
    of max(min over p of step(a) + step(c), D - rows[ca, cc, k]), read from
    the two rows by ``_window_reduce`` in O(n^2) time, one block of sums
    held at a time.
    """
    reach = g.diameter + 1
    # step[b, c, p] = max(1, D - d(b, (c + 1, p + 1))), and 2D at b itself so no sum uses b
    step = np.maximum(1, reach - g.rows)
    step[[0, 1], [0, 1], 0] = 2 * reach
    ca, cc = [0, 0, 1], [0, 1, 1]  # swapping a and c, block (1, 0) at k is (0, 1) at -k
    pairs = _window_reduce(step[:, ca], step[:, cc], np.minimum)  # [b, block, k]
    far = reach - g.rows[ca, cc]  # [block, k] = D - d(a, c), and 2D where a = c
    far[[0, 2], 0] = 2 * reach
    return int(np.maximum(pairs, far).min())


def _max_triple_sum(g: PrismGraph) -> int:
    """The largest pairwise distance sum of a vertex triple (outside the s = 3 exemption).

    Rotation maps any vertex of a triple onto an anchor (1, 1) or (2, 1), so
    as in ``pair_gap`` the largest sum is the largest over (anchor, cu, cv, k)
    of d(u, v) = rows[cu, cv, k] plus the max over p of d(anchor, u) +
    d(anchor, v) for u = (cu, p) and v = (cv, p + k), formed by
    ``_window_reduce`` in O(n^2) time with one block of sums held at a time.

    For s = 3, triples containing both (1, j) and (2, j) for some j are
    exempt: that pair is adjacent, yet both of its ends can sit at full
    diameter from a third vertex, which legitimately pushes the sum to n + 1.
    """
    masked = -2 * (g.diameter + 1)  # below every real sum, whatever it is added to
    near = g.rows.copy()  # [anchor, c, p] = d(anchor, (c + 1, p + 1))
    near[[0, 1], [0, 1], 0] = masked  # u or v the anchor itself
    if g.s == 3:
        near[[0, 1], [1, 0], 0] = masked  # u or v the anchor's mate
    cu, cv = [0, 0, 1], [0, 1, 1]  # swapping u and v, block (1, 0) at k is (0, 1) at -k
    sums = _window_reduce(near[:, cu], near[:, cv], np.maximum)  # [anchor, block, k]
    sums += g.rows[cu, cv]  # + d(u, v)
    sums[:, [0, 2], 0] = masked  # u = v
    if g.s == 3:
        sums[:, 1, 0] = masked  # u and v mates
    return int(sums.max())


def check_triple_bound(g: PrismGraph) -> bool:
    """True iff no triple (outside the s = 3 exemption) has distances summing past n + 3 - s."""
    return _max_triple_sum(g) <= g.n + 3 - g.s
