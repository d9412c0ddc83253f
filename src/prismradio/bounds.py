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

``phi`` is a table lookup on (n mod 4, s) with n = 4k + r, k >= 1, valid for
s in {1, 2, 3} except the single graph (n, s) = (4, 3); ``radio_number``
adds the two special graphs.  ``pair_gap`` reads the gap from a graph's own
metric and ``triple_bound_violations`` sweeps the triple budget, both up to
rotation from (1, 1) and (2, 1).  ``d_offset`` and ``omega`` are the
position-offset and rotation-step helpers the construction uses: (1, y) and
(2, y + d_offset) are always at distance exactly diam, and omega is the step
between consecutive odd-indexed positions in the general case of the
construction (defined only for n not divisible by 4).
"""

from __future__ import annotations

import numpy as np

from .graphs import PrismGraph, Vertex, _validate_params

__all__ = [
    "in_phi_scope",
    "phi",
    "lower_bound_rn",
    "radio_number",
    "pair_gap",
    "d_offset",
    "omega",
    "check_triple_bound",
    "triple_bound_violations",
]

# (r, s) -> step, where phi(4k + r, s) = k + step, n = 4k + r with k >= 1
_PHI_STEP: dict[tuple[int, int], int] = {
    (0, 1): 2, (0, 2): 1, (0, 3): 2,
    (1, 1): 2, (1, 2): 2, (1, 3): 1,
    (2, 1): 3, (2, 2): 2, (2, 3): 2,
    (3, 1): 2, (3, 2): 3, (3, 3): 2,
}


def in_phi_scope(n: int, s: int) -> bool:
    """True iff (n, s) is covered by the phi table."""
    return s in (1, 2, 3) and n >= 4 and (n, s) != (4, 3)


def phi(n: int, s: int) -> int:
    """Minimum gap between labels two apart in sorted order, table lookup."""
    if s not in (1, 2, 3):
        raise ValueError(f"outside theorem scope: s={s} (need s in {{1, 2, 3}})")
    if n < 4:
        raise ValueError(f"outside theorem scope: n={n} (need n >= 4)")
    if (n, s) == (4, 3):
        raise ValueError("outside theorem scope: (n, s) = (4, 3) is a special case")
    k, r = divmod(n, 4)
    return k + _PHI_STEP[(r, s)]


def lower_bound_rn(n: int, s: int) -> int:
    """(n - 1) * phi(n, s) + 2; met with equality by the construction."""
    return (n - 1) * phi(n, s) + 2


# Z(3, 3) is K_6; rn(Z(4, 3)) was proven by the exact search
_SPECIAL_RN: dict[tuple[int, int], int] = {(3, 3): 6, (4, 3): 9}


def radio_number(n: int, s: int) -> tuple[int, str]:
    """rn(Z(n, s)) and its source, "formula" or "special".

    Raises ValueError for unsupported parameters, and for n = 3 with s in
    {1, 2}, which no closed form here covers (the exact search does).
    """
    _validate_params(n, s)
    if (n, s) in _SPECIAL_RN:
        return _SPECIAL_RN[(n, s)], "special"
    if n == 3:
        raise ValueError(f"(n={n}, s={s}) is outside theorem scope; use exact")
    return lower_bound_rn(n, s), "formula"


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
    the two rows in O(n^2) time and memory.
    """
    n, reach = g.n, g.diameter + 1
    # step[b, c, p] = max(1, D - d(b, (c + 1, p + 1))), and 2D at b itself so no sum uses b
    step = np.maximum(1, reach - g.rows)
    step[[0, 1], [0, 1], 0] = 2 * reach
    pos = np.arange(n)
    partner = step[:, :, (pos[:, None] + pos) % n]  # [b, cc, p, k]: step of (cc, p + k)
    pairs = (step[:, :, None, :, None] + partner[:, None]).min(axis=3)  # [b, ca, cc, k]
    far = reach - g.rows  # [ca, cc, k] = D - d(a, c), and 2D where a = c
    far[[0, 1], [0, 1], 0] = 2 * reach
    return int(np.maximum(pairs, far).min())


def d_offset(n: int, s: int) -> int:
    """Position offset realizing the diameter between the two cycles.

    d((1, y), (2, y + d_offset(n, s))) equals the diameter for every y.
    """
    if s not in (1, 2, 3):
        raise ValueError(f"outside theorem scope: s={s} (need s in {{1, 2, 3}})")
    if n < 3:
        raise ValueError(f"outside theorem scope: n={n} (need n >= 3)")
    return (n + 1) // 2 if s in (1, 3) else (n + 2) // 2


def omega(n: int) -> int:
    """Rotation step used by the general-case construction.

    Defined for n = 4k + r with r in {1, 2, 3} and k >= 1: equal to k when
    r = 1, or when r = 2 with k odd; equal to k + 1 when r = 3, or when
    r = 2 with k even.
    """
    k, r = divmod(n, 4)
    if r == 0:
        raise ValueError(f"case-1 only: omega is undefined for n={n} divisible by 4")
    if k < 1:
        raise ValueError(f"case-1 only: omega needs n >= 5, got n={n}")
    if r == 1:
        return k
    if r == 3:
        return k + 1
    return k if k % 2 == 1 else k + 1


def triple_bound_violations(g: PrismGraph) -> list[tuple[Vertex, Vertex, Vertex, int]]:
    """Vertex triples whose pairwise distances sum past n + 3 - s, up to rotation.

    Rotation maps any vertex of a triple onto (1, 1) or (2, 1), so as in
    ``pair_gap`` one O(n^2) sum array per anchor a covers every triple:
    totals[cu, cv, p, k] = d(a, u) + d(a, v) + rows[cu, cv, k] for
    u = (cu, p) and v = (cv, p + k).  Each violating triple is a rotation of
    some listed (anchor, u, v, total), u before v in index order, and every
    listed one violates.

    For s = 3, triples containing both (1, j) and (2, j) for some j are
    exempt: that pair is adjacent, yet both of its ends can sit at full
    diameter from a third vertex, which legitimately pushes the sum to n + 1.
    The budget holds for every other triple, so the exempt family is excluded
    from the sweep rather than reported.
    """
    n, limit = g.n, g.n + 3 - g.s
    pos = np.arange(n, dtype=np.int32)
    vpos = (pos[:, None] + pos) % n  # [p, k]: the position of v
    out: list[tuple[Vertex, Vertex, Vertex, int]] = []
    for a in (0, n):
        da = g.rows[a // n]  # [c, p]: d(a, (c, p))
        totals = g.rows[:, :, None, :] + da[:, vpos]  # d(u, v) + d(a, v)
        totals += da[:, None, :, None]  # + d(a, u)
        cu, cv, p, k = np.nonzero(totals > limit)
        ui, vi, total = cu * n + p, cv * n + vpos[p, k], totals[cu, cv, p, k]
        keep = (ui < vi) & (ui != a) & (vi != a)
        if g.s == 3:  # the exempt pairs: (u, v) themselves (k = 0), or the anchor with u or v
            mate = (a + n) % (2 * n)
            keep &= (k != 0) & (ui != mate) & (vi != mate)
        ui, vi, total = ui[keep], vi[keep], total[keep]
        order = np.lexsort((vi, ui))
        anchor = g.vertex_at(a)
        out += [(anchor, g.vertex_at(i), g.vertex_at(j), t)
                for i, j, t in zip(ui[order].tolist(), vi[order].tolist(), total[order].tolist())]
    return out


def check_triple_bound(g: PrismGraph) -> bool:
    """True iff no triple (outside the s = 3 exemption) exceeds the budget."""
    return not triple_bound_violations(g)
