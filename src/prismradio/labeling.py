"""Optimal radio labelings of Z(n, s) by direct construction.

The construction is two sequences of length 2n read side by side.
``label_sequence`` gives the labels in increasing order, as an int64 array,

    c(alpha_2i-1) = 1 + (i - 1) * phi(n, s),
    c(alpha_2i)   = 2 + (i - 1) * phi(n, s),

whose final value (n - 1) * phi(n, s) + 2 matches the lower bound from
``bounds``.  ``label_order`` gives the vertices alpha_1, ..., alpha_2n that
receive them.  Labels 1 apart need vertices at distance diam, so alpha_2i is
the diametral partner of alpha_2i-1, and a case only walks the odd vertices.
With j = i - 1 and 0-based cycle c and position p, before wrapping, the
walk ``_walk`` is one of four, and ``label_order`` and ``construct_labeling``
each hand it the case they have from one call of ``case_select``:

* case 1 (n not divisible by 4, except case 4): c = 0, p = _omega(n) * j.
* case 2 (n = 4k, s in {1, 3}): c = floor(j / 4), p = k * j - floor(j / 4).
* case 3 (n = 4k, s = 2): c = j, p = k * j - floor(j / 2).
* case 4 (n = 4k + 2, k even, s = 3): c = -1 for j <= 2k, else 0; p = k * j.

In cases 1 and 2 the partner lies across the cycles, ``_d_offset(n, s)``
ahead; in cases 3 and 4 on the same cycle, n // 2 ahead.  Both vertices are
wrapped to the index (c mod 2) * n + (p mod n) that ``PrismGraph.index``
uses, as one row of an (n, 2) array.  ``construct_labeling`` writes the
label sequence into a label array at those indices and keeps it, uncopied.

A ``Labeling`` is that array: one int64 label per vertex index, read-only.
Its two checked constructors, from a vertex -> label mapping and from the
(cycle, pos, label) columns of a labeling file, are the one place that
decides whether entries form a labeling of Z(n, s): every entry a vertex of
the graph with a label in [1, 2**63), every vertex labeled once.  Both
split their input into columns and check them with whole-array operations:
range comparisons, a count of the entries for completeness and, for file
columns, which can list a vertex twice, one stable sort.  A value too
large for int64 keeps its column in Python ints, so it is judged exactly.
Completeness is decided before the 2n array is allocated, so a few entries
that name a huge n cost what the entries cost.

The special graphs, Z(3, 3) = K_6 and Z(4, 3), fall outside the pattern:
``case_select`` gives them ``CaseId.SPECIAL`` and ``construct_labeling``
returns their witness from ``bounds._SPECIAL_LABELS``, the one table that
names them.  Every other graph outside ``bounds.in_phi_scope`` (n = 3 with
s in {1, 2}) has no construction (``CaseId.UNSUPPORTED``); use the exact
solver for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .bounds import _SPECIAL_LABELS, in_phi_scope, phi
from .graphs import Vertex, _validate_params

__all__ = [
    "CaseId",
    "Labeling",
    "case_select",
    "label_sequence",
    "label_order",
    "construct_labeling",
]


class CaseId(Enum):
    """Which construction applies to a parameter pair (n, s)."""

    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"
    CASE4 = "case4"
    SPECIAL = "special"
    UNSUPPORTED = "unsupported"


def case_select(n: int, s: int) -> CaseId:
    """Pick the construction case for (n, s); UNSUPPORTED is a value, not an error."""
    _validate_params(n, s)
    if (n, s) in _SPECIAL_LABELS:
        return CaseId.SPECIAL
    if not in_phi_scope(n, s):
        return CaseId.UNSUPPORTED
    k, r = divmod(n, 4)
    if r == 0:
        return CaseId.CASE3 if s == 2 else CaseId.CASE2
    if r == 2 and k % 2 == 0 and s == 3:
        return CaseId.CASE4
    return CaseId.CASE1


def label_sequence(n: int, s: int) -> np.ndarray:
    """The 2n label values in sorted order as an int64 array: 1, 2, 1 + phi, 2 + phi, ..."""
    step = phi(n, s)
    seq = np.arange(1, n * step + 1, step, dtype=np.int64).repeat(2)
    seq[1::2] += 1
    return seq


def label_order(n: int, s: int) -> np.ndarray:
    """alpha_1, ..., alpha_2n as an int64 array of vertex indices
    (``PrismGraph.index``), in the order label_sequence labels them.

    Cases 1-4 only; raises ValueError for the special graphs and for the
    unsupported ones, which have no sorted-order construction.
    """
    return _walk(n, s, case_select(n, s))


def _d_offset(n: int, s: int) -> int:
    """Position offset of the diametral partner across the cycles: d((1, y),
    (2, y + _d_offset(n, s))) is the diameter of Z(n, s) for every y."""
    return (n + 1 + (s == 2)) // 2


def _omega(n: int) -> int:
    """Rotation step of the case-1 walk, for n = 4k + r with r != 0 and k >= 1."""
    k, r = divmod(n, 4)
    return k + (r == 3 or r == 2 and k % 2 == 0)


def _walk(n: int, s: int, case: CaseId) -> np.ndarray:
    """``label_order`` of (n, s), given its case from ``case_select``."""
    j = np.arange(n, dtype=np.int64)  # i - 1
    # 0-based (cycle, position) of alpha_2i-1, before wrapping, and whether
    # its partner alpha_2i lies across the cycles
    if case is CaseId.CASE1:
        c, p, across = 0, _omega(n) * j, True
    elif case is CaseId.CASE2:
        c, p, across = j // 4, n // 4 * j - j // 4, True
    elif case is CaseId.CASE3:
        c, p, across = j, n // 4 * j - j // 2, False
    elif case is CaseId.CASE4:
        c, p, across = (j > (n - 2) // 2) - 1, (n - 2) // 4 * j, False
    elif case is CaseId.UNSUPPORTED:
        raise ValueError(f"unsupported graph parameters: no construction for (n={n}, s={s}); "
                         "use the exact solver")
    else:
        raise ValueError(f"Z({n},{s}) is {case.value}: construct_labeling labels it directly")
    # alpha_2i is the diametral partner of alpha_2i-1: the other cycle shifted
    # by _d_offset, or the same cycle shifted by half its length
    dp = _d_offset(n, s) if across else n // 2
    cyc = c % 2 * n
    pairs = np.empty((n, 2), dtype=np.int64)  # row j: alpha_2i-1, alpha_2i
    np.add(cyc, np.remainder(p, n, out=p), out=pairs[:, 0])
    np.add(n - cyc if across else cyc, np.remainder(p + dp, n, out=p), out=pairs[:, 1])
    return pairs.ravel()


_MAX_LABEL = 2**63 - 1  # labels are held in int64


def _int_column(values) -> np.ndarray:
    """Plain ints as an int64 array, or as an object array of the Python
    ints when one of them does not fit int64; an int64 array as itself."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _first_repeat(cycle: np.ndarray, pos: np.ndarray) -> int | None:
    """Index of the first entry whose (cycle, pos) pair an earlier entry has."""
    order = np.lexsort((pos, cycle))  # stable: a run of equal pairs keeps input order
    c, p = cycle[order], pos[order]
    again = order[1:][(c[1:] == c[:-1]) & (p[1:] == p[:-1])]
    return int(again.min()) if again.size else None


def _first_unlabeled(n: int, cycle: np.ndarray, pos: np.ndarray) -> Vertex:
    """The first vertex in index order that no entry names, for fewer than
    2n entries that name distinct vertices."""
    c = 1 if np.count_nonzero(cycle == 1) < n else 2
    p = pos[cycle == c]
    # k distinct positions leave a gap at or below k + 1
    seen = np.zeros(len(p) + 2, dtype=bool)
    seen[p[p <= len(p) + 1].astype(np.int64)] = True
    return Vertex(c, int(seen[1:].argmin()) + 1)


def _checked_labels(n: int, s: int, cycle: np.ndarray, pos: np.ndarray, label: np.ndarray,
                    shown) -> np.ndarray:
    """The label array of entries that name distinct (cycle, pos) pairs.

    Raises ValueError for the first fault in this order: (n, s) is no
    supported graph; the first entry, in input order, whose vertex is not
    one of Z(n, s) or, failing that, whose label is outside [1, 2**63); a
    vertex no entry names.  ``shown(i)`` gives the vertex and the label of
    entry i as the messages show them.  Nothing of length 2n is allocated
    unless there are 2n entries.
    """
    _validate_params(n, s)
    vertex_ok = ((cycle == 1) | (cycle == 2)) & (pos >= 1) & (pos <= n)
    bad = ~(vertex_ok & (label >= 1) & (label <= _MAX_LABEL))
    if bad.any():
        i = int(bad.argmax())
        vertex, value = shown(i)
        if not vertex_ok[i]:
            raise ValueError(f"labeling references unknown vertex: {vertex}")
        raise ValueError(f"labels must be positive integers below 2**63, got {value!r} at {vertex}")
    missing = 2 * n - len(label)
    if missing:
        raise ValueError(f"labeling incomplete: {missing} vertices unlabeled "
                         f"(first: {_first_unlabeled(n, cycle, pos)})")
    labels = np.empty(2 * n, dtype=np.int64)
    labels[(cycle - 1) * n + pos - 1] = label
    return labels


@dataclass(frozen=True, init=False, eq=False)
class Labeling:
    """A total assignment of labels to the vertices of Z(n, s).

    ``labels[(c - 1) * n + p - 1]`` is the label of vertex (c, p): a
    read-only int64 array of length 2n.  Both checked constructors split
    their input into (cycle, pos, label) columns and apply one rule to them
    with whole-array operations: (n, s) is a supported graph, every entry
    names a vertex (cycle, position) of it with plain int coordinates and
    carries an integer label in [1, 2**63) (the verifier holds them in
    int64), and every vertex is labeled once.  The first entry in input
    order that breaks the rule is the one reported, its vertex before its
    label; a missing vertex is reported last.
    The constructor takes a vertex -> label mapping, whose keys may also be
    plain (cycle, position) tuples; ``from_columns`` takes the columns of a
    labeling file.
    Distinctness and the radio condition are audited by
    ``verification.verify``, so that deliberately broken assignments can be
    represented and reported on.
    """

    n: int
    s: int
    labels: np.ndarray

    def __init__(self, n: int, s: int, assignment: Mapping[Vertex, int]) -> None:
        keys, values = list(assignment), list(assignment.values())
        cycle, pos = [], []
        for v in keys:
            try:
                c, p = v
            except (TypeError, ValueError):
                c = p = None
            cycle.append(c)
            pos.append(p)

        def shown(i):
            vertex = keys[i] if cycle[i] is None else Vertex(cycle[i], pos[i])
            return vertex, values[i]

        # a value that is no plain int (bool and float too) becomes 0, which the rule rejects
        cycle_col, pos_col, label_col = (
            _int_column([x if type(x) is int else 0 for x in column])
            for column in (cycle, pos, values))
        self._freeze(n, s, _checked_labels(n, s, cycle_col, pos_col, label_col, shown))

    @classmethod
    def from_columns(cls, n: int, s: int, cycle, pos, label) -> "Labeling":
        """Checked constructor from the columns of a labeling file: entry i
        labels vertex (cycle[i], pos[i]) with label[i].

        Each column is a list of plain ints or an int64 array; the caller
        has checked the values' types.  Besides the rule of the class, no
        vertex may be listed twice; that fault is reported first, even when
        (n, s) is no supported graph.
        """
        def shown(i):
            return Vertex(int(cycle[i]), int(pos[i])), int(label[i])

        cycle_col, pos_col = _int_column(cycle), _int_column(pos)
        twice = _first_repeat(cycle_col, pos_col)
        if twice is not None:
            raise ValueError(f"malformed labeling file: vertex {shown(twice)[0]} labeled twice")
        return object.__new__(cls)._freeze(
            n, s, _checked_labels(n, s, cycle_col, pos_col, _int_column(label), shown))

    @classmethod
    def from_labels(cls, n: int, s: int, labels: Iterable[int]) -> "Labeling":
        """Trusted constructor from labels already in vertex-index order.

        The caller guarantees 2n labels in [1, 2**63); nothing is checked.
        """
        return object.__new__(cls)._freeze(n, s, np.array(labels, dtype=np.int64))

    def _freeze(self, n: int, s: int, labels: np.ndarray) -> "Labeling":
        labels.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "labels", labels)
        return self

    @property
    def assignment(self) -> Mapping[Vertex, int]:
        """Read-only vertex -> label view, in (cycle, position) order."""
        vertices = (Vertex(c, p) for c in (1, 2) for p in range(1, self.n + 1))
        return MappingProxyType(dict(zip(vertices, self.labels.tolist())))

    @property
    def span(self) -> int:
        return int(self.labels.max())

    def __repr__(self) -> str:
        return f"Labeling(n={self.n}, s={self.s}, span={self.span})"


def construct_labeling(n: int, s: int) -> Labeling:
    """Build the optimal labeling for (n, s); span equals lower_bound_rn(n, s)
    except for the special graphs, whose witness from the table is returned.
    """
    if (case := case_select(n, s)) is CaseId.SPECIAL:
        return Labeling.from_labels(n, s, _SPECIAL_LABELS[(n, s)])
    order = _walk(n, s, case)  # first: its error names the graphs without a construction
    labels = np.empty(2 * n, dtype=np.int64)
    labels[order] = label_sequence(n, s)
    return object.__new__(Labeling)._freeze(n, s, labels)  # labels is its own: not copied
