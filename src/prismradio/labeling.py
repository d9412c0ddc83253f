"""Optimal radio labelings of Z(n, s) by direct construction.

The construction is two sequences of length 2n read side by side.
``label_sequence`` gives the labels in increasing order,

    c(alpha_2i-1) = 1 + (i - 1) * phi(n, s),
    c(alpha_2i)   = 2 + (i - 1) * phi(n, s),

whose final value (n - 1) * phi(n, s) + 2 matches the lower bound from
``bounds``.  ``label_order`` gives the vertices alpha_1, ..., alpha_2n that
receive them, from one of four position formulas chosen by ``case_select``:

* case 1 (n not divisible by 4, except case 4): odd indices walk cycle 1 in
  steps of omega(n), even indices walk cycle 2 shifted by d_offset(n, s).
* case 2 (n = 4k, s in {1, 3}): both coordinates advance in steps of k, with
  a quarter-counter correction l_i = floor((i - 1) / 4) that also flips the
  cycle halfway through.
* case 3 (n = 4k, s = 2): pairs stay on one cycle, alternating cycles with
  i, with correction l_i = floor((i - 1) / 2).
* case 4 (n = 4k + 2, k even, s = 3): pairs stay on one cycle, switching
  cycles once at i = 2k + 1.

Each formula is evaluated over i = 1..n as a NumPy array.  Its raw values
leave the 1-based ranges: positions run past n, and the cycle coordinate of
cases 2-4 is any integer (i itself in case 3, 0 in case 4).  Both
coordinates are wrapped as ``normalize_vertex`` does, so an even cycle
coordinate means cycle 2 and an odd one cycle 1.  ``construct_labeling``
zips the two sequences into a Labeling.

Two graphs fall outside the pattern and are handled directly: Z(3, 3) is a
complete graph on 6 vertices (any six distinct labels work; we use 1..6),
and Z(4, 3) has radio number 9, witnessed by a frozen labeling originally
produced by the exact solver.  For n = 3 with s in {1, 2} no construction is
provided (``CaseId.UNSUPPORTED``); use the exact solver for those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .bounds import d_offset, omega, phi
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
    SPECIAL_3_3 = "special-3-3"
    SPECIAL_4_3 = "special-4-3"
    UNSUPPORTED = "unsupported"


def case_select(n: int, s: int) -> CaseId:
    """Pick the construction case for (n, s); UNSUPPORTED is a value, not an error."""
    _validate_params(n, s)
    if (n, s) == (3, 3):
        return CaseId.SPECIAL_3_3
    if (n, s) == (4, 3):
        return CaseId.SPECIAL_4_3
    if n == 3:
        return CaseId.UNSUPPORTED
    k, r = divmod(n, 4)
    if r == 0:
        return CaseId.CASE3 if s == 2 else CaseId.CASE2
    if r == 2 and k % 2 == 0 and s == 3:
        return CaseId.CASE4
    return CaseId.CASE1


def label_sequence(n: int, s: int) -> list[int]:
    """The 2n label values in sorted order: 1, 2, 1 + phi, 2 + phi, ..."""
    step = phi(n, s)
    return [first + i * step for i in range(n) for first in (1, 2)]


def label_order(n: int, s: int) -> list[Vertex]:
    """alpha_1, ..., alpha_2n: the vertices in the order label_sequence labels them.

    Cases 1-4 only; raises ValueError for the two specials and for n = 3
    with s < 3, which have no sorted-order construction.
    """
    case = case_select(n, s)
    i = np.arange(1, n + 1, dtype=np.int64)
    # (cycle, position) of alpha_2i-1 and of alpha_2i, before wrapping
    if case is CaseId.CASE1:
        w = omega(n)
        odd = (1, 1 + w * (i - 1))
        even = (2, 1 + d_offset(n, s) + w * (i - 1))
    elif case is CaseId.CASE2:
        k, l = n // 4, (i - 1) // 4
        odd = (1 + l, 1 + k * (i - 1) - l)
        even = (2 + l, 1 + k * (i + 1) - l)
    elif case is CaseId.CASE3:
        k, l = n // 4, (i - 1) // 2
        odd = (i, 1 + k * (i - 1) - l)
        even = (i, 1 + k * (i + 1) - l)
    elif case is CaseId.CASE4:
        k = (n - 2) // 4
        l = np.where(i <= 2 * k + 1, 0, 1)
        odd = (l, 1 + k * (i - 1))
        even = (l, 2 + k * (i + 1))
    elif case is CaseId.UNSUPPORTED:
        raise ValueError(
            f"unsupported graph parameters: no construction for (n={n}, s={s}); use the exact solver"
        )
    else:
        raise ValueError(f"Z({n},{s}) is {case.value}: construct_labeling labels it directly")
    cycle = np.empty(2 * n, dtype=np.int64)
    position = np.empty(2 * n, dtype=np.int64)
    for parity, (c, p) in enumerate((odd, even)):
        cycle[parity::2], position[parity::2] = c, p
    # the wrap of normalize_vertex, on whole arrays
    cycle, position = (cycle - 1) % 2 + 1, (position - 1) % n + 1
    return list(map(Vertex, cycle.tolist(), position.tolist()))


# Span-9 radio labeling of Z(4, 3), found once by exact_radio_number and
# frozen as a regression constant (the graph falls outside the general pattern).
_SPECIAL_4_3_LABELS: dict[Vertex, int] = {
    Vertex(1, 1): 9, Vertex(1, 2): 4, Vertex(1, 3): 8, Vertex(1, 4): 3,
    Vertex(2, 1): 7, Vertex(2, 2): 2, Vertex(2, 3): 6, Vertex(2, 4): 1,
}


@dataclass(frozen=True)
class Labeling:
    """A total assignment of positive integer labels to the vertices of Z(n, s).

    The container itself only enforces positive integer labels below 2**63
    (the verifier holds them in int64); distinctness and the radio condition
    are audited by ``verification.verify`` so that deliberately broken
    assignments can be represented and reported on.
    """

    n: int
    s: int
    assignment: Mapping[Vertex, int] = field(repr=False)

    def __post_init__(self) -> None:
        clean: dict[Vertex, int] = {}
        for v, c in self.assignment.items():
            if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c < 2**63:
                raise ValueError(
                    f"labels must be positive integers below 2**63, got {c!r} at {v}"
                )
            clean[Vertex(*v)] = c
        object.__setattr__(self, "assignment", MappingProxyType(clean))

    @property
    def span(self) -> int:
        if not self.assignment:
            raise ValueError("empty labeling")
        return max(self.assignment.values())

    def label(self, v: Vertex) -> int:
        return self.assignment[Vertex(*v)]

    def items_sorted(self) -> list[tuple[Vertex, int]]:
        """(vertex, label) pairs in (cycle, position) lexicographic order."""
        return sorted(self.assignment.items())

    def __repr__(self) -> str:
        return f"Labeling(n={self.n}, s={self.s}, span={self.span})"


def construct_labeling(n: int, s: int) -> Labeling:
    """Build the optimal labeling for (n, s); span equals lower_bound_rn(n, s)
    except for the two special graphs (span 6 for Z(3, 3), 9 for Z(4, 3)).
    """
    case = case_select(n, s)
    if case is CaseId.SPECIAL_3_3:
        verts = [Vertex(c, p) for c in (1, 2) for p in (1, 2, 3)]
        return Labeling(n=3, s=3, assignment={v: i + 1 for i, v in enumerate(verts)})
    if case is CaseId.SPECIAL_4_3:
        return Labeling(n=4, s=3, assignment=dict(_SPECIAL_4_3_LABELS))
    return Labeling(n=n, s=s, assignment=dict(zip(label_order(n, s), label_sequence(n, s))))
