"""Optimal radio labelings of Z(n, s) by direct construction.

The construction labels vertices in sorted order alpha_1, ..., alpha_2n with
the arithmetic-like sequence

    c(alpha_2i-1) = 1 + (i - 1) * phi(n, s),
    c(alpha_2i)   = 2 + (i - 1) * phi(n, s),

whose final value (n - 1) * phi(n, s) + 2 matches the lower bound from
``bounds``, and places alpha_j on the graph with one of four case-specific
position maps chosen by ``case_select``:

* case 1 (n not divisible by 4, except case 4): odd indices walk cycle 1 in
  steps of omega(n), even indices walk cycle 2 shifted by d_offset(n, s).
* case 2 (n = 4k, s in {1, 3}): both coordinates advance in steps of k, with
  a quarter-counter correction l_i = floor((i - 1) / 4) that also flips the
  cycle halfway through.
* case 3 (n = 4k, s = 2): pairs stay on one cycle, alternating cycles with
  i, with correction l_i = floor((i - 1) / 2).
* case 4 (n = 4k + 2, k even, s = 3): pairs stay on one cycle, switching
  cycles once at i = 2k + 1.

Two graphs fall outside the pattern and are handled directly: Z(3, 3) is a
complete graph on 6 vertices (any six distinct labels work; we use 1..6),
and Z(4, 3) has radio number 9, witnessed by a frozen labeling originally
produced by the exact solver.  For n = 3 with s in {1, 2} no construction is
provided (``CaseId.UNSUPPORTED``); use the exact solver for those.

Raw position formulas may leave the 1-based ranges (including a cycle
coordinate of 0 or 3 in cases 2 and 4); ``normalize_vertex`` wraps them at
construction, with 0 mapping to cycle 2 and 3 mapping to cycle 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping

from .bounds import d_offset, omega, phi
from .graphs import Vertex, normalize_vertex

__all__ = [
    "CaseId",
    "Labeling",
    "case_select",
    "label_sequence",
    "position_case1",
    "position_case2",
    "position_case3",
    "position_case4",
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
    if not (isinstance(n, int) and isinstance(s, int)) or n < 3 or not 1 <= s <= min(3, n):
        raise ValueError(
            f"unsupported graph parameters: n={n}, s={s} (need n >= 3, 1 <= s <= 3, s <= n)"
        )
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
    out: list[int] = []
    for i in range(1, n + 1):
        base = (i - 1) * step
        out.append(1 + base)
        out.append(2 + base)
    return out


def _require_case(n: int, s: int, expected: CaseId, fn: str) -> None:
    actual = case_select(n, s)
    if actual is not expected:
        raise ValueError(f"wrong case: {fn} needs {expected.value}, but (n={n}, s={s}) is {actual.value}")


def _split_index(j: int, n: int) -> tuple[int, bool]:
    if not 1 <= j <= 2 * n:
        raise ValueError(f"sorted-order index out of range: j={j} (need 1 <= j <= {2 * n})")
    if j % 2 == 1:
        return (j + 1) // 2, True
    return j // 2, False


def _case1(n: int, s: int, j: int) -> Vertex:
    i, odd = _split_index(j, n)
    w = omega(n)
    if odd:
        return normalize_vertex(1, 1 + w * (i - 1), n)
    return normalize_vertex(2, 1 + d_offset(n, s) + w * (i - 1), n)


def _case2(n: int, s: int, j: int) -> Vertex:
    i, odd = _split_index(j, n)
    k = n // 4
    l = (i - 1) // 4
    if odd:
        return normalize_vertex(1 + l, 1 + k * (i - 1) - l, n)
    return normalize_vertex(2 + l, 1 + k * (i + 1) - l, n)


def _case3(n: int, s: int, j: int) -> Vertex:
    i, odd = _split_index(j, n)
    k = n // 4
    l = (i - 1) // 2
    if odd:
        return normalize_vertex(i, 1 + k * (i - 1) - l, n)
    return normalize_vertex(i, 1 + k * (i + 1) - l, n)


def _case4(n: int, s: int, j: int) -> Vertex:
    i, odd = _split_index(j, n)
    k = (n - 2) // 4
    l = 0 if i <= 2 * k + 1 else 1
    if odd:
        return normalize_vertex(l, 1 + (i - 1) * k, n)
    return normalize_vertex(l, 2 + (i + 1) * k, n)


# The position formulas without the case check: callers that have already
# run case_select (construct_labeling, selftest) index this table directly.
_POSITION_FOR_CASE: dict[CaseId, Callable[[int, int, int], Vertex]] = {
    CaseId.CASE1: _case1,
    CaseId.CASE2: _case2,
    CaseId.CASE3: _case3,
    CaseId.CASE4: _case4,
}


def position_case1(n: int, s: int, j: int) -> Vertex:
    """Case-1 position of alpha_j: omega-steps on cycle 1, offset walk on cycle 2."""
    _require_case(n, s, CaseId.CASE1, "position_case1")
    return _case1(n, s, j)


def position_case2(n: int, s: int, j: int) -> Vertex:
    """Case-2 position of alpha_j (n = 4k, s in {1, 3})."""
    _require_case(n, s, CaseId.CASE2, "position_case2")
    return _case2(n, s, j)


def position_case3(n: int, s: int, j: int) -> Vertex:
    """Case-3 position of alpha_j (n = 4k, s = 2)."""
    _require_case(n, s, CaseId.CASE3, "position_case3")
    return _case3(n, s, j)


def position_case4(n: int, s: int, j: int) -> Vertex:
    """Case-4 position of alpha_j (n = 4k + 2, k even, s = 3)."""
    _require_case(n, s, CaseId.CASE4, "position_case4")
    return _case4(n, s, j)


# Span-9 radio labeling of Z(4, 3), found once by exact_radio_number and
# frozen as a regression constant (the graph falls outside the general pattern).
_SPECIAL_4_3_LABELS: dict[Vertex, int] = {
    Vertex(1, 1): 9, Vertex(1, 2): 4, Vertex(1, 3): 8, Vertex(1, 4): 3,
    Vertex(2, 1): 7, Vertex(2, 2): 2, Vertex(2, 3): 6, Vertex(2, 4): 1,
}


@dataclass(frozen=True)
class Labeling:
    """A total assignment of positive integer labels to the vertices of Z(n, s).

    The container itself only enforces positive integer labels; distinctness
    and the radio condition are audited by ``verification.verify`` so that
    deliberately broken assignments can be represented and reported on.
    """

    n: int
    s: int
    assignment: Mapping[Vertex, int] = field(repr=False)

    def __post_init__(self) -> None:
        clean: dict[Vertex, int] = {}
        for v, c in self.assignment.items():
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ValueError(f"labels must be positive integers, got {c!r} at {v}")
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
    if case is CaseId.UNSUPPORTED:
        raise ValueError(
            f"unsupported graph parameters: no construction for (n={n}, s={s}); use the exact solver"
        )
    if case is CaseId.SPECIAL_3_3:
        verts = [Vertex(c, p) for c in (1, 2) for p in (1, 2, 3)]
        return Labeling(n=3, s=3, assignment={v: i + 1 for i, v in enumerate(verts)})
    if case is CaseId.SPECIAL_4_3:
        if not _SPECIAL_4_3_LABELS:
            raise RuntimeError("Z(4, 3) witness constant missing")
        return Labeling(n=4, s=3, assignment=dict(_SPECIAL_4_3_LABELS))

    position = _POSITION_FOR_CASE[case]
    seq = label_sequence(n, s)
    assignment = {position(n, s, j): seq[j - 1] for j in range(1, 2 * n + 1)}
    assert len(assignment) == 2 * n, f"position map not injective for (n={n}, s={s})"
    return Labeling(n=n, s=s, assignment=assignment)
