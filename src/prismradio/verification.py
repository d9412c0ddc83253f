"""Independent audit of radio labelings.

``verify`` checks the radio condition d(u, v) + |c(u) - c(v)| >= diam + 1
for every unordered vertex pair and returns a report rather than a verdict
bit.  Duplicate labels need no special treatment: a pair with gap 0 always
violates the condition, so collisions surface as ordinary violations with
label_gap = 0.  Violations are listed in lexicographic (cycle, position)
order of the pair, so reports are stable.

Only a window of pairs needs a distance.  A pair whose label gap exceeds
diam satisfies the condition whatever its distance, so it is certified by
the gap alone.  With the vertices sorted by label, the gap between the
entries t places apart grows with t, so the sweep compares each vertex with
the one t places later for t = 1, 2, ... and stops at the first t where no
pair has gap <= diam (the consecutive-labels argument of Liu and Zhu,
"Multilevel distance labelings for paths and cycles", SIAM J. Discrete Math.
19 (2005)).  Distances come from the graph's O(n) rotation-invariant rows, so
a construction with O(n) pairs in its window verifies in O(n log n) time and
O(n) memory; ``pairs_checked`` still counts all nv(nv - 1)/2 pairs, because
every pair is certified, by its distance or by its gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import PrismGraph, Vertex
from .labeling import Labeling

__all__ = ["Violation", "VerificationReport", "verify", "span_of"]


class Violation(NamedTuple):
    u: Vertex
    v: Vertex
    distance: int
    label_gap: int
    required: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking every pair: valid iff violations is empty."""

    valid: bool
    violations: tuple[Violation, ...]
    span: int
    pairs_checked: int

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "span": self.span,
            "pairs_checked": self.pairs_checked,
            "violations": [
                {
                    "u": {"cycle": w.u.cycle, "pos": w.u.position},
                    "v": {"cycle": w.v.cycle, "pos": w.v.position},
                    "distance": w.distance,
                    "label_gap": w.label_gap,
                    "required": w.required,
                }
                for w in self.violations
            ],
        }


def span_of(labeling: Labeling) -> int:
    """Largest label used; ValueError("empty labeling") when there is none."""
    if not labeling.assignment:
        raise ValueError("empty labeling")
    return max(labeling.assignment.values())


def _label_array(g: PrismGraph, labeling: Labeling) -> np.ndarray:
    """Labels indexed like g's vertices (index (c - 1) * n + p - 1).

    Raises ValueError("labeling references unknown vertex") for the first
    assignment key, in insertion order, that equals no vertex of g, and
    ValueError("labeling incomplete") when some vertex of g has no label.
    """
    n = g.n
    labels = np.zeros(2 * n, dtype=np.int64)  # labels are positive: 0 marks "unset"
    for v, label in labeling.assignment.items():
        try:  # v may hold equal non-int numbers, such as 2.0 or NumPy integers
            c, p = int(v.cycle), int(v.position)
        except (TypeError, ValueError, OverflowError):
            c = p = 0
        if (c, p) != v or c not in (1, 2) or not 1 <= p <= n:
            raise ValueError(f"labeling references unknown vertex: {v}")
        labels[(c - 1) * n + p - 1] = label
    if len(labeling.assignment) < 2 * n:
        unset = np.flatnonzero(labels == 0)
        raise ValueError(
            f"labeling incomplete: {unset.size} vertices unlabeled "
            f"(first: {g.vertex_at(int(unset[0]))})"
        )
    return labels


def verify(g: PrismGraph, labeling: Labeling) -> VerificationReport:
    """Check the radio condition on all pairs of g under the given labels.

    Raises ValueError("labeling incomplete") when some vertex of g has no
    label, and ValueError("labeling references unknown vertex") when the
    assignment mentions a vertex outside g.
    """
    n, nv = g.n, 2 * g.n
    labels = _label_array(g, labeling)
    required = g.diameter + 1
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    found = []  # per offset: (lower index, higher index, distance, gap) of violations
    active = np.arange(nv)  # sorted positions a whose pair (a, a + t) is in the window
    for t in range(1, nv):
        active = active[active + t < nv]
        gap = sorted_labels[active + t] - sorted_labels[active]
        inside = gap <= g.diameter
        active, gap = active[inside], gap[inside]
        if not active.size:
            break
        a, b = order[active], order[active + t]
        (ca, pa), (cb, pb) = np.divmod(a, n), np.divmod(b, n)
        d = g.rows[ca, cb, (pb - pa) % n]
        bad = d + gap < required
        found.append((np.minimum(a, b)[bad], np.maximum(a, b)[bad], d[bad], gap[bad]))
    violations: tuple[Violation, ...] = ()
    if found:
        lo, hi, dist, gap = (np.concatenate(cols) for cols in zip(*found))
        violations = tuple(
            Violation(g.vertex_at(int(lo[k])), g.vertex_at(int(hi[k])), int(dist[k]),
                      int(gap[k]), required)
            for k in np.lexsort((hi, lo))
        )
    return VerificationReport(
        valid=not violations,
        violations=violations,
        span=int(labels.max()),
        pairs_checked=nv * (nv - 1) // 2,
    )
