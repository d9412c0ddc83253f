"""Reference facts about Z(n, s), derived without importing prismradio.

The benchmark checks the program's outputs against these, so they are
written from the paper's definitions alone: the edge rule for the graph,
a breadth-first search for distances, and the radio condition
d(u, v) + |c(u) - c(v)| >= diam + 1 for labelings.

Vertices are (cycle, pos) pairs, cycle in {1, 2} and pos in {1..n}, as in
the program's JSON schema.
"""

from __future__ import annotations

from collections import deque


class PrismMetric:
    """Hop distances of Z(n, s) from two BFS rows plus rotation.

    (1, i) is joined to (2, i + d) for d in {-floor((s-1)/2), ..., floor(s/2)},
    and each cycle is a ring.  Shifting every position by t maps edges to
    edges, so d((c, i), (c', j)) = d((c, 1), (c', 1 + j - i)): the BFS rows
    from (1, 1) and (2, 1) hold the whole metric.
    """

    def __init__(self, n: int, s: int):
        self.n, self.s = n, s
        offsets = range(-((s - 1) // 2), s // 2 + 1)

        def neighbours(c: int, p: int):
            # 0-based cycle c and position p
            yield c, (p + 1) % n
            yield c, (p - 1) % n
            for d in offsets:
                yield (1, (p + d) % n) if c == 0 else (0, (p - d) % n)

        # rows[c][c2][k] = d((c+1, 1), (c2+1, 1 + k))
        self.rows = []
        for source in (0, 1):
            seen = {(source, 0): 0}
            queue = deque([(source, 0)])
            while queue:
                u = queue.popleft()
                for w in neighbours(*u):
                    if w not in seen:
                        seen[w] = seen[u] + 1
                        queue.append(w)
            self.rows.append([[seen[(c2, k)] for k in range(n)] for c2 in (0, 1)])
        self.diameter = max(max(r) for row in self.rows for r in row)

    def distance(self, u: tuple[int, int], v: tuple[int, int]) -> int:
        (c, i), (c2, j) = u, v
        return self.rows[c - 1][c2 - 1][(j - i) % self.n]


def violations(metric: PrismMetric, labels: dict) -> set:
    """Every pair breaking the radio condition, as (frozenset{u, v}, d, gap).

    A violating pair has a label gap of at most diam, so after sorting by
    label only pairs inside that window are examined.
    """
    required = metric.diameter + 1
    order = sorted(labels, key=labels.get)
    out = set()
    for a, u in enumerate(order):
        for v in order[a + 1:]:
            gap = labels[v] - labels[u]
            if gap >= required:
                break
            d = metric.distance(u, v)
            if d + gap < required:
                out.add((frozenset((u, v)), d, gap))
    return out


def radio_number(n: int, s: int) -> int | None:
    """rn(Z(n, s)) as the paper states it; None where it gives no value.

    phi, the least gap between labels two apart in sorted order, follows from
    the triple-distance budget n + 3 - s: 2 * phi >= 3 * (diam + 1) - (n + 3 - s).
    Z(3, 3) = K6 and Z(4, 3) are the paper's two exceptions.
    """
    if (n, s) == (3, 3):
        return 6
    if (n, s) == (4, 3):
        return 9
    if n < 4:
        return None
    diam = (n + 3 - s) // 2
    phi = -(-(3 * (diam + 1) - (n + 3 - s)) // 2)
    return (n - 1) * phi + 2
