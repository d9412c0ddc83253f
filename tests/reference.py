"""Slow, independent references for the fast paths, used by the tests only.

``all_pairs_distances`` runs scipy's all-pairs BFS over an edge list written
straight from the definition of Z(n, s), so it shares nothing with the
rotation-invariant rows of ``prismradio.graphs``; ``bicirculant_distances``
does the same for other pairs of joined n-cycles, such as the generalized
Petersen graphs.  ``swap_orbit_is_everything`` walks the orbit of (1, 1)
under the rotation and cycle-swap maps, each checked edge by edge on the
dense matrix, and ``triple_budget_violations`` sweeps every triple with
``itertools.combinations``: the oracles of the symmetry check in
``prismradio.exact`` and of the anchored sweep in ``prismradio.bounds``,
which both read only the two metric rows.  ``pair_gap_every_triple``
takes the consecutive-triple bound over every middle vertex and unordered
pair of others, and ``dense_pair_gap`` is ``prismradio.bounds.pair_gap`` as
it was before it read the rows: one 2n x 2n gap matrix per middle vertex
(1, 1) and (2, 1).  ``bfs_row`` is a
pure-Python breadth-first search from one vertex over the same edge rule,
the oracle for the closed-form rows at n up to about 2 * 10^5.
``all_pairs_violations`` is the dense radio-condition check that ``verify``
replaced: it compares every pair, with no label window.
``brute_force_radio_number`` tries every vertex order, sharing no code with
``prismradio.exact``; ``recursive_exact_search`` is the branch-and-bound
search as it was before it broke the reflection symmetry and ran on an
explicit stack: one recursive call per depth and no symmetry but the fixed
first vertex.
``scalar_label_order`` evaluates the construction's position formulas one
index at a time in Python integers, as ``label_order`` did before it worked
on NumPy arrays.
``entry_labels`` and ``labels_from_document`` check a labeling one entry at
a time, keyed by (cycle, pos) tuples, as ``Labeling`` and the CLI reader did
before they worked on int64 columns; ``labeling_document`` (serialized by
``json.dumps``) and ``label_lines`` write one vertex at a time, as the CLI
did before it wrote the label array in chunks.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from prismradio.bounds import d_offset, omega, pair_gap
from prismradio.graphs import PrismGraph, Vertex, _validate_params, build_graph
from prismradio.labeling import construct_labeling


def bicirculant_distances(n: int, step: int, offsets) -> np.ndarray:
    """Hop counts of two n-cycles, (1, p) -- (1, p + 1) and (2, p) -- (2, p + step),
    joined by (1, p) -- (2, p + d) for d in offsets; index (c - 1) * n + (p - 1)."""
    edges = []
    for p in range(n):
        edges.append((p, (p + 1) % n))  # ring of cycle 1
        edges.append((n + p, n + (p + step) % n))  # ring of cycle 2
        edges += [(p, n + (p + d) % n) for d in offsets]  # (1, p) -- (2, p + d)
    a, b = np.array(edges).T
    adj = csr_matrix((np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])), shape=(2 * n, 2 * n))
    d = shortest_path(adj, method="D", unweighted=True)
    assert np.isfinite(d).all()
    return d.astype(np.int32)


@lru_cache(maxsize=None)
def all_pairs_distances(n: int, s: int) -> np.ndarray:
    """Hop counts of Z(n, s); index (c - 1) * n + (p - 1) is vertex (c, p)."""
    return bicirculant_distances(n, 1, range(-((s - 1) // 2), s // 2 + 1))


def graph_of(dist: np.ndarray, s: int) -> PrismGraph:
    """A PrismGraph with the rows of a rotation-invariant ``dist``, for any s."""
    n = len(dist) // 2
    return PrismGraph(n, s, dist[[0, n]].reshape(2, 2, n), int(dist.max()))


def swap_orbit_is_everything(dist: np.ndarray) -> bool:
    """Whether the edge-preserving maps among the rotation p -> p + 1 and the
    swaps (1, p) -> (2, p + t), (2, p) -> (1, p + u) carry (1, 1) to every
    vertex of the graph with hop counts ``dist``, each map tried edge by edge."""
    n = len(dist) // 2
    c, p = np.divmod(np.arange(2 * n), n)
    maps = [c * n + (p + 1) % n]
    maps += [np.where(c == 0, n + (p + t) % n, (p + u) % n) for t in range(n) for u in range(n)]
    a, b = np.nonzero(dist == 1)
    maps = [m for m in maps if (dist[m[a], m[b]] == 1).all()]
    orbit: set = {0}
    while True:
        grown = orbit | {int(m[x]) for m in maps for x in orbit}
        if grown == orbit:
            return len(orbit) == 2 * n
        orbit = grown


def triple_budget_violations(dist: np.ndarray, s: int) -> set:
    """((i, j, k), total) for every index triple i < j < k whose pairwise
    distances sum past n + 3 - s, leaving out for s = 3 the triples that
    hold some pair i, i + n."""
    n = len(dist) // 2
    out = set()
    for t in combinations(range(2 * n), 3):
        if s == 3 and any(y - x == n for x, y in combinations(t, 2)):
            continue
        i, j, k = t
        total = int(dist[i, j] + dist[i, k] + dist[j, k])
        if total > n + 3 - s:
            out.add((t, total))
    return out


def pair_gap_every_triple(dist: np.ndarray) -> int:
    """The least max(step(a, b) + step(b, c), D - d(a, c)) over every middle
    vertex b and pair {a, c} of other vertices, step(x, y) = max(1, D - d(x, y))
    and D = diam + 1."""
    d = dist.tolist()
    reach = int(dist.max()) + 1
    return min(
        max(max(1, reach - d[a][b]) + max(1, reach - d[b][c]), reach - d[a][c])
        for b in range(len(d))
        for a, c in combinations([x for x in range(len(d)) if x != b], 2)
    )


def dense_pair_gap(dist: np.ndarray) -> int:
    """The pair gap from the dense matrix, up to rotation: middle vertex (1, 1) or (2, 1)."""
    n, reach = len(dist) // 2, int(dist.max()) + 1
    gaps = []
    for b in (0, n):
        step = np.maximum(1, reach - dist[b])
        gap = np.maximum(step[:, None] + step[None, :], reach - dist)
        # a, b, c distinct: no triple uses the diagonal, row b or column b
        excluded = np.iinfo(gap.dtype).max
        np.fill_diagonal(gap, excluded)
        gap[b] = gap[:, b] = excluded
        gaps.append(int(gap.min()))
    return min(gaps)


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


def recursive_exact_search(n: int, s: int) -> tuple[int, int]:
    """(rn, nodes explored) of Z(n, s) by the recursive, tie-preserving search.

    The incumbent is seeded from ``construct_labeling`` when it covers (n, s),
    else from the greedy labels of the vertices in index order.  The first
    vertex is fixed to (1, 1) when the orbit oracle shows the graph is
    vertex-transitive.  Children are expanded in ascending (forced label,
    vertex index) order, and a child is cut when its label plus the
    ``pair_gap`` bound on the vertices still to come exceeds the incumbent.
    """
    matrix = all_pairs_distances(n, s)
    nv = 2 * n
    required = int(matrix.max()) + 1
    pair_step = max(0, pair_gap(build_graph(n, s)) - 2)
    dist = matrix.tolist()
    try:
        best = construct_labeling(n, s).span
    except ValueError:
        labels = [1]
        for v in range(1, nv):
            labels.append(max(labels[-1] + 1,
                              *(labels[u] + required - dist[u][v] for u in range(v))))
        best = labels[-1]
    first_pool = [0] if swap_orbit_is_everything(matrix) else range(nv)
    placed = [False] * nv
    lb = [0] * nv
    nodes = 0

    def dfs(depth: int, last_label: int) -> None:
        nonlocal nodes, best
        m = nv - depth
        pool = first_pool if depth == 0 else range(nv)
        children = sorted((max(lb[v], last_label + 1), v) for v in pool if not placed[v])
        tail_bound = m - 2 + (m - 1) // 2 * pair_step
        for c, v in children:
            if c + tail_bound >= best:
                break
            nodes += 1
            if m == 1:
                best = c
                continue
            placed[v] = True
            saved = []
            for u in range(nv):
                if not placed[u] and c + required - dist[v][u] > lb[u]:
                    saved.append((u, lb[u]))
                    lb[u] = c + required - dist[v][u]
            dfs(depth + 1, c)
            for u, old in saved:
                lb[u] = old
            placed[v] = False

    dfs(0, 0)
    return best, nodes


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


def entry_labels(n: int, s: int, assignment) -> list[int]:
    """The labels of a vertex -> label mapping in vertex-index order, or the
    ValueError of its first fault, checking one entry at a time."""
    _validate_params(n, s)
    labels = {}
    for v, c in assignment.items():
        try:
            cycle, pos = v
        except (TypeError, ValueError):
            cycle = pos = None
        if not (type(cycle) is int and type(pos) is int
                and cycle in (1, 2) and 1 <= pos <= n):
            shown = v if cycle is None else Vertex(cycle, pos)
            raise ValueError(f"labeling references unknown vertex: {shown}")
        if type(c) is not int or not 1 <= c < 2**63:
            raise ValueError(f"labels must be positive integers below 2**63, "
                             f"got {c!r} at {Vertex(cycle, pos)}")
        labels[(cycle - 1) * n + pos - 1] = c
    missing = 2 * n - len(labels)
    if missing:
        first = next(i for i in range(2 * n) if i not in labels)
        raise ValueError(f"labeling incomplete: {missing} vertices unlabeled "
                         f"(first: {Vertex(first // n + 1, first % n + 1)})")
    return [labels[i] for i in range(2 * n)]


def labels_from_document(data) -> list[int]:
    """The labels of a document in the JSON labeling schema, or the
    ValueError of its first fault, checking one entry at a time."""
    if not isinstance(data, dict):
        raise ValueError("malformed labeling file: top level must be an object")
    for key in ("n", "s", "labels"):
        if key not in data:
            raise ValueError(f"malformed labeling file: missing key {key!r}")
    n, s = data["n"], data["s"]
    if type(n) is not int or type(s) is not int:
        raise ValueError("malformed labeling file: n and s must be integers")
    entries = data["labels"]
    if not isinstance(entries, list):
        raise ValueError("malformed labeling file: labels must be a list")
    try:
        rows = [(e["cycle"], e["pos"], e["label"]) for e in entries]
    except (KeyError, TypeError):
        raise ValueError("malformed labeling file: each label needs cycle, pos, label") from None
    if any(type(x) is not int for row in rows for x in row):
        raise ValueError("malformed labeling file: cycle, pos, label must be integers")
    assignment = {}
    for cycle, pos, label in rows:
        if (cycle, pos) in assignment:
            raise ValueError(f"malformed labeling file: vertex ({cycle},{pos}) labeled twice")
        assignment[(cycle, pos)] = label
    return entry_labels(n, s, assignment)


def labeling_document(g: PrismGraph, lab) -> dict:
    """The JSON labeling schema of ``lab`` as nested dicts, one per vertex."""
    return {
        "n": g.n,
        "s": g.s,
        "diameter": g.diameter,
        "span": lab.span,
        "labels": [
            {"cycle": v.cycle, "pos": v.position, "label": c} for v, c in lab.assignment.items()
        ],
    }


def label_lines(g: PrismGraph, lab, fmt: str) -> list[str]:
    """The lines of ``label --format text|csv|dot``, one vertex at a time."""
    items = lab.assignment.items()
    if fmt == "csv":
        return ["cycle,pos,label"] + [f"{v.cycle},{v.position},{c}" for v, c in items]
    if fmt == "dot":
        return ([f"graph Z_{g.n}_{g.s} {{"]
                + [f'  c{v.cycle}_p{v.position} [label="{c}"];' for v, c in items]
                + [f"  c{u.cycle}_p{u.position} -- c{v.cycle}_p{v.position};"
                   for u, v in g.edges()]
                + ["}"])
    return ([f"Z({g.n},{g.s}): diameter {g.diameter}, span {lab.span}"]
            + [f"({v.cycle},{v.position}) {c}" for v, c in items])


def labeling_by_json_load(path):
    """The labeling in the file at ``path`` as ``json.load`` and
    ``cli.labeling_from_dict`` read it, with ``verify --file``'s errors:
    the oracle of the CLI's reader of its own layout."""
    from prismradio.cli import labeling_from_dict

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed labeling file: {e}") from None
    except RecursionError:
        raise ValueError("malformed labeling file: nested too deeply") from None
    return labeling_from_dict(data)
