"""Spans and counters around prismradio's layer boundaries.

The wrappers are installed from the benchmark's side at the names callers
look up (``prismradio.cli.verify`` and so on); the library is not edited.
A span records name, start, end and the index of its parent span.  Point
distance queries are too many and too short for spans: they are counted,
and their time is charged to the enclosing span as ``inner`` time.

Spans stay in memory; the repeat process writes them out when it ends and
the parent turns them into per-layer metrics with ``layer_metrics``, in
the scaled seconds of ``speed`` when it passes ``speed.scaled_seconds``
as the length of a time interval.
"""

from __future__ import annotations

import functools
import re
import time
from contextlib import contextmanager
from math import comb

# span name -> per-layer self-time metric
SPAN_METRIC = {
    "cli.main": "cli.self_s",
    "cli.labeling_from_dict": "cli.parse_s",
    "graphs.build_graph": "graphs.build_s",
    "bounds.check_triple_bound": "bounds.triple_sweep_s",
    "labeling.construct_labeling": "labeling.construct_s",
    "verification.verify": "verification.verify_s",
    "exact.exact_radio_number": "exact.search_s",
    "selftest.run_selftest": "selftest.run_s",
}

# counters the tracer keeps; identical across traced runs of the same inputs
COUNTERS = (
    "graphs.lookups",
    "graphs.builds",
    "graphs.dist_bytes",
    "graphs.queries",
    "bounds.triples_checked",
    "labeling.vertices_placed",
    "verification.pairs_checked",
    "verification.violations",
    "exact.nodes",
    "exact.proven",
    "selftest.checks",
)

# a span is [name, start, end, parent index or None, inner seconds]
NAME, START, END, PARENT, INNER = range(5)


class Tracer:
    def __init__(self, clock=time.monotonic):  # the speed probes' clock
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self.clock(), None, self._open[-1] if self._open else None, 0.0]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = self.clock()
            self._open.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def query(self, seconds: float) -> None:
        """Record one point-distance query that took ``seconds``.

        Its time counts only inside a span, where every query of a repeat is.
        """
        self.counts["graphs.queries"] += 1
        if self._open:
            self.spans[self._open[-1]][INNER] += seconds


def _wall(a: float, b: float) -> float:
    return b - a


def _inner(sp: list, length) -> float:
    """A span's inner time, scaled as its whole interval is."""
    wall = sp[END] - sp[START]
    return sp[INNER] * length(sp[START], sp[END]) / wall if wall > 0 else 0.0


def self_times(spans: list, length=_wall) -> list[float]:
    """Each span's duration minus the part its children and inner calls cover.

    ``length(a, b)`` gives the duration of the interval [a, b].
    """
    children: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        if sp[PARENT] is not None:
            children.setdefault(sp[PARENT], []).append(i)
    out = []
    for i, sp in enumerate(spans):
        start, end = sp[START], sp[END]
        covered, reach = 0.0, start
        for c0, c1 in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += length(c0, c1)
                reach = c1
        out.append(length(start, end) - covered - _inner(sp, length))
    return out


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list, counts: dict, length=_wall) -> dict[str, float]:
    """Per-layer self times, counts and ratios of one traced repeat.

    ``length(a, b)`` gives the duration of the interval [a, b].
    """
    m = dict.fromkeys(SPAN_METRIC.values(), 0.0)
    for sp, own in zip(spans, self_times(spans, length)):
        m[SPAN_METRIC[sp[NAME]]] += own
    c = counts
    m.update({
        "graphs.builds": c["graphs.builds"],
        "graphs.lookups": c["graphs.lookups"],
        "graphs.cache_hit_ratio": _rate(c["graphs.lookups"] - c["graphs.builds"],
                                        c["graphs.lookups"]),
        "graphs.dist_mb": c["graphs.dist_bytes"] / 2**20,
        "graphs.query_s": sum(_inner(sp, length) for sp in spans),
        "graphs.queries": c["graphs.queries"],
        "bounds.triples_checked": c["bounds.triples_checked"],
        "labeling.vertices_placed": c["labeling.vertices_placed"],
        "verification.pairs_checked": c["verification.pairs_checked"],
        "verification.violations": c["verification.violations"],
        "verification.pairs_per_s": _rate(c["verification.pairs_checked"],
                                          m["verification.verify_s"]),
        "exact.nodes": c["exact.nodes"],
        "exact.nodes_per_s": _rate(c["exact.nodes"], m["exact.search_s"]),
        "exact.proven": c["exact.proven"],
        "selftest.checks": c["selftest.checks"],
    })
    return m


def _wrap(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    from prismradio import cli, exact, graphs, selftest

    build = cli.build_graph  # the lru-cached original

    def build_graph(*args, **kwargs):
        misses = build.cache_info().misses
        with tracer.span("graphs.build_graph"):
            g = build(*args, **kwargs)
        tracer.count("graphs.lookups")
        if build.cache_info().misses > misses:
            tracer.count("graphs.builds")
            tracer.count("graphs.dist_bytes", g.dist.nbytes)
        return g

    def after_verify(args, report):
        tracer.count("verification.pairs_checked", report.pairs_checked)
        tracer.count("verification.violations", len(report.violations))

    def after_exact(args, result):
        tracer.count("exact.nodes", result.nodes_explored)
        tracer.count("exact.proven", int(result.proven_optimal))

    def after_selftest(args, results):
        for r in results:
            m = re.fullmatch(r"(\d+) checks", r.detail)
            if m:
                tracer.count("selftest.checks", int(m.group(1)))

    wrappers = {
        "build_graph": build_graph,
        "verify": _wrap(tracer, cli.verify, "verification.verify", after_verify),
        "construct_labeling": _wrap(
            tracer, cli.construct_labeling, "labeling.construct_labeling",
            lambda args, lab: tracer.count("labeling.vertices_placed", len(lab.assignment))),
        "exact_radio_number": _wrap(
            tracer, cli.exact_radio_number, "exact.exact_radio_number", after_exact),
        "labeling_from_dict": _wrap(tracer, cli.labeling_from_dict, "cli.labeling_from_dict"),
        "run_selftest": _wrap(tracer, cli.run_selftest, "selftest.run_selftest", after_selftest),
        "check_triple_bound": _wrap(
            tracer, selftest.check_triple_bound, "bounds.check_triple_bound",
            lambda args, ok: tracer.count("bounds.triples_checked", comb(2 * args[0].n, 3))),
    }
    distance = graphs.PrismGraph.distance
    clock = tracer.clock

    def timed_distance(self, u, v):
        t = clock()
        d = distance(self, u, v)
        tracer.query(clock() - t)
        return d

    layer_names = ("build_graph", "verify", "construct_labeling", "exact_radio_number")
    targets = [(cli, name) for name in layer_names + ("labeling_from_dict", "run_selftest")]
    targets += [(selftest, name) for name in layer_names + ("check_triple_bound",)]
    targets.append((exact, "construct_labeling"))
    saved = [(module, name, getattr(module, name)) for module, name in targets]
    for module, name in targets:
        setattr(module, name, wrappers[name])
    graphs.PrismGraph.distance = timed_distance
    try:
        yield tracer
    finally:
        graphs.PrismGraph.distance = distance
        for module, name, original in saved:
            setattr(module, name, original)
