"""Tests of the benchmark itself: span arithmetic, oracles, failure counting."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads
from oracle import PrismMetric, radio_number, violations
from prismradio import Labeling, Vertex, build_graph, case_select, construct_labeling, verify

HERE = Path(__file__).resolve().parent


def span(name, start, end, parent=None, inner=0.0):
    return [name, start, end, parent, inner]


def test_self_times_on_nested_spans():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("verification.verify", 1.0, 4.0, parent=0),
        span("graphs.build_graph", 2.0, 3.0, parent=1),
        span("selftest.run_selftest", 5.0, 7.0, parent=0, inner=0.5),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.5])
    # counted at half speed throughout, every duration halves, inner time too
    assert tracing.self_times(spans, lambda a, b: (b - a) / 2) == pytest.approx(
        [2.5, 1.0, 0.5, 0.75])


def test_self_times_count_overlapping_children_once():
    spans = [span("cli.main", 0.0, 10.0), span("verification.verify", 1.0, 4.0, 0),
             span("verification.verify", 3.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_records_parents_and_layer_metrics():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("cli.main"):               # 0 .. 5
        with tracer.span("exact.exact_radio_number"):  # 1 .. 4
            with tracer.span("labeling.construct_labeling"):  # 2 .. 3
                pass
        tracer.count("exact.nodes", 30)
    assert [sp[tracing.PARENT] for sp in tracer.spans] == [None, 0, 1]
    m = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert m["cli.self_s"] == 2.0
    assert m["exact.search_s"] == 2.0
    assert m["labeling.construct_s"] == 1.0
    assert m["exact.nodes_per_s"] == 15.0
    assert set(m) | {"cli.ops", "cli.failed", "trace.run_s", "trace.overhead_s"} == set(
        run.LAYER_UNITS)


def test_scaled_seconds_counts_slow_stretches_at_reference_speed():
    # probes every 50 ms from t = 1; the one at t = 1.1 saw the core at half speed
    samples = [[1.0, 0.001], [1.05, 0.001], [1.1, 0.002], [1.15, 0.001]]
    # 49 ms at full speed, 49 ms at half, 48 ms and a 29 ms tail at full;
    # the 5 ms inside probes is not program time
    assert speed.scaled_seconds(1.001, 1.18, samples, 0.001) == pytest.approx(0.1505)
    # no probe inside: the next probe gives the speed, or else the last one
    assert speed.scaled_seconds(1.06, 1.09, samples, 0.001) == pytest.approx(0.015)
    assert speed.scaled_seconds(1.2, 1.23, samples, 0.001) == pytest.approx(0.03)
    assert speed.scaled_seconds(0.0, 2.0, [], 0.001) == 2.0
    # a stretch of native code, too long for the handler to interrupt, is scaled
    # by the speed ratio to the power NATIVE_EXPONENT
    assert speed.scaled_seconds(0.5, 1.0, [[1.0, 0.002]], 0.001) == pytest.approx(
        0.5 * 0.5 ** speed.NATIVE_EXPONENT)


def test_probes_run_during_a_repeat(tmp_path):
    ops = [workloads.Op(["exact", "--n", "5", "--s", "1", "--format", "json"], 0,
                        workloads._check_exact(5, 1, 14))]
    rep = run.run_repeat(ops, tmp_path, trace=False)
    assert rep["probes"] and rep["failures"] == [None]
    assert 0 < rep["run_s"] and 0 < rep["setup_s"]
    assert all(rep["started"] < start for start, _ in rep["probes"])


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13])
def test_bfs_oracle_matches_build_graph(n):
    for s in range(1, min(3, n) + 1):
        metric, g = PrismMetric(n, s), build_graph(n, s)
        verts = [(c, p) for c in (1, 2) for p in range(1, n + 1)]
        got = [[metric.distance(u, v) for v in verts] for u in verts]
        assert got == g.dist.tolist()
        assert metric.diameter == g.diameter


def test_violation_oracle_matches_verify_on_swapped_labels():
    n, s = 13, 2
    lab = construct_labeling(n, s)
    labels = {tuple(v): c for v, c in lab.assignment.items()}
    assert radio_number(n, s) == lab.span
    a, b = (1, 1), (2, 7)
    labels[a], labels[b] = labels[b], labels[a]
    report = verify(build_graph(n, s),
                    Labeling(n=n, s=s, assignment={Vertex(*v): c for v, c in labels.items()}))
    want = {(frozenset((tuple(w.u), tuple(w.v))), w.distance, w.label_gap)
            for w in report.violations}
    assert want and violations(PrismMetric(n, s), labels) == want


def test_wrong_answers_count_as_failures(tmp_path):
    ops = [
        workloads.Op(["selftest", "--n-max", "4", "--inject-fault", "phi"], 0,
                     workloads._check_selftest),
        workloads.Op(["exact", "--n", "5", "--s", "1", "--format", "json"], 0,
                     workloads._check_exact(5, 1, 15)),  # rn is 14
        workloads.Op(["exact", "--n", "4", "--s", "1", "--format", "json"], 0,
                     workloads._check_exact(4, 1, 11)),
    ]
    rep = run.run_repeat(ops, tmp_path, trace=False)
    assert "exit 3" in rep["failures"][0]
    assert "expected 15" in rep["failures"][1]
    assert rep["failures"][2] is None


def test_counters_repeat_exactly_when_traced(tmp_path):
    ops = [op for op in workloads.prove(0) if op.argv[2] in ("5", "6")][:2]
    ops.append(workloads.Op(["label", "--n", "40", "--s", "2", "--format", "json"], 0,
                            workloads._check_label(40, 2)))
    reps = [run.run_repeat(ops, tmp_path, trace=True) for _ in range(2)]
    assert all(f is None for rep in reps for f in rep["failures"])
    first, second = (rep["layers"] for rep in reps)
    assert first["exact.nodes"] > 0 and first["graphs.builds"] == 3
    assert {k: first[k] for k in run.DETERMINISTIC} == {k: second[k] for k in run.DETERMINISTIC}


def test_audit_ops_accept_a_small_instance(tmp_path):
    n, swaps = 40, [(0, 41), (5, 60), (10, 33), (2, 79), (20, 50)]
    ops = [
        workloads.Op(["label", "--n", str(n), "--s", "1", "--format", "json"], 0,
                     workloads._check_label(n, 1), save_as="a.json"),
        workloads.Op(["verify", "--file", "a.json", "--format", "json"], 0,
                     workloads._check_clean_verify(n)),
        workloads.Op(["verify", "--file", "b.json", "--format", "json"], 1,
                     workloads._check_corrupt_verify(n, 1, "b.json", swaps),
                     corrupt=("a.json", "b.json", swaps)),
    ]
    rep = run.run_repeat(ops, tmp_path, trace=False)
    assert rep["failures"] == [None, None, None]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_audit_instances_span_three_construction_cases():
    for seed in range(20):
        cases = {case_select(n, s) for n, s in workloads.audit_instances(seed)}
        assert len(cases) == 3
        json.dumps(workloads.audit(seed)[2].spec())  # plans must serialise


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
