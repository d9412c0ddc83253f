import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prismradio.labeling
import prismradio.verification
from prismradio import (ExactResult, Labeling, bounds, build_graph, cli, construct_labeling,
                        exact_radio_number, lower_bound_rn, radio_number, verify)
from prismradio.cli import main
from reference import (all_pairs_distances, all_pairs_violations, label_lines,
                       labeling_by_json_load, labeling_document, labels_from_document,
                       report_document)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_rn_formula(capsys):
    code, out, _ = run(capsys, "rn", "--n", "8", "--s", "2")
    assert code == 0
    assert out.strip() == "23"


def test_rn_specials(capsys):
    assert run(capsys, "rn", "--n", "3", "--s", "3")[1].strip() == "6"
    assert run(capsys, "rn", "--n", "4", "--s", "3")[1].strip() == "9"


def test_rn_json(capsys):
    code, out, _ = run(capsys, "rn", "--n", "4", "--s", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 4, "s": 3, "rn": 9, "method": "special"}


def test_rn_outside_scope_points_at_exact(capsys):
    code, _, err = run(capsys, "rn", "--n", "3", "--s", "1")
    assert code == 2
    assert "outside theorem scope" in err and "exact" in err


def test_rn_bad_params(capsys):
    code, _, err = run(capsys, "rn", "--n", "2", "--s", "1")
    assert code == 2
    assert "unsupported graph parameters" in err


def test_label_csv(capsys):
    code, out, _ = run(capsys, "label", "--n", "5", "--s", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "cycle,pos,label"
    assert len(lines) == 11  # header + 2n rows
    assert lines[1] == "1,1,1"


def test_label_json_schema(capsys):
    code, out, _ = run(capsys, "label", "--n", "5", "--s", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"n", "s", "diameter", "span", "labels"}
    assert data["n"] == 5 and data["s"] == 1
    assert data["diameter"] == 3 and data["span"] == 14
    assert len(data["labels"]) == 10
    keys = [(e["cycle"], e["pos"]) for e in data["labels"]]
    assert keys == sorted(keys)
    assert all(set(e) == {"cycle", "pos", "label"} for e in data["labels"])


def test_label_dot(capsys):
    code, out, _ = run(capsys, "label", "--n", "8", "--s", "1", "--format", "dot")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph Z_8_1 {"
    assert lines[-1] == "}"
    nodes = [l for l in lines if "[label=" in l]
    edges = [l for l in lines if " -- " in l]
    assert len(nodes) == 16 and len(edges) == 24
    assert '  c1_p1 [label="1"];' in lines


def test_label_text_mentions_span(capsys):
    code, out, _ = run(capsys, "label", "--n", "8", "--s", "2")
    assert code == 0
    assert "span 23" in out.splitlines()[0]


def test_label_unsupported(capsys):
    code, _, err = run(capsys, "label", "--n", "3", "--s", "2")
    assert code == 2
    assert "unsupported graph parameters" in err


@pytest.mark.parametrize("n,s", [(3, 3), (4, 3), (6, 2), (2501, 2), (2 * cli._CHUNK + 5, 1)])
@pytest.mark.parametrize("fmt", ["json", "csv", "text", "dot"])
def test_label_output_matches_the_vertex_by_vertex_writer(capsys, n, s, fmt):
    # the last n spans six pieces of output, two of them cut at a cycle's end
    code, out, err = run(capsys, "label", "--n", str(n), "--s", str(s), "--format", fmt)
    g, lab = build_graph(n, s), construct_labeling(n, s)
    if fmt == "json":
        expected = json.dumps(labeling_document(g, lab)) + "\n"
    else:
        expected = "".join(line + "\n" for line in label_lines(g, lab, fmt))
    assert (code, err) == (0, "")
    assert out == expected


def test_exact_json_witness_matches_the_vertex_by_vertex_writer(capsys):
    code, out, _ = run(capsys, "exact", "--n", "5", "--s", "1", "--format", "json")
    g = build_graph(5, 1)
    result = exact_radio_number(g)
    expected = {"n": 5, "s": 1, "rn": result.rn, "proven_optimal": result.proven_optimal,
                "nodes_explored": result.nodes_explored,
                "witness": labeling_document(g, result.witness)}
    assert code == 0
    assert out == json.dumps(expected) + "\n"


def test_verify_round_trip(capsys, tmp_path):
    _, out, _ = run(capsys, "label", "--n", "8", "--s", "2", "--format", "json")
    path = tmp_path / "lab.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 0
    assert out.startswith("valid")


def test_verify_flags_collision(capsys, tmp_path):
    _, out, _ = run(capsys, "label", "--n", "8", "--s", "2", "--format", "json")
    data = json.loads(out)
    data["labels"][0]["label"] = data["labels"][1]["label"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 1
    assert "INVALID" in out and "gap 0" in out


def test_verify_json_report(capsys, tmp_path):
    _, out, _ = run(capsys, "label", "--n", "4", "--s", "2", "--format", "json")
    path = tmp_path / "lab.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--file", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True and report["span"] == 8


def test_verify_truncated_file(capsys, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"n": 5, "s": 1')
    code, _, err = run(capsys, "verify", "--file", str(path))
    assert code == 2
    assert "malformed" in err


def test_verify_deeply_nested_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"n": 5, "s": 1, "labels": ' + "[" * 100_000)
    code, out, err = run(capsys, "verify", "--file", str(path))
    assert code == 2
    assert "malformed labeling file: nested too deeply" in err and out == ""


def test_verify_missing_vertex(capsys, tmp_path):
    _, out, _ = run(capsys, "label", "--n", "5", "--s", "1", "--format", "json")
    data = json.loads(out)
    data["labels"] = data["labels"][:-1]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--file", str(path))
    assert code == 2
    assert "incomplete" in err


def test_verify_unknown_vertex(capsys, tmp_path):
    _, out, _ = run(capsys, "label", "--n", "5", "--s", "1", "--format", "json")
    data = json.loads(out)
    data["labels"][0]["pos"] = 11
    path = tmp_path / "alien.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--file", str(path))
    assert code == 2
    assert "unknown vertex" in err


def test_verify_rejects_short_file_before_building_the_graph(capsys, tmp_path, monkeypatch):
    # a file listing fewer than 2n vertices must cost what the file costs, not what n costs
    def no_build(n, s):
        raise AssertionError("graph built for an incomplete labeling")

    monkeypatch.setattr(cli, "build_graph", no_build)
    for n in (500, 10**12):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": n, "s": 2,
                                    "labels": [{"cycle": 1, "pos": 1, "label": 1}]}))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert code == 2
        assert f"labeling incomplete: {2 * n - 1} vertices unlabeled (first: (1,2))" in err
        assert out == ""


@pytest.mark.parametrize("field", ["cycle", "pos"])
def test_verify_rejects_json_booleans(capsys, tmp_path, field):
    # true must not pass for the integer 1 (which would make this file INVALID)
    _, out, _ = run(capsys, "label", "--n", "5", "--s", "1", "--format", "json")
    data = json.loads(out)
    data["labels"][0][field] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--file", str(path))
    assert code == 2
    assert "must be integers" in err and out == ""


def test_verify_rejects_labels_too_large_to_audit(capsys, tmp_path):
    _, out, _ = run(capsys, "label", "--n", "3", "--s", "3", "--format", "json")
    data = json.loads(out)
    data["labels"][0]["label"] = 10**20
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--file", str(path))
    assert code == 2
    assert "below 2**63" in err and out == ""


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def crash(n, s):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "construct_labeling", crash)
    code, out, err = run(capsys, "label", "--n", "5", "--s", "1")
    assert code == 3
    assert err.startswith("internal error: KeyError") and err.count("\n") == 1
    assert "Traceback" not in err and out == ""


def _index_order_labeling(n, s):
    """Labels 1..2n in vertex-index order: far from radio on Z(8, 2) (29 violations)."""
    return Labeling(n=n, s=s, assignment={v: i + 1 for i, v in
                                          enumerate(build_graph(n, s).vertices())})


def test_verify_text_lists_twenty_violations_then_counts_the_rest(capsys, tmp_path):
    lab = _index_order_labeling(8, 2)
    path = tmp_path / "index_order.json"
    path.write_text(json.dumps(labeling_document(build_graph(8, 2), lab)))
    code, out, _ = run(capsys, "verify", "--file", str(path))
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "INVALID: 29 violations (span=16, pairs_checked=120)"
    assert len(lines) == 22 and all(" -- " in line for line in lines[1:21])
    assert lines[21] == "  ... and 9 more"



def _violating_files(tmp_path):
    """Labels 1..2n in vertex-index order on Z(40, 2) (745 violations), and
    the swapped Z(8, 2) (3 violations)."""
    path = tmp_path / "index_order.json"
    path.write_text(json.dumps(labeling_document(build_graph(40, 2),
                                                 _index_order_labeling(40, 2))))
    return [path, _swapped_labeling_file(tmp_path / "swapped.json")]


def test_verify_reports_list_the_violations_of_the_all_pairs_reference(
        capsys, tmp_path, monkeypatch):
    # small chunks on both sides, so the report spans several sweep chunks and pieces
    monkeypatch.setattr(prismradio.verification, "_CHUNK", 5)
    monkeypatch.setattr(cli, "_CHUNK", 2)
    for path in _violating_files(tmp_path):
        data = json.loads(path.read_text())
        n, s, labels = data["n"], data["s"], labels_from_document(data)
        g = build_graph(n, s)
        report = verify(g, Labeling.from_labels(n, s, labels))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, err) == (1, "")
        assert out.splitlines()[1:21] == [
            f"  {w.u} -- {w.v}: distance {w.distance} + gap {w.label_gap} < required {w.required}"
            for w in report.violations[:20]]
        code, out, err = run(capsys, "verify", "--file", str(path), "--format", "json")
        assert (code, err) == (1, "")
        # split at each entry: pytest would take minutes to diff two long lines
        assert out.split(", {") == (json.dumps(report_document(report)) + "\n").split(", {")
        assert json.loads(out)["violations"] == [
            {"u": {"cycle": i // n + 1, "pos": i % n + 1},
             "v": {"cycle": j // n + 1, "pos": j % n + 1},
             "distance": d, "label_gap": gap, "required": g.diameter + 1}
            for i, j, d, gap in all_pairs_violations(all_pairs_distances(n, s), labels,
                                                     g.diameter)]


def test_verify_file_builds_no_violation_per_pair(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("Violation built")

    paths = _violating_files(tmp_path)
    argvs = [["verify", "--file", str(path), "--format", fmt]
             for path in paths for fmt in ("text", "json")]
    outputs = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in outputs] == [1, 1, 1, 1]
    monkeypatch.setattr(prismradio.verification, "Violation", refuse)
    assert [run(capsys, *argv) for argv in argvs] == outputs

def test_verify_file_with_an_array_at_the_top_is_bad_input(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "verify", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: malformed labeling file: top level must be an object\n"


def test_label_exits_3_when_its_construction_fails_verification(capsys, monkeypatch):
    monkeypatch.setattr(cli, "construct_labeling", _index_order_labeling)
    code, out, err = run(capsys, "label", "--n", "8", "--s", "2")
    assert (code, out) == (3, "")
    assert err == ("internal inconsistency: constructed labeling of Z(8,2) "
                   "failed verification (29 violations)\n")


def test_exact_exits_3_when_its_witness_fails_verification(capsys, monkeypatch):
    def unverified(g, budget):
        return ExactResult(rn=16, witness=_index_order_labeling(g.n, g.s),
                           nodes_explored=0, proven_optimal=True)

    monkeypatch.setattr(cli, "exact_radio_number", unverified)
    code, out, err = run(capsys, "exact", "--n", "8", "--s", "2")
    assert (code, out) == (3, "")
    assert err == "internal inconsistency: exact witness failed verification\n"


def test_table_exits_3_when_a_row_does_not_match(capsys, monkeypatch):
    def one_too_many(n, s):
        value, method = radio_number(n, s)
        return value + (s == 2), method

    monkeypatch.setattr(cli, "radio_number", one_too_many)
    code, out, _ = run(capsys, "table", "--n-min", "8", "--n-max", "8")
    assert code == 3
    assert out.splitlines()[1:] == ["   8  1    4     30     30    yes ",
                                    "   8  2    3     24     23     NO ",
                                    "   8  3    4     30     30    yes "]


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command,want", [("label", 0), ("verify", 1)])
def test_closed_stdout_keeps_the_exit_code(capsys, monkeypatch, tmp_path, command, want):
    _, out, _ = run(capsys, "label", "--n", "8", "--s", "2", "--format", "json")
    data = json.loads(out)
    data["labels"][0]["label"] = data["labels"][1]["label"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    argv = {"label": ["label", "--n", "50", "--s", "1", "--format", "csv"],
            "verify": ["verify", "--file", str(path)]}[command]
    pipe = _ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    code = main(argv)
    dropped = sys.stdout
    assert dropped is not pipe  # later writes went to the null device
    dropped.close()
    assert code == want
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", ["text", "csv", "dot"])
def test_closed_stdout_stops_the_output(monkeypatch, tmp_path, fmt):
    sink = tmp_path / "sink"  # stands in for the null device, to see what still reaches it
    sink.write_text("")
    monkeypatch.setattr(os, "devnull", str(sink))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["label", "--n", "50", "--s", "1", "--format", fmt])
    sys.stdout.close()
    assert code == 0
    assert sink.read_text() == ""  # no line after the first failed write


class _LeftAfterTheLastWrite(io.StringIO):
    """A stdout whose reader takes every write, then goes before the flush."""

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def _swapped_labeling_file(path):
    """Z(8, 2) with two labels made equal: verify exits 1 on it."""
    data = labeling_document(build_graph(8, 2), construct_labeling(8, 2))
    data["labels"][0]["label"] = data["labels"][1]["label"]
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command,want", [("label", 0), ("verify", 1), ("table", 0)])
def test_reader_gone_at_the_flush_keeps_the_exit_code(capsys, monkeypatch, tmp_path,
                                                        command, want):
    argv = {"label": ["label", "--n", "50", "--s", "1", "--format", "json"],
            "verify": ["verify", "--file", str(_swapped_labeling_file(tmp_path / "bad.json"))],
            "table": ["table", "--n-min", "4", "--n-max", "6"]}[command]
    pipe = _LeftAfterTheLastWrite()
    monkeypatch.setattr(sys, "stdout", pipe)
    code = main(argv)
    dropped = sys.stdout
    assert dropped is not pipe  # the flush at exit goes to the null device
    dropped.close()
    assert code == want
    assert capsys.readouterr().err == ""
    assert pipe.getvalue()  # every write went through before the flush failed


# argv, exit code, whether the command returns its output lazily
_COMMANDS = [
    (["rn", "--n", "12", "--s", "2"], 0, False),
    (["rn", "--n", "4", "--s", "3", "--format", "json"], 0, False),
    *((["label", "--n", "9", "--s", "3", "--format", fmt], 0, True)
      for fmt in ("text", "json", "csv", "dot")),
    (["verify", "--file", "valid.json"], 0, False),
    (["verify", "--file", "swapped.json"], 1, False),
    (["verify", "--file", "swapped.json", "--format", "json"], 1, True),
    (["exact", "--n", "5", "--s", "2"], 0, False),
    (["exact", "--n", "5", "--s", "2", "--format", "json"], 0, True),
    *((["table", "--n-min", "3", "--n-max", "6", "--format", fmt], 0, False)
      for fmt in ("text", "json", "csv")),
    (["selftest", "--n-max", "5"], 0, False),
    (["selftest", "--n-max", "5", "--inject-fault", "phi"], 3, False),
]


def _call_command(capsys, argv):
    """The exit code and joined output of the command of argv, called on its
    parsed args, and whether its output came lazily; it must print nothing."""
    args = cli._build_parser().parse_args(argv)
    code, pieces = args.func(args)
    lazy = iter(pieces) is pieces
    out = "".join(pieces)
    assert capsys.readouterr() == ("", "")
    return code, out, lazy


@pytest.mark.parametrize("argv,want,lazy", _COMMANDS, ids=[" ".join(c[0]) for c in _COMMANDS])
def test_commands_return_what_main_writes(capsys, tmp_path, argv, want, lazy):
    (tmp_path / "valid.json").write_text(
        json.dumps(labeling_document(build_graph(8, 2), construct_labeling(8, 2))))
    _swapped_labeling_file(tmp_path / "swapped.json")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, returned_lazily = _call_command(capsys, argv)
    assert (code, returned_lazily) == (want, lazy)
    assert run(capsys, *argv) == (code, out, "")


def test_table_command_returns_exit_3_when_a_row_does_not_match(capsys, monkeypatch):
    def one_too_many(n, s):
        value, method = radio_number(n, s)
        return value + (s == 2), method

    monkeypatch.setattr(cli, "radio_number", one_too_many)
    argv = ["table", "--n-min", "8", "--n-max", "8", "--format", "csv"]
    code, out, _ = _call_command(capsys, argv)
    assert (code, out) == (3, "n,s,phi,rn_formula,span,match,note\n8,1,4,30,30,True,\n"
                              "8,2,3,24,23,False,\n8,3,4,30,30,True,\n")
    assert run(capsys, *argv) == (code, out, "")


def test_closed_stdout_pipe_exits_zero_without_a_message():
    # the output (about 160 kB) outgrows the pipe, so the write meets the closed end
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "prismradio.cli", "label", "--n", "2000", "--s", "1",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_package_runs_as_a_module():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "prismradio", "rn", "--n", "12", "--s", "2"],
                          capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"46\n", b"")


def test_verify_ignores_stale_span_field(capsys, tmp_path):
    # hand-edited files are judged on radio validity, not bookkeeping
    _, out, _ = run(capsys, "label", "--n", "5", "--s", "1", "--format", "json")
    data = json.loads(out)
    data["span"] = 999
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 0
    assert "span=14" in out


def test_exact_text(capsys):
    code, out, _ = run(capsys, "exact", "--n", "4", "--s", "1")
    assert code == 0
    assert "rn = 11" in out and "proven optimal" in out


def test_exact_json_carries_witness(capsys):
    code, out, _ = run(capsys, "exact", "--n", "3", "--s", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rn"] == 6 and data["proven_optimal"] is True
    assert data["witness"]["span"] == 6
    assert len(data["witness"]["labels"]) == 6


def test_exact_budget_exhaustion(capsys):
    code, out, _ = run(capsys, "exact", "--n", "10", "--s", "1", "--budget", "0s")
    assert code == 0
    assert "rn = 47" in out and "budget exhausted" in out


def test_exact_budget_stops_a_search_deeper_than_the_recursion_limit(capsys):
    # 2n = 1200 vertices: one stack frame per depth would overflow the interpreter's stack
    code, out, err = run(capsys, "exact", "--n", "600", "--s", "3", "--budget", "0.2s")
    assert (code, err) == (0, "")
    assert "status = budget exhausted (upper bound)" in out


@pytest.mark.parametrize("flag", ["--no-phi-pruning", "--fix-first-vertex", "--hint 11"])
def test_exact_has_no_search_knobs(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--n", "4", "--s", "1", *flag.split()])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exact_bad_budget(capsys):
    code, _, err = run(capsys, "exact", "--n", "4", "--s", "1", "--budget", "soon")
    assert code == 2
    assert "time budget" in err


@pytest.mark.parametrize("budget", ["nan", "inf", "nans", "1e400m", "1e307h"])
def test_exact_rejects_non_finite_budget(capsys, budget):
    code, out, err = run(capsys, "exact", "--n", "4", "--s", "1", "--budget", budget)
    assert code == 2
    assert "time budget must be finite" in err and out == ""


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--n-min", "4", "--n-max", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 9 * 3
    assert all("NO" not in line for line in lines)
    special = [l for l in lines if "special" in l]
    assert len(special) == 1 and special[0].split()[:2] == ["4", "3"]


def test_table_includes_out_of_scope_rows(capsys):
    code, out, _ = run(capsys, "table", "--n-min", "3", "--n-max", "3")
    assert code == 0
    assert out.count("outside scope") == 2
    assert out.count("special") == 1


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--n-min", "4", "--n-max", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,s,phi,rn_formula,span,match,note"
    assert "4,1,3,11,11,True," in lines
    assert "4,3,,9,9,True,special" in lines


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--n-min", "8", "--n-max", "8", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["rn_formula"] for r in rows] == [30, 23, 30]
    assert all(r["match"] for r in rows)


def test_table_reproduces_the_paper_over_the_census_range(capsys):
    # the sweep the benchmark's census workload runs, checked row by row
    code, out, _ = run(capsys, "table", "--n-min", "3", "--n-max", "240", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["n"], r["s"]) for r in rows] == [(n, s) for n in range(3, 241) for s in (1, 2, 3)]
    for r in rows:
        key = (r["n"], r["s"])
        if key in [(3, 1), (3, 2)]:
            want = {"phi": None, "rn_formula": None, "span": None, "match": None,
                    "note": "outside scope"}
        elif key in bounds._SPECIAL_LABELS:
            rn = max(bounds._SPECIAL_LABELS[key])
            want = {"phi": None, "rn_formula": rn, "span": rn, "match": True, "note": "special"}
        else:
            rn = lower_bound_rn(*key)
            want = {"phi": bounds.phi(*key), "rn_formula": rn, "span": rn, "match": True,
                    "note": ""}
        assert r == {"n": key[0], "s": key[1], **want}, r


def test_table_decides_a_case_once_per_row_in_each_layer(capsys, monkeypatch):
    # the row picks its case once, and construct_labeling once more for its walk;
    # label_order, which the construction used to call, decided it a third time
    calls = {"cli": 0, "labeling": 0}

    def counting(module, name):
        original = module.case_select

        def case_select(n, s):
            calls[name] += 1
            return original(n, s)

        monkeypatch.setattr(module, "case_select", case_select)

    counting(cli, "cli")
    counting(prismradio.labeling, "labeling")
    code, out, _ = run(capsys, "table", "--n-min", "3", "--n-max", "40", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    in_scope = sum(r["note"] != "outside scope" for r in rows)
    assert (len(rows), in_scope) == (114, 112)
    assert calls == {"cli": len(rows), "labeling": in_scope}


def test_table_bad_range(capsys):
    code, _, err = run(capsys, "table", "--n-min", "9", "--n-max", "4")
    assert code == 2
    assert "exceeds" in err
    # no graph has n < 3, so such a range is refused, not printed empty
    for n_min, n_max in [("0", "0"), ("1", "3"), ("2", "2")]:
        code, out, err = run(capsys, "table", "--n-min", n_min, "--n-max", n_max)
        assert (code, out) == (2, ""), (n_min, n_max)
        assert "--n-min must be at least 3" in err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--n-max", "10")
    assert code == 0
    assert "5/5 suites passed" in out


@pytest.mark.parametrize("n_max, counts", [
    ("3", (24, 380, 2, 6, 2)),
    ("20", (432, 470, 254, 6, 8)),
    ("60", (1392, 794, 854, 6, 8)),
])
def test_selftest_check_counts(capsys, n_max, counts):
    code, out, _ = run(capsys, "selftest", "--n-max", n_max)
    assert code == 0
    names = ("graphs", "bounds", "labeling", "verification", "exact")
    assert out.splitlines() == [
        *(f"{name}: PASS ({k} checks)" for name, k in zip(names, counts)),
        "5/5 suites passed",
    ]


@pytest.mark.parametrize("n_max", ["4", "10"])
def test_selftest_fault_localizes_to_bounds(capsys, n_max):
    # the fault sits at n = 6; the phi sweep reaches n = 40 even below that
    code, out, _ = run(capsys, "selftest", "--n-max", n_max, "--inject-fault", "phi")
    assert code == 3
    lines = out.strip().splitlines()
    failing = [l for l in lines if "FAIL" in l]
    assert len(failing) == 1
    assert failing[0].startswith("bounds:")
    assert "phi table disagrees" in failing[0]
    # the first failing check is the one reported
    assert failing[0] == ("bounds: FAIL (phi table disagrees with the pair gap of the "
                          "metric at (n=6, s=1): 5 vs 4)")


def test_selftest_suite_that_raises_fails_alone(capsys, monkeypatch):
    # a crash inside a suite is a red suite (exit 3), not bad input (exit 2)
    def boom(g):
        raise ValueError("boom")

    monkeypatch.setattr("prismradio.selftest.pair_gap", boom)
    code, out, _ = run(capsys, "selftest", "--n-max", "6")
    assert code == 3
    lines = out.strip().splitlines()
    assert [l for l in lines if "FAIL" in l] == ["bounds: FAIL (ValueError: boom)"]
    assert lines[-1] == "4/5 suites passed"


def test_selftest_fault_does_not_leak(capsys):
    run(capsys, "selftest", "--n-max", "10", "--inject-fault", "phi")
    code, out, _ = run(capsys, "selftest", "--n-max", "10")
    assert code == 0 and "5/5" in out


_JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.lists(st.integers(-3, 3), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
_ANY_INT = st.one_of(st.integers(-3, 12), st.integers(-(2**80), 2**80))


@st.composite
def _labeling_documents(draw):
    """A valid labeling document with up to four defects drawn into it.

    A defect is a missing key, a value of the wrong type, an integer that may
    be out of range or huge (n, s, cycle, pos), a duplicated entry, a label
    outside 1..2**63 - 1, a list of labels cut short or put in another order.
    """
    n, s = draw(st.sampled_from([(3, 3), (4, 1), (4, 3), (5, 2), (6, 3), (8, 2)]))
    doc = labeling_document(build_graph(n, s), construct_labeling(n, s))
    for _ in range(draw(st.integers(0, 4))):
        labels = doc.get("labels")
        entries = [e for e in labels if isinstance(e, dict)] if isinstance(labels, list) else []
        target = draw(st.sampled_from(entries)) if entries and draw(st.booleans()) else doc
        kind = draw(st.sampled_from(["drop", "junk", "int", "duplicate", "label", "truncate",
                                     "shuffle"]))
        if kind == "shuffle" and entries:
            labels[:] = draw(st.permutations(labels))
        elif kind == "truncate" and entries:
            del labels[draw(st.integers(0, len(labels) - 1)):]
        elif kind == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif kind == "junk":
            target[draw(st.sampled_from(sorted(target) or ["n"]))] = draw(_JUNK)
        elif kind == "int":  # n, s, cycle or pos: in range, out of range, huge
            key = draw(st.sampled_from(["n", "s"] if target is doc else ["cycle", "pos"]))
            target[key] = draw(_ANY_INT)
        elif kind == "duplicate" and entries:
            labels.append(dict(draw(st.sampled_from(entries))))
        elif kind == "label" and target is not doc:
            target["label"] = draw(st.one_of(st.integers(max_value=0), st.integers(min_value=2**63),
                                             st.integers(1, 40)))
    return doc


@settings(max_examples=200, deadline=None)
@given(_labeling_documents())
def test_verify_file_fuzz_maps_every_document_to_a_documented_exit(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--file", str(path)])
    assert code in (0, 1, 2), err.getvalue()
    assert "internal error" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


def _read(read, doc):
    """The labels a reader finds in ``doc``, or the text of its ValueError."""
    try:
        labels = read(doc)
    except ValueError as e:
        return str(e)
    return list(labels)


@settings(max_examples=300, deadline=None)
@given(_labeling_documents())
def test_reader_matches_the_entry_by_entry_reference(doc):
    assert _read(lambda d: cli.labeling_from_dict(d).labels.tolist(), doc) == \
        _read(labels_from_document, doc)


def _entry(index, **fields):
    return lambda doc: doc["labels"][index].update(fields)


def _extra(*entries):
    return lambda doc: doc["labels"].extend(map(dict, entries))


_READER_CASES = {  # edits of the Z(5,1) construction, applied in order
    "cycle 2**80": [_entry(3, cycle=2**80)],
    "pos 2**80": [_entry(3, pos=2**80)],
    "pos -2**80": [_entry(3, pos=-(2**80))],
    "label 2**63": [_entry(3, label=2**63)],
    "label -2**63 - 1": [_entry(3, label=-(2**63) - 1)],
    "label true": [_entry(3, label=True)],
    "duplicated out-of-range vertex": [_extra({"cycle": 7, "pos": -3, "label": 1},
                                              {"cycle": 7, "pos": -3, "label": 2})],
    "duplicate after an unknown vertex": [_entry(1, pos=99),
                                          _extra({"cycle": 2, "pos": 1, "label": 5})],
    "duplicate with bad n": [lambda doc: doc.update(n=2),
                             _extra({"cycle": 1, "pos": 1, "label": 3})],
    "unknown vertex, then bad label": [_entry(2, pos=99), _entry(6, label=0)],
    "bad label, then unknown vertex": [_entry(2, label=0), _entry(6, pos=99)],
    "bad label at an unknown vertex": [_entry(4, cycle=3, label=0)],
    "shuffled, one vertex short": [lambda doc: doc.update(labels=doc["labels"][:0:-1])],
    "n 10**12, two entries": [lambda doc: doc.update(n=10**12, labels=doc["labels"][:2])],
    "n 2**80, a position past 2**63": [lambda doc: doc.update(n=2**80, labels=[]),
                                       _extra({"cycle": 1, "pos": 2**70, "label": 1},
                                              {"cycle": 2, "pos": 1, "label": 2})],
    "n 2**80, a position past n": [lambda doc: doc.update(n=2**80, labels=[]),
                                   _extra({"cycle": 1, "pos": 2**70, "label": 1},
                                          {"cycle": 2, "pos": 2**81, "label": 2})],
}


@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_verify_file_faults_match_the_entry_by_entry_reference(capsys, tmp_path, case):
    doc = labeling_document(build_graph(5, 1), construct_labeling(5, 1))
    for edit in _READER_CASES[case]:
        edit(doc)
    expected = _read(labels_from_document, doc)
    assert isinstance(expected, str), expected
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--file", str(path))
    assert (code, out, err) == (2, "", f"error: {expected}\n")


def test_verify_reads_label_output_without_the_json_parser(capsys, tmp_path, monkeypatch):
    # label's own output ends in a newline; json.dump, which the benchmark's
    # label-swapped copies are written with, gives the same bytes without it
    _, out, _ = run(capsys, "label", "--n", "9", "--s", "2", "--format", "json")
    data = json.loads(out)
    assert json.dumps(data) + "\n" == out
    (tmp_path / "label.json").write_text(out)
    (tmp_path / "dump.json").write_text(json.dumps(data))
    data["labels"][0]["label"], data["labels"][5]["label"] = \
        data["labels"][5]["label"], data["labels"][0]["label"]
    (tmp_path / "swapped.json").write_text(json.dumps(data))

    def refuse(*args, **kwargs):
        raise AssertionError("labeling file parsed by json")

    monkeypatch.setattr(json, "load", refuse)
    monkeypatch.setattr(json, "loads", refuse)
    for name in ("label.json", "dump.json"):
        code, out, err = run(capsys, "verify", "--file", str(tmp_path / name))
        assert (code, out, err) == (0, "valid: span=34, pairs_checked=153\n", "")
    code, out, err = run(capsys, "verify", "--file", str(tmp_path / "swapped.json"))
    assert code == 1 and out.startswith("INVALID: ") and err == ""


def _verify_outcome(path) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--file", str(path)])
    return code, out.getvalue(), err.getvalue()


def _json_load_outcome(path) -> tuple:
    """verify --file with every file read by json.load: the oracle of the CLI's reader."""
    with mock.patch.object(cli, "_read_labeling", labeling_by_json_load):
        return _verify_outcome(path)


def _canonical() -> bytes:
    """label --format json of Z(5,1)."""
    doc = labeling_document(build_graph(5, 1), construct_labeling(5, 1))
    return (json.dumps(doc) + "\n").encode()


def _malformed(raw: bytes) -> bytes:
    return raw.replace(b'"label": 1}', b'"label": }', 1)


_BYTE_EDITS = {  # edits of label --format json of Z(5,1)
    "as written": lambda b: b,
    "no trailing newline": lambda b: b[:-1],
    "leading zero": lambda b: b.replace(b'"pos": 2,', b'"pos": 02,', 1),
    "label -0": lambda b: b.replace(b'"label": 1}', b'"label": -0}', 1),
    "n -0": lambda b: b.replace(b'"n": 5', b'"n": -0', 1),
    "negative pos": lambda b: b.replace(b'"pos": 2,', b'"pos": -2,', 1),
    "19-digit label": lambda b: b.replace(b'"label": 1}', b'"label": 1234567890123456789}', 1),
    "20-digit label": lambda b: b.replace(b'"label": 1}', b'"label": 99999999999999999999}', 1),
    "label 10**18": lambda b: b.replace(b'"label": 1}', b'"label": 1%s}' % (b"0" * 18), 1),
    "label 10**18 - 1": lambda b: b.replace(b'"label": 1}', b'"label": %s}' % (b"9" * 18), 1),
    "label 0": lambda b: b.replace(b'"label": 1}', b'"label": 0}', 1),
    "label of 5000 digits": lambda b: b.replace(b'"label": 1}', b'"label": %s}' % (b"9" * 5000), 1),
    "pos 1.0": lambda b: b.replace(b'"pos": 2,', b'"pos": 2.0,', 1),
    "label 1e3": lambda b: b.replace(b'"label": 1}', b'"label": 1e3}', 1),
    "extra space": lambda b: b.replace(b'"pos": 2,', b'"pos":  2,', 1),
    "entries joined without a space": lambda b: b.replace(b"}, {", b"},{"),
    "crlf, malformed": lambda b: _malformed(b.replace(b", ", b",\r\n")),
    "lone cr, malformed": lambda b: _malformed(b.replace(b", ", b",\r")),
    "trailing form feed": lambda b: b[:-1] + b"\x0c",
    "trailing vertical tab": lambda b: b[:-1] + b"\x0b",
    "trailing JSON whitespace": lambda b: b + b" \t\r\n",
    "long trailing whitespace": lambda b: b + b" " * 100,
    "UTF-8 BOM": lambda b: b"\xef\xbb\xbf" + b,
    "invalid UTF-8": lambda b: b.replace(b"cycle", b"cy\xffle", 1),
    "reordered keys": lambda b: b.replace(b'{"n": 5, "s": 1,', b'{"s": 1, "n": 5,'),
    "reordered entry keys": lambda b: b.replace(b'"cycle": 1, "pos": 1,', b'"pos": 1, "cycle": 1,'),
    "key after labels": lambda b: b.replace(b"]}", b'], "note": 1}'),
    "empty labels": lambda b: b[:b.index(b"[") + 1] + b"]}",
    "diameter null": lambda b: b.replace(b'"diameter": 3', b'"diameter": null'),
    "span with a leading zero": lambda b: b.replace(b'"span": 14', b'"span": 014'),
    "n of 19 digits": lambda b: b.replace(b'"n": 5', b'"n": 1000000000000000000'),
    "n 10**12": lambda b: b.replace(b'"n": 5', b'"n": 1000000000000'),
    "empty slot": lambda b: b.replace(b'"pos": 2,', b'"pos": ,', 1),
    "digit moved into a key": lambda b: b.replace(b'{"cycle": 1, "pos": 1,', b'{"cy1cle": , "pos": 1,'),
    "digit moved into the last key": lambda b: b.replace(b'"label": 1}', b'"la1bel": }', 1),
    "last entry cut short": lambda b: b[:b.rindex(b', "label"')] + b"]}",
    "duplicate vertex": lambda b: b.replace(b'"pos": 2,', b'"pos": 1,', 1),
    "unknown vertex": lambda b: b.replace(b'"pos": 2,', b'"pos": 9,', 1),
    "last entry dropped": lambda b: b[:b.rindex(b", {")] + b"]}\n",
    "truncated": lambda b: b[:-5],
    "empty file": lambda b: b"",
    "whitespace only": lambda b: b" \n",
}


@pytest.mark.parametrize("edit", sorted(_BYTE_EDITS))
def test_verify_file_edits_read_as_json_load_reads_them(tmp_path, edit):
    path = tmp_path / "doc.json"
    path.write_bytes(_BYTE_EDITS[edit](_canonical()))
    assert _verify_outcome(path) == _json_load_outcome(path)


@pytest.mark.parametrize("edit", ["invalid UTF-8", "label of 5000 digits"])
def test_verify_file_that_neither_decodes_nor_parses_is_malformed(capsys, tmp_path, edit):
    path = tmp_path / "doc.json"
    path.write_bytes(_BYTE_EDITS[edit](_canonical()))
    code, out, err = run(capsys, "verify", "--file", str(path))
    assert (code, out) == (2, "") and err.startswith("error: malformed labeling file: "), err


def test_reading_label_output_holds_little_beyond_its_columns(capsys):
    n = 200_000
    code, out, _ = run(capsys, "label", "--n", str(n), "--s", "2", "--format", "json")
    raw = out.encode()
    del out
    tracemalloc.start()
    try:
        columns = cli._labeling_columns(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and columns is not None and columns[2].size == 3 * 2 * n
    assert peak <= 1.25 * (3 * 2 * n * 8)  # the cycle, pos and label columns in int64


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(["insert", "delete", "replace"]),
                          st.sampled_from(b'0123456789 ,{}[]:"-.e\r\n\t\x0bxy')),
                min_size=1, max_size=3))
def test_verify_file_byte_edits_read_as_json_load_reads_them(tmp_path_factory, edits):
    raw = bytearray(_canonical())
    for where, kind, byte in edits:
        i = where % (len(raw) + (kind == "insert"))
        if kind == "insert":
            raw.insert(i, byte)
        elif kind == "delete":
            del raw[i]
        else:
            raw[i] = byte
    path = tmp_path_factory.mktemp("edit") / "doc.json"
    path.write_bytes(bytes(raw))
    assert _verify_outcome(path) == _json_load_outcome(path)


@settings(max_examples=200, deadline=None)
@given(_labeling_documents())
def test_verify_file_documents_read_as_json_load_reads_them(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc))
    assert _verify_outcome(path) == _json_load_outcome(path)


_JUNK_TOKENS = ["", "x", "1.5", "0x4", "--bogus", "-x", "--format=xml", "--no-phi-pruning", "-h"]
_FLAGS = {  # subcommand -> (required flags, optional flags, --format choices)
    "rn": (["--n", "--s"], ["--format"], ["text", "json"]),
    "label": (["--n", "--s"], ["--format"], ["text", "json", "csv", "dot"]),
    "verify": (["--file"], ["--format"], ["text", "json"]),
    "exact": (["--n", "--s"], ["--budget", "--format"], ["text", "json"]),
    "table": ([], ["--n-min", "--n-max", "--format"], ["text", "json", "csv"]),
    "selftest": ([], ["--n-max", "--inject-fault"], []),
}


@pytest.fixture(scope="module")
def cli_fuzz_files(tmp_path_factory):
    """Paths for verify --file: a valid labeling, an invalid one, junk, a directory, none."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    doc = labeling_document(build_graph(6, 2), construct_labeling(6, 2))
    (root / "valid.json").write_text(json.dumps(doc))
    doc["labels"][0]["label"] = doc["labels"][1]["label"]
    (root / "invalid.json").write_text(json.dumps(doc))
    (root / "junk.json").write_text("{[")
    return [str(root / name) for name in ("valid.json", "invalid.json", "junk.json", "", "absent")]


@st.composite
def _cli_argvs(draw, files):
    """An argv for one subcommand: mostly its own flags with in-range values,
    sometimes a required flag or a value left out, a flag of another
    subcommand, a junk value or a junk token.

    The sizes stay small: n <= 40, exact n <= 5 unless it has a --budget of
    at most 0.1 s, table --n-max <= 30 and selftest --n-max <= 10.
    """
    rnd = draw(st.randoms(use_true_random=True))  # uniform odds: hypothesis favours edges

    def maybe(odds):
        return rnd.randrange(odds) == 0

    def int_token(high):
        return rnd.choice(_JUNK_TOKENS) if maybe(20) else str(rnd.randint(-3, high))

    command = rnd.choice(sorted(_FLAGS))
    required, optional, formats = _FLAGS[command]
    flags = [f for f in required if not maybe(20)] + [f for f in optional if maybe(2)]
    if maybe(10):
        flags.append(rnd.choice(sorted({f for r, o, _ in _FLAGS.values() for f in r + o})))
    budgeted = command == "exact" and "--budget" in flags
    values = {
        "--n": lambda: int_token(5 if command == "exact" and not budgeted
                                 else 10 if command == "selftest" else 40),
        "--s": lambda: int_token(4),
        # selftest has no --format, so a stray one always gets the junk value
        "--format": lambda: "xml" if maybe(10) or not formats else rnd.choice(formats),
        "--file": lambda: rnd.choice(files),
        "--budget": lambda: rnd.choice(["0s", "0.1s", "0.001m", "nan", "-1s", "soon", "1e400m"]),
        "--n-min": lambda: int_token(40),
        "--n-max": lambda: int_token(10 if command == "selftest" else 30),
        "--inject-fault": lambda: "none" if maybe(10) else "phi",
    }
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if not maybe(30):
            argv.append(values[flag]())
    if maybe(10):
        argv.insert(rnd.randint(0, len(argv)), rnd.choice(_JUNK_TOKENS))
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_argument_fuzz_maps_every_argv_to_a_documented_exit(cli_fuzz_files, data):
    argv = data.draw(_cli_argvs(cli_fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help exits 0
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "internal error:" not in err.getvalue(), argv
    assert "Traceback" not in err.getvalue(), argv
