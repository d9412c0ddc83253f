import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismradio import build_graph, cli, construct_labeling
from prismradio.cli import main


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


@pytest.mark.parametrize("flag", ["--no-phi-pruning", "--fix-first-vertex"])
def test_exact_has_no_search_knobs(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--n", "4", "--s", "1", flag])
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


def test_table_bad_range(capsys):
    code, _, err = run(capsys, "table", "--n-min", "9", "--n-max", "4")
    assert code == 2
    assert "exceeds" in err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--n-max", "10")
    assert code == 0
    assert "5/5 suites passed" in out


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
    outside 1..2**63 - 1, or a list of labels cut short.
    """
    n, s = draw(st.sampled_from([(3, 3), (4, 1), (4, 3), (5, 2), (6, 3), (8, 2)]))
    doc = cli.labeling_to_dict(build_graph(n, s), construct_labeling(n, s))
    for _ in range(draw(st.integers(0, 4))):
        labels = doc.get("labels")
        entries = [e for e in labels if isinstance(e, dict)] if isinstance(labels, list) else []
        target = draw(st.sampled_from(entries)) if entries and draw(st.booleans()) else doc
        kind = draw(st.sampled_from(["drop", "junk", "int", "duplicate", "label", "truncate"]))
        if kind == "truncate" and entries:
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


_JUNK_TOKENS = ["", "x", "1.5", "0x4", "--bogus", "-x", "--format=xml", "--no-phi-pruning", "-h"]
_FLAGS = {  # subcommand -> (required flags, optional flags, --format choices)
    "rn": (["--n", "--s"], ["--format"], ["text", "json"]),
    "label": (["--n", "--s"], ["--format"], ["text", "json", "csv", "dot"]),
    "verify": (["--file"], ["--format"], ["text", "json"]),
    "exact": (["--n", "--s"], ["--budget", "--hint", "--format"], ["text", "json"]),
    "table": ([], ["--n-min", "--n-max", "--format"], ["text", "json", "csv"]),
    "selftest": ([], ["--n-max", "--inject-fault"], []),
}


@pytest.fixture(scope="module")
def cli_fuzz_files(tmp_path_factory):
    """Paths for verify --file: a valid labeling, an invalid one, junk, a directory, none."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    doc = cli.labeling_to_dict(build_graph(6, 2), construct_labeling(6, 2))
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
        "--format": lambda: "xml" if maybe(10) else rnd.choice(formats),
        "--file": lambda: rnd.choice(files),
        "--budget": lambda: rnd.choice(["0s", "0.1s", "0.001m", "nan", "-1s", "soon", "1e400m"]),
        "--hint": lambda: int_token(60),
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
