import json

import pytest

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


def test_selftest_fault_localizes_to_bounds(capsys):
    code, out, _ = run(capsys, "selftest", "--n-max", "10", "--inject-fault", "phi")
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
