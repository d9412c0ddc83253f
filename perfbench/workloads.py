"""The four workloads: fixed CLI operation lists and the oracles for them.

Each workload is a list of ``Op``: an argv for ``prismradio.cli.main``, the
exit code it must return, and a check of its standard output.  The seed
only shapes the inputs; the program sees nothing but argv and the files the
benchmark writes.  Checks run in the parent process, outside the timed
region, and use ``oracle`` rather than prismradio.

Why each workload exists, and the layer it isolates:

* census     -- the paper-reproduction sweep ``table --n-min 3 --n-max 240``:
                hundreds of small-to-mid graphs, so graph builds and the
                build_graph cache dominate; exact search is not used.
* audit      -- three instances near n = 2500 (s = 1, 2, 3, three different
                construction cases): label, verify the emitted file, verify a
                copy with swapped labels (hundreds of violations, exit 1).
                Verification, dense-matrix memory and CLI JSON I/O dominate.
* prove      -- ``exact`` on every n <= 6 instance plus Z(7..9, 1..2):
                pure branch-and-bound, graphs and verification negligible.
* invariants -- ``selftest --n-max 60``: the only caller of the triple-budget
                sweep and of point-distance queries.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracle import PrismMetric, radio_number, violations

EXIT_OK, EXIT_INVALID = 0, 1

# Check of one operation: (stdout, work dir) -> None if accepted, else the reason.
Check = Callable[[str, Path], "str | None"]


@dataclass
class Op:
    argv: list[str]
    expect_rc: int
    check: Check
    save_as: str | None = None  # file (in the work dir) that receives stdout
    # untimed step before the op: (source file, destination file, index pairs
    # whose labels are swapped)
    corrupt: tuple[str, str, list[tuple[int, int]]] | None = None

    def spec(self) -> dict:
        """What the repeat process needs to run the op."""
        return {"argv": self.argv, "save_as": self.save_as, "corrupt": self.corrupt}


def _labels_of(data: dict, n: int) -> dict:
    """{(cycle, pos): label} from the JSON labeling schema, checking its layout."""
    entries = data["labels"]
    keys = [(e["cycle"], e["pos"]) for e in entries]
    if keys != [(c, p) for c in (1, 2) for p in range(1, n + 1)]:
        raise ValueError("labels are not one per vertex in (cycle, pos) order")
    return {k: e["label"] for k, e in zip(keys, entries)}


def _witness_check(data: dict, n: int, s: int, span: int) -> str | None:
    labels = _labels_of(data, n)
    if max(labels.values()) != span:
        return f"span {max(labels.values())} != {span}"
    bad = violations(PrismMetric(n, s), labels)
    return f"{len(bad)} radio-condition violations" if bad else None


# --- census -----------------------------------------------------------------

CENSUS_N = (3, 240)


def _check_census(stdout: str, workdir: Path) -> str | None:
    rows = json.loads(stdout)
    expected = [(n, s) for n in range(CENSUS_N[0], CENSUS_N[1] + 1) for s in (1, 2, 3)]
    if [(r["n"], r["s"]) for r in rows] != expected:
        return f"{len(rows)} rows, expected {len(expected)} in (n, s) order"
    for r in rows:
        rn = radio_number(r["n"], r["s"])
        if rn is None:
            ok = r["match"] is None and r["rn_formula"] is None
        else:
            ok = r["match"] is True and r["rn_formula"] == r["span"] == rn
        if not ok:
            return f"row Z({r['n']},{r['s']}) = {r}, expected rn {rn}"
    return None


def census(seed: int) -> list[Op]:
    argv = ["table", "--n-min", str(CENSUS_N[0]), "--n-max", str(CENSUS_N[1]),
            "--format", "json"]
    return [Op(argv, EXIT_OK, _check_census)]


# --- audit ------------------------------------------------------------------

AUDIT_SWAPS = 40  # label swaps per corrupted copy


def audit_instances(seed: int) -> list[tuple[int, int]]:
    """(n, s) near 2500; n mod 8 fixes the construction case of each s.

    s = 1 with n = 0 mod 4 is case 2, s = 2 with n odd is case 1, and s = 3
    with n = 2 mod 8 is case 4, so every seed covers three cases.
    """
    rng = random.Random(seed)
    return [(2496 + 4 * rng.randrange(4), 1),
            (2497 + 2 * rng.randrange(8), 2),
            (2498 + 8 * rng.randrange(2), 3)]


def _check_label(n: int, s: int) -> Check:
    def check(stdout: str, workdir: Path) -> str | None:
        data = json.loads(stdout)
        if (data["n"], data["s"]) != (n, s):
            return f"labeling is for Z({data['n']},{data['s']})"
        return _witness_check(data, n, s, radio_number(n, s))
    return check


def _check_clean_verify(n: int) -> Check:
    def check(stdout: str, workdir: Path) -> str | None:
        report = json.loads(stdout)
        pairs = 2 * n * (2 * n - 1) // 2
        if not report["valid"] or report["violations"] or report["pairs_checked"] != pairs:
            return f"clean labeling reported as {report['valid']}, pairs {report['pairs_checked']}"
        return None
    return check


def _check_corrupt_verify(n: int, s: int, file: str, swaps: list) -> Check:
    def check(stdout: str, workdir: Path) -> str | None:
        labels = _labels_of(json.loads((workdir / file).read_text()), n)
        keys = list(labels)
        swapped = {keys[i] for pair in swaps for i in pair}
        expected = violations(PrismMetric(n, s), labels)
        report = json.loads(stdout)
        got = {(frozenset(((w["u"]["cycle"], w["u"]["pos"]), (w["v"]["cycle"], w["v"]["pos"]))),
                w["distance"], w["label_gap"]) for w in report["violations"]}
        if report["valid"] or got != expected or len(got) != len(report["violations"]):
            return f"{len(report['violations'])} violations reported, oracle finds {len(expected)}"
        if not expected or any(not (pair & swapped) for pair, _, _ in expected):
            return "violations do not all touch a swapped vertex"
        return None
    return check


def audit(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for k, (n, s) in enumerate(audit_instances(seed)):
        clean, bad = f"label{k}.json", f"swapped{k}.json"
        picks = rng.sample(range(2 * n), 2 * AUDIT_SWAPS)
        swaps = list(zip(picks[::2], picks[1::2]))
        ops += [
            Op(["label", "--n", str(n), "--s", str(s), "--format", "json"], EXIT_OK,
               _check_label(n, s), save_as=clean),
            Op(["verify", "--file", clean, "--format", "json"], EXIT_OK,
               _check_clean_verify(n)),
            Op(["verify", "--file", bad, "--format", "json"], EXIT_INVALID,
               _check_corrupt_verify(n, s, bad, swaps), corrupt=(clean, bad, swaps)),
        ]
    return ops


# --- prove ------------------------------------------------------------------

# rn of each instance, from the paper; Z(n, 3) for n = 7, 8, 9 is left out
# because the search does not finish at default flags.
PROVE_EXPECTED = {
    (3, 1): 6, (3, 2): 8, (3, 3): 6, (4, 1): 11, (4, 2): 8, (4, 3): 9,
    (5, 1): 14, (5, 2): 14, (5, 3): 10, (6, 1): 22, (6, 2): 17, (6, 3): 17,
    (7, 1): 20, (7, 2): 26, (8, 1): 30, (8, 2): 23, (9, 1): 34, (9, 2): 34,
}


def _check_exact(n: int, s: int, rn: int) -> Check:
    def check(stdout: str, workdir: Path) -> str | None:
        out = json.loads(stdout)
        if out["rn"] != rn or out["proven_optimal"] is not True:
            return f"Z({n},{s}): rn {out['rn']} proven {out['proven_optimal']}, expected {rn}"
        return _witness_check(out["witness"], n, s, rn)
    return check


def prove(seed: int) -> list[Op]:
    return [Op(["exact", "--n", str(n), "--s", str(s), "--format", "json"], EXIT_OK,
               _check_exact(n, s, rn)) for (n, s), rn in PROVE_EXPECTED.items()]


# --- invariants -------------------------------------------------------------

SELFTEST_SUITES = ("graphs", "bounds", "labeling", "verification", "exact")


def _check_selftest(stdout: str, workdir: Path) -> str | None:
    lines = stdout.splitlines()
    want = [rf"{name}: PASS \(\d+ checks\)" for name in SELFTEST_SUITES]
    want.append(rf"{len(SELFTEST_SUITES)}/{len(SELFTEST_SUITES)} suites passed")
    if len(lines) != len(want) or not all(map(re.fullmatch, want, lines)):
        return "selftest output: " + " | ".join(lines)
    return None


def invariants(seed: int) -> list[Op]:
    return [Op(["selftest", "--n-max", "60"], EXIT_OK, _check_selftest)]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "census": census,
    "audit": audit,
    "prove": prove,
    "invariants": invariants,
}
