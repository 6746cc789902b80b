"""Refactor gate: `analyze --output json` is byte-identical to a stored run.

`golden/analyze_q16.json` holds the stdout, stderr and exit code of
`a2tp analyze --q Q --variant V --output json` for every prime power
Q <= 16 and every variant that applies to it (44 runs).  Generated inputs
never reach the M-subset backtracker, so `golden/analyze_files.json` holds the
same for `a2tp analyze --file F --output json --budget 200` on the seeded
relabellings of t0/t0dual in `golden/files/` (q = 4, 5; each (q, variant) has
one input whose search finds an M-subset within the budget and one whose
search runs out of it).  A change that moves any byte of a report must
regenerate the file and say why.
"""

import json
from pathlib import Path

import pytest

from a2tp.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "analyze_q16.json").read_text())
GOLDEN_FILES = json.loads((GOLDEN_DIR / "analyze_files.json").read_text())


def test_golden_covers_every_prime_power_and_variant_up_to_16():
    keys = [(e["q"], e["variant"]) for e in GOLDEN]
    assert len(keys) == len(set(keys)) == 44
    assert {q for q, _ in keys} == {2, 3, 4, 5, 7, 8, 9, 11, 13, 16}
    assert {q for q, v in keys if v == "omega"} == {4, 7, 13, 16}


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: f"q{e['q']}-{e['variant']}")
def test_analyze_json_is_byte_identical(entry, capsys):
    code = main(["analyze", "--q", str(entry["q"]), "--variant", entry["variant"], "--output", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        entry["exit_code"], entry["stdout"], entry["stderr"]
    )


def test_golden_files_cover_found_and_out_of_budget():
    outcomes = {
        (e["file"].split("_s")[0], json.loads(e["stdout"])["checks"]["m_subset_found"])
        for e in GOLDEN_FILES
    }
    assert outcomes == {
        (f"{v}_q{q}", found) for v in ("t0", "t0dual") for q in (4, 5) for found in (True, False)
    }


@pytest.mark.parametrize("entry", GOLDEN_FILES, ids=lambda e: e["file"])
def test_analyze_file_json_is_byte_identical(entry, capsys, monkeypatch):
    # The report's origin is the path as given, so run from the directory.
    monkeypatch.chdir(GOLDEN_DIR / "files")
    code = main(["analyze", "--file", entry["file"], "--output", "json", "--budget", "200"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        entry["exit_code"], entry["stdout"], entry["stderr"]
    )


@pytest.mark.parametrize(
    "variant, factors, quotient, eps",
    [("frob1", ["3", "2286"], ["3", "381"], 6), ("omega", ["54"], ["3"], 18)],
)
def test_analyze_q19_twists_give_the_pinned_groups(variant, factors, quotient, eps, capsys):
    # The twists benchmark's inputs; no closed form is known for them.
    code = main(["analyze", "--q", "19", "--variant", variant, "--output", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and all(report["checks"].values())
    assert (report["invariant_factors"], report["free_rank"]) == (factors, 0)
    assert report["quotient_invariant_factors"] == quotient
    assert report["epsilon_order"] == eps
