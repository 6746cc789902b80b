"""Refactor gate: `analyze --output json` is byte-identical to a stored run.

`golden/analyze_q16.json` holds the stdout, stderr and exit code of
`a2tp analyze --q Q --variant V --output json` for every prime power
Q <= 16 and every variant that applies to it (44 runs).  A change that moves
any byte of a report must regenerate the file and say why.
"""

import json
from pathlib import Path

import pytest

from a2tp.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "analyze_q16.json").read_text())


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
