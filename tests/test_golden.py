"""Refactor gate: `analyze --output json` is byte-identical to a stored run.

`golden/analyze_q16.json` holds the stdout, stderr and exit code of
`a2tp analyze --q Q --variant V --output json` for every prime power
Q <= 16 and every variant that applies to it (44 runs).  Generated inputs
never reach the M-subset search, so `golden/analyze_files.json` holds the
same for `a2tp analyze --file F --output json --budget B` on the seeded
relabellings of t0/t0dual in `golden/files/` (q = 4, 5, two per
(q, variant)): B is 200, where every search finds an M-subset, or the
entry's `budget`, 1 for the one entry whose search runs out of it.
`golden/analyze_q19_twists.json` holds the same for
`--q 19` and the variants frob1 and omega, the inputs of the twists
benchmark, and `golden/analyze_q32.json` for `--q 32` and t0/t0dual.  A
change that moves any byte of a report must regenerate the file and say
why.

`analyze` reads Γ_ab from the triple lattice it shares with A_T, so
`test_gamma_ab_oracle` reduces Γ_ab on its own, for the golden inputs with
q <= 13, q = 16 t0/t0dual and the q = 19 twists.
"""

import functools
import json
import math
from pathlib import Path

import pytest

from a2tp.cli import main
from a2tp.plane import build_plane
from a2tp.presentation import gen_t0, gen_t0_dual, twist_by_name
from a2tp.zlinalg import FpAbelianGroup, PointRows
from helpers import gamma_ab_matrix, triangle_lattice

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "analyze_q16.json").read_text())
GOLDEN_FILES = json.loads((GOLDEN_DIR / "analyze_files.json").read_text())
GOLDEN_Q19 = json.loads((GOLDEN_DIR / "analyze_q19_twists.json").read_text())
GOLDEN_Q32 = json.loads((GOLDEN_DIR / "analyze_q32.json").read_text())


def test_golden_covers_every_prime_power_and_variant_up_to_16():
    keys = [(e["q"], e["variant"]) for e in GOLDEN]
    assert len(keys) == len(set(keys)) == 44
    assert {q for q, _ in keys} == {2, 3, 4, 5, 7, 8, 9, 11, 13, 16}
    assert {q for q, v in keys if v == "omega"} == {4, 7, 13, 16}


@pytest.mark.parametrize(
    "entry", GOLDEN + GOLDEN_Q19 + GOLDEN_Q32, ids=lambda e: f"q{e['q']}-{e['variant']}"
)
def test_analyze_json_is_byte_identical(entry, capsys):
    code = main(["analyze", "--q", str(entry["q"]), "--variant", entry["variant"], "--output", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        entry["exit_code"], entry["stdout"], entry["stderr"]
    )


def test_golden_files_cover_found_and_out_of_budget():
    outcomes = {
        (
            e["file"].split("_s")[0],
            e.get("budget", 200),
            json.loads(e["stdout"])["checks"]["m_subset_found"],
            e["exit_code"],
        )
        for e in GOLDEN_FILES
    }
    assert outcomes == {
        (f"{v}_q{q}", 200, True, 0) for v in ("t0", "t0dual") for q in (4, 5)
    } | {("t0_q4", 1, False, 1)}


def _file_id(entry) -> str:
    return entry["file"] + (f"-budget{entry['budget']}" if "budget" in entry else "")


@pytest.mark.parametrize("entry", GOLDEN_FILES, ids=_file_id)
def test_analyze_file_json_is_byte_identical(entry, capsys, monkeypatch):
    # The report's origin is the path as given, so run from the directory.
    monkeypatch.chdir(GOLDEN_DIR / "files")
    budget = str(entry.get("budget", 200))
    code = main(["analyze", "--file", entry["file"], "--output", "json", "--budget", budget])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        entry["exit_code"], entry["stdout"], entry["stderr"]
    )


Q19_TWISTS = [("frob1", ["3", "2286"], ["3", "381"], 6), ("omega", ["54"], ["3"], 18)]


@pytest.mark.parametrize("variant, factors, quotient, eps", Q19_TWISTS)
def test_analyze_q19_twists_give_the_pinned_groups(variant, factors, quotient, eps, capsys):
    # The twists benchmark's inputs; no closed form is known for them.
    code = main(["analyze", "--q", "19", "--variant", variant, "--output", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and all(report["checks"].values())
    assert (report["invariant_factors"], report["free_rank"]) == (factors, 0)
    assert report["quotient_invariant_factors"] == quotient
    assert report["epsilon_order"] == eps


GAMMA_CASES = [
    (e["q"], e["variant"], json.loads(e["stdout"])["quotient_invariant_factors"])
    for e in GOLDEN
    if e["q"] <= 13 or (e["q"] == 16 and e["variant"] in ("t0", "t0dual"))
] + [(19, variant, quotient) for variant, _, quotient, _ in Q19_TWISTS]


@functools.cache
def _plane(q):
    return build_plane(q)


@pytest.mark.parametrize(
    "q, variant, quotient", GAMMA_CASES, ids=[f"q{q}-{v}" for q, v, _ in GAMMA_CASES]
)
def test_gamma_ab_oracle(q, variant, quotient):
    # `analyze` reads |Γ_ab| as tri/<eps>, tri the triple lattice it shares with A_T;
    # here Γ_ab = Z^N / <x+y+z> is reduced on its own, from the bare triple rows.
    plane = _plane(q)
    if variant == "t0dual":
        T = gen_t0_dual(plane)
    else:
        T = gen_t0(plane)
        if variant != "t0":
            T = twist_by_name(plane, T, variant)
    N = T.N
    tri = triangle_lattice(T)  # as `analyze` builds it, from the triangle point rows
    gamma_order = FpAbelianGroup(N, gamma_ab_matrix(T)).snf.group_order  # no peeling
    assert gamma_order is not None
    assert gamma_order == tri.quotient_by(PointRows(N + 1, ((),))).snf.group_order
    assert gamma_order % math.prod(int(d) for d in quotient) == 0


def test_every_triple_row_of_the_q19_frob1_lattice_is_zero():
    # Peeling uses some rows as pivots and maps the others to the core: each is 0 in tri,
    # and so is x + y + z - eps for every triple, one row per multiset having been fed in.
    plane = _plane(19)
    T = twist_by_name(plane, gen_t0(plane), "frob1")
    N = T.N
    tri = triangle_lattice(T)
    assert len(tri.relations.rows) == 2485 < len(T.triples) == 7620
    for t in T.triples:
        dense = [0] * N + [-1]
        for pt in t:
            dense[pt] += 1
        assert tri.order_of(dense) == 1, t
    # eps is free in tri: points -> 1, eps -> 3 kills every row and sends k*eps to 3k.
    assert tri.order_of([0] * N + [1]) is None
