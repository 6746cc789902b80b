import concurrent.futures
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from a2tp import cli, coinv, gf, plane, presentation
from a2tp.cli import main, make_parser, prime_powers_in
from helpers import relabelled, report_from_dict

GOLDEN_FILE = Path(__file__).parent / "golden" / "files" / "t0_q4_s15.a2tp"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prime_power_enumeration():
    assert prime_powers_in(2, 16) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    assert prime_powers_in(17, 32) == [17, 19, 23, 25, 27, 29, 31, 32]


def test_gen_writes_file(tmp_path, capsys):
    out = tmp_path / "t0_q2.a2tp"
    code, _, _ = run(capsys, "gen", "--q", "2", "--variant", "t0", "--out", str(out))
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert lines[0] == "a2tp q=2 n=7"
    assert sum(1 for l in lines if l.startswith("lambda ")) == 7
    assert sum(1 for l in lines if l.startswith("t ")) == 21


def test_gen_rejects_non_prime_power(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--q", "6", "--variant", "t0", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "6 is not a prime power" in err


def test_gen_rejects_omega_wrong_q(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--q", "5", "--variant", "omega", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "omega" in err


def test_validate_ok(tmp_path, capsys):
    out = tmp_path / "t.a2tp"
    run(capsys, "gen", "--q", "3", "--out", str(out))
    code, stdout, _ = run(capsys, "validate", "--file", str(out))
    assert code == 0
    assert "axiom_i: PASS" in stdout


def test_validate_corrupted(tmp_path, capsys):
    out = tmp_path / "t.a2tp"
    run(capsys, "gen", "--q", "2", "--out", str(out))
    lines = out.read_text().splitlines()
    # drop one triple line, breaking the cyclic orbit
    first_t = next(i for i, l in enumerate(lines) if l.startswith("t "))
    del lines[first_t]
    out.write_text("\n".join(lines) + "\n")
    code, stdout, err = run(capsys, "validate", "--file", str(out))
    assert code == 2
    assert "witness" in err


def test_analyze_text(capsys):
    code, stdout, _ = run(capsys, "analyze", "--q", "3", "--variant", "t0")
    assert code == 0
    assert "A_T = Z2" in stdout
    assert "ord(eps) = 2" in stdout


def test_analyze_json_q4(capsys):
    code, stdout, _ = run(capsys, "analyze", "--q", "4", "--variant", "t0", "--output", "json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["epsilon_order"] == 1
    assert doc["invariant_factors"] == ["3", "3"]
    assert all(doc["checks"].values())


def test_analyze_corrupted_file(tmp_path, capsys):
    out = tmp_path / "t.a2tp"
    run(capsys, "gen", "--q", "2", "--out", str(out))
    with open(out, "a") as fh:
        fh.write("t 0 1 5\n")  # conflicts with the existing (0,1,z) triple
    code, _, err = run(capsys, "analyze", "--file", str(out))
    assert code == 2
    assert "witness" in err


def test_analyze_rejects_a_file_short_of_triples(tmp_path, capsys):
    # One triple orbit is missing and its three lambda lines repeat a point to
    # keep q+1 entries; the parser rejects the first such lambda line.
    from a2tp.plane import build_plane
    from a2tp.presentation import gen_t0

    T = gen_t0(build_plane(2))
    a, b, c = next(t for t in sorted(T.triples) if len(set(t)) == 3)
    dropped = {a: b, b: c, c: a}
    lines = ["a2tp q=2 n=7"]
    for x, line in enumerate(T.lam):
        pts = [y for y in line if y != dropped.get(x)]
        pts += pts[: len(line) - len(pts)]
        lines.append(f"lambda {x}: " + " ".join(map(str, pts)))
    for t in sorted(T.triples - {(a, b, c), (b, c, a), (c, a, b)}):
        lines.append("t %d %d %d" % t)
    out = tmp_path / "t.a2tp"
    out.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "analyze", "--file", str(out))
    assert code == 2
    assert f"line {2 + min(a, b, c)}: lambda line repeats a point" in err


def test_analyze_rejects_a_lambda_line_that_repeats_a_point(tmp_path, capsys):
    out = tmp_path / "t.a2tp"
    out.write_text("a2tp q=2 n=7\nlambda 0: 2 4 2\n")
    code, _, err = run(capsys, "analyze", "--file", str(out))
    assert code == 2
    assert "line 2" in err


def test_analyze_file_roundtrip(tmp_path, capsys):
    out = tmp_path / "t.a2tp"
    run(capsys, "gen", "--q", "3", "--variant", "t0dual", "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", "--file", str(out), "--output", "json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["invariant_factors"] == ["3", "3", "6"]


ROUND_TRIP_CASES = [
    (q, variant)
    for q in prime_powers_in(2, 13)
    for variant in cli.VARIANTS
    if variant != "omega" or q % 3 == 1
]


@pytest.mark.parametrize("q, variant", ROUND_TRIP_CASES)
def test_a_generated_file_gets_the_verdict_of_its_variant(tmp_path, capsys, q, variant):
    # A report depends on T alone, so the file gen writes is analysed and verified as its
    # variant is; only the origin and verify's plane checks, which differ by source, differ.
    path = tmp_path / f"{variant}_q{q}.a2tp"
    assert run(capsys, "gen", "--q", str(q), "--variant", variant, "--out", str(path))[0] == 0
    sources = (["--q", str(q), "--variant", variant], ["--file", str(path)])
    reports, verdicts = [], []
    for source in sources:
        code, out, err = run(capsys, "analyze", *source, "--budget", "200", "--output", "json")
        doc = json.loads(out)
        del doc["origin"]
        reports.append((code, doc, err))
        code, out, err = run(capsys, "verify", *source, "--budget", "200")
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("triangle-axioms:"))
        verdicts.append((code, lines[start:], err))
    assert reports[0] == reports[1]
    assert verdicts[0] == verdicts[1]
    assert reports[1][0] == 0  # every check passes, m_subset_found among them


def test_analyze_reports_scheme_agreement(capsys):
    code, stdout, _ = run(capsys, "analyze", "--q", "2", "--output", "json")
    assert code == 0
    assert json.loads(stdout)["checks"]["scheme_agreement"] is True


@pytest.mark.parametrize("second_line", ["lambda", "t"])
def test_analyze_truncated_line_is_a_parse_error(tmp_path, capsys, second_line):
    out = tmp_path / "t.a2tp"
    out.write_text(f"a2tp q=2 n=7\n{second_line}\n")
    code, _, err = run(capsys, "analyze", "--file", str(out))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_file_that_is_a_directory_is_a_usage_error(tmp_path, capsys, command):
    code, _, err = run(capsys, command, "--file", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


HEADERS_BELOW_Q2 = {
    -1: "a2tp q=-1 n=1\nlambda 0:\n",
    0: "a2tp q=0 n=1\nlambda 0: 0\nt 0 0 0\n",
    1: "a2tp q=1 n=3\nlambda 0: 1 2\nlambda 1: 0 2\nlambda 2: 0 1\n"
    + "".join(f"t {x} {y} {z}\n" for x, y, z in itertools.permutations(range(3))),
}


@pytest.mark.parametrize("q", sorted(HEADERS_BELOW_Q2))
def test_analyze_rejects_a_header_with_q_below_2(tmp_path, capsys, q):
    out = tmp_path / "t.a2tp"
    out.write_text(HEADERS_BELOW_Q2[q])
    code, stdout, err = run(capsys, "analyze", "--file", str(out))
    assert code == 2
    assert stdout == ""
    assert err == f"error: line 1: q={q} is below 2\n"


def test_table_small_range(capsys):
    code, stdout, _ = run(capsys, "table", "--q-min", "2", "--q-max", "5", "--output", "json")
    assert code == 0
    rows = json.loads(stdout)["rows"]
    assert len(rows) == 8  # q in {2,3,4,5} x {t0, t0dual}
    assert all(r["verdict"] == "MATCH" for r in rows)


def test_table_text_q13(capsys):
    code, stdout, _ = run(capsys, "table", "--q-min", "13", "--q-max", "13")
    assert code == 0
    lines = [l for l in stdout.splitlines() if l.startswith(" 13")]
    assert any("t0 " in l and "Z3+Z12" in l and "MATCH" in l for l in lines)


def test_table_jobs_capped_at_cpu_count(monkeypatch, capsys):
    # a serial stand-in for the pool: records max_workers and starts no process
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    table = lambda *jobs: run(capsys, "table", "--q-min", "2", "--q-max", "3", "--output", "json", *jobs)
    serial = table()
    assert serial[0] == 0 and pools == []
    assert table("--jobs", "64") == serial
    assert pools == [2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: run serially
    assert table("--jobs", "8") == serial
    assert pools == [2]


def test_importing_the_cli_loads_no_process_pool():
    # multiprocessing costs every CLI call's cold start; only `table --jobs` > 1 needs it.
    path = [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = "import sys, a2tp.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_table_rejects_jobs_below_one(capsys, jobs):
    code, stdout, err = run(capsys, "table", "--q-min", "2", "--q-max", "2", "--jobs", jobs)
    assert code == 2
    assert stdout == ""
    assert f"--jobs must be at least 1, got {jobs}" in err


def test_table_rejects_q_past_the_maximum_before_computing(monkeypatch, capsys):
    def never(q):
        raise AssertionError(f"q = {q} was computed")

    monkeypatch.setattr(cli, "_table_rows_for_q", never)
    code, stdout, err = run(capsys, "table", "--q-min", "9", "--q-max", "67", "--jobs", "1")
    assert code == 2
    assert stdout == ""
    assert f"q = 67 exceeds the supported maximum {gf.MAX_Q}" in err


@pytest.mark.parametrize("q_min, q_max", [("2", "65"), ("65", "66"), ("2", "2000000")])
def test_table_names_its_q_max_when_past_the_maximum(capsys, q_min, q_max):
    code, stdout, err = run(capsys, "table", "--q-min", q_min, "--q-max", q_max)
    assert (code, stdout) == (2, "")
    assert err == f"error: q = {q_max} exceeds the supported maximum {gf.MAX_Q}\n"


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_negative_budget_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "t0_q2.a2tp"
    assert run(capsys, "gen", "--q", "2", "--out", str(path))[0] == 0
    for source in (["--q", "2"], ["--file", str(path)]):
        code, stdout, err = run(capsys, command, *source, "--budget", "-5")
        assert code == 2
        assert stdout == ""
        assert "--budget must be at least 0, got -5" in err
        assert run(capsys, command, *source, "--budget", "0")[0] == 0


def test_verify_q4(capsys):
    code, stdout, _ = run(capsys, "verify", "--q", "4", "--variant", "t0")
    assert code == 0
    assert "lemma_q2: PASS" in stdout
    assert "difference-set: PASS" in stdout
    assert "CONJECTURE-HOLDS" in stdout


def test_verify_twist(capsys):
    code, stdout, _ = run(capsys, "verify", "--q", "2", "--variant", "frob1")
    assert code == 0
    assert "s-invariance: FALSE" in stdout
    assert "m-subset: PASS" in stdout


VERIFY_CHECKS = (
    "triangle-axioms: PASS\ns-invariance: {s}\nm-subset: PASS\nlemma_q2: PASS\nlower_bound: PASS\n"
    "scheme_agreement: PASS\ngamma_ab: PASS\nconjecture: CONJECTURE-HOLDS\n"
)
GENERATED_PLANE = "plane-axioms: PASS\ndifference-set: PASS\n"


@pytest.mark.parametrize(
    "source, expected",
    [
        (["--q", "4"], GENERATED_PLANE + VERIFY_CHECKS.format(s="TRUE")),
        (["--q", "2", "--variant", "frob1"], GENERATED_PLANE + VERIFY_CHECKS.format(s="FALSE")),
        (["--file"], "plane-axioms: PASS\n" + VERIFY_CHECKS.format(s="FALSE")),
    ],
)
def test_verify_prints_every_check_in_order(tmp_path, capsys, source, expected):
    if source == ["--file"]:
        path = tmp_path / "frob1_q2.a2tp"
        assert run(capsys, "gen", "--q", "2", "--variant", "frob1", "--out", str(path))[0] == 0
        source = ["--file", str(path)]
    assert run(capsys, "verify", *source) == (0, expected, "")


def test_verify_has_no_output_option(capsys):
    code, stdout, err = _exit_and_output(capsys, ["verify", "--q", "2", "--output", "json"])
    assert (code, stdout) == (2, "")
    assert "unrecognized arguments: --output json" in err


def test_verify_user_file(tmp_path, capsys):
    out = tmp_path / "t.a2tp"
    run(capsys, "gen", "--q", "2", "--variant", "frob1", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "--file", str(out))
    assert code == 0
    assert "s-invariance: FALSE" in stdout
    assert "lemma_q2: PASS" in stdout
    assert "plane-axioms: PASS" in stdout
    assert "difference-set" not in stdout  # a file has no difference set to check


def test_verify_file_with_equal_lambda_lines_fails_plane_axioms(tmp_path, capsys):
    out = tmp_path / "t.a2tp"
    run(capsys, "gen", "--q", "2", "--out", str(out))
    lines = out.read_text().splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("lambda 0:"))
    lines[first + 1] = "lambda 1:" + lines[first].split(":", 1)[1]
    out.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, "verify", "--file", str(out))
    assert code == 1
    assert "plane-axioms: FAIL" in stdout


def test_a_lambda_table_that_is_no_plane_is_rejected_by_analyze(tmp_path, capsys):
    # lambda(x) = {x-1, x, x+1} mod 7 and T = the rotations of (x, x, x+1): the triangle
    # axioms hold, but lambda(0) and lambda(1) meet in two points.
    out = tmp_path / "t.a2tp"
    lines = ["a2tp q=2 n=7"]
    for x in range(7):
        w, y = (x - 1) % 7, (x + 1) % 7
        lines.append(f"lambda {x}: " + " ".join(map(str, sorted((w, x, y)))))
        lines += [f"t {x} {x} {y}", f"t {x} {y} {x}", f"t {y} {x} {x}"]
    out.write_text("\n".join(lines) + "\n")
    code, stdout, err = run(capsys, "analyze", "--file", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: the lambda lines fail the projective-plane axioms for q=2\n"
    code, stdout, _ = run(capsys, "verify", "--file", str(out))
    assert code == 1
    assert "plane-axioms: FAIL" in stdout and "triangle-axioms: PASS" in stdout
    assert run(capsys, "validate", "--file", str(out))[0] == 0  # the triangle axioms only


def test_verify_file_failing_triangle_axioms_stops_there(tmp_path, capsys):
    out = tmp_path / "t.a2tp"
    run(capsys, "gen", "--q", "2", "--out", str(out))
    lines = out.read_text().splitlines()
    lines.remove(next(l for l in lines if l.startswith("t ")))
    out.write_text("\n".join(lines) + "\n")
    assert run(capsys, "verify", "--file", str(out)) == (
        1, "plane-axioms: PASS\ntriangle-axioms: FAIL\n", ""
    )


def test_verify_validates_once(capsys, monkeypatch):
    calls = []

    def counted(T):
        calls.append(T)
        return real(T)

    real = presentation.validate
    for module in (presentation, coinv, cli):
        monkeypatch.setattr(module, "validate", counted)
    code, stdout, _ = run(capsys, "verify", "--q", "4")
    assert code == 0 and "triangle-axioms: PASS" in stdout
    assert len(calls) == 1


def test_analyze_internal_error_exits_3(capsys, monkeypatch):
    from a2tp.zlinalg import FpAbelianGroup

    monkeypatch.setattr(FpAbelianGroup, "order_of", lambda self, element: 4)
    code, stdout, err = run(capsys, "analyze", "--q", "9")
    assert code == 3
    assert stdout == ""
    assert err == "internal error: ord(eps) is 4 but |A_T| / |A_T/<eps>| is 8\n"


@pytest.mark.parametrize(
    "target, error",
    [
        ("trace_zero_logs", gf.NoPrimitivePolynomial("no primitive modulus for p=2, degree 6")),
        ("_verify_difference_set", plane.PlaneAxiomViolation("not a perfect difference set")),
    ],
)
def test_construction_bugs_exit_3(capsys, monkeypatch, target, error):
    def broken(*args):
        raise error

    monkeypatch.setattr(plane, target, broken)
    code, stdout, err = run(capsys, "analyze", "--q", "2")
    assert code == 3
    assert stdout == ""
    assert err == f"internal error: {error}\n"


def test_verify_requires_source(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_json_report_roundtrip(capsys):
    from a2tp.plane import build_plane
    from a2tp.presentation import gen_t0
    from a2tp.coinv import analyze

    code, stdout, _ = run(capsys, "analyze", "--q", "5", "--variant", "t0", "--output", "json")
    parsed = report_from_dict(json.loads(stdout))
    direct = analyze(gen_t0(build_plane(5)))
    assert parsed == direct


@pytest.mark.parametrize(
    "error",
    [
        presentation.ParseError("bad header", 1),
        presentation.InconsistentHeader("q=1 is below 2", 1),
        cli.UsageError("either --q or --file is required"),
        gf.UnsupportedSize("q = 128 exceeds the supported maximum 64"),
        coinv.InvalidPresentation("presentation failed triangle axioms"),
    ],
)
def test_bad_input_errors_share_one_base_and_exit_2(capsys, monkeypatch, error):
    assert isinstance(error, gf.BadInput)

    def reject(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "analyze", reject)
    code, stdout, err = run(capsys, "analyze", "--q", "2")
    assert (code, stdout, err) == (2, "", f"error: {error}\n")


def test_a_value_error_from_a_bug_is_not_bad_input(capsys, monkeypatch):
    def bug(*args, **kwargs):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(coinv, "find_m_subset", bug)
    with pytest.raises(ValueError, match="a bug, not bad input"):
        main(["analyze", "--q", "2"])


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--q", "10000000000000061"],
        ["verify", "--q", "10000000000000061"],
        ["gen", "--q", "10000000000000061", "--out", "never-written.a2tp"],
        ["analyze", "--q", "100"],  # not a prime power, and past the maximum
        ["table", "--q-max", "2000000"],
        ["table", "--q-min", "10000000000000061", "--q-max", "10000000000000061"],
    ],
)
def test_q_past_the_maximum_is_rejected_before_it_is_factorized(capsys, monkeypatch, argv):
    def small_only(n, _real=gf.factorize):
        if n > 10**4:
            raise AssertionError(f"{n} was factorized")
        return _real(n)

    monkeypatch.setattr(gf, "factorize", small_only)
    monkeypatch.setattr(cli, "factorize", small_only)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert f"exceeds the supported maximum {gf.MAX_Q}\n" in err


def test_omega_at_q7_fails_the_conjecture_and_no_check(capsys):
    code, stdout, _ = run(capsys, "analyze", "--q", "7", "--variant", "omega")
    assert code == 0 and stdout.endswith(": CONJECTURE-FAILS\n")
    code, stdout, _ = run(capsys, "verify", "--q", "7", "--variant", "omega")
    assert code == 0 and stdout.endswith("\nconjecture: CONJECTURE-FAILS\n")


def test_analyze_past_the_maximum_q_is_a_usage_error(capsys):
    code, stdout, err = run(capsys, "analyze", "--q", "128")
    assert (code, stdout) == (2, "")
    assert err == f"error: q = 128 exceeds the supported maximum {gf.MAX_Q}\n"


@pytest.mark.parametrize("command", ["validate", "analyze", "verify"])
def test_a_file_that_is_not_utf8_text_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "binary.a2tp"
    path.write_bytes(b"a2tp q=2 n=7\n\xff\xfe\n")
    code, stdout, err = run(capsys, command, "--file", str(path))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def _exit_and_output(capsys, argv) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_cached_parser_carries_no_state_between_calls(capsys, monkeypatch):
    calls = [
        ["analyze", "--file", str(GOLDEN_FILE), "--budget", "1"],
        ["analyze", "--q", "4"],
        ["verify", "--file", str(GOLDEN_FILE)],
        ["validate", "--file", str(GOLDEN_FILE), "--output", "json"],
        ["table", "--q-min", "2", "--q-max", "3", "--output", "json"],
        ["analyze", "--budget", "many"],
    ]
    make_parser.cache_clear()
    in_sequence = [_exit_and_output(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        make_parser.cache_clear()
        fresh.append(_exit_and_output(capsys, argv))
    assert in_sequence == fresh
    assert [code for code, _, _ in in_sequence] == [1, 0, 0, 0, 0, 2]
    assert "invalid int value: 'many'" in in_sequence[-1][2]
    assert make_parser() is make_parser()
    make_parser().parse_args(["analyze", "--q", "4", "--budget", "1"])
    assert make_parser().parse_args(["analyze", "--q", "4"]).budget == presentation.DEFAULT_BACKTRACK_BUDGET
    monkeypatch.setattr(cli, "cmd_table", lambda args: 7)  # handlers are not cached with it
    assert main(["table"]) == 7


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("variant", ["t0", "t0dual"])
def test_analyze_finds_an_m_subset_of_relabelled_files_at_q27(tmp_path, capsys, variant, seed):
    # In characteristic 3 every (x, x, x) lies in T, so the Singer orbit of
    # (0, 0, 0), the diagonal, is an M-subset found within the 200-node budget.
    T = cli.build_variant(27, variant)
    path = tmp_path / f"{variant}_q27_{seed}.a2tp"
    presentation.write_presentation(relabelled(T, random.Random(seed)), path)
    code, stdout, _ = run(capsys, "analyze", "--file", str(path), "--budget", "200", "--output", "json")
    assert code == 0
    assert json.loads(stdout)["checks"]["m_subset_found"] is True
