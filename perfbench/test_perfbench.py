"""Tests of the benchmark itself: inputs, oracles and span arithmetic.

    python3 -m pytest perfbench
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import a2tp  # noqa: E402
import a2tp.cli  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, inclusive_time, layer_self_times, self_times  # noqa: E402
from workloads import (  # noqa: E402
    BUDGET_EXHAUSTED,
    TABLE_QS,
    TWIST_GROUPS,
    WrongAnswer,
    check_report,
    build_table,
    check_table,
    is_failure,
    table_epsilon_order,
    table_group,
    write_files,
)


def test_files_are_deterministic_valid_and_not_s_invariant(tmp_path):
    first, again, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, again, other):
        d.mkdir()
    files = write_files(a2tp, 7, first)
    write_files(a2tp, 7, again)
    write_files(a2tp, 8, other)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir()) == sorted(p.name for p in other.iterdir())
    assert all((first / n).read_bytes() == (again / n).read_bytes() for n in names)
    assert any((first / n).read_bytes() != (other / n).read_bytes() for n in names)
    for path, q, _ in files:
        T = a2tp.read_presentation(path)
        assert T.q == q and a2tp.validate(T).ok and not a2tp.is_s_invariant(T)


def test_table_oracle_is_the_programs_closed_form():
    for q in TABLE_QS:
        pp = a2tp.prime_power(q)
        for v in ("t0", "t0dual"):
            assert table_group(q, v) == a2tp.coinv.predicted_group(q, pp.p, pp.r, v)
        assert table_epsilon_order(q) == a2tp.expected_epsilon_order(q)


def _table_output(perturb=None):
    rows = [
        {"q": q, "variant": v, "computed_factors": [str(d) for d in table_group(q, v)],
         "epsilon_order": table_epsilon_order(q), "checks_pass": True}
        for q in TABLE_QS for v in ("t0", "t0dual")
    ]
    if perturb:
        perturb(rows[-1])
    return json.dumps({"rows": rows})


def test_table_oracle_rejects_a_perturbed_group_or_order():
    assert check_table(0, _table_output()) == [None] * 2 * len(TABLE_QS)
    with pytest.raises(WrongAnswer):
        check_table(0, _table_output(lambda r: r["computed_factors"].append("2")))
    with pytest.raises(WrongAnswer):
        check_table(0, _table_output(lambda r: r.update(epsilon_order=r["epsilon_order"] * 3)))
    with pytest.raises(WrongAnswer):
        check_table(0, json.dumps({"rows": json.loads(_table_output())["rows"][:-1]}))


def test_table_workload_checks_each_q_on_its_own():
    ops = build_table(a2tp, 0, None)
    assert [op.argv[2] for op in ops] == [str(q) for q in TABLE_QS]
    out = io.StringIO()
    with redirect_stdout(out):
        code = a2tp.cli.main(ops[1].argv)
    assert ops[1].check(code, out.getvalue()) == [None, None]
    with pytest.raises(WrongAnswer):  # the rows of another q
        ops[0].check(code, out.getvalue())


def _report(factors, quotient, eps, checks_ok=True):
    return json.dumps({
        "invariant_factors": [str(d) for d in factors], "free_rank": 0,
        "quotient_invariant_factors": [str(d) for d in quotient], "epsilon_order": eps,
        "checks": {"m_subset_found": checks_ok, "lemma_q2": True},
    })


@pytest.mark.parametrize("variant", sorted(TWIST_GROUPS))
def test_twist_oracle_rejects_a_perturbed_group_or_order(variant):
    factors, quotient, eps = TWIST_GROUPS[variant]
    assert check_report(variant, 0, _report(factors, quotient, eps), *TWIST_GROUPS[variant]) is None
    for bad in (
        (factors[:-1] + (factors[-1] * 2,), quotient, eps),
        (factors, quotient + (3,), eps),
        (factors, quotient, eps * 2),
    ):
        with pytest.raises(WrongAnswer):
            check_report(variant, 0, _report(*bad), *TWIST_GROUPS[variant])


def test_file_oracle_accepts_the_program_and_rejects_a_perturbed_group(tmp_path):
    path, q, variant = write_files(a2tp, 3, tmp_path)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        code = a2tp.cli.main(["analyze", "--file", str(path), "--output", "json"])
    expected = (table_group(q, variant), None, table_epsilon_order(q))
    assert check_report(path.name, code, out.getvalue(), *expected) is None
    report = json.loads(out.getvalue())
    assert check_report("exhausted", 1, json.dumps({**report, "checks": {
        **report["checks"], "m_subset_found": False}}), *expected) == "FAIL m_subset_found"
    exhausted = json.dumps({**report, "checks": {
        **report["checks"], "m_subset_found": False, "q_minus_1_kills_epsilon": False}})
    # An input with an M-subset by construction: the search ran out of budget.
    assert check_report("exhausted", 1, exhausted, *expected, m_subset_exists=True) == BUDGET_EXHAUSTED
    assert not is_failure(BUDGET_EXHAUSTED) and not is_failure(None)
    # Without that knowledge, or with any other check failing too, it is a failure.
    assert is_failure(check_report("exhausted", 1, exhausted, *expected))
    other = json.dumps({**json.loads(exhausted), "checks": {
        **json.loads(exhausted)["checks"], "lemma_q2": False}})
    assert is_failure(check_report("other", 1, other, *expected, m_subset_exists=True))
    for key, value in (
        ("invariant_factors", report["invariant_factors"] + ["2"]),
        ("quotient_invariant_factors", report["quotient_invariant_factors"] + ["2"]),
        ("epsilon_order", 5),
        ("free_rank", 1),
    ):
        with pytest.raises(WrongAnswer):
            check_report(path.name, code, json.dumps({**report, key: value}), *expected)
    assert check_report(path.name, 2, "", *expected) == "exit code 2"


def test_self_time_arithmetic_on_a_synthetic_trace():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),              # 0
        Span("coinv.analyze", 1.0, 9.0, 0, 0),           # 1
        Span("zlinalg.hnf", 2.0, 5.0, 1, 0),             # 2
        Span("zlinalg.snf", 5.0, 6.0, 1, 0, "gamma_ab"),  # 3
        Span("zlinalg.order_quotient", 6.5, 8.5, 1, 0),  # 4
        Span("zlinalg.snf", 7.0, 8.0, 4, 0),             # 5
        Span("cli.main", 10.0, 11.0, -1, 1),             # 6
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0])
    assert layer_self_times(spans) == pytest.approx(
        {"cli": 3.0, "gf": 0.0, "plane": 0.0, "presentation": 0.0, "coinv": 2.0, "zlinalg": 6.0}
    )
    assert sum(layer_self_times(spans).values()) == pytest.approx(11.0)
    assert inclusive_time(spans, lambda s: s.name == "zlinalg.snf") == pytest.approx(2.0)
    # a match nested inside another match is counted once
    zl = lambda s: s.name.startswith("zlinalg.")
    assert inclusive_time(spans, zl) == pytest.approx(6.0)
    assert inclusive_time(spans, lambda s: s.tag == "gamma_ab") == pytest.approx(1.0)


def test_tracer_records_one_analyze_and_restores_the_program():
    original = (a2tp.cli.analyze, a2tp.coinv.relation_matrix, a2tp.zlinalg.FpAbelianGroup.__dict__["hnf"])
    tracer = Tracer()
    with tracer.installed(a2tp), redirect_stdout(io.StringIO()):
        assert a2tp.cli.main(["analyze", "--q", "4", "--output", "json"]) == 0
    assert (a2tp.cli.analyze, a2tp.coinv.relation_matrix,
            a2tp.zlinalg.FpAbelianGroup.__dict__["hnf"]) == original
    spans = tracer.finish()
    names = [s.name for s in spans]
    assert names[0] == "cli.main" and {s.op for s in spans} == {0}
    assert names.count("coinv.relation_matrix") == 3  # acb, bcd, acb in check_lower_bound
    assert names.count("presentation.validate") == 2  # cmd_analyze and analyze
    assert names.count("zlinalg.hnf") == 3  # two schemes and Γ_ab
    assert any(s.tag == "gamma_ab" for s in spans if s.name == "zlinalg.hnf")
    assert tracer.counters["m_subset_found"] == 1


def test_speed_runs_reference_chunks_in_step_and_rescales(monkeypatch):
    monkeypatch.setattr(run, "reference_chunk", lambda: 2 * run.REF_CHUNK_S)
    speed = run.Speed()
    assert speed.after(0.001) == 0.001 and len(speed.chunks) == 1  # at least one chunk
    speed.after(10 * run.REF_CHUNK_S / run.REF_SHARE)  # due: 10 chunks of REF_CHUNK_S
    assert len(speed.chunks) == 6  # each chunk takes twice its nominal time
    assert speed.factor() == pytest.approx(0.5)  # so the host runs at half speed
