"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import json
import math
import random
import time

import pytest

from a2tp.cli import main, prime_powers_in
from a2tp.coinv import analyze, expected_epsilon_order, predicted_group
from a2tp.gf import prime_power
from a2tp.plane import build_plane
from a2tp.presentation import (
    TrianglePresentation,
    gen_t0,
    gen_t0_dual,
    gen_variant,
    validate,
)
from a2tp.zlinalg import FpAbelianGroup
from helpers import (
    acb_matrix,
    bcd_point_rows,
    dense_matrix,
    order_by_quotient,
    point_matrix,
    reference_basis,
    reference_snf,
)

QS = prime_powers_in(2, 16)


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


@pytest.fixture(scope="module")
def planes():
    return {q: build_plane(q) for q in QS}


@pytest.fixture(scope="module")
def presentations(planes):
    out = {}
    for q, pl in planes.items():
        out[(q, "t0")] = gen_t0(pl)
        out[(q, "t0dual")] = gen_t0_dual(pl)
        out[(q, "frob1")] = gen_variant(pl, "frob1")
        out[(q, "frob2")] = gen_variant(pl, "frob2")
        if q % 3 == 1:
            out[(q, "omega")] = gen_variant(pl, "omega")
    return out


@pytest.fixture(scope="module")
def reports(presentations):
    return {key: analyze(T) for key, T in presentations.items()}


def test_criterion_1_table_reproduction(planes, reports):
    start = time.time()
    ok = True
    for q in QS:
        pp = prime_power(q)
        for variant in ("t0", "t0dual"):
            rep = reports[(q, variant)]
            predicted = predicted_group(q, pp.p, pp.r, variant)
            if rep.invariant_factors != predicted:
                ok = False
            if rep.free_rank != 0:
                ok = False
            if rep.epsilon_order != expected_epsilon_order(q):
                ok = False
    elapsed = time.time() - start
    assert elapsed < 600
    _report("1 table-reproduction 2<=q<=16", ok)


def test_criterion_2_q4_golden_example(planes, reports):
    start = time.time()
    rep = reports[(4, "t0")]
    pl = planes[4]
    ok = (
        rep.invariant_factors == (3, 3)
        and rep.epsilon_order == 1
        and len(pl.tz) == 5
        and {7, 14} <= set(pl.tz)
    )
    assert time.time() - start < 1.0
    _report("2 q4-golden-example", ok)


def test_criterion_3_theorem_suite(reports):
    ok = True
    for (q, variant), rep in sorted(reports.items()):
        eps = rep.epsilon_order
        if eps is None or (q * q - 1) % eps != 0:
            ok = False
        if not rep.checks["lower_bound"]:
            ok = False
        if eps is not None and eps < expected_epsilon_order(q):
            ok = False
        if not rep.checks["m_subset_found"]:
            ok = False
        if not rep.checks["q_minus_1_kills_epsilon"]:
            ok = False
        if not rep.checks["scheme_agreement"]:
            ok = False
        if not rep.checks["gamma_ab_divisibility"]:
            ok = False
    _report("3 theorem-suite all variants q<=16", ok)


def test_criterion_4_axiom_validation(presentations):
    ok = True
    for q in QS:
        for variant in ("t0", "t0dual"):
            T = presentations[(q, variant)]
            report = validate(T)
            if not report.ok or report.size != (q + 1) * T.N:
                ok = False
    # single-triple mutations must be caught with a correct witness
    for q in (2, 3, 4):
        T = presentations[(q, "t0")]
        victim = sorted(T.triples)[1]
        deleted = TrianglePresentation(
            q=T.q, N=T.N, lam=T.lam, triples=T.triples - {victim}, origin="m"
        )
        rep = validate(deleted)
        if rep.ok:
            ok = False
        if rep.axiom_ii.ok and rep.axiom_i.ok:
            ok = False
        if not rep.axiom_ii.ok and rep.axiom_ii.witness not in {
            tuple(victim[i:] + victim[:i]) for i in range(3)
        }:
            ok = False
        x, y, z = victim
        added = TrianglePresentation(
            q=T.q, N=T.N, lam=T.lam,
            triples=T.triples | {(x, y, (z + 1) % T.N)}, origin="m",
        )
        rep = validate(added)
        if rep.axiom_iii.ok or rep.axiom_iii.witness != (x, y):
            ok = False
    _report("4 triangle-axiom-validation", ok)


def test_criterion_5_snf_oracle_equivalence():
    start = time.time()

    def det(mat):
        n = len(mat)
        if n == 0:
            return 1
        if n == 1:
            return mat[0][0]
        return sum(
            (-1) ** j * mat[0][j] * det([r[:j] + r[j + 1 :] for r in mat[1:]])
            for j in range(n)
            if mat[0][j]
        )

    def minor_gcd_snf(rows, n_cols):
        prev = 1
        factors = []
        for i in range(1, min(len(rows), n_cols) + 1):
            g = 0
            for rsel in itertools.combinations(range(len(rows)), i):
                for csel in itertools.combinations(range(n_cols), i):
                    g = math.gcd(g, det([[rows[r][c] for c in csel] for r in rsel]))
                if g == 1:
                    break
            if g == 0:
                break
            factors.append(g // prev)
            prev = g
        return tuple(factors)

    rng = random.Random(2024)
    ok = True
    for _ in range(1000):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        result = reference_snf(reference_basis(*dense_matrix(nc, rows)))
        if result.invariant_factors != minor_gcd_snf(rows, nc):
            ok = False
        if any(b % a for a, b in zip(result.invariant_factors, result.invariant_factors[1:])):
            ok = False
        if nr == nc:
            d = det(rows)
            if d != 0 and math.prod(result.invariant_factors) != abs(d):
                ok = False
    elapsed = time.time() - start
    assert elapsed < 60
    _report("5 snf-oracle-equivalence 1000 matrices", ok)


def test_criterion_6_element_order_cross_validation(presentations, reports):
    # ord(eps) and the invariant factors of the acb rows, reduced by the full-width reference,
    # against the point-row engine on the bcd rows that `analyze` reads them from.
    ok = True
    eps_checked = 0
    for (q, variant), T in sorted(presentations.items()):
        if q > 8 or variant not in ("t0", "t0dual"):
            continue
        acb = reference_basis(*acb_matrix(T))
        bcd = FpAbelianGroup(T.N + 1, bcd_point_rows(T))
        eps = [0] * T.N + [1]
        if order_by_quotient(acb, eps) != reports[(q, variant)].epsilon_order:
            ok = False
        if reference_snf(acb).invariant_factors != bcd.snf.invariant_factors:
            ok = False
        eps_checked += 1
    assert eps_checked == len([q for q in QS if q <= 8]) * 2

    rng = random.Random(99)
    for _ in range(25):
        factors = [rng.choice([2, 3, 4, 5, 7, 9]) for _ in range(rng.randint(1, 4))]
        if math.prod(factors) > 10**4:
            continue
        n = len(factors)
        rows = tuple((i,) * d for i, d in enumerate(factors)) + ((),)  # d x_i = eps = 0
        g = FpAbelianGroup(n + 1, rows)
        e = [rng.randrange(d) for d in factors] + [0]
        qo = order_by_quotient(reference_basis(*point_matrix(n + 1, rows)), e)
        mo = g.order_of(e)
        brute = next(
            k
            for k in range(1, math.prod(factors) + 1)
            if all((k * c) % d == 0 for d, c in zip(factors, e))
        )
        if not (qo == mo == brute):
            ok = False
    _report("6 element-order-cross-validation", ok)


def test_criterion_7_determinism(capsys):
    outputs = []
    for jobs in ("1", "8"):
        code = main(
            ["table", "--q-min", "2", "--q-max", "13", "--output", "json", "--jobs", jobs]
        )
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out.encode("utf-8"))
    ok = outputs[0] == outputs[1] and len(json.loads(outputs[0])["rows"]) == 18
    with capsys.disabled():
        _report("7 determinism jobs 1 vs 8", ok)
