import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from a2tp import coinv, presentation, zlinalg
from a2tp.cli import VARIANTS, build_variant, prime_powers_in
from a2tp.coinv import (
    InternalError,
    InvalidPresentation,
    analyze,
    check_lemma_q2,
    check_lower_bound,
    expected_epsilon_order,
    predicted_group,
    relation_matrix,
    schemes_agree,
)
from a2tp.gf import BadInput
from a2tp.plane import build_plane
from a2tp.presentation import gen_t0, gen_t0_dual, read_presentation, twist_by_name
from a2tp.zlinalg import FpAbelianGroup, IntMatrix, PointRows
from helpers import (
    acb_matrix,
    bcd_point_rows,
    gamma_ab_matrix,
    point_matrix,
    reference_smith_check,
    report_from_dict,
    triangle_rows,
)

GOLDEN_FILES = Path(__file__).parent / "golden" / "files"
GOLDEN_FILE_ENTRIES = json.loads((GOLDEN_FILES.parent / "analyze_files.json").read_text())


@pytest.fixture(scope="module")
def planes():
    return {q: build_plane(q) for q in (2, 3, 4, 5, 7)}


@pytest.fixture(scope="module")
def reports(planes):
    out = {}
    for q, pl in planes.items():
        out[(q, "t0")] = analyze(gen_t0(pl))
        out[(q, "t0dual")] = analyze(gen_t0_dual(pl))
    return out


def test_matrix_shape_q2(planes):
    # 21 triples, 7 rotation classes: one triangle row per point multiset
    T = gen_t0(planes[2])
    mat = acb_matrix(T)
    assert mat.n_cols == 8
    assert len(mat.rows) == 7 + 7 + 1


def test_matrix_shape_bcd(planes):
    T = gen_t0(planes[2])
    mat = relation_matrix(T)
    assert len(mat.rows) == 7 + 1 + 7


def _triangle_row_inputs(planes):
    for q, pl in planes.items():
        yield from (gen_t0(pl), gen_t0_dual(pl))  # q = 3: t0 holds the (x, x, x) triples
        twists = ("frob1", "frob2", "omega") if q % 3 == 1 else ("frob1", "frob2")
        yield from (twist_by_name(pl, gen_t0(pl), name) for name in twists)
    yield read_presentation(GOLDEN_FILES / "t0dual_q5_s31.a2tp")  # relabelled


def test_one_triangle_row_per_point_multiset(planes):
    for T in _triangle_row_inputs(planes):
        N = T.N
        triangles = relation_matrix(T).rows[: -N - 1]
        multisets = {tuple(sorted(t)) for t in T.triples}
        assert len(triangles) == len(set(triangles)) == len(multisets), T.origin
        points = tuple(tuple(c for c, v in row[:-1] for _ in range(v)) for row in triangles)
        assert set(map(tuple, map(sorted, points))) == multisets, T.origin
        assert all(row[-1] == (N, -1) for row in triangles), T.origin
        # the order too: where the sorted triples first give each multiset
        assert triangles == triangle_rows(T, ((N, -1),)), T.origin
        # the point rows the engine reads: each multiset sorted, then the same rows
        bcd = bcd_point_rows(T)
        assert bcd.rows[: len(triangles)] == points, T.origin
        assert point_matrix(bcd).rows == relation_matrix(T).rows, T.origin


def test_analyze_never_scans_for_s_invariance(planes, monkeypatch):
    # Each M-subset orbit is certified on its own, so no whole-T invariance scan gates it.
    def scan(T):
        raise AssertionError("is_s_invariant called")

    monkeypatch.setattr(presentation, "is_s_invariant", scan)
    pl = planes[7]
    inputs = [gen_t0(pl), gen_t0_dual(pl)]
    inputs += [twist_by_name(pl, gen_t0(pl), name) for name in ("frob1", "frob2", "omega")]
    inputs.append(read_presentation(GOLDEN_FILES / "t0dual_q5_s31.a2tp"))  # relabelled
    for T in inputs:
        assert analyze(T).checks["m_subset_found"], T.origin


def test_analyze_checks_none_of_the_rows_it_built(planes, monkeypatch):
    checked = []
    real = IntMatrix.__post_init__

    def counted(self):
        checked.append(len(self.rows))
        real(self)

    monkeypatch.setattr(IntMatrix, "__post_init__", counted)
    assert analyze(gen_t0(planes[7])).all_checks_pass
    assert checked == []  # every row, e_eps included, is built by the program


def test_analyze_diagonalizes_each_core_basis_once(planes, monkeypatch):
    calls = []
    real = zlinalg._diagonalize

    def counted(rows, n_cols):
        calls.append((tuple(map(tuple, rows)), n_cols))
        return real(rows, n_cols)

    monkeypatch.setattr(zlinalg, "_diagonalize", counted)
    for T in (gen_t0(planes[7]), twist_by_name(planes[5], gen_t0(planes[5]), "frob1")):
        calls.clear()
        assert analyze(T).all_checks_pass
        # tri's and A_T's settled bases, then the snf of A_T/<eps> and of tri/<eps>
        assert len(calls) == len(set(calls)) == 4, T.origin


def test_invalid_presentation_is_bad_input(planes):
    T = gen_t0(planes[2])
    bad = replace(T, triples=T.triples - {min(T.triples)})
    with pytest.raises(InvalidPresentation, match="^presentation failed triangle axioms, witness"):
        relation_matrix(bad)
    with pytest.raises(BadInput):
        analyze(bad)


def test_acb_row_structure_q2(planes):
    # char 2: x is never on its own line, so the (3a) row for x has a net 0
    # coefficient at x and +1 at the 3 other off-line points
    T = gen_t0(planes[2])
    mat = acb_matrix(T)
    for x, row in enumerate(mat.rows[:7]):
        coeffs = dict(row)
        assert coeffs.get(x, 0) == 0
        plus_ones = [c for c, v in coeffs.items() if v == 1 and c < 7]
        assert len(plus_ones) == 3
        assert all(c not in T.lam[x] for c in plus_ones)


def test_degenerate_triple_row_char3(planes):
    T = gen_t0(planes[3])
    mat = acb_matrix(T)
    N = T.N
    # (0,0,0) is a triple; its row carries coefficient 3 at point 0, -1 at eps
    assert ((0, 3), (N, -1)) in mat.rows


def test_all_points_row(planes):
    T = gen_t0(planes[2])
    mat = acb_matrix(T)
    last = mat.rows[-1]
    assert last == tuple((c, 1) for c in range(7)) + ((7, -1),)


def test_analysis_q3(reports):
    rep = reports[(3, "t0")]
    assert rep.invariant_factors == (2,)
    assert rep.epsilon_order == 2
    assert rep.free_rank == 0


def test_analysis_q4_golden(reports):
    rep = reports[(4, "t0")]
    assert rep.invariant_factors == (3, 3)
    assert rep.epsilon_order == 1  # eps = 0


def test_analysis_q2_dual(reports):
    rep = reports[(2, "t0dual")]
    assert rep.invariant_factors == (2, 2, 2)
    assert rep.epsilon_order == 1


def test_analysis_q7(reports):
    rep = reports[(7, "t0")]
    assert rep.invariant_factors == (3, 6)
    assert rep.epsilon_order == 2


def test_dual_groups_not_isomorphic(reports):
    for q in (2, 3, 4, 5, 7):
        assert reports[(q, "t0")].invariant_factors != reports[(q, "t0dual")].invariant_factors


def test_all_checks_pass(reports):
    for key, rep in reports.items():
        assert rep.all_checks_pass, (key, rep.checks)
        assert rep.conjecture_holds, key
        assert not rep.flags


def _scheme_groups(T):
    return tuple(FpAbelianGroup(T.N + 1, m) for m in (acb_matrix(T), relation_matrix(T)))


def test_schemes_agree(planes):
    for q, pl in planes.items():
        T = gen_t0(pl)
        eps = [0] * T.N + [1]
        a, b = _scheme_groups(T)
        assert a.snf.nontrivial_factors == b.snf.nontrivial_factors
        assert a.order_of(eps) == b.order_of(eps)
        e_eps = IntMatrix(T.N + 1, (((T.N, 1),),))
        quotients = [g.quotient_by(e_eps).snf.nontrivial_factors for g in (a, b)]
        assert quotients[0] == quotients[1]


def _rowwise_agree(acb, bcd):
    """The reference for `schemes_agree`: the same predicate on a materialised acb matrix."""
    n_points = acb.n_cols - 1
    shared = acb.rows[n_points:]
    if (
        bcd.n_cols != acb.n_cols
        or len(bcd.rows) != len(acb.rows)
        or bcd.rows[: len(shared)] != shared
    ):
        return False
    all_points = dict(shared[-1])
    for a_row, b_row in zip(acb.rows[:n_points], bcd.rows[len(shared) :]):
        total = dict(a_row)
        for c, v in b_row:
            total[c] = total.get(c, 0) + v
        if {c: v for c, v in total.items() if v} != all_points:
            return False
    return True


def test_scheme_lattices_equal_on_every_variant(planes):
    # mutual containment: the lattice equality that schemes_agree proves row by row
    for q in (2, 3, 4, 5):
        pl = planes[q]
        variants = [gen_t0(pl), gen_t0_dual(pl)] + [
            twist_by_name(pl, gen_t0(pl), name)
            for name in ("frob1", "frob2") + (("omega",) if q % 3 == 1 else ())
        ]
        for T in variants:
            a, b = _scheme_groups(T)
            for g, h in ((a, b), (b, a)):
                dense = ([dict(row).get(c, 0) for c in range(g.n_gens)] for row in g.relations.rows)
                assert all(h.order_of(v) == 1 for v in dense), T.origin
            assert a.snf.nontrivial_factors == b.snf.nontrivial_factors, T.origin
            acb, bcd = acb_matrix(T), bcd_point_rows(T)
            assert schemes_agree(T, bcd) is _rowwise_agree(acb, point_matrix(bcd)) is True, T.origin


def _replaced(m, i, row):
    rows = list(m.rows)
    rows[i] = row
    return type(m)(m.n_cols, tuple(rows))


def _doubled(m, i):
    """Row i of point rows with each point twice; of an IntMatrix, times 2."""
    row = m.rows[i]
    doubled = tuple(sorted(row * 2)) if isinstance(m, PointRows) else tuple((c, 2 * v) for c, v in row)
    return _replaced(m, i, doubled)


def test_schemes_agree_rejects_corrupted_rows(planes):
    # Each corruption of the point rows fails the check, and the acb reference agrees.
    T = gen_t0(planes[3])
    acb, bcd = acb_matrix(T), bcd_point_rows(T)
    n_shared = 26 + 1  # 13 triples (x, x, x) and 13 rotation classes of 3, then all points
    assert schemes_agree(T, bcd) and _rowwise_agree(acb, point_matrix(bcd))
    # rows i < j each account for the 3 rotations of a triple with distinct points
    i, j = [k for k, row in enumerate(bcd.rows[: n_shared - 1]) if len(set(row)) == 3][:2]
    corrupted = [
        _doubled(bcd, n_shared),  # first bcd x-row
        _doubled(bcd, -1),  # last bcd x-row
        _doubled(bcd, 0),  # a shared triple row
        _doubled(bcd, n_shared - 1),  # the all-points row
        PointRows(bcd.n_cols, bcd.rows[:-1]),  # an x-row missing
        PointRows(bcd.n_cols, bcd.rows[1:]),  # a triangle row missing
        _replaced(bcd, j, bcd.rows[i]),  # row i twice, row j missing
        _replaced(bcd, i, bcd.rows[i][::-1]),  # row i, points out of order
        _replaced(bcd, n_shared, bcd.rows[n_shared][1:]),  # an x-row missing a point
        _replaced(bcd, n_shared - 1, tuple(range(T.N - 1))),  # all points but the last
    ]
    for bad in corrupted:
        assert not schemes_agree(T, bad)
        assert not _rowwise_agree(acb, point_matrix(bad))
    assert not _rowwise_agree(_doubled(acb, 0), point_matrix(bcd))  # an acb x-row
    # lambda(0) repeats a point: bcd counts it twice, acb reads lambda(0) as a set
    line = T.lam[0]
    R = replace(T, lam=((line[0],) + line[:-1],) + T.lam[1:])
    with pytest.raises(ValueError, match="failed triangle axioms"):
        relation_matrix(R)  # R is no presentation: lambda(0) misses a point of its triples
    bcd_R = _replaced(bcd, n_shared, tuple(sorted((0, *R.lam[0]))))  # R's x-row for 0
    assert not schemes_agree(R, bcd_R)
    assert not _rowwise_agree(acb_matrix(R), point_matrix(bcd_R))


def test_analyze_reports_corrupted_scheme(planes, monkeypatch):
    # Each corruption of the point rows analyze builds and reduces is caught in its report.
    T = gen_t0(planes[3])
    real, N = coinv._point_rows, T.N
    corruptions = [
        lambda rows: rows[:1] + rows,  # a triangle row twice
        lambda rows: rows[:-1] + (rows[-1][1:],),  # the last x-row missing a point
        lambda rows: rows[:-1] + (tuple(sorted(rows[-1] * 2)),),  # the last x-row doubled
        lambda rows: rows[: -N - 1] + (tuple(range(1, N)),) + rows[-N:],  # all points but 0
    ]
    for corrupt in corruptions:
        monkeypatch.setattr(coinv, "_point_rows", lambda T, third, f=corrupt: f(real(T, third)))
        assert not analyze(T).checks["scheme_agreement"]


def test_analyze_runs_one_unit_pivot_elimination(planes, monkeypatch):
    # A_T, A_T/<eps> and Γ_ab are all quotients of the one triple lattice.
    calls = []
    real = zlinalg._eliminate_units

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(zlinalg, "_eliminate_units", counted)
    assert analyze(gen_t0(planes[7])).all_checks_pass
    assert len(calls) == 1


@pytest.mark.parametrize("q, variant", [(7, "t0"), (8, "t0dual"), (13, "frob1")])
def test_packed_check_sends_the_same_rows_to_the_hnf(q, variant, monkeypatch):
    # The packed membership test accepts exactly the rows the per-coordinate one does,
    # so the same rows reach the HNF and the report does not move.
    T = build_variant(q, variant)
    added = []
    real = zlinalg.HnfBasis.add

    def counted(self, row):
        added.append(1)
        return real(self, row)

    monkeypatch.setattr(zlinalg.HnfBasis, "add", counted)
    packed = analyze(T).to_json(), len(added)
    added.clear()
    monkeypatch.setattr(FpAbelianGroup, "_smith_check", reference_smith_check)
    assert (analyze(T).to_json(), len(added)) == packed
    assert packed[1] > 0


def _m_subset_inputs():
    for q in prime_powers_in(2, 13):
        for variant in VARIANTS:
            if variant != "omega" or q % 3 == 1:
                yield build_variant(q, variant), 200
    for entry in GOLDEN_FILE_ENTRIES:
        yield read_presentation(GOLDEN_FILES / entry["file"]), entry.get("budget", 200)


def test_an_m_subset_makes_n_minus_3_kill_epsilon():
    # Summing the N rows x + y + z = eps of an M-subset gives 3 nu = N eps, and nu = eps
    # by the all-points row: so (N - 3) eps = 0, N - 3 = (q - 1)(q + 2), whenever one is found.
    found = 0
    for T, budget in _m_subset_inputs():
        report = analyze(T, budget)
        if report.checks["m_subset_found"]:
            found += 1
            assert report.epsilon_order is not None, T.origin
            assert (T.q - 1) * (T.q + 2) % report.epsilon_order == 0, T.origin
    assert found == 47  # all 48 but the golden file searched with a budget of 1


def test_analyze_cross_checks_epsilon_order_above_q8(monkeypatch):
    # ord(eps) is checked against |A_T| / |A_T/<eps>| at every q, not only q <= 8.
    T = gen_t0(build_plane(9))
    monkeypatch.setattr(FpAbelianGroup, "order_of", lambda self, element: 4)
    with pytest.raises(InternalError, match=r"ord\(eps\) is 4 but \|A_T\| / \|A_T/<eps>\| is 8"):
        analyze(T)


def test_twisted_analysis(planes):
    pl = planes[4]
    for name in ("frob1", "frob2", "omega"):
        rep = analyze(twist_by_name(pl, gen_t0(pl), name))
        assert rep.all_checks_pass, (name, rep.checks)
        assert rep.epsilon_order is not None
        assert (pl.q - 1) % rep.epsilon_order == 0


def test_lemma_q2():
    assert check_lemma_q2(3, 2)
    assert check_lemma_q2(4, 1)
    assert check_lemma_q2(5, 4)
    assert not check_lemma_q2(3, 5)
    assert not check_lemma_q2(3, None)


def test_lower_bound_row_annihilation(planes):
    for q, pl in planes.items():
        T = gen_t0(pl)
        for relations in (acb_matrix(T), relation_matrix(T), bcd_point_rows(T)):
            assert check_lower_bound(q, relations, expected_epsilon_order(q))
        if q > 2:  # 2 points - eps goes to -(q+1), nonzero mod q^2 - 1 once q > 2
            bad = PointRows(T.N + 1, bcd_point_rows(T).rows + ((0, 1),))
            assert not check_lower_bound(q, bad, expected_epsilon_order(q))
            assert not check_lower_bound(q, point_matrix(bad), expected_epsilon_order(q))


def test_lower_bound_3c_row_arithmetic():
    # (q^2+q+1)(q+1) - 3(q+1) = (q+1)(q-1)(q+2) = 0 mod q^2-1
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert ((q * q + q + 1) * (q + 1) - 3 * (q + 1)) % (q * q - 1) == 0


def test_expected_epsilon_order():
    assert expected_epsilon_order(2) == 1
    assert expected_epsilon_order(4) == 1
    assert expected_epsilon_order(7) == 2
    assert expected_epsilon_order(8) == 7
    assert expected_epsilon_order(13) == 4


def test_gamma_ab_divides(planes):
    for q in (2, 4):
        T = gen_t0(planes[q])
        rep = analyze(T)
        gamma = FpAbelianGroup(T.N, gamma_ab_matrix(T))
        quotient_order = math.prod(rep.quotient_invariant_factors) if rep.quotient_invariant_factors else 1
        assert gamma.snf.group_order is not None
        assert gamma.snf.group_order % quotient_order == 0


def test_gamma_ab_q4_contains_z3_z3(planes):
    # A_T/<eps> = A_T = Z3+Z3 at q=4 since eps = 0; order 9 divides |Gamma_ab|
    T = gen_t0(planes[4])
    rep = analyze(T)
    assert rep.quotient_invariant_factors == (3, 3)
    gamma = FpAbelianGroup(T.N, gamma_ab_matrix(T))
    assert gamma.snf.group_order % 9 == 0


def test_epsilon_order_divides_exponent(reports):
    for key, rep in reports.items():
        if rep.invariant_factors:
            exponent = rep.invariant_factors[-1]
            assert exponent % rep.epsilon_order == 0


def test_singer_relabeling_invariance(planes):
    from a2tp.presentation import TrianglePresentation, validate

    pl = planes[3]
    T = gen_t0(pl)
    N = pl.N
    k = 4
    shifted = TrianglePresentation(
        q=T.q,
        N=N,
        lam=tuple(
            tuple(sorted((y + k) % N for y in T.lam[(x - k) % N])) for x in range(N)
        ),
        triples=frozenset(
            ((x + k) % N, (y + k) % N, (z + k) % N) for (x, y, z) in T.triples
        ),
        origin="shifted",
    )
    assert validate(shifted).ok
    a, b = analyze(T), analyze(shifted)
    assert a.invariant_factors == b.invariant_factors
    assert a.epsilon_order == b.epsilon_order


def test_report_json_roundtrip(reports):
    import json

    for rep in reports.values():
        back = report_from_dict(json.loads(rep.to_json()))
        assert back == rep


def test_predicted_group():
    assert predicted_group(2, 2, 1, "t0") == ()
    assert predicted_group(4, 2, 2, "t0") == (3, 3)
    assert predicted_group(2, 2, 1, "t0dual") == (2, 2, 2)
    assert predicted_group(9, 3, 2, "t0dual") == (3, 3, 3, 3, 3, 24)
    assert predicted_group(13, 13, 1, "t0") == (3, 12)
