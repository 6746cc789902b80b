import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2tp.zlinalg import FpAbelianGroup, HnfBasis, IntMatrix, SnfResult, snf
from helpers import order_by_quotient


# --- independent oracles -----------------------------------------------------


def det(mat):
    """Cofactor-expansion determinant (exact, exponential; oracle only)."""
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
    """Invariant factors via d_i = gcd(i-minors) / gcd((i-1)-minors)."""
    nr = len(rows)
    prev = 1
    factors = []
    for i in range(1, min(nr, n_cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(nr), i):
            for csel in itertools.combinations(range(n_cols), i):
                g = math.gcd(g, det([[rows[r][c] for c in csel] for r in rsel]))
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def brute_force_order(lattice, element, limit):
    """Least k <= limit with k*element in `lattice` (an HnfBasis or a group)."""
    for k in range(1, limit + 1):
        if lattice.contains([k * x for x in element]):
            return k
    return None


# --- HNF ----------------------------------------------------------------------


def hnf_rows(n_cols, rows):
    """Canonical HNF of the rows, inserted into an HnfBasis in the given order."""
    basis = HnfBasis(n_cols)
    for row in rows:
        basis.add(row)
    return basis.rows()


def test_hnf_already_reduced():
    assert hnf_rows(2, [[2, 0], [0, 3]]) == [[2, 0], [0, 3]]


def test_hnf_redundant_row():
    assert hnf_rows(2, [[1, 1], [0, 2], [1, 3]]) == [[1, 1], [0, 2]]


def test_hnf_empty():
    assert hnf_rows(3, []) == []


def test_hnf_insertion_order_independent():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16], [1, 1, 1]]
    expected = hnf_rows(3, rows)
    for perm in itertools.permutations(rows):
        assert hnf_rows(3, list(perm)) == expected


def test_hnf_canonical_shape():
    rng = random.Random(7)
    for _ in range(50):
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(rng.randint(1, 6))]
        out = hnf_rows(nc, rows)
        pivots = []
        for row in out:
            j = next(i for i, v in enumerate(row) if v)
            assert row[j] > 0
            pivots.append((j, row[j]))
        assert [j for j, _ in pivots] == sorted(j for j, _ in pivots)
        # off-pivot entries reduced into [0, pivot)
        for idx, (j, p) in enumerate(pivots):
            for k, row in enumerate(out):
                if k != idx:
                    assert 0 <= row[j] < p


def test_hnf_membership():
    basis = HnfBasis(2)
    for row in ([2, 0], [0, 3]):
        basis.add(row)
    assert basis.contains([4, 3])
    assert not basis.contains([1, 0])
    assert basis.contains([0, 0])


# --- SNF ------------------------------------------------------------------------


def test_snf_identity():
    assert snf(IntMatrix.from_rows(2, [[1, 0], [0, 1]])).invariant_factors == (1, 1)


def test_snf_worked_examples():
    assert snf(IntMatrix.from_rows(2, [[2, 4], [6, 8]])).invariant_factors == (2, 4)
    assert snf(IntMatrix.from_rows(2, [[2, 0], [0, 3]])).invariant_factors == (1, 6)


def test_snf_divisibility_chain_and_oracle():
    rng = random.Random(42)
    for _ in range(300):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        result = snf(IntMatrix.from_rows(nc, rows))
        assert result.invariant_factors == minor_gcd_snf(rows, nc)
        for a, b in zip(result.invariant_factors, result.invariant_factors[1:]):
            assert b % a == 0
        assert result.rank == len(result.invariant_factors)
        assert result.free_rank == nc - result.rank


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_snf_matches_oracle_property(rows):
    result = snf(IntMatrix.from_rows(3, rows))
    assert result.invariant_factors == minor_gcd_snf(rows, 3)


def test_determinant_preservation():
    rng = random.Random(9)
    done = 0
    while done < 50:
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d = det(rows)
        if d == 0:
            continue
        result = snf(IntMatrix.from_rows(n, rows))
        assert math.prod(result.invariant_factors) == abs(d)
        done += 1


# --- groups and element orders ------------------------------------------------


def test_group_free():
    g = FpAbelianGroup(1, [])
    assert g.snf.free_rank == 1
    assert g.order() is None


def test_group_z6():
    g = FpAbelianGroup(2, [[2, 0], [0, 3]])
    result = g.snf
    assert result.invariant_factors == (1, 6)
    assert result.nontrivial_factors == (6,)
    assert result.free_rank == 0
    assert g.order() == 6


def test_group_z2_cubed():
    g = FpAbelianGroup(3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert g.snf.invariant_factors == (2, 2, 2)


def test_element_order_worked_examples():
    g = FpAbelianGroup(2, [[2, 0], [0, 3]])
    for order in (order_by_quotient, lambda g, e: g.element_order(e, "membership")):
        assert order(g, [1, 1]) == 6
        assert order(g, [0, 0]) == 1
    assert FpAbelianGroup(1, []).element_order([1], "membership") is None


def test_element_order_rejects_bad_requests():
    with pytest.raises(ValueError, match="finite group"):
        order_by_quotient(FpAbelianGroup(1, []), [1])
    with pytest.raises(ValueError, match="unknown method"):
        FpAbelianGroup(1, [[2]]).element_order([1], "transform")
    with pytest.raises(ValueError, match="element width"):
        FpAbelianGroup(2, [[2, 0]]).contains([1])


def test_element_order_methods_agree():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = rng.randint(1, 12)
            rows.append(row)
        # scramble with random unimodular-ish extra relations
        for _ in range(rng.randint(0, 2)):
            rows.append([rng.randint(-4, 4) for _ in range(n)])
        g = FpAbelianGroup(n, rows)
        if g.free_rank:
            continue
        e = [rng.randint(-6, 6) for _ in range(n)]
        a = order_by_quotient(g, e)
        b = g.element_order(e, "membership")
        assert a == b
        assert brute_force_order(g, e, a) == a


def test_element_order_infinite_component():
    g = FpAbelianGroup(2, [[2, 0]])
    assert g.element_order([0, 1], "membership") is None
    assert g.element_order([1, 0], "membership") == 2


def test_element_order_brute_force_synthetic():
    # groups of order <= 10^4 against direct k-scanning
    rng = random.Random(5)
    for _ in range(30):
        factors = [rng.choice([2, 3, 4, 5, 8, 9, 25]) for _ in range(rng.randint(1, 4))]
        if math.prod(factors) > 10**4:
            continue
        n = len(factors)
        rows = []
        for i, d in enumerate(factors):
            row = [0] * n
            row[i] = d
            rows.append(row)
        g = FpAbelianGroup(n, rows)
        e = [rng.randrange(d) for d in factors]
        expected = math.lcm(*[d // math.gcd(d, c) for d, c in zip(factors, e)])
        assert order_by_quotient(g, e) == expected
        assert g.element_order(e, "membership") == expected
        assert brute_force_order(g, e, expected) == expected


def _sparse(row):
    return tuple((c, v) for c, v in enumerate(row) if v)


UNIT_RICH = st.sampled_from([0, 0, 1, 1, -1, -1, 2, -2, 3, -4])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(UNIT_RICH, min_size=n, max_size=n), max_size=5),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            st.lists(st.integers(-2, 2), min_size=5, max_size=5),
        )
    )
)
def test_unit_elimination_against_full_width_hnf(data):
    # the substitution map is checked against an HNF of all columns, and orders by k-scanning
    rows, e, coeffs = data
    n = len(e)
    g = FpAbelianGroup(n, rows)
    full = HnfBasis(n)
    for row in rows:
        full.add(row)
    in_lattice = [sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(n)]
    assert g.contains(in_lattice) and full.contains(in_lattice)
    for v in (e, [x + y for x, y in zip(e, in_lattice)], [2 * x for x in e]):
        assert g.contains(v) == full.contains(v)
    torsion = math.prod(minor_gcd_snf(rows, n))
    expected = brute_force_order(full, e, torsion)
    assert g.element_order(e, "membership") == expected
    if g.free_rank == 0:
        assert order_by_quotient(g, e) == expected
        assert g.quotient_by(_sparse(e)).order() == torsion // expected


@st.composite
def peeling_cases(draw):
    """Relation matrices with the shapes peeling must get right.

    Triple-like rows x + y + z - eps (2x + z - eps when a point repeats),
    sparse rows whose entries include +-2 (so the last unresolved column of
    a ready row can lack a unit), duplicate rows, empty rows, and columns
    that occur in no row, placed among the others.
    """
    rng = draw(st.randoms(use_true_random=False))
    n_used = rng.randint(2, 5)  # the last used column plays eps
    rows = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            t = [rng.randrange(n_used - 1) for _ in range(3)]
            rows.append([t.count(c) for c in range(n_used - 1)] + [-1])
        else:
            rows.append([rng.choice([0, 0, 1, -1, 2, -2, 3]) for _ in range(n_used)])
    rows += [rng.choice(rows) for _ in range(rng.randint(0, 2))] if rows else []
    rows += [[0] * n_used] * rng.randint(0, 1)
    rng.shuffle(rows)
    n = n_used + rng.randint(0, 2)  # the extra columns occur in no row
    cols = rng.sample(range(n), n_used)
    spread = []
    for row in rows:
        wide = [0] * n
        for c, v in zip(cols, row):
            wide[c] = v
        spread.append(wide)
    e = [rng.randint(-3, 3) for _ in range(n)]
    return spread, e, [rng.randint(-2, 2) for _ in spread]


@settings(max_examples=100, deadline=None)
@given(peeling_cases())
@example(([[2, 1, -1], [0, 2, -1], [1, 1, -1]], [1, 0, 0], [1, 1, 1]))  # 2x + z - eps rows
# a ready row with a 2 on its last column, a duplicate, an empty row, columns 0 and 2 unused
@example(([[0, 1, 0, 1], [0, 1, 0, 2], [0, 1, 0, 1], [0, 0, 0, 0]], [0, 1, 0, 0], [1, 0, 2, 1]))
def test_peeling_against_full_width_hnf(data):
    # Peeling against an HNF of all columns, the minor-gcd SNF and k-scanning.
    rows, e, coeffs = data
    n = len(e)
    g = FpAbelianGroup(n, rows)
    full = HnfBasis(n)
    for row in rows:
        full.add(row)
    oracle = minor_gcd_snf(rows, n)
    assert g.snf.invariant_factors == oracle
    assert g.free_rank == n - len(oracle)
    in_lattice = [sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(n)]
    for v in (in_lattice, *rows, e, [x + y for x, y in zip(e, in_lattice)], [2 * x for x in e]):
        assert g.contains(v) == full.contains(v)
    assert g.contains(in_lattice) and all(g.contains(row) for row in rows)
    expected = brute_force_order(full, e, math.prod(oracle))
    assert g.element_order(e, "membership") == expected


def test_quotient_by():
    g = FpAbelianGroup(2, [[4, 0], [0, 4]])
    q = g.quotient_by(((0, 2), (1, 2)))
    assert q.order() == 8
    assert order_by_quotient(g, [2, 2]) == 2
    for wrong in ([2], [2, 2, 2]):
        with pytest.raises(ValueError, match="element width"):
            g.element_order(wrong, "membership")
        with pytest.raises(ValueError, match="element width"):
            g.contains(wrong)
    for bad in (((2, 2),), ((-1, 2),)):  # rows are checked like any caller's
        with pytest.raises(ValueError, match="column index out of range"):
            g.quotient_by(((0, 2),), bad)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(UNIT_RICH, min_size=n, max_size=n), max_size=4),
            st.lists(st.lists(UNIT_RICH, min_size=n, max_size=n), max_size=3),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        )
    )
)
@example(([[1, 2, 0], [0, 3, 1]], [[5, 0, 0], [0, 0, 2]], [1, 1, 1]))  # extra rows on eliminated columns
@example(([[2, 1], [0, 4]], [], [1, 0]))  # no extra rows
def test_quotient_by_equals_the_group_built_from_scratch(data):
    rows, extra, e = data
    n = len(e)
    g = FpAbelianGroup(n, rows)
    quot = g.quotient_by(*(_sparse(row) for row in extra))
    whole = FpAbelianGroup(n, rows + extra)
    oracle = minor_gcd_snf(rows + extra, n)
    assert quot.snf == whole.snf
    assert quot.snf.invariant_factors == oracle
    assert quot.order() == whole.order()
    full = HnfBasis(n)
    for row in rows + extra:
        full.add(row)
    for v in (e, [2 * x for x in e], *extra):
        assert quot.contains(v) == whole.contains(v) == full.contains(v)
    expected = brute_force_order(full, e, math.prod(oracle))
    assert quot.element_order(e, "membership") == whole.element_order(e, "membership") == expected


def test_intmatrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, (((2, 1),),))  # column out of range
    with pytest.raises(ValueError):
        IntMatrix(2, (((0, 0),),))  # zero coefficient
    with pytest.raises(ValueError):
        IntMatrix(2, (((0, 1), (0, 2)),))  # duplicate column


def test_snf_result_group_order():
    r = SnfResult((1, 2, 6), rank=3, free_rank=0)
    assert r.group_order == 12
    assert SnfResult((2,), rank=1, free_rank=1).group_order is None
