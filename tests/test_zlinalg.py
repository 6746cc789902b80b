import itertools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2tp import zlinalg
from a2tp.cli import VARIANTS, build_variant, prime_powers_in
from a2tp.coinv import analyze
from a2tp.plane import build_plane
from a2tp.presentation import gen_variant
from a2tp.zlinalg import (
    FpAbelianGroup,
    HnfBasis,
    SnfResult,
    cyclics_to_invariant_factors,
)
from helpers import (
    bcd_point_rows,
    dense_matrix,
    hnf_contains,
    order_by_quotient,
    reference_basis,
    reference_peel,
    reference_smith_check,
    reference_snf,
    relabelled,
)


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


def full_width_basis(n_cols, rows):
    """An HnfBasis of all columns, the dense rows inserted in the given order."""
    return reference_basis(*dense_matrix(n_cols, rows))


def dense_point_row(n_cols, row):
    """A point row as a dense row: the count of each point, and -1 at eps, the last column."""
    dense = [0] * n_cols
    for p in row:
        dense[p] += 1
    dense[-1] -= 1
    return dense


def point_basis(n_cols, rows):
    """The full-width HnfBasis of point rows, the reference for the group they present."""
    return full_width_basis(n_cols, [dense_point_row(n_cols, row) for row in rows])


def group(n_cols, rows) -> FpAbelianGroup:
    """Z^n_cols modulo point rows, eps the last column."""
    return FpAbelianGroup(n_cols, tuple(map(tuple, rows)))


def diagonal(factors):
    """The point rows of the sum of Z_d over `factors`: d x_i = eps, and eps = 0 by ()."""
    return [(i,) * d for i, d in enumerate(factors)] + [()]


def point_row(n_cols):
    """A point row over the points 0..n_cols-2, repeats allowed, in any order."""
    return st.lists(st.integers(0, n_cols - 2), max_size=5).map(tuple)


def brute_force_order(basis, element, limit):
    """Least k <= limit with k*element in the lattice of the HnfBasis `basis`."""
    for k in range(1, limit + 1):
        if hnf_contains(basis, [k * x for x in element]):
            return k
    return None


# --- HNF ----------------------------------------------------------------------


def hnf_rows(n_cols, rows):
    """Canonical HNF of the rows, inserted into an HnfBasis in the given order."""
    return full_width_basis(n_cols, rows).rows()


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
    assert hnf_contains(basis, [4, 3])
    assert not hnf_contains(basis, [1, 0])
    assert hnf_contains(basis, [0, 0])


# --- SNF ------------------------------------------------------------------------


def test_snf_identity():
    assert group(2, [(0,), ()]).snf.invariant_factors == (1, 1)


def test_snf_worked_examples():
    assert group(3, diagonal([2, 4])).snf.invariant_factors == (1, 2, 4)
    assert group(3, diagonal([2, 3])).snf.invariant_factors == (1, 1, 6)
    # x0 + x1 = 0 and 3 x0 = 0: Z_3
    assert group(3, [(0, 1), (0, 0, 0), ()]).snf.invariant_factors == (1, 1, 3)


def test_cyclics_to_invariant_factors():
    assert cyclics_to_invariant_factors([2, 3]) == [1, 6]
    assert cyclics_to_invariant_factors([2, 2, 2]) == [2, 2, 2]
    assert cyclics_to_invariant_factors([4, 6]) == [2, 12]
    assert cyclics_to_invariant_factors([]) == []


def random_point_rows(rng, n_cols, n_rows):
    return [tuple(rng.choices(range(n_cols - 1), k=rng.randint(0, 5))) for _ in range(n_rows)]


def test_snf_divisibility_chain_and_oracle():
    rng = random.Random(42)
    for _ in range(300):
        nc = rng.randint(2, 6)
        rows = random_point_rows(rng, nc, rng.randint(1, 6))
        result = group(nc, rows).snf
        assert result.invariant_factors == minor_gcd_snf([dense_point_row(nc, r) for r in rows], nc)
        for a, b in zip(result.invariant_factors, result.invariant_factors[1:]):
            assert b % a == 0
        assert result.free_rank == nc - len(result.invariant_factors)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_snf_matches_oracle_property(rows):
    # General integer rows, negative entries too, through the reference reducer:
    # HnfBasis and the diagonalization against the minor-gcd SNF.
    result = reference_snf(full_width_basis(3, rows))
    assert result.invariant_factors == minor_gcd_snf(rows, 3)


@st.composite
def integer_matrices(draw):
    """(n, rows): general integer rows of width n, with negative and large entries, often
    rank-deficient: each row is a combination of s drawn rows, s up to n + 1."""
    n = draw(st.integers(0, 5))
    entry = st.integers(-3, 3) | st.integers(-(10**12), 10**12)
    spanning = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 1))
    combination = st.lists(st.integers(-2, 2), min_size=len(spanning), max_size=len(spanning))
    rows = [
        [sum(c * row[j] for c, row in zip(coeffs, spanning)) for j in range(n)]
        for coeffs in draw(st.lists(combination, max_size=6))
    ]
    return n, rows


@settings(max_examples=100, deadline=None)
@given(integer_matrices())
@example((3, [[0, 2, 4], [0, 3, 6]]))  # rank 1, its pivot off the diagonal
@example((3, [[-2, 4, -8], [4, -8, -6], [3, 6, -2]]))  # two pairs of Hermite rounds
def test_diagonalize_returns_a_smith_pair(data):
    # The Smith pair's contract: positive d_i, rank many; V unimodular, so the HNF of its
    # rows is the identity; and rows * V spans the lattice of the diagonal, padded with 0s.
    n, rows = data
    basis = full_width_basis(n, rows)
    diag, transform = zlinalg._diagonalize(basis.rows(), n)
    assert all(d > 0 for d in diag) and len(diag) == len(basis.rows())
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert hnf_rows(n, transform) == identity
    moved = [[sum(map(operator.mul, row, column)) for column in zip(*transform)] for row in rows]
    padded = [[d * x for x in unit] for d, unit in zip(diag, identity)]
    assert hnf_rows(n, moved) == hnf_rows(n, padded)


def test_determinant_preservation():
    rng = random.Random(9)
    done = 0
    while done < 50:
        n = rng.randint(2, 6)
        rows = random_point_rows(rng, n, n)
        d = det([dense_point_row(n, row) for row in rows])
        if d == 0:
            continue
        assert math.prod(group(n, rows).snf.invariant_factors) == abs(d)
        done += 1


# --- groups and element orders ------------------------------------------------


def test_group_free():
    g = group(1, [])  # eps alone, in no row
    assert g.snf.free_rank == 1
    assert g.snf.group_order is None


def test_group_z6():
    g = group(3, diagonal([2, 3]))
    result = g.snf
    assert result.invariant_factors == (1, 1, 6)
    assert result.nontrivial_factors == (6,)
    assert result.free_rank == 0
    assert g.snf.group_order == 6


def test_group_z2_cubed():
    g = group(4, diagonal([2, 2, 2]))
    assert g.snf.invariant_factors == (1, 2, 2, 2)


def test_element_order_worked_examples():
    rows = diagonal([2, 3])
    g, basis = group(3, rows), point_basis(3, rows)
    assert order_by_quotient(basis, [1, 1, 0]) == g.order_of([1, 1, 0]) == 6
    assert order_by_quotient(basis, [0, 0, 0]) == g.order_of([0, 0, 0]) == 1
    assert group(1, []).order_of([1]) is None


def test_element_order_rejects_bad_requests():
    with pytest.raises(ValueError, match="finite group"):
        order_by_quotient(point_basis(1, []), [1])
    with pytest.raises(ValueError, match="element width"):
        group(3, [(0, 0), ()]).order_of([1])


def test_element_order_methods_agree():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = diagonal([rng.randint(1, 12) for _ in range(n)])
        # scrambled with random extra rows, in random order
        rows += random_point_rows(rng, n + 1, rng.randint(0, 2))
        rng.shuffle(rows)
        basis = point_basis(n + 1, rows)
        e = [rng.randint(-6, 6) for _ in range(n + 1)]
        a = order_by_quotient(basis, e)
        assert group(n + 1, rows).order_of(e) == a
        assert brute_force_order(basis, e, a) == a


def test_element_order_infinite_component():
    g = group(3, [(0, 0), ()])
    assert g.order_of([0, 1, 0]) is None
    assert g.order_of([1, 0, 0]) == 2


def test_element_order_brute_force_synthetic():
    # groups of order <= 10^4 against direct k-scanning
    rng = random.Random(5)
    for _ in range(30):
        factors = [rng.choice([2, 3, 4, 5, 8, 9, 25]) for _ in range(rng.randint(1, 4))]
        if math.prod(factors) > 10**4:
            continue
        n = len(factors)
        rows = diagonal(factors)
        g, basis = group(n + 1, rows), point_basis(n + 1, rows)
        e = [rng.randrange(d) for d in factors] + [rng.randint(-3, 3)]  # eps = 0
        expected = math.lcm(*[d // math.gcd(d, c) for d, c in zip(factors, e)])
        assert order_by_quotient(basis, e) == expected
        assert g.order_of(e) == expected
        assert brute_force_order(basis, e, expected) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.lists(point_row(n), max_size=5),
            point_row(n),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            st.lists(st.integers(-2, 2), min_size=5, max_size=5),
        )
    )
)
def test_unit_elimination_against_full_width_hnf(data):
    # the substitution map is checked against an HNF of all columns, and orders by k-scanning
    rows, e_row, v, coeffs = data
    n = len(v)
    g = group(n, rows)
    dense = [dense_point_row(n, row) for row in rows]
    full = full_width_basis(n, dense)
    in_lattice = [sum(k * row[j] for k, row in zip(coeffs, dense)) for j in range(n)]
    assert g.order_of(in_lattice) == 1 and hnf_contains(full, in_lattice)
    torsion = math.prod(minor_gcd_snf(dense, n))
    e = dense_point_row(n, e_row)
    for x in (e, v, [a + b for a, b in zip(v, in_lattice)], [2 * a for a in v]):
        assert g.order_of(x) == brute_force_order(full, x, torsion)
    expected = brute_force_order(full, e, torsion)
    if g.snf.free_rank == 0:
        assert order_by_quotient(full, e) == expected
        assert g.quotient_by((e_row,)).snf.group_order == torsion // expected


@st.composite
def peeling_cases(draw):
    """Point rows with the shapes peeling must get right.

    Triple-like rows x + y + z - eps, points repeated in a row (2x + z - eps
    and 3x - eps, so the last unresolved point of a ready row can lack a
    unit), single points, longer rows, the row () for -eps, duplicate rows,
    and points that occur in no row; mostly sorted, as `analyze` builds them.
    """
    rng = draw(st.randoms(use_true_random=False))
    n_points = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(0, 5)):
        row = [rng.randrange(n_points) for _ in range(rng.choice([0, 1, 2, 3, 3, 3, 5]))]
        rows.append(tuple(row if rng.random() < 0.2 else sorted(row)))
    rows += [rng.choice(rows) for _ in range(rng.randint(0, 2))] if rows else []
    rng.shuffle(rows)
    e = [rng.randint(-3, 3) for _ in range(n_points + 1)]
    return n_points + 1, rows, e, [rng.randint(-2, 2) for _ in rows]


@settings(max_examples=100, deadline=None)
@given(peeling_cases())
# 2x0 + x1 - eps twice: once x1 and eps are resolved, the ready row has 2 on x0
@example((3, [(1,), (0, 0, 1), (0, 0, 1)], [1, 0, 0], [1, 1, 1]))
# (), 3x2 - eps, a duplicate, and points 0 and 3 in no row
@example((5, [(1,), (1, 1, 2), (), (2, 2, 2), (1,)], [1, 0, 1, 1, 1], [1, 0, 2, 1, -1]))
def test_peeling_against_full_width_hnf(data):
    # Peeling point rows against an HNF of all columns, the minor-gcd SNF and k-scanning.
    n, rows, e, coeffs = data
    g = FpAbelianGroup(n, tuple(rows))
    dense = [dense_point_row(n, row) for row in rows]
    full = full_width_basis(n, dense)
    oracle = minor_gcd_snf(dense, n)
    assert g.snf.invariant_factors == oracle
    assert g.snf.free_rank == n - len(oracle)
    in_lattice = [sum(k * row[j] for k, row in zip(coeffs, dense)) for j in range(n)]
    for v in (in_lattice, *dense, e, [x + y for x, y in zip(e, in_lattice)], [2 * x for x in e]):
        assert g.order_of(v) == brute_force_order(full, v, math.prod(oracle))
    assert g.order_of(in_lattice) == 1 and all(g.order_of(row) == 1 for row in dense)
    quotient = g.quotient_by(((),))  # by eps
    assert quotient.snf.invariant_factors == minor_gcd_snf(dense + [dense_point_row(n, ())], n)


@pytest.mark.parametrize(
    "q, variant, adds",
    [(7, "t0", 21), (16, "t0", 56), (16, "t0dual", 44), (19, "frob1", 31), (19, "omega", 36)],
)
def test_rows_that_reach_the_hnf_per_analysis(q, variant, adds, monkeypatch):
    # Peeling inactivates a column of the least-index row among those with the fewest
    # unresolved columns; the core, and so the rows that reach the HNF, hang on that rule.
    # The Hermite rounds inside `_diagonalize` add rows of its own, which are not counted.
    added, paused = [], []
    real_add, real_diagonalize = HnfBasis.add, zlinalg._diagonalize

    def counted(self, row):
        if not paused:
            added.append(1)
        return real_add(self, row)

    def diagonalize(rows, n_cols):
        paused.append(1)
        try:
            return real_diagonalize(rows, n_cols)
        finally:
            paused.pop()

    monkeypatch.setattr(zlinalg.HnfBasis, "add", counted)
    monkeypatch.setattr(zlinalg, "_diagonalize", diagonalize)
    assert analyze(build_variant(q, variant)).all_checks_pass
    assert len(added) == adds


def counted_row(counts):
    """The point row with count counts[p] at each point p."""
    return tuple(p for p, c in enumerate(counts) for _ in range(c))


@st.composite
def long_runs(draw):
    """More rows than a warm-up takes, the rows that change the lattice last.

    The row () kills eps, so a row that joins others is their sum.  The
    lattice lies in 4Z on points 0..n-1 and misses point n; a pivot row ties
    point n + 1 to the others, and any later row may carry copies of it.
    Then comes a long run of sums of the lattice rows, and last 2 e_j (new
    torsion), m e_n (the free point killed) and a row with non-unit counts,
    in random order.
    """
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(1, 3)
    width = n + 3  # points 0..n+1 and eps
    pivot = (n + 1, *rng.choices(range(n + 1), k=rng.randint(0, 3)))

    def tied(row):  # the same element of the group, written with point n + 1 as well
        return row + pivot * rng.choice([0, 0, 1, 2])

    lattice = [counted_row([4 * rng.randint(0, 3) for _ in range(n)]) for _ in range(rng.randint(1, n))]
    run = []
    for _ in range(rng.randint(width + 1, width + 6)):
        run.append(tied(sum((row * rng.randint(0, 3) for row in lattice), ())))
    j = rng.randrange(n)
    changes = [(j, j), (n,) * rng.choice([2, 3, 5]), counted_row(rng.choices([0, 2, 3, 6], k=n + 1))]
    rng.shuffle(changes)
    e_row = counted_row([rng.randint(0, 3) for _ in range(n + 2)])
    return [(), pivot] + lattice, run, [tied(row) for row in changes], width, e_row


@settings(max_examples=100, deadline=None)
@given(long_runs())
def test_long_runs_against_one_row_at_a_time(data):
    # Past the warm-up, rows are certified in Smith coordinates, not reduced;
    # the ones that change the lattice must still reach the HNF.
    gens, run, changes, width, e_row = data
    rows = gens + run + changes
    dense = lambda rows: [dense_point_row(width, row) for row in rows]
    g = group(width, rows)
    full = full_width_basis(width, dense(rows))
    oracle = minor_gcd_snf(dense(gens + changes), width)
    assert g.snf.invariant_factors == oracle  # run adds nothing
    e = dense_point_row(width, e_row)
    for v in (*dense(rows), e, [2 * x for x in e], [x + y for x, y in zip(e, dense(changes)[0])]):
        assert g.order_of(v) == brute_force_order(full, v, max(oracle, default=1))
    assert group(width, gens).quotient_by(tuple(run + changes)).snf == g.snf
    with_e = minor_gcd_snf(dense(gens + changes + [e_row]), width)
    expected = math.prod(with_e) if len(with_e) == width else None
    assert g.quotient_by((e_row,)).snf.group_order == expected


def test_packed_check_sizes_its_slots_from_the_rows():
    # 2 x1 = eps leaves x0 free.  Past the warm-up, 32 x0 = eps is certified in a free slot
    # sized from its 33 points; a slot sized from the generators' images alone overflows
    # and accepts it, leaving x0 free.
    rows = [(1, 1)] * 4 + [(0,) * 32]
    oracle = minor_gcd_snf([dense_point_row(3, row) for row in rows], 3)
    assert group(3, rows).snf.invariant_factors == oracle == (1, 2)


def test_packed_check_sizes_point_row_slots_from_the_longest_row():
    # 3 x0 = x0 = eps and 32 x1 = eps give Z_64.  Past the warm-up the long row is certified;
    # slots sized for rows of 3 points overflow on its 32 and accept it, leaving x1 free.
    rows = [(0, 0, 0), (0,), (0,), (0,), (1,) * 32]
    oracle = minor_gcd_snf([dense_point_row(3, row) for row in rows], 3)
    assert group(3, rows).snf.invariant_factors == oracle == (1, 1, 64)


@pytest.mark.parametrize(
    "diag, transform, bound",
    [
        # Both coordinates free: (0,) sums to 2 = bound * max|w| in the first free slot,
        # -1 in the second; a slot one bit narrower carries into the second and accepts it.
        ([], [[1, 0], [-1, 1]], 2),
        # d = 2 on the first coordinate: (0, 0) is a member with the quotient digit
        # bound - 2 = 1, which a quotient slot one bit narrower rejects.
        ([2, 1], [[1, 0], [0, 1]], 3),
        # d = 3 twice: (0,) has the digits -2 and 1, which a digit slot one bit narrower
        # borrows into 0 and accepts.
        ([3, 3], [[3, 4], [2, 3]], 2),
    ],
)
def test_packed_check_at_the_narrowest_slots(diag, transform, bound):
    # Z^2, point 0 and eps, with no relations: the image is the identity, so the Smith
    # pair's V alone sets each generator's coordinates.  Every row of fewer than `bound`
    # points gets the per-coordinate verdict.
    plain = group(2, [])  # peeling gives each generator its core image
    packed = plain._smith_check((diag, transform), bound)
    reference = reference_smith_check(plain, (diag, transform), bound)
    rows = [(0,) * k for k in range(bound)]
    assert [packed(row) for row in rows] == [reference(row) for row in rows]


@st.composite
def settled_lattices(draw):
    """A settled core lattice with mixed moduli and free points, then long rows to certify.

    The row () kills eps, so a row that joins others is their sum.  The
    lattice is diag(d_i) W for a random unit upper triangular W, row i
    written as d_i copies of point i and d_i k copies of a later point j,
    the d_i mixing small moduli, the prime 61 and up to two 0s (free
    points).  More sums of its rows than it has columns follow, so the HNF
    settles, and last the rows to certify: sums of up to 16 copies of each
    lattice row, some moved off the lattice by extra copies of a point, all
    with their points shuffled.
    """
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(2, 4)
    n_free = rng.randint(0, min(2, n - 1))
    mods = [0] * n_free + [rng.choice([1, 2, 3, 4, 6, 9, 12, 61]) for _ in range(n - n_free)]
    rng.shuffle(mods)
    gens = [()]
    for i, d in enumerate(mods):
        if d:
            tail = (rng.randrange(i + 1, n),) * (d * rng.randint(0, 2)) if i + 1 < n else ()
            gens.append((i,) * d + tail)

    def combination(size):
        row = list(sum((row * rng.randint(0, size) for row in gens), ()))
        random.Random(rng.random()).shuffle(row)  # one draw, however long the row
        return tuple(row)

    run = [combination(3) for _ in range(n + 1)]
    certified = []
    for _ in range(rng.randint(1, 4)):
        row = combination(16)
        if rng.random() < 0.4:
            row += (rng.randrange(n),) * rng.choice([1, 2, 3, 61])
        certified.append(row)
    return n + 1, gens, run, certified


@settings(max_examples=100, deadline=None)
@given(settled_lattices())
# eps not killed, and a non-member whose digit tops its slot: a slot a bit narrower accepts it
@example((4, [(0, 1, 1, 1), (1, 2, 2), (0,), (0, 2, 2, 2)], [], [(0, 0, 0, 1, 1, 1, 2, 2, 2)]))
# a non-member whose quotient has a bit just above a digit: a wider digit mask accepts it
@example((3, [(0, 0, 0, 0), (0,), (0, 1, 1, 1)], [], [(0, 0, 0, 0, 0, 1, 1, 1, 1)]))
def test_packed_check_against_one_coordinate_at_a_time(data):
    # The packed test, the per-coordinate test and an HNF walk agree on every row,
    # and the group certified with it is the minor-gcd SNF of its lattice.
    n, gens, run, certified = data
    settled = group(n, gens + run)
    smith = settled._smith_pair()  # of the settled basis
    bound = max(map(len, certified)) + 1
    packed = settled._smith_check(smith, bound)
    reference = reference_smith_check(settled, smith, bound)
    full = point_basis(n, gens)
    members = [hnf_contains(full, dense_point_row(n, row)) for row in certified]
    assert [packed(row) for row in certified] == [reference(row) for row in certified] == members
    outside = [row for row, member in zip(certified, members) if not member]
    certified_group = group(n, gens + run + certified)
    oracle = minor_gcd_snf([dense_point_row(n, row) for row in gens + outside], n)
    assert certified_group.snf.invariant_factors == oracle
    assert certified_group.snf.free_rank == n - len(oracle)


def test_quotient_by():
    rows = diagonal([4, 4])
    g = group(3, rows)
    assert g.quotient_by(((0, 0, 1, 1),)).snf.group_order == 8
    assert order_by_quotient(point_basis(3, rows), [2, 2, 0]) == 2
    for wrong in ([2, 2], [2, 2, 2, 2]):
        with pytest.raises(ValueError, match="element width"):
            g.order_of(wrong)


def test_quotient_by_takes_a_built_matrix_and_checks_sparse_rows():
    # The built relations are point rows, a plain tuple of them.
    rows = diagonal([4, 4])
    g = group(3, rows)
    extra = ((0, 0, 1, 1), (1, 1))
    assert g.quotient_by(extra).snf == group(3, rows + list(extra)).snf


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.lists(point_row(n), max_size=4),
            st.lists(point_row(n), max_size=3),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        )
    )
)
@example(([(0,), (1, 1, 2)], [(0,) * 5, (2, 2)], [1, 1, 1, 0]))  # extra rows on peeled columns
@example(([(0, 0, 1), ()], [], [1, 0, 0]))  # no extra rows
def test_quotient_by_equals_the_group_built_from_scratch(data):
    rows, extra, e = data
    n = len(e)
    g = group(n, rows)
    quot = g.quotient_by(tuple(extra))
    # a second quotient reads the parent's core HNF after the first one: it must be a copy
    assert g.quotient_by(()).snf == group(n, rows).snf
    whole = group(n, rows + extra)
    dense = [dense_point_row(n, row) for row in rows + extra]
    oracle = minor_gcd_snf(dense, n)
    assert quot.snf == whole.snf
    assert quot.snf.invariant_factors == oracle
    assert quot.snf.group_order == whole.snf.group_order
    full = full_width_basis(n, dense)
    for v in (e, [2 * x for x in e], *dense[len(rows) :]):
        expected = brute_force_order(full, v, math.prod(oracle))
        assert quot.order_of(v) == whole.order_of(v) == expected


def test_snf_result_group_order():
    r = SnfResult((1, 2, 6), free_rank=0)
    assert r.group_order == 12
    assert SnfResult((2,), free_rank=1).group_order is None


# --- the peel against its heap reference ----------------------------------------


def assert_peels_like_the_reference(n_cols, rows):
    rows = tuple(map(tuple, rows))
    assert zlinalg._eliminate_units(n_cols, rows) == reference_peel(n_cols, rows)


@pytest.mark.parametrize("q", prime_powers_in(2, 19))
def test_peel_matches_the_heap_reference_on_every_variant(q):
    # The least-index row with the fewest unresolved columns, found by `left.index`, is
    # the row the heap gives: the same image, core and rest, on the triangle rows that
    # `analyze` peels and on all of A_T's rows; relabelled inputs too at q <= 13.
    plane = build_plane(q)
    inputs = [gen_variant(plane, v) for v in VARIANTS if v != "omega" or q % 3 == 1]
    if q <= 13:
        inputs += [relabelled(T, random.Random(seed)) for T in inputs for seed in (0, 1)]
    for T in inputs:
        rows = bcd_point_rows(T)
        assert_peels_like_the_reference(T.N + 1, rows[: len(rows) - T.N - 1])
        assert_peels_like_the_reference(T.N + 1, rows)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        peeling_cases().map(lambda data: data[:2]),
        long_runs().map(lambda data: (data[3], data[0] + data[1] + data[2])),
        settled_lattices().map(lambda data: (data[0], data[1] + data[2] + data[3])),
        st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(point_row(n), max_size=6))),
    )
)
def test_peel_matches_the_heap_reference_on_random_point_rows(data):
    assert_peels_like_the_reference(*data)
