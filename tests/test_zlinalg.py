import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2tp.zlinalg import (
    FpAbelianGroup,
    HnfBasis,
    IntMatrix,
    SnfResult,
    cyclics_to_invariant_factors,
)
from helpers import (
    dense_group,
    dense_matrix,
    hnf_contains,
    order_by_quotient,
    reference_smith_check,
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
    """An HnfBasis of all columns, the rows inserted in the given order."""
    basis = HnfBasis(n_cols)
    for row in rows:
        basis.add(row)
    return basis


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


def _snf(n_cols, rows):
    return dense_group(n_cols, rows).snf


def test_snf_identity():
    assert _snf(2, [[1, 0], [0, 1]]).invariant_factors == (1, 1)


def test_snf_worked_examples():
    assert _snf(2, [[2, 4], [6, 8]]).invariant_factors == (2, 4)
    assert _snf(2, [[2, 0], [0, 3]]).invariant_factors == (1, 6)


def test_cyclics_to_invariant_factors():
    assert cyclics_to_invariant_factors([2, 3]) == [1, 6]
    assert cyclics_to_invariant_factors([2, 2, 2]) == [2, 2, 2]
    assert cyclics_to_invariant_factors([4, 6]) == [2, 12]
    assert cyclics_to_invariant_factors([]) == []


def test_snf_divisibility_chain_and_oracle():
    rng = random.Random(42)
    for _ in range(300):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        result = _snf(nc, rows)
        assert result.invariant_factors == minor_gcd_snf(rows, nc)
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
    result = _snf(3, rows)
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
        result = _snf(n, rows)
        assert math.prod(result.invariant_factors) == abs(d)
        done += 1


# --- groups and element orders ------------------------------------------------


def test_group_free():
    g = dense_group(1, [])
    assert g.snf.free_rank == 1
    assert g.snf.group_order is None


def test_group_z6():
    g = dense_group(2, [[2, 0], [0, 3]])
    result = g.snf
    assert result.invariant_factors == (1, 6)
    assert result.nontrivial_factors == (6,)
    assert result.free_rank == 0
    assert g.snf.group_order == 6


def test_group_z2_cubed():
    g = dense_group(3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert g.snf.invariant_factors == (2, 2, 2)


def test_element_order_worked_examples():
    g = dense_group(2, [[2, 0], [0, 3]])
    for order in (order_by_quotient, FpAbelianGroup.order_of):
        assert order(g, [1, 1]) == 6
        assert order(g, [0, 0]) == 1
    assert dense_group(1, []).order_of([1]) is None


def test_element_order_rejects_bad_requests():
    with pytest.raises(ValueError, match="finite group"):
        order_by_quotient(dense_group(1, []), [1])
    with pytest.raises(ValueError, match="element width"):
        dense_group(2, [[2, 0]]).order_of([1])


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
        g = dense_group(n, rows)
        if g.snf.free_rank:
            continue
        e = [rng.randint(-6, 6) for _ in range(n)]
        a = order_by_quotient(g, e)
        b = g.order_of(e)
        assert a == b
        assert brute_force_order(full_width_basis(n, rows), e, a) == a


def test_element_order_infinite_component():
    g = dense_group(2, [[2, 0]])
    assert g.order_of([0, 1]) is None
    assert g.order_of([1, 0]) == 2


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
        g = dense_group(n, rows)
        e = [rng.randrange(d) for d in factors]
        expected = math.lcm(*[d // math.gcd(d, c) for d, c in zip(factors, e)])
        assert order_by_quotient(g, e) == expected
        assert g.order_of(e) == expected
        assert brute_force_order(full_width_basis(n, rows), e, expected) == expected


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
    g = dense_group(n, rows)
    full = full_width_basis(n, rows)
    in_lattice = [sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(n)]
    assert g.order_of(in_lattice) == 1 and hnf_contains(full, in_lattice)
    torsion = math.prod(minor_gcd_snf(rows, n))
    for v in (e, [x + y for x, y in zip(e, in_lattice)], [2 * x for x in e]):
        assert g.order_of(v) == brute_force_order(full, v, torsion)
    expected = brute_force_order(full, e, torsion)
    if g.snf.free_rank == 0:
        assert order_by_quotient(g, e) == expected
        assert g.quotient_by(dense_matrix(n, [e])).snf.group_order == torsion // expected


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
    g = dense_group(n, rows)
    full = full_width_basis(n, rows)
    oracle = minor_gcd_snf(rows, n)
    assert g.snf.invariant_factors == oracle
    assert g.snf.free_rank == n - len(oracle)
    in_lattice = [sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(n)]
    for v in (in_lattice, *rows, e, [x + y for x, y in zip(e, in_lattice)], [2 * x for x in e]):
        assert g.order_of(v) == brute_force_order(full, v, math.prod(oracle))
    assert g.order_of(in_lattice) == 1 and all(g.order_of(row) == 1 for row in rows)


@st.composite
def long_runs(draw):
    """More rows than a warm-up takes, the rows that change the lattice last.

    The lattice lies in 4Z on columns 0..n-1 and misses column n; a pivot
    row ties column n + 1 to the others, and any later row may carry a
    multiple of it.  Then comes a long run of integer combinations of the
    lattice rows, and last 2 e_j (new torsion), m e_n (the free column
    killed) and a row with non-unit coefficients, in random order.
    """
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(1, 3)
    width = n + 2
    pivot = [rng.randint(-3, 3) for _ in range(n + 1)] + [1]

    def tied(row):  # the same element of the group, written with column n + 1 as well
        k = rng.choice([0, 0, 1, -1, 2])
        return [x + k * y for x, y in zip(row, pivot)]

    lattice = [[4 * rng.randint(-3, 3) for _ in range(n)] + [0, 0] for _ in range(rng.randint(1, n))]
    run = []
    for _ in range(rng.randint(width + 1, width + 6)):
        ks = [rng.randint(-3, 3) for _ in lattice]
        run.append(tied([sum(k * row[j] for k, row in zip(ks, lattice)) for j in range(width)]))
    j = rng.randrange(n)
    changes = [
        [2 * (c == j) for c in range(width)],
        [rng.choice([2, 3, 5]) * (c == n) for c in range(width)],
        [rng.choice([0, 2, -2, 3, 6]) for _ in range(n + 1)] + [0],
    ]
    rng.shuffle(changes)
    e = [rng.randint(-3, 3) for _ in range(width)]
    return [pivot] + lattice, run, [tied(row) for row in changes], e


@settings(max_examples=100, deadline=None)
@given(long_runs())
def test_long_runs_against_one_row_at_a_time(data):
    # Past the warm-up, rows are certified in Smith coordinates, not reduced;
    # the ones that change the lattice must still reach the HNF.
    gens, run, changes, e = data
    rows = gens + run + changes
    width = len(e)
    g = dense_group(width, rows)
    full = full_width_basis(width, rows)
    oracle = minor_gcd_snf(gens + changes, width)
    assert g.snf.invariant_factors == oracle  # run adds nothing
    for v in (*rows, e, [2 * x for x in e], [x + y for x, y in zip(e, changes[0])]):
        assert g.order_of(v) == brute_force_order(full, v, max(oracle, default=1))
    assert dense_group(width, gens).quotient_by(dense_matrix(width, run + changes)).snf == g.snf
    with_e = minor_gcd_snf(gens + changes + [e], width)
    expected = math.prod(with_e) if len(with_e) == width else None
    assert g.quotient_by(dense_matrix(width, [e])).snf.group_order == expected


def test_packed_check_sizes_its_slots_from_the_rows():
    # Past the warm-up, [512, -2] is certified in slots sized from its coefficients;
    # slots sized from the generator count alone overflow and accept it, giving (3, 3).
    rows = [[3, 0], [0, 3], [3, 0], [0, 3], [512, -2]]
    assert dense_group(2, rows).snf.invariant_factors == minor_gcd_snf(rows, 2) == (1, 3)


@st.composite
def settled_lattices(draw):
    """A settled core lattice with mixed moduli and free columns, then rows up to +-2^80.

    The lattice is diag(d_i) W for a random unimodular W, the d_i mixing
    small moduli, a 61-bit prime and up to two 0s (free columns).  More
    integer combinations of its rows than it has columns follow, so the HNF
    settles, and last the rows to certify: combinations with coefficients
    up to 2^80, some moved off the lattice by a multiple of a unit vector.
    """
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(2, 4)
    n_free = rng.randint(0, min(2, n - 1))
    mods = [0] * n_free + [rng.choice([1, 2, 3, 4, 6, 9, 12, 2**61 - 1]) for _ in range(n - n_free)]
    rng.shuffle(mods)
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-3, 3)
        for row in w:
            row[j] += k * row[i]
    gens = [[d * x for x in row] for d, row in zip(mods, w) if d]

    def combination(size):
        ks = [rng.randint(-size, size) for _ in gens]
        return [sum(k * row[c] for k, row in zip(ks, gens)) for c in range(n)]

    run = [combination(3) for _ in range(n + 1)]
    certified = []
    for _ in range(rng.randint(1, 4)):
        row = combination(2**80)
        if rng.random() < 0.4:
            row[rng.randrange(n)] += rng.choice([1, -1, 2, 3, 2**40])
        certified.append(row)
    return n, gens, run, certified


@settings(max_examples=100, deadline=None)
@given(settled_lattices())
def test_packed_check_against_one_coordinate_at_a_time(data):
    # The packed test, the per-coordinate test and an HNF walk agree on every row,
    # and the group certified with it is the minor-gcd SNF of its lattice.
    n, gens, run, certified = data
    settled = dense_group(n, gens + run)
    settled.snf  # the settled basis and its Smith pair
    rows = dense_matrix(n, certified).rows
    bound = max(map(len, rows)) * max((abs(v) for row in rows for _, v in row), default=0)
    packed = settled._smith_check(settled._smith, bound)
    reference = reference_smith_check(settled, settled._smith)
    full = full_width_basis(n, gens)
    members = [hnf_contains(full, row) for row in certified]
    assert [packed(row) for row in rows] == [reference(row) for row in rows] == members
    outside = [row for row, member in zip(certified, members) if not member]
    group = dense_group(n, gens + run + certified)
    assert group.snf.invariant_factors == minor_gcd_snf(gens + outside, n)
    assert group.snf.free_rank == n - len(group.snf.invariant_factors)


def test_quotient_by():
    g = dense_group(2, [[4, 0], [0, 4]])
    q = g.quotient_by(IntMatrix(2, (((0, 2), (1, 2)),)))
    assert q.snf.group_order == 8
    assert order_by_quotient(g, [2, 2]) == 2
    for wrong in ([2], [2, 2, 2]):
        with pytest.raises(ValueError, match="element width"):
            g.order_of(wrong)
    for bad in (((2, 2),), ((-1, 2),)):  # rows are checked like any caller's
        with pytest.raises(ValueError, match="column index out of range"):
            g.quotient_by(IntMatrix(2, (((0, 2),), bad)))


def test_quotient_by_takes_a_built_matrix_and_checks_sparse_rows():
    g = dense_group(2, [[4, 0], [0, 4]])
    rows = (((0, 2), (1, 2)), ((1, 2),))
    assert g.quotient_by(IntMatrix(2, rows)).snf == dense_group(2, [[4, 0], [0, 4], [2, 2], [0, 2]]).snf
    with pytest.raises(ValueError, match="relation width"):
        g.quotient_by(IntMatrix(3, rows))
    bad_rows = [((0, 1), (0, 1)), ((1, 0),), ((0, 1), (2, 1))]
    for bad, message in zip(bad_rows, ["duplicate column", "zero coefficient", "out of range"]):
        with pytest.raises(ValueError, match=message):
            IntMatrix(2, (bad,))  # a caller's rows are checked before any quotient is built


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
    g = dense_group(n, rows)
    quot = g.quotient_by(dense_matrix(n, extra))
    whole = dense_group(n, rows + extra)
    oracle = minor_gcd_snf(rows + extra, n)
    assert quot.snf == whole.snf
    assert quot.snf.invariant_factors == oracle
    assert quot.snf.group_order == whole.snf.group_order
    full = full_width_basis(n, rows + extra)
    for v in (e, [2 * x for x in e], *extra):
        expected = brute_force_order(full, v, math.prod(oracle))
        assert quot.order_of(v) == whole.order_of(v) == expected


def test_intmatrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, (((2, 1),),))  # column out of range
    with pytest.raises(ValueError):
        IntMatrix(2, (((0, 0),),))  # zero coefficient
    with pytest.raises(ValueError):
        IntMatrix(2, (((0, 1), (0, 2)),))  # duplicate column


def test_snf_result_group_order():
    r = SnfResult((1, 2, 6), free_rank=0)
    assert r.group_order == 12
    assert SnfResult((2,), free_rank=1).group_order is None
