"""Exact integer linear algebra over Z.

`FpAbelianGroup` is the one reduction path, in two stages.  Peeling first
gives every generator its value over a few core columns without writing to
any row: a row with one unresolved column and a +-1 coefficient there
determines that column, and when no such row is left one column is
inactivated and becomes the next core column (structured Gaussian
elimination; inactivation decoding).  The values are dense lists over the
core, so mapping a row to the core is a column-wise sum of them.  The
images of the rows not used as pivots go into an incremental row-style
Hermite normal form (`HnfBasis`) only until it settles.  Then its rows H
are diagonalized once, U H V = diag(d_i), and every later row is certified
instead of reduced: its image times V must be 0 mod d_i where d_i != 1,
and 0 on the free coordinates.  A row that fails goes into the HNF, so
each row is in the HNF or proven to lie in its lattice.  The Smith normal
form is diagonalized from the HNF rows with the smallest-pivot rule.
`quotient_by` puts more rows into a copy of the core HNF the same way: a
quotient is never eliminated again.  Each group keeps the pair (diag, V) of
its settled core basis, and element orders are read in the same Smith
coordinates: with w an element's core image times V, its order is
lcm_i d_i / gcd(d_i, w_i), infinite when w is nonzero on a free coordinate
(Cohen, GTM 138, 2.4).  Everything runs on Python's arbitrary-precision
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

SparseRow = tuple[tuple[int, int], ...]  # sorted (col, coeff), no zero coeffs
Smith = tuple[list[int], list[list[int]]]  # (diag, V) of a basis H: U H V = diag, padded with 0s


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, u, v with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_u, u = u, old_u - qq * u
        old_v, v = v, old_v - qq * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


@dataclass(frozen=True)
class IntMatrix:
    n_cols: int
    rows: tuple[SparseRow, ...]

    def __post_init__(self):
        for row in self.rows:
            cols = [c for c, _ in row]
            if any(not 0 <= c < self.n_cols for c in cols):
                raise ValueError("column index out of range")
            if len(set(cols)) != len(cols):
                raise ValueError("duplicate column in sparse row")
            if any(v == 0 for _, v in row):
                raise ValueError("zero coefficient in sparse row")

    @staticmethod
    def from_rows(n_cols: int, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        packed = tuple(tuple((c, v) for c, v in enumerate(row) if v) for row in rows)
        return IntMatrix(n_cols, packed)

    @classmethod
    def _trusted(cls, n_cols: int, rows: tuple[SparseRow, ...]) -> "IntMatrix":
        """A matrix of rows the program built in canonical form; they are not checked again."""
        m = object.__new__(cls)
        object.__setattr__(m, "n_cols", n_cols)
        object.__setattr__(m, "rows", rows)
        return m


class HnfBasis:
    """Incremental row Hermite basis of an integer row lattice.

    Rows may be added in any order; `rows()` returns the canonical HNF,
    which depends only on the lattice generated.
    """

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self._pivots: dict[int, list[int]] = {}  # pivot col -> full dense row

    def copy(self) -> "HnfBasis":
        other = HnfBasis(self.n_cols)
        other._pivots = {j: row[:] for j, row in self._pivots.items()}
        return other

    def add(self, row: Sequence[int]) -> bool:
        """Add a row; True when the lattice grew, i.e. the row was not in it."""
        work = list(row)
        n = self.n_cols
        grew = False
        j = 0
        while j < n:
            v = work[j]
            if v == 0:
                j += 1
                continue
            piv = self._pivots.get(j)
            if piv is None:
                if v < 0:
                    work = [-x for x in work]
                self._reduce_suffix(work, j)
                self._pivots[j] = work
                return True
            a = piv[j]
            qq, r = divmod(v, a)
            if qq:
                work[j:] = [x - qq * y for x, y in zip(work[j:], piv[j:])]
            if r:
                grew = True  # the pivot becomes gcd(a, r) < a
                g, u, w = _xgcd(a, r)
                pj, wj = piv[j:], work[j:]
                piv[j:] = [u * x + w * y for x, y in zip(pj, wj)]
                work[j:] = [(a // g) * y - (r // g) * x for x, y in zip(pj, wj)]
                # The combination can inflate both suffixes; re-reduce them
                # against the pivots to the right to keep entries small.
                self._reduce_suffix(piv, j)
                self._reduce_suffix(work, j)
            j += 1
        return grew

    def _reduce_suffix(self, row: list[int], j: int) -> None:
        """Reduce row entries at pivot columns > j into [0, pivot)."""
        for j2 in range(j + 1, self.n_cols):
            v = row[j2]
            if v == 0:
                continue
            piv = self._pivots.get(j2)
            if piv is None:
                continue
            qq = v // piv[j2]
            if qq:
                row[j2:] = [x - qq * y for x, y in zip(row[j2:], piv[j2:])]

    def rows(self) -> list[list[int]]:
        """Canonical HNF rows, sorted by pivot column, off-pivot reduced."""
        cols = sorted(self._pivots)
        for j in cols:
            piv = self._pivots[j]
            p = piv[j]
            for j2 in cols:
                if j2 >= j:
                    break
                other = self._pivots[j2]
                qq = other[j] // p
                if qq:
                    other[j:] = [x - qq * y for x, y in zip(other[j:], piv[j:])]
        return [self._pivots[j][:] for j in cols]

    @property
    def rank(self) -> int:
        return len(self._pivots)


def _diagonalize(rows: list[list[int]], n_cols: int) -> Smith:
    """Diagonalize by unimodular row/column ops; smallest-|entry| pivot rule.

    Returns the positive diagonal entries (rank many, in elimination order,
    not necessarily a divisibility chain) and the column transform V: for
    some unimodular U, U * rows * V is that diagonal, padded with zeros.
    """
    m = [row[:] for row in rows]
    transform = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]
    nr = len(m)
    diag: list[int] = []
    t = 0
    while t < nr and t < n_cols:
        # Locate the minimal-|v| nonzero entry in the trailing submatrix.
        best = None
        for i in range(t, nr):
            row = m[i]
            for j in range(t, n_cols):
                v = row[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            m[t], m[bi] = m[bi], m[t]
        if bj != t:
            for row in m + transform:
                row[t], row[bj] = row[bj], row[t]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]

        while True:
            p = m[t][t]
            swapped = False
            for i in range(t + 1, nr):
                v = m[i][t]
                if v == 0:
                    continue
                qq = v // p
                if qq:
                    m[i][t:] = [x - qq * y for x, y in zip(m[i][t:], m[t][t:])]
                if m[i][t]:
                    m[t], m[i] = m[i], m[t]  # strictly smaller positive pivot
                    swapped = True
                    break
            if swapped:
                continue
            for j in range(t + 1, n_cols):
                v = m[t][j]
                if v == 0:
                    continue
                qq = v // p
                if qq:
                    for row in m + transform:
                        if row[t]:
                            row[j] -= qq * row[t]
                if m[t][j]:
                    for row in m + transform:
                        row[t], row[j] = row[j], row[t]
                    if m[t][t] < 0:
                        m[t] = [-x for x in m[t]]
                    swapped = True
                    break
            if not swapped:
                break
        diag.append(m[t][t])
        t += 1
    return diag, transform


def cyclics_to_invariant_factors(orders: Sequence[int]) -> list[int]:
    """The invariant factors d1 | d2 | ... of a direct sum of cyclic groups, 1s kept.

    `orders` are the nonzero orders of the summands, e.g. a Smith diagonal.
    """
    d = sorted(abs(x) for x in orders)
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
        d.sort()
    return d


@dataclass(frozen=True)
class SnfResult:
    invariant_factors: tuple[int, ...]  # d1 | d2 | ..., all positive, 1s kept
    rank: int
    free_rank: int

    @property
    def nontrivial_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d != 1)

    @property
    def group_order(self) -> Optional[int]:
        """Order of Z^n_cols / rowlattice; None when infinite."""
        return None if self.free_rank else prod(self.invariant_factors, start=1)


def _eliminate_units(
    n_cols: int, rows: Sequence[SparseRow]
) -> tuple[list[list[int]], int, list[SparseRow]]:
    """Peel the rows: give each column its value over the core columns.

    No row is ever written.  A row whose one unresolved column c has a +-1
    coefficient u gives x_c = -u * (rest of the row), every column of the
    rest being resolved already.  When no such row is left, one unresolved
    column is inactivated: it becomes the next core column, taken from a
    row with the fewest unresolved columns, the one that occurs in the most
    rows (structured Gaussian elimination, LaMacchia-Odlyzko, CRYPTO '90;
    inactivation decoding, Shokrollahi, IEEE Trans. Inf. Theory 52, 2006).
    The pivot rows are triangular with unit diagonal, so Z^n / L is
    Z^core / <images of the other rows>.  Returns every column's image as a
    dense list over the core, the core size, and the rows not used as pivots.
    """
    occ: list[list[int]] = [[] for _ in range(n_cols)]  # column -> the rows it occurs in
    for i, row in enumerate(rows):
        for c, _ in row:
            occ[c].append(i)
    left = [len(row) for row in rows]  # unresolved columns per row
    ready = [i for i, n in enumerate(left) if n == 1]
    image: list[Optional[list[int]]] = [None] * n_cols
    pivot = [False] * len(rows)
    core = 0

    def resolve(c: int, value: list[int]) -> None:
        image[c] = value
        for i in occ[c]:
            left[i] -= 1
            if left[i] == 1:
                ready.append(i)

    while True:
        while ready:
            i = ready.pop()
            if left[i] != 1:
                continue  # its last column was resolved by another row
            row = rows[i]
            c, u = next((c, u) for c, u in row if image[c] is None)
            if u != 1 and u != -1:
                continue  # a relation on the core once c is resolved
            value = [0] * core
            for j, v in row:
                if j != c:
                    f = -u * v
                    value[: len(image[j])] = [x + f * y for x, y in zip(value, image[j])]
            pivot[i] = True
            resolve(c, value)
        if None not in image:
            break
        fewest = min((n for n in left if n > 1), default=None)
        if fewest is None:
            c = image.index(None)
        else:
            row = rows[left.index(fewest)]
            c = max((c for c, _ in row if image[c] is None), key=lambda c: len(occ[c]))
        resolve(c, [0] * core + [1])
        core += 1
    for value in image:
        value.extend([0] * (core - len(value)))
    return image, core, [row for row, used in zip(rows, pivot) if not used]


def _combination(vectors: Sequence[Sequence[int]], row: SparseRow) -> Iterator[int]:
    """The sum of x * vectors[c] over the entries (c, x) of `row`; empty if `row` is."""
    return map(sum, zip(*(vectors[c] if x == 1 else [x * y for y in vectors[c]] for c, x in row)))


class FpAbelianGroup:
    """Finitely presented abelian group Z^n_gens / rowlattice(relations)."""

    def __init__(self, n_gens: int, relations: IntMatrix | Iterable):
        self.n_gens = n_gens
        if isinstance(relations, IntMatrix):
            if relations.n_cols != n_gens:
                raise ValueError("relation width does not match generator count")
            self.relations = relations
        else:
            self.relations = IntMatrix.from_rows(n_gens, relations)
        self._hnf: Optional[HnfBasis] = None
        self._smith: Optional[Smith] = None  # (diag, V) of _hnf, once computed
        self._snf: Optional[SnfResult] = None
        self._image: list[list[int]] = []  # column -> its value over the core columns

    @property
    def hnf(self) -> HnfBasis:
        """Hermite basis of the core lattice left by peeling."""
        if self._hnf is None:
            self._image, core, rest = _eliminate_units(self.n_gens, self.relations.rows)
            self._hnf = HnfBasis(core)
            self._smith = self._add_rows(self._hnf, rest)
        return self._hnf

    @property
    def snf(self) -> SnfResult:
        """Invariant factors: a 1 per eliminated generator, then the core's."""
        if self._snf is None:
            core = self.hnf
            if self._smith is None:
                self._smith = _diagonalize(core.rows(), core.n_cols)
            factors = [1] * (self.n_gens - core.n_cols)
            factors += cyclics_to_invariant_factors(self._smith[0])
            self._snf = SnfResult(
                tuple(factors), rank=len(factors), free_rank=self.n_gens - len(factors)
            )
        return self._snf

    def invariants(self) -> tuple[int, ...]:
        return self.snf.nontrivial_factors

    @property
    def free_rank(self) -> int:
        return self.snf.free_rank

    def order(self) -> Optional[int]:
        return self.snf.group_order

    def _sparse(self, element: Sequence[int]) -> SparseRow:
        if len(element) != self.n_gens:
            raise ValueError("element width does not match generator count")
        return tuple((c, x) for c, x in enumerate(element) if x)

    def _to_core(self, row: SparseRow) -> list[int]:
        """The core vector congruent to the sparse `row` modulo the relations."""
        return list(_combination(self._image, row)) or [0] * self._hnf.n_cols

    def _add_rows(self, basis: HnfBasis, rows: Iterable[SparseRow]) -> Optional[Smith]:
        """Put the sparse `rows` into the lattice of `basis`, a core HNF.

        Rows are reduced into the HNF until `basis.n_cols` of them in a row
        leave it unchanged.  Every later row is certified instead, by
        `_smith_check` of the basis; a row that fails goes into the HNF, and
        the count starts again.  So each row is in the HNF or proven to lie
        in its lattice, and the canonical HNF does not depend on the rule.
        Returns (diag, V) of the final basis if the check was built from it.
        """
        unchanged, smith, check = 0, None, None
        for row in rows:
            if smith is None and unchanged >= basis.n_cols:
                smith = _diagonalize(basis.rows(), basis.n_cols)
                check = self._smith_check(smith)
            if smith is not None and check(row):
                continue
            if basis.add(self._to_core(row)):
                unchanged, smith = 0, None
            else:
                unchanged += 1
        return smith

    def _smith_check(self, smith: Smith) -> Callable[[SparseRow], bool]:
        """A membership test of sparse rows in the lattice of a core basis with Smith pair `smith`.

        With U * H * V = diag(d_i) for the basis rows H, v is in the lattice
        iff (v V)_i is 0 mod d_i for i < rank and 0 for i >= rank.  Only the
        coordinates with d_i != 1 are kept, and each generator's image
        times V is computed once, so a row costs one short vector sum.
        """
        diag, transform = smith
        padded = diag + [0] * (len(transform) - len(diag))  # a free coordinate must be 0
        keep = [i for i, d in enumerate(padded) if d != 1]
        mods = [padded[i] for i in keep]
        columns = [[v[k] for v in transform] for k in keep]
        images = [
            [x % d if d else x for x, d in zip((sum(map(mul, image, col)) for col in columns), mods)]
            for image in self._image
        ]

        def check(row: SparseRow) -> bool:
            return not any(x % d if d else x for x, d in zip(_combination(images, row), mods))

        return check

    def quotient_by(self, *rows: SparseRow | IntMatrix) -> "FpAbelianGroup":
        """The quotient by the subgroup generated by the sparse `rows`, or by one IntMatrix's."""
        one = len(rows) == 1 and isinstance(rows[0], IntMatrix)
        extra = rows[0] if one else IntMatrix(self.n_gens, rows)  # an IntMatrix was checked
        if extra.n_cols != self.n_gens:
            raise ValueError("relation width does not match generator count")
        basis = self.hnf.copy()
        smith = self._add_rows(basis, extra.rows)
        quot = FpAbelianGroup(
            self.n_gens, IntMatrix._trusted(self.n_gens, self.relations.rows + extra.rows)
        )
        quot._hnf, quot._image, quot._smith = basis, self._image, smith
        return quot

    def order_of(self, element: Sequence[int]) -> Optional[int]:
        """Least k > 0 with k*element in the relation lattice; None if infinite.

        Read in the Smith coordinates of the core basis: with w the core image
        of `element` times V, the order is lcm_i d_i / gcd(d_i, w_i), and it is
        infinite when w is nonzero on a free coordinate.
        """
        row = self._sparse(element)
        self.snf  # computes the core, its image map and (diag, V) when missing
        diag, transform = self._smith
        core = self._to_core(row)
        w = [sum(map(mul, core, col)) for col in zip(*transform)]
        if any(w[len(diag) :]):
            return None
        return lcm(*(d // gcd(d, x) for d, x in zip(diag, w)))
