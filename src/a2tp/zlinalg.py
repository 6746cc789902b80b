"""Exact integer linear algebra over Z.

`FpAbelianGroup` is the one reduction path.  Its relations are point rows
(`PointRows`: tuples of points, repeats allowed, each for the sum of its points'
unit vectors minus e_eps, eps the last column), the form of every relation of
A_T, or (column, coefficient) rows (`IntMatrix`).  Point rows are peeled first,
writing no row: a row with one unresolved column and a +-1 coefficient there
determines that column, and when no such row is left one column is inactivated
and becomes the next core column (structured Gaussian elimination; inactivation
decoding).  An IntMatrix is not peeled.  The core images of the other rows go
into an incremental row-style Hermite normal form (`HnfBasis`) only until it
settles.  Then its rows H are diagonalized once, U H V = diag(d_i), and every
later row is certified instead of reduced: its image times V must be 0 mod d_i
where d_i != 1 and 0 on the free coordinates, tested with one short sum of big
integers, each generator's coordinates packed into one (Kronecker substitution;
Harvey, J. Symbolic Comput. 44, 2009).  A row that fails goes into the HNF, so
each row is in the HNF or proven to lie in its lattice.  The Smith normal form is
diagonalized from the HNF rows with the smallest-pivot rule.  `quotient_by` puts
more rows into a copy of the core HNF the same way: a quotient is never
eliminated again.  Each group keeps the pair (diag, V) of its settled core basis,
and element orders are read in the same Smith coordinates: with w an element's
core image times V, its order is lcm_i d_i / gcd(d_i, w_i), infinite when w is
nonzero on a free coordinate (Cohen, GTM 138, 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, repeat
from math import gcd, lcm, prod
from operator import add, itemgetter, mod, mul
from typing import Callable, Optional, Sequence

SparseRow = tuple[tuple[int, int], ...]  # sorted (col, coeff), no zero coeffs
PointRow = tuple[int, ...]  # points, repeats allowed: their sum minus e_eps
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
    def combine(values: Sequence[int], row: SparseRow) -> int:
        """The image of `row` under the map sending generator c to values[c]."""
        return sum([values[c] * v for c, v in row])

    @staticmethod
    def lift(vectors: Sequence[list[int]], row: SparseRow) -> list[int]:
        """The same, with vectors of one length for values."""
        zero = [0] * len(vectors[0]) if vectors else []
        return list(map(sum, zip(zero, *([v * y for y in vectors[c]] for c, v in row))))

    @staticmethod
    def bound(rows: Sequence[SparseRow]) -> int:
        """A bound on sum |v| of each of `rows`."""
        coefficients = map(abs, map(itemgetter(1), chain.from_iterable(rows)))
        return max(map(len, rows), default=0) * max(coefficients, default=0)


@dataclass(frozen=True)
class PointRows:
    """Relations over points 0..n_cols-2 and eps = n_cols-1: each row, an unchecked tuple of
    points with repeats allowed, stands for their unit vectors' sum minus e_eps.
    """

    n_cols: int
    rows: tuple[PointRow, ...]

    @staticmethod
    def combine(values: Sequence[int], row: PointRow) -> int:
        return sum(map(values.__getitem__, row)) - values[-1]

    @staticmethod
    def lift(vectors: Sequence[list[int]], row: PointRow) -> list[int]:
        return list(map(sum, zip([-x for x in vectors[-1]], *map(vectors.__getitem__, row))))

    @staticmethod
    def bound(rows: Sequence[PointRow]) -> int:
        return max(map(len, rows), default=0) + 1


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
    """Z^n / L: the invariant factors, as many as the rank of L, and n - rank, the free rank."""

    invariant_factors: tuple[int, ...]  # d1 | d2 | ..., all positive, 1s kept
    free_rank: int

    @property
    def nontrivial_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d != 1)

    @property
    def group_order(self) -> Optional[int]:
        """Order of Z^n_cols / rowlattice; None when infinite."""
        return None if self.free_rank else prod(self.invariant_factors, start=1)


def _eliminate_units(
    n_cols: int, rows: Sequence[PointRow]
) -> tuple[list[list[int]], int, list[PointRow]]:
    """Peel point rows: give each column its value over the core columns.

    A row whose one unresolved column has a +-1 coefficient (eps always, a point if
    it occurs once) gives that column's value from the rest of the row.  When no
    such row is left, a column is inactivated as the next core column: of the
    least-index row among those with the fewest unresolved columns above 1 (a heap
    per count), the column in the most rows (structured Gaussian elimination,
    LaMacchia-Odlyzko, CRYPTO '90; inactivation decoding, Shokrollahi, IEEE Trans.
    Inf. Theory 52, 2006).  The pivot rows are triangular with unit diagonal, so
    Z^n / L is Z^core / <images of the other rows>.  Returns each column's image, a
    list over the core, the core size, and the rows not used as pivots.
    """
    eps = n_cols - 1
    occ: list[list[int]] = [[] for _ in range(n_cols)]  # column -> the rows it occurs in
    left = []  # unresolved columns per row
    for i, row in enumerate(rows):
        points = set(row)
        for c in points:
            occ[c].append(i)
        left.append(len(points) + 1)
    occ[eps] = list(range(len(rows)))
    ready = [i for i, n in enumerate(left) if n == 1]
    heaps: list[list[int]] = [[] for _ in range(max(left, default=0) + 1)]
    for i, n in enumerate(left):
        heaps[n].append(i)
    image: list[Optional[list[int]]] = [None] * n_cols
    pivot, core = [False] * len(rows), 0

    def resolve(c: int, value: list[int]) -> None:
        image[c] = value
        for i in occ[c]:
            n = left[i] = left[i] - 1
            if n == 1:
                ready.append(i)
            elif n:
                heappush(heaps[n], i)

    while True:
        while ready:
            i = ready.pop()
            if left[i] != 1:
                continue  # its last column was resolved by another row
            row = rows[i]
            c = eps if image[eps] is None else next(c for c in row if image[c] is None)
            if c != eps and row.count(c) != 1:
                continue  # a relation on the core once c is resolved
            image[c] = [0] * core
            rest = PointRows.lift(image, row)  # the row's image with x_c = 0
            pivot[i] = True
            resolve(c, rest if c == eps else [-x for x in rest])
        if None not in image:
            break
        for n, heap in enumerate(heaps[2:], 2):
            while heap and left[heap[0]] != n:
                heappop(heap)
            if heap:
                row = (*rows[heap[0]], eps)
                c = max((c for c in row if image[c] is None), key=lambda c: len(occ[c]))
                break
        else:
            c = image.index(None)
        for value in image:  # every value is kept as long as the core
            if value is not None:
                value.append(0)
        core += 1
        resolve(c, [0] * (core - 1) + [1])
    return image, core, [row for row, used in zip(rows, pivot) if not used]


class FpAbelianGroup:
    """Finitely presented abelian group Z^n_gens / rowlattice(relations).

    Point rows are peeled before the HNF; an IntMatrix is not, each generator being its
    own core column.  Its structure is read from `snf`, its element orders from `order_of`.
    """

    def __init__(self, n_gens: int, relations: IntMatrix | PointRows):
        if relations.n_cols != n_gens:
            raise ValueError("relation width does not match generator count")
        self.n_gens = n_gens
        self.relations = relations
        self._hnf: Optional[HnfBasis] = None
        self._smith: Optional[Smith] = None  # (diag, V) of _hnf, once computed
        self._snf: Optional[SnfResult] = None
        self._image: list[list[int]] = []  # column -> its value over the core columns

    @property
    def hnf(self) -> HnfBasis:
        """Hermite basis of the core lattice, the one left by peeling for point rows."""
        if self._hnf is None:
            rows = self.relations.rows
            if isinstance(self.relations, PointRows):
                self._image, core, rows = _eliminate_units(self.n_gens, rows)
            else:
                core = self.n_gens
                self._image = [[int(i == j) for j in range(core)] for i in range(core)]
            self._hnf = HnfBasis(core)
            self._smith = self._add_rows(self._hnf, self.relations, rows)
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
            self._snf = SnfResult(tuple(factors), free_rank=self.n_gens - len(factors))
        return self._snf

    def _add_rows(
        self, basis: HnfBasis, form: IntMatrix | PointRows, rows: Sequence
    ) -> Optional[Smith]:
        """Put `rows`, in the form of `form`, into the lattice of `basis`, a core HNF.

        Rows are reduced into the HNF until `basis.n_cols` of them in a row
        leave it unchanged.  Every later row is certified instead, by
        `_smith_check` of the basis; a row that fails goes into the HNF, and
        the count starts again.  So each row is in the HNF or proven to lie
        in its lattice, and the canonical HNF does not depend on the rule.
        Returns (diag, V) of the final basis if the check was built from it.
        """
        bound = form.bound(rows)  # >= sum |v| of a row
        unchanged, smith, check = 0, None, None
        for row in rows:
            if smith is None and unchanged >= basis.n_cols:
                smith = _diagonalize(basis.rows(), basis.n_cols)
                check = self._smith_check(smith, bound, form.combine)
            if smith is not None and check(row):
                continue
            if basis.add(form.lift(self._image, row)):  # the row's core image
                unchanged, smith = 0, None
            else:
                unchanged += 1
        return smith

    def _smith_check(self, smith: Smith, bound: int, combine: Callable) -> Callable[..., bool]:
        """A test of rows, read by `combine`, for membership in a core with Smith pair `smith`.

        With U * H * V = diag(d_i) for the basis rows H, v is in the lattice iff
        w_i = (v V)_i is 0 mod d_i where d_i != 1 and 0 where i >= rank (free); with L
        the lcm of those d_i, iff w_i * L / d_i is 0 mod L.  Each generator's coordinates
        are packed into one integer: the free ones signed at the bottom, the finite ones
        above, offset by L * K >= bound * (L - 1), `bound` being at least sum |v| of each
        row checked.  So no slot of a row's sum overflows: the free ones are 0 iff the
        low `base` bits are, and each finite digit D is in [0, 2LK], below 2^lo.  As
        L * 2^lo <= 2^width and base-2^width digits are unique, the finite part is L
        times a number with digits below 2^lo iff every D is a multiple of L.
        """
        diag, transform = smith
        padded = diag + [0] * (len(transform) - len(diag))
        columns = list(zip(*self._image))  # core column -> its entry in each generator's image

        def coordinate(t: int) -> list[int]:  # generator -> its image times column t of V
            w = [0] * self.n_gens
            for column, row in zip(columns, transform):
                if row[t]:
                    w = list(map(add, w, map(mul, column, repeat(row[t]))))
            return w

        free = [coordinate(t) for t, d in enumerate(padded) if d == 0]
        finite = [(coordinate(t), d) for t, d in enumerate(padded) if d > 1]
        mod_l = lcm(*(d for _, d in finite))
        fw = (bound * max(map(abs, chain.from_iterable(free)), default=0)).bit_length() + 2
        base = fw * len(free)
        k = -(-bound * (mod_l - 1) // mod_l)
        lo = (2 * mod_l * k).bit_length()
        width = lo + mod_l.bit_length()
        packed = [0] * self.n_gens
        for i, w in enumerate(free):
            packed = list(map(add, packed, map(mul, w, repeat(1 << fw * i))))
        for i, (w, d) in enumerate(finite):
            scaled = map(mod, map(mul, w, repeat(mod_l // d)), repeat(mod_l))
            packed = list(map(add, packed, map(mul, scaled, repeat(1 << base + width * i))))
        mask = (1 << base) - 1
        offset = sum(mod_l * k << width * i for i in range(len(finite)))
        high = ~sum((1 << lo) - 1 << width * i for i in range(len(finite)))  # all but the digits

        def check(row) -> bool:
            s = combine(packed, row)
            qq, r = divmod((s >> base) + offset, mod_l)
            return not (s & mask or r or qq & high)

        return check

    def quotient_by(self, extra: IntMatrix | PointRows) -> "FpAbelianGroup":
        """The quotient by the subgroup generated by the rows of `extra`, in the group's form."""
        if extra.n_cols != self.n_gens or type(extra) is not type(self.relations):
            raise ValueError("relation width or form does not match the group's")
        basis = self.hnf.copy()
        smith = self._add_rows(basis, extra, extra.rows)
        rows = self.relations.rows + extra.rows
        quot = FpAbelianGroup(self.n_gens, type(extra)(self.n_gens, rows))
        quot._hnf, quot._image, quot._smith = basis, self._image, smith
        return quot

    def order_of(self, element: Sequence[int]) -> Optional[int]:
        """Least k > 0 with k*element in the relation lattice; None if infinite.

        Read in the Smith coordinates of the core basis: with w the core image
        of `element` times V, the order is lcm_i d_i / gcd(d_i, w_i), and it is
        infinite when w is nonzero on a free coordinate.
        """
        if len(element) != self.n_gens:
            raise ValueError("element width does not match generator count")
        self.snf  # computes the core, its image map and (diag, V) when missing
        diag, transform = self._smith
        core = IntMatrix.lift(self._image, tuple((c, x) for c, x in enumerate(element) if x))
        w = [sum(map(mul, core, col)) for col in zip(*transform)]
        if any(w[len(diag) :]):
            return None
        return lcm(*(d // gcd(d, x) for d, x in zip(diag, w)))
