"""Exact integer linear algebra over Z.

`FpAbelianGroup` is the one reduction path, and a group is reduced when it is built.
Its relations are point rows (tuples of points, repeats allowed, each for the sum of
its points' unit vectors minus e_eps, eps the last column), the form of every relation
of A_T.  They are peeled first, writing no row: a row with one unresolved column and a
+-1 coefficient there determines that column, and when no such row is left one column
is inactivated and becomes the next core column (structured Gaussian elimination;
inactivation decoding).  The core images of the other rows go into an incremental
row-style Hermite normal form (`HnfBasis`) only until it settles.  Then its rows H are
diagonalized once, U H V = diag(d_i), and every later row is certified instead of
reduced: its image times V must be 0 mod d_i where d_i != 1 and 0 on the free
coordinates, tested with one short sum of big integers, each generator's coordinates
packed into one (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009).  A row
that fails goes into the HNF, so each row is in the HNF or proven to lie in its
lattice.  The Smith normal form comes from the HNF rows by alternating Hermite forms of
the columns and of the rows, in the same `HnfBasis` (Kannan-Bachem).  `quotient_by`
builds a group the same way from more rows, the same image map and a copy of the core
HNF: a quotient is never peeled again.  Each group keeps the pair (diag, V) of its
settled core basis, and element orders are read in the same Smith coordinates: with w
an element's core image times V, its order is lcm_i d_i / gcd(d_i, w_i), infinite when
w is nonzero on a free coordinate (Cohen, GTM 138, 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd, lcm, prod
from operator import add, mod, mul, sub
from typing import Callable, Optional, Sequence

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


def _lift(vectors: Sequence[list[int]], row: PointRow) -> list[int]:
    """The sum of the vectors of `row`'s points minus the last vector, eps's."""
    return list(map(sum, zip([-x for x in vectors[-1]], *map(vectors.__getitem__, row))))


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


def _diagonalize(rows: list[list[int]], n_cols: int) -> Smith:
    """Diagonalize a row HNF by alternating Hermite forms of its columns and of its rows
    (Kannan and Bachem, SIAM J. Comput. 8, 1979): each column of m, followed by the same
    column of V, goes into one `HnfBasis`, so V follows every column operation; then m's
    rows go into another, until m is diagonal.  Returns the positive diagonal entries (rank
    many, not necessarily a divisibility chain) and the column transform V: for some
    unimodular U, U * rows * V is that diagonal, padded with zeros.
    """
    def diagonal(m: list[list[int]]) -> bool:
        return not any(v for i, row in enumerate(m) for j, v in enumerate(row) if i != j)

    m, r = rows, len(rows)
    transform = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]
    while not diagonal(m):
        columns = HnfBasis(r + n_cols)
        for column in zip(*m, *transform):
            columns.add(column)
        back = [list(x) for x in zip(*columns.rows())]  # m over V, transposed back
        m, transform = back[:r], back[r:]
        if not diagonal(m):
            basis = HnfBasis(n_cols)
            for row in m:
                basis.add(row)
            m = basis.rows()
    return [row[i] for i, row in enumerate(m)], transform


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
    least-index row among those with the fewest unresolved columns above 1, found
    by `left.index(n)` for n = 2, 3, ..., the column in the most rows (structured
    Gaussian elimination, LaMacchia-Odlyzko, CRYPTO '90; inactivation decoding,
    Shokrollahi, IEEE Trans. Inf. Theory 52, 2006).  The pivot rows are triangular
    with unit diagonal, so Z^n / L is Z^core / <images of the other rows>.  Returns
    each column's image, a list over the core, the core size, and the rows not used
    as pivots.
    """
    eps = n_cols - 1
    occ: list[Sequence[int]] = [[] for _ in range(n_cols)]  # column -> the rows it occurs in
    left = []  # unresolved columns per row
    for i, row in enumerate(rows):
        points = set(row)
        for c in points:
            occ[c].append(i)
        left.append(len(points) + 1)
    occ[eps] = range(len(rows))
    counts = range(2, max(left, default=0) + 1)
    ready = [i for i, n in enumerate(left) if n == 1]
    image: list[Optional[list[int]]] = [None] * n_cols
    pivot, core = bytearray(len(rows)), 0

    def resolve(c: int, value: list[int]) -> None:
        image[c] = value
        for i in occ[c]:
            n = left[i] = left[i] - 1
            if n == 1:
                ready.append(i)

    while True:
        while ready:
            i = ready.pop()
            if left[i] != 1:
                continue  # its last column was resolved by another row
            row = rows[i]
            if image[eps] is None:  # eps = the points' sum; a row () is ready while core is 0
                c, value = eps, list(map(sum, zip(*map(image.__getitem__, row))))
            else:
                c = next(c for c in row if image[c] is None)
                if row.count(c) != 1:
                    continue  # a relation on the core once c is resolved
                others = [image[p] for p in row if p != c]  # c = eps - the other points
                sums = map(sum, zip(*others))
                value = list(map(sub, image[eps], sums)) if others else image[eps][:]
            pivot[i] = 1
            resolve(c, value)
        if None not in image:
            break
        for n in counts:
            if n in left:
                row = (*rows[left.index(n)], eps)
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
    """Finitely presented abelian group Z^n_gens / the lattice of the point rows `rows`,
    over the points 0..n_gens-2 and eps = n_gens-1; the rows are not checked.

    The rows are peeled and the core's HNF built when the group is.  Its structure is
    read from `snf`, its element orders from `order_of`.
    """

    def __init__(
        self,
        n_gens: int,
        rows: Sequence[PointRow],
        _core: Optional[tuple[list[list[int]], HnfBasis]] = None,
    ):
        """`_core`, the image map and a core HNF of a group to take a quotient of: no peel."""
        self.n_gens = n_gens
        if _core is None:
            image, core, rows = _eliminate_units(n_gens, rows)
            _core = image, HnfBasis(core)
        self._image, self.hnf = _core  # column -> its value over the core; the core's HNF
        self._smith: Optional[Smith] = self._add_rows(rows)  # (diag, V) of hnf, once computed
        self._snf: Optional[SnfResult] = None

    @property
    def snf(self) -> SnfResult:
        """Invariant factors: a 1 per eliminated generator, then the core's."""
        if self._snf is None:
            factors = [1] * (self.n_gens - self.hnf.n_cols)
            factors += cyclics_to_invariant_factors(self._smith_pair()[0])
            self._snf = SnfResult(tuple(factors), free_rank=self.n_gens - len(factors))
        return self._snf

    def _smith_pair(self) -> Smith:
        if self._smith is None:
            self._smith = _diagonalize(self.hnf.rows(), self.hnf.n_cols)
        return self._smith

    def _add_rows(self, rows: Sequence[PointRow]) -> Optional[Smith]:
        """Put the point rows `rows` into the lattice of the core HNF `hnf`.

        Rows are reduced into the HNF until `hnf.n_cols` of them in a row
        leave it unchanged.  Every later row is certified instead, by
        `_smith_check` of the basis; a row that fails goes into the HNF, and
        the count starts again.  So each row is in the HNF or proven to lie
        in its lattice, and the canonical HNF does not depend on the rule.
        Returns (diag, V) of the final basis if the check was built from it.
        """
        basis = self.hnf
        bound = max(map(len, rows), default=0) + 1  # >= sum |v| of a row
        unchanged, smith, check = 0, None, None
        for row in rows:
            if smith is None and unchanged >= basis.n_cols:
                smith = _diagonalize(basis.rows(), basis.n_cols)
                check = self._smith_check(smith, bound)
            if smith is not None and check(row):
                continue
            if basis.add(_lift(self._image, row)):  # the row's core image
                unchanged, smith = 0, None
            else:
                unchanged += 1
        return smith

    def _smith_check(self, smith: Smith, bound: int) -> Callable[[PointRow], bool]:
        """A test of point rows for membership in a core with Smith pair `smith`.

        With U * H * V = diag(d_i) for the basis rows H, v is in the lattice iff
        w_i = (v V)_i is 0 mod d_i where d_i != 1 and 0 where i >= rank (free); with L
        the lcm of those d_i, iff w_i * L / d_i is 0 mod L.  Each generator's coordinates
        are packed into one integer: the free ones signed at the bottom, the finite ones
        above, each in [0, L).  With `bound` at least len(row) + 1 for each row checked,
        a free slot S of a row's sum has |S| <= bound * max|w| < 2^fw, so the free slots
        are 0 iff the low `base` bits are.  A finite digit D is in (-L, (bound - 1) * L),
        eps's alone being taken away, so a multiple of L is L * E with 0 <= E <= bound - 2
        < 2^lo.  As L * 2^lo <= 2^width and base-2^width digits are unique, the finite
        part is L times a number with digits below 2^lo iff every D is a multiple of L:
        a negative D leaves a digit above 2^width - L once borrowed from.  Each slot is
        as narrow as this allows: at one bit less, a row can get the wrong verdict.
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
        fw = (bound * max(map(abs, chain.from_iterable(free)), default=0)).bit_length()
        base = fw * len(free)
        lo = (bound - 2).bit_length()
        width = lo + (mod_l - 1).bit_length()
        packed = [0] * self.n_gens
        for i, w in enumerate(free):
            packed = list(map(add, packed, map(mul, w, repeat(1 << fw * i))))
        for i, (w, d) in enumerate(finite):
            scaled = map(mod, map(mul, w, repeat(mod_l // d)), repeat(mod_l))
            packed = list(map(add, packed, map(mul, scaled, repeat(1 << base + width * i))))
        mask = (1 << base) - 1
        high = ~sum((1 << lo) - 1 << width * i for i in range(len(finite)))  # all but the digits
        get, eps = packed.__getitem__, packed[-1]

        def check(row: PointRow) -> bool:
            s = sum(map(get, row)) - eps
            qq, r = divmod(s >> base, mod_l)
            return not (s & mask or r or qq & high)

        return check

    def quotient_by(self, rows: Sequence[PointRow]) -> "FpAbelianGroup":
        """The quotient by the subgroup generated by the point rows `rows`."""
        return FpAbelianGroup(self.n_gens, rows, (self._image, self.hnf.copy()))

    def order_of(self, element: Sequence[int]) -> Optional[int]:
        """Least k > 0 with k*element in the relation lattice; None if infinite.

        Read in the Smith coordinates of the core basis: with w the core image
        of `element` times V, the order is lcm_i d_i / gcd(d_i, w_i), and it is
        infinite when w is nonzero on a free coordinate.
        """
        if len(element) != self.n_gens:
            raise ValueError("element width does not match generator count")
        diag, transform = self._smith_pair()
        lifted = ([x * y for y in image] for x, image in zip(element, self._image) if x)
        core = list(map(sum, zip([0] * len(transform), *lifted)))  # the element's core image
        w = [sum(map(mul, core, col)) for col in zip(*transform)]
        if any(w[len(diag) :]):
            return None
        return lcm(*(d // gcd(d, x) for d, x in zip(diag, w)))
