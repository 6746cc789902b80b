"""Exact integer linear algebra over Z.

`FpAbelianGroup` is the one reduction path, in two stages.  A sparse
unit-pivot elimination first substitutes out every generator it can: while
some column has a +-1 entry, it takes the column with the fewest nonzeros
and the shortest row with a unit there, and subtracts multiples of that row
from the others (Havas-Holt-Rees, Linear Algebra Appl. 192, 1993).  The few
columns left, the core, go into an incremental row-style Hermite normal
form (`HnfBasis`), and the Smith normal form is diagonalized from its rows
with the smallest-pivot rule; `snf(m)` is that path for a bare matrix.
The substitutions are folded once, in reverse elimination order, into the
value of every column over the core columns, so mapping a row to the core
is one pass over its support.  `quotient_by` adds the core images of more
rows to a copy of the core HNF: a quotient is never eliminated again.
Element orders come from lattice membership in the core, or from the order
ratio |A| / |A/<e>|.  Everything runs on Python's arbitrary-precision
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, prod
from typing import Iterable, Optional, Sequence

from .gf import factorize

SparseRow = tuple[tuple[int, int], ...]  # sorted (col, coeff), no zero coeffs
Substitution = tuple[int, int, SparseRow]  # (col, +-1 pivot, rest of the pivot row)


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
    def from_rows(n_cols: int, rows: Iterable[dict[int, int] | Sequence[int]]) -> "IntMatrix":
        packed = []
        for row in rows:
            if isinstance(row, dict):
                items = row.items()
            else:
                items = enumerate(row)
            packed.append(tuple(sorted((c, v) for c, v in items if v)))
        return IntMatrix(n_cols, tuple(packed))

    @classmethod
    def _trusted(cls, n_cols: int, rows: tuple[SparseRow, ...]) -> "IntMatrix":
        """A matrix of rows the program built in canonical form; they are not checked again."""
        m = object.__new__(cls)
        object.__setattr__(m, "n_cols", n_cols)
        object.__setattr__(m, "rows", rows)
        return m


def _to_dense(n_cols: int, row) -> list[int]:
    if isinstance(row, tuple) and all(isinstance(x, tuple) for x in row):
        dense = [0] * n_cols
        for c, v in row:
            dense[c] = v
        return dense
    return list(row)


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

    def add(self, row) -> None:
        work = _to_dense(self.n_cols, row)
        n = self.n_cols
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
                return
            a = piv[j]
            qq, r = divmod(v, a)
            if qq:
                work[j:] = [x - qq * y for x, y in zip(work[j:], piv[j:])]
            if r:
                g, u, w = _xgcd(a, r)
                pj, wj = piv[j:], work[j:]
                piv[j:] = [u * x + w * y for x, y in zip(pj, wj)]
                work[j:] = [(a // g) * y - (r // g) * x for x, y in zip(pj, wj)]
                # The combination can inflate both suffixes; re-reduce them
                # against the pivots to the right to keep entries small.
                self._reduce_suffix(piv, j)
                self._reduce_suffix(work, j)
            j += 1

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

    def contains(self, row) -> bool:
        """Lattice membership test; does not modify the basis."""
        work = _to_dense(self.n_cols, row)
        for j in range(self.n_cols):
            v = work[j]
            if v == 0:
                continue
            piv = self._pivots.get(j)
            if piv is None:
                return False
            qq, r = divmod(v, piv[j])
            if r:
                return False
            work[j:] = [x - qq * y for x, y in zip(work[j:], piv[j:])]
        return True

    @property
    def rank(self) -> int:
        return len(self._pivots)


def _diagonalize(rows: list[list[int]], n_cols: int) -> list[int]:
    """Diagonalize by unimodular row/column ops; smallest-|entry| pivot rule.

    Returns the positive diagonal entries: rank many, in elimination order,
    not necessarily a divisibility chain.
    """
    m = [row[:] for row in rows]
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
            for row in m:
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
                    for row in m:
                        if row[t]:
                            row[j] -= qq * row[t]
                if m[t][j]:
                    for row in m:
                        row[t], row[j] = row[j], row[t]
                    if m[t][t] < 0:
                        m[t] = [-x for x in m[t]]
                    swapped = True
                    break
            if not swapped:
                break
        diag.append(m[t][t])
        t += 1
    return diag


def _chain(diag: Sequence[int]) -> list[int]:
    """Normalize a positive diagonal into the divisibility chain d1 | d2 | ..."""
    d = sorted(abs(x) for x in diag)
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


def _eliminate_units(rows: Iterable[SparseRow]) -> tuple[list[Substitution], set[SparseRow]]:
    """Substitute out generators through +-1 pivots, sparsest column first.

    Returns the substitutions in elimination order and the distinct nonzero
    rows left over the surviving columns.  A pivot row x_c*u + rest = 0 with
    u = +-1 gives x_c = -u*rest, so Z^n / L is Z^(n-1) / L' where L' is the
    other rows with that multiple of the pivot row subtracted.
    """
    work = {i: dict(row) for i, row in enumerate(rows)}
    occ: dict[int, set[int]] = {}  # column -> ids of the rows with a nonzero there
    for i, row in work.items():
        for c in row:
            occ.setdefault(c, set()).add(i)
    heap = [(len(ids), c) for c, ids in occ.items()]
    heapify(heap)
    queued = set(heap)  # lazy heap: an entry whose count is out of date is skipped
    subst: list[Substitution] = []
    while heap:
        entry = heappop(heap)
        queued.discard(entry)
        n, c = entry
        ids = occ.get(c)
        if ids is None or len(ids) != n:
            continue
        p, best = None, None
        for i in ids:  # the shortest row with a unit in column c
            row = work[i]
            if (best is None or len(row) < best) and row[c] in (1, -1):
                p, best = i, len(row)
        if p is None:
            continue  # requeued when one of its rows changes
        pivot = work.pop(p)
        unit = pivot.pop(c)
        del occ[c]
        ids.discard(p)
        items = [(j, v, occ[j]) for j, v in pivot.items()]
        for _, _, col in items:
            col.discard(p)
        for i in ids:
            row = work[i]
            f = row.pop(c) * unit
            for j, v, col in items:
                x = row.get(j)
                fv = f * v
                if x is None:
                    row[j] = -fv
                    col.add(i)
                elif x == fv:
                    del row[j]
                    col.discard(i)
                else:
                    row[j] = x - fv
            if not row:
                del work[i]
        for j in pivot:
            entry = (len(occ[j]), j)
            if entry not in queued:
                queued.add(entry)
                heappush(heap, entry)
        subst.append((c, unit, tuple(pivot.items())))
    return subst, {tuple(sorted(row.items())) for row in work.values()}


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form invariant factors of the row lattice of m."""
    return FpAbelianGroup(m.n_cols, m).snf


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
        self._snf: Optional[SnfResult] = None
        self._image: dict[int, SparseRow] = {}  # column -> its value over the core columns

    @property
    def hnf(self) -> HnfBasis:
        """Hermite basis of the core lattice left by the unit-pivot elimination."""
        if self._hnf is None:
            # duplicates carry no information
            subst, rows = _eliminate_units(set(self.relations.rows))
            gone = {c for c, _, _ in subst}
            kept = [c for c in range(self.n_gens) if c not in gone]
            image = {c: ((i, 1),) for i, c in enumerate(kept)}
            # x_c = -unit * rest, and rest holds only columns eliminated later or kept
            for c, unit, rest in reversed(subst):
                val: dict[int, int] = {}
                for j, v in rest:
                    for k, w in image[j]:
                        val[k] = val.get(k, 0) - unit * v * w
                image[c] = tuple((k, x) for k, x in val.items() if x)
            self._image = image
            basis = HnfBasis(len(kept))
            for row in rows:
                basis.add(self._to_core(row))
            self._hnf = basis
        return self._hnf

    @property
    def snf(self) -> SnfResult:
        """Invariant factors: a 1 per eliminated generator, then the core's."""
        if self._snf is None:
            core = self.hnf
            factors = [1] * (self.n_gens - core.n_cols)
            factors += _chain(_diagonalize(core.rows(), core.n_cols))
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

    def _to_core(self, row: SparseRow) -> SparseRow:
        """The core vector congruent to the sparse `row` modulo the relations."""
        vec: dict[int, int] = {}
        for c, x in row:
            for k, v in self._image[c]:
                vec[k] = vec.get(k, 0) + x * v
        return tuple(vec.items())

    def contains(self, element: Sequence[int]) -> bool:
        """Whether `element` is in the relation lattice, i.e. is 0 in the group."""
        row = self._sparse(element)
        return self.hnf.contains(self._to_core(row))  # hnf, evaluated first, sets _image

    def quotient_by(self, *rows: SparseRow) -> "FpAbelianGroup":
        """The quotient by the subgroup generated by the sparse `rows`."""
        extra = IntMatrix(self.n_gens, rows)  # checked like any caller's rows
        basis = self.hnf.copy()
        for row in extra.rows:
            basis.add(self._to_core(row))
        quot = FpAbelianGroup(
            self.n_gens, IntMatrix._trusted(self.n_gens, self.relations.rows + extra.rows)
        )
        quot._hnf, quot._image = basis, self._image
        return quot

    def element_order(self, element: Sequence[int], method: str) -> Optional[int]:
        """Least k > 0 with k*element in the relation lattice; None if infinite.

        method 'quotient' computes |A| / |A/<e>| (finite groups only);
        method 'membership' starts from the exponent of the torsion subgroup
        and divides out each prime p while the multiple stays in the lattice.
        """
        if method == "quotient":
            total = self.order()
            if total is None:
                raise ValueError("quotient method requires a finite group")
            return total // self.quotient_by(self._sparse(element)).order()
        if method == "membership":
            k = max(self.snf.invariant_factors, default=1)
            if not self.contains([k * x for x in element]):
                return None  # not torsion, since k kills the torsion subgroup
            for p in factorize(k):
                while k % p == 0 and self.contains([k // p * x for x in element]):
                    k //= p
            return k
        raise ValueError(f"unknown method {method!r}")
