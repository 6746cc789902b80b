"""Exact integer linear algebra over Z.

Incremental row-style Hermite normal form, Smith normal form with the
smallest-pivot rule, and element orders in finitely presented abelian
groups.  Everything runs on Python's arbitrary-precision integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence

SparseRow = tuple[tuple[int, int], ...]  # sorted (col, coeff), no zero coeffs


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

    def dense_rows(self) -> list[list[int]]:
        out = []
        for row in self.rows:
            dense = [0] * self.n_cols
            for c, v in row:
                dense[c] = v
            out.append(dense)
        return out


def _to_dense(n_cols: int, row) -> list[int]:
    if isinstance(row, dict):
        dense = [0] * n_cols
        for c, v in row.items():
            dense[c] = v
        return dense
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


def hnf_accumulate(n_cols: int, rows: Iterable) -> list[list[int]]:
    """Canonical row HNF of the lattice generated by the given rows."""
    basis = HnfBasis(n_cols)
    for row in rows:
        basis.add(row)
    return basis.rows()


def _diagonalize(
    rows: list[list[int]], n_cols: int, want_transform: bool = False
) -> tuple[list[int], Optional[list[list[int]]]]:
    """Diagonalize by unimodular row/column ops; smallest-|entry| pivot rule.

    Returns the positive diagonal entries (rank many, in elimination order,
    not necessarily a divisibility chain) and, on request, the accumulated
    column transform V with (row ops) * M * V diagonal.
    """
    m = [row[:] for row in rows]
    nr = len(m)
    V = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)] if want_transform else None
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
            if V is not None:
                for row in V:
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
                    if V is not None:
                        for row in V:
                            if row[t]:
                                row[j] -= qq * row[t]
                if m[t][j]:
                    for row in m:
                        row[t], row[j] = row[j], row[t]
                    if V is not None:
                        for row in V:
                            row[t], row[j] = row[j], row[t]
                    if m[t][t] < 0:
                        m[t] = [-x for x in m[t]]
                    swapped = True
                    break
            if not swapped:
                break
        diag.append(m[t][t])
        t += 1
    return diag, V


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


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form invariant factors of the row lattice of m."""
    diag, _ = _diagonalize(m.dense_rows(), m.n_cols)
    factors = _chain(diag)
    return SnfResult(tuple(factors), rank=len(factors), free_rank=m.n_cols - len(factors))


def snf_of_rows(n_cols: int, rows: list[list[int]]) -> SnfResult:
    diag, _ = _diagonalize(rows, n_cols)
    factors = _chain(diag)
    return SnfResult(tuple(factors), rank=len(factors), free_rank=n_cols - len(factors))


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
        self._transform: Optional[tuple[list[int], list[list[int]]]] = None

    @property
    def hnf(self) -> HnfBasis:
        if self._hnf is None:
            basis = HnfBasis(self.n_gens)
            for row in set(self.relations.rows):  # duplicates carry no information
                basis.add(row)
            self._hnf = basis
        return self._hnf

    @property
    def snf(self) -> SnfResult:
        if self._snf is None:
            self._snf = snf_of_rows(self.n_gens, self.hnf.rows())
        return self._snf

    def invariants(self) -> tuple[int, ...]:
        return self.snf.nontrivial_factors

    @property
    def free_rank(self) -> int:
        return self.snf.free_rank

    def order(self) -> Optional[int]:
        return self.snf.group_order

    def quotient_by(self, element: Sequence[int]) -> "FpAbelianGroup":
        """The quotient by the cyclic subgroup generated by `element`."""
        extra = tuple(sorted((c, v) for c, v in enumerate(element) if v))
        quot = FpAbelianGroup(
            self.n_gens, IntMatrix(self.n_gens, self.relations.rows + (extra,))
        )
        basis = self.hnf.copy()
        basis.add(list(element))
        quot._hnf = basis
        return quot

    def _snf_transform(self) -> tuple[list[int], list[list[int]]]:
        if self._transform is None:
            diag, V = _diagonalize(self.hnf.rows(), self.n_gens, want_transform=True)
            assert V is not None
            self._transform = (diag, V)
        return self._transform

    def element_order(self, element: Sequence[int], method: str = "auto") -> Optional[int]:
        """Least k > 0 with k*element in the relation lattice; None if infinite.

        method 'quotient' computes |A| / |A/<e>| (finite groups only);
        method 'transform' reads the order off the SNF column transform.
        """
        if method == "auto":
            method = "quotient" if self.free_rank == 0 else "transform"
        if method == "quotient":
            total = self.order()
            if total is None:
                raise ValueError("quotient method requires a finite group")
            sub = self.quotient_by(element).order()
            assert sub is not None and total % sub == 0
            return total // sub
        if method == "transform":
            diag, V = self._snf_transform()
            coords = [
                sum(element[j] * V[j][i] for j in range(self.n_gens) if element[j])
                for i in range(self.n_gens)
            ]
            if any(coords[i] for i in range(len(diag), self.n_gens)):
                return None
            order = 1
            for d, c in zip(diag, coords):
                order = lcm(order, d // gcd(d, c % d))
            return order
        raise ValueError(f"unknown method {method!r}")
