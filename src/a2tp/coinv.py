"""Relation matrices of A_T, group structure, and the theorem checks.

A_T is the abelian group on the N points plus a distinguished element eps
(always the last generator column), subject to either of two equivalent
relation schemes:

  acb: for each x, sum over y not on lambda(x) of y = x; for each triple,
       x + y + z = eps; the all-points sum = eps.
  bcd: triangle rows and the all-points row, plus for each x the row
       x + sum over y on lambda(x) of y = eps.

The triangle row x + y + z = eps depends only on the multiset {x, y, z}, so
the rotations of a triple share one row, read once from the validated table.

`relation_matrix` builds the bcd rows only (q+2 nonzeros per x-row against
N-q-1 for acb); `schemes_agree` proves the two lattices equal row by row,
reading each acb x-row from lambda(x).  One unit-pivot elimination runs,
on the triple lattice tri = Z^(N+1) / <x+y+z-eps>; every group is a
quotient of it: A_T by the all-points row and the x-rows, A_T/<eps> by eps
on top, and the abelianized triangle group Gamma_ab = Z^N / <x+y+z> as
tri/<eps>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .gf import BadInput
from .plane import Point
from .presentation import (
    DEFAULT_BACKTRACK_BUDGET,
    TrianglePresentation,
    find_m_subset,
    m_subset_occurrences,
    validate,
)
from .zlinalg import FpAbelianGroup, IntMatrix, SparseRow, cyclics_to_invariant_factors


class InternalError(RuntimeError):
    """Two independent computations of one number disagree: a bug, not bad input."""


class InvalidPresentation(BadInput):
    """The presentation fails the triangle axioms."""


def _triangle_rows(T: TrianglePresentation, third: list[Point]) -> list[SparseRow]:
    """x + y + z - eps once per point multiset of a valid T, read from its third-point table.

    A rotation class gives the row of its least rotation: (x, y, z) with x < y, z, or
    (x, x, z) with x <= z.  The classes of (x, y, z) and (x, z, y) share a multiset,
    and only the lesser gives it.  The table, and so the rows, are in sorted order.
    """
    e, rows, k = (T.N, -1), [], 0
    for x, line in enumerate(T.lam):
        zs = dict(zip(line, third[k : k + len(line)]))  # y -> z over the triples (x, y, z)
        k += len(line)
        for y, z in zs.items():
            if x < y and x < z and (y <= z or zs.get(z) != y):
                a, b = (y, z) if y < z else (z, y)
                rows.append(((x, 1), (a, 1), (b, 1), e) if a < b else ((x, 1), (a, 2), e))
            elif x == y <= z:
                rows.append(((x, 2), (z, 1), e) if x < z else ((x, 3), e))
    return rows


def _valid_third(T: TrianglePresentation) -> list[Point]:
    """The third-point table of T that `validate` fills; InvalidPresentation when T fails."""
    report = validate(T)
    if not report.ok:
        raise InvalidPresentation(
            f"presentation failed triangle axioms, witness {report.witness}, "
            f"{report.size} triples (expected {report.expected_size})"
        )
    return report.third


def relation_matrix(T: TrianglePresentation, third: Optional[list[Point]] = None) -> IntMatrix:
    """The bcd rows over N+1 columns (points 0..N-1, eps at column N) of a valid T.

    The triangle rows, read from `third`, the table of `_valid_third(T)` (found
    here when not given), then the all-points row and the x-rows.  Raises
    InvalidPresentation for an invalid T.
    """
    if third is None:
        third = _valid_third(T)
    N = T.N
    minus_eps = ((N, -1),)
    rows = _triangle_rows(T, third)
    rows.append(tuple((y, 1) for y in range(N)) + minus_eps)
    rows += (  # e_x + the points of lambda(x)
        tuple(sorted({**dict.fromkeys(line, 1), x: 1 + (x in line)}.items())) + minus_eps
        for x, line in enumerate(T.lam)
    )
    return IntMatrix._trusted(N + 1, tuple(rows))


@dataclass(frozen=True)
class AnalysisReport:
    q: int
    N: int
    origin: str
    invariant_factors: tuple[int, ...]  # nontrivial factors of A_T
    free_rank: int
    quotient_invariant_factors: tuple[int, ...]  # of A_T / <eps>
    epsilon_order: Optional[int]  # None = infinite
    checks: dict[str, bool]
    m_subset_size: Optional[int]
    conjecture_holds: bool
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.N,
            "origin": self.origin,
            "invariant_factors": [str(d) for d in self.invariant_factors],
            "free_rank": self.free_rank,
            "quotient_invariant_factors": [str(d) for d in self.quotient_invariant_factors],
            "epsilon_order": self.epsilon_order if self.epsilon_order is not None else "infinite",
            "checks": dict(self.checks),
            "m_subset_size": self.m_subset_size,
            "conjecture_holds": self.conjecture_holds,
            "flags": list(self.flags),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


def expected_epsilon_order(q: int) -> int:
    return (q - 1) // gcd(q - 1, 3)


def check_lemma_q2(q: int, epsilon_order: Optional[int]) -> bool:
    """(q^2 - 1) * eps = 0, i.e. ord(eps) divides q^2 - 1."""
    return epsilon_order is not None and (q * q - 1) % epsilon_order == 0


def check_lower_bound(q: int, relations: IntMatrix, epsilon_order: Optional[int]) -> bool:
    """ord(eps) >= (q-1)/(q-1,3), plus the mod-(q^2-1) row annihilation test.

    The witnessing map sends every point to q+1 and eps (the last column) to
    3(q+1); it must kill every row of `relations` mod q^2 - 1.  So it sends
    a row v to (q+1)(sum of v + 2 v_eps).
    """
    modulus = q * q - 1
    eps = relations.n_cols - 1
    for row in relations.rows:
        total = 0
        for c, v in row:
            total += 3 * v if c == eps else v
        if (q + 1) * total % modulus:
            return False
    bound = expected_epsilon_order(q)
    return epsilon_order is None or epsilon_order >= bound


def schemes_agree(T: TrianglePresentation, bcd: IntMatrix) -> bool:
    """True when the acb rows of T and the bcd rows `bcd` span the same lattice.

    T must be valid (`validate`), so closed under rotation (axiom (ii)).
    Exact and elimination-free, and no acb matrix is built: the triangle rows
    and the all-points row of `bcd` must be those of T, which both schemes
    share, and acb_x + bcd_x must equal the all-points row for every x.  The
    triangle rows are T's when each is the canonical row of a multiset of a
    triple of T, no two alike, and the triples they account for are all of T.
    The orders of a multiset's points that T holds are whole rotation
    classes, so one lookup per class counts them: (a, b, c) and (a, c, b) for
    three distinct points, (a, b, b), (a, a, b) or (a, a, a) otherwise.
    acb_x is 1 off lambda(x) minus e_x, so the rest reads
    bcd_x = e_x + 1_{lambda(x) as a set} - e_eps.  Then each x-row of one
    scheme is the all-points row minus an x-row of the other, so each
    lattice contains the other.
    """
    N, triples, covered, eps = T.N, T.triples, 0, (T.N, -1)
    n_tri = len(bcd.rows) - N - 1
    all_points = tuple((y, 1) for y in range(N)) + (eps,)
    if n_tri < 0 or bcd.n_cols != N + 1 or bcd.rows[n_tri] != all_points:
        return False
    if len(set(bcd.rows[:n_tri])) != n_tri:
        return False
    for row in bcd.rows[:n_tri]:
        match row:
            case ((a, 1), (b, 1), (c, 1), last) if a < b < c:
                found = 3 * (((a, b, c) in triples) + ((a, c, b) in triples))
            case ((a, 1), (b, 2), last) if a < b:
                found = 3 * ((a, b, b) in triples)
            case ((a, 2), (b, 1), last) if a < b:
                found = 3 * ((a, a, b) in triples)
            case ((a, 3), last):
                found = (a, a, a) in triples
            case _:
                return False
        if last != eps or not found:
            return False
        covered += found
    if covered != len(triples):
        return False
    for x, row in enumerate(bcd.rows[n_tri + 1 :]):
        expected = dict.fromkeys(T.lam[x], 1)  # lambda(x) as a set
        expected[x] = expected.get(x, 0) + 1
        expected[N] = -1
        if dict(row) != expected:
            return False
    return True


def analyze(
    T: TrianglePresentation, m_budget: int = DEFAULT_BACKTRACK_BUDGET
) -> AnalysisReport:
    q, N = T.q, T.N
    eps_vec = [0] * N + [1]
    flags: list[str] = []

    third = _valid_third(T)
    bcd = relation_matrix(T, third)
    n_tri = len(bcd.rows) - N - 1  # the triangle rows come first
    tri = FpAbelianGroup(N + 1, IntMatrix._trusted(N + 1, bcd.rows[:n_tri]))
    grp = tri.quotient_by(IntMatrix._trusted(N + 1, bcd.rows[n_tri:]))  # A_T, rows built here
    factors, free_rank = grp.invariants(), grp.free_rank
    epsilon_order = grp.order_of(eps_vec)
    quot = grp.quotient_by(((N, 1),))
    quot_factors, quot_order = quot.invariants(), quot.order()
    if free_rank:
        flags.append("InfiniteGroupUnexpected")
    elif (ratio := grp.order() // quot_order) != epsilon_order:
        # Independent algorithm guarding the headline number, at every q.
        raise InternalError(f"ord(eps) is {epsilon_order} but |A_T| / |A_T/<eps>| is {ratio}")

    m_result = find_m_subset(T, m_budget, third)
    m_found = m_result.found
    m_size = len(m_result.subset) if m_found else None
    kills = (
        m_found
        and all(c == 3 for c in m_subset_occurrences(T, m_result.subset))
        and epsilon_order is not None
        and (q - 1) % epsilon_order == 0
    )

    checks = {
        "lemma_q2": check_lemma_q2(q, epsilon_order),
        "lower_bound": check_lower_bound(q, bcd, epsilon_order),
        "m_subset_found": m_found,
        "q_minus_1_kills_epsilon": kills,
        "scheme_agreement": schemes_agree(T, bcd),
    }

    gamma_order = tri.quotient_by(((N, 1),)).order()  # Z^N / <x+y+z> = tri / <eps>
    if gamma_order is None:
        flags.append("GammaAbInfinite")
        checks["gamma_ab_divisibility"] = True  # vacuous
    else:
        checks["gamma_ab_divisibility"] = (
            quot_order is not None and gamma_order % quot_order == 0
        )

    conjecture = epsilon_order == expected_epsilon_order(q)
    return AnalysisReport(
        q=q,
        N=N,
        origin=T.origin,
        invariant_factors=factors,
        free_rank=free_rank,
        quotient_invariant_factors=quot_factors,
        epsilon_order=epsilon_order,
        checks=checks,
        m_subset_size=m_size,
        conjecture_holds=conjecture,
        flags=tuple(flags),
    )


def predicted_group(q: int, p: int, r: int, variant: str) -> tuple[int, ...]:
    """The tabulated structure of A_T for the two canonical presentations."""
    cyclics = [q - 1]
    if q % 3 == 1:
        cyclics.append(3)
    if variant == "t0dual":
        cyclics.extend([p] * (3 * r))
    elif variant != "t0":
        raise ValueError(f"no tabulated prediction for variant {variant!r}")
    return tuple(d for d in cyclics_to_invariant_factors(cyclics) if d != 1)
