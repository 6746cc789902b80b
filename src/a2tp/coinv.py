"""Relation matrices of A_T, group structure, and the theorem checks.

A_T is the abelian group on the N points plus a distinguished element eps
(always the last generator column), subject to either of two equivalent
relation schemes:

  acb: for each x, sum over y not on lambda(x) of y = x; for each triple,
       x + y + z = eps; the all-points sum = eps.
  bcd: triangle rows and the all-points row, plus for each x the row
       x + sum over y on lambda(x) of y = eps.

`analyze` builds the bcd rows only, each a sum of points minus eps, as point
rows (tuples of points): a triangle row per multiset {x, y, z}, read from the
validated third-point table, the all-points row and the x-rows; `schemes_agree`
proves the two lattices equal row by row, reading each acb x-row from lambda(x).
One unit-pivot elimination runs, on the triple lattice tri = Z^(N+1) /
<x+y+z-eps>; every group is a quotient of it: A_T by the all-points row and the
x-rows, A_T/<eps> by eps on top, and Gamma_ab = Z^N / <x+y+z> as tri/<eps>.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .gf import BadInput
from .presentation import (
    DEFAULT_BACKTRACK_BUDGET,
    ThirdTable,
    TrianglePresentation,
    find_m_subset,
    m_subset_occurrences,
    validate,
)
from .zlinalg import FpAbelianGroup, PointRow, cyclics_to_invariant_factors


class InternalError(RuntimeError):
    """Two independent computations of one number disagree: a bug, not bad input."""


class InvalidPresentation(BadInput):
    """The presentation fails the triangle axioms."""


def _triangle_rows(T: TrianglePresentation, third: ThirdTable) -> list[PointRow]:
    """x + y + z - eps once per point multiset of a valid T, read from its per-point table.

    A rotation class gives the row of its least rotation: (x, y, z) with x < y, z, or
    (x, x, z) with x <= z.  The classes of (x, y, z) and (x, z, y) share a multiset,
    and only the lesser gives it, as (x, a, b) with a <= b: for z < y, (x, z, y) is in
    T when z is on lambda(x), found by bisection, with y as its third point.  The
    table, and so the rows, are in sorted order.
    """
    rows = []
    for x, (line, zs) in enumerate(zip(T.lam, third)):
        k = bisect_left(line, x)  # a slot (x, y) with y < x gives no row
        for y, z in zip(line[k:], zs[k:]):
            if y <= z:
                rows.append((x, y, z))
            elif x < z:
                i = bisect_left(line, z)  # z's slot if z is on lambda(x); below y's, as z < y
                if line[i] != z or zs[i] != y:  # else (x, z, y) gives the row
                    rows.append((x, z, y))
    return rows


def _valid_third(T: TrianglePresentation) -> ThirdTable:
    """The third-point table of T that `validate` fills; InvalidPresentation when T fails."""
    report = validate(T)
    if not report.ok:
        raise InvalidPresentation(
            f"presentation failed triangle axioms, witness {report.witness}, "
            f"{report.size} triples (expected {report.expected_size})"
        )
    return report.third


def _point_rows(T: TrianglePresentation, third: ThirdTable) -> tuple[PointRow, ...]:
    """A_T's bcd rows for a valid T with table `third`, as point rows (its only relation
    form): the triangle rows, the all-points row, then each x with lambda(x) as a set,
    sorted (x twice if on it)."""
    x_rows = (tuple(sorted([x, *set(line)])) for x, line in enumerate(T.lam))
    return (*_triangle_rows(T, third), tuple(range(T.N)), *x_rows)


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


def check_lower_bound(
    q: int, relations: tuple[PointRow, ...], epsilon_order: Optional[int]
) -> bool:
    """ord(eps) >= (q-1)/(q-1,3), plus the mod-(q^2-1) row annihilation test.

    The witnessing map sends every point to q+1 and eps to 3(q+1), so a point row r, its
    points minus eps, to (q+1)(len(r) - 3); it must kill every row of `relations` mod q^2 - 1.
    """
    totals = {n - 3 for n in map(len, relations)}
    annihilated = not any((q + 1) * total % (q * q - 1) for total in totals)
    return annihilated and (epsilon_order is None or epsilon_order >= expected_epsilon_order(q))


def schemes_agree(T: TrianglePresentation, bcd: tuple[PointRow, ...]) -> bool:
    """True when the acb rows of T and the bcd point rows `bcd` span the same lattice.

    T must be valid (`validate`), so closed under rotation (axiom (ii)); no
    acb matrix is built.  The triangle rows and the all-points row, which
    both schemes share, must be T's: each triangle row a sorted multiset of
    a triple of T, no two alike, accounting for all of T.  The orders of a
    multiset that T holds are whole rotation classes, so one lookup per class
    counts them: (a, b, c) and (a, c, b) for three distinct points, the row
    itself otherwise.  acb_x is 1 off lambda(x) minus e_x, so bcd_x must be
    e_x + 1_{lambda(x) as a set} - e_eps: then each x-row of one scheme is
    the all-points row minus an x-row of the other.
    """
    N, triples, covered = T.N, T.triples, 0
    n_tri = len(bcd) - N - 1
    if n_tri < 0 or bcd[n_tri] != tuple(range(N)):
        return False
    tri = bcd[:n_tri]
    if len(set(tri)) != n_tri or set(map(len, tri)) - {3}:
        return False
    for row in tri:
        a, b, c = row
        found = (row in triples) * (1 if a == c else 3) + 3 * (a < b < c and (a, c, b) in triples)
        if not (a <= b <= c and found):
            return False
        covered += found
    x_rows = tuple(tuple(sorted([x, *set(line)])) for x, line in enumerate(T.lam))
    return covered == len(triples) and bcd[n_tri + 1 :] == x_rows


def analyze(
    T: TrianglePresentation, m_budget: int = DEFAULT_BACKTRACK_BUDGET
) -> AnalysisReport:
    q, N = T.q, T.N
    eps_vec = [0] * N + [1]
    flags: list[str] = []

    third = _valid_third(T)
    bcd = _point_rows(T, third)
    n_tri = len(bcd) - N - 1  # the triangle rows come first
    eps_row = ((),)  # -e_eps, for both eps quotients
    tri = FpAbelianGroup(N + 1, bcd[:n_tri])
    grp = tri.quotient_by(bcd[n_tri:])  # A_T
    factors, free_rank = grp.snf.nontrivial_factors, grp.snf.free_rank
    epsilon_order = grp.order_of(eps_vec)
    quot = grp.quotient_by(eps_row).snf
    quot_factors, quot_order = quot.nontrivial_factors, quot.group_order
    if free_rank:
        flags.append("InfiniteGroupUnexpected")
    elif (ratio := grp.snf.group_order // quot_order) != epsilon_order:
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

    gamma_order = tri.quotient_by(eps_row).snf.group_order  # Z^N / <x+y+z> = tri / <eps>
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
