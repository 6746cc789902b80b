"""Relation matrices of A_T, group structure, and the theorem checks.

A_T is the abelian group on the N points plus a distinguished element eps
(always the last generator column), subject to either of two equivalent
relation schemes:

  acb: for each x, sum over y not on lambda(x) of y = x; for each triple,
       x + y + z = eps; the all-points sum = eps.
  bcd: triple rows and the all-points row, plus for each x the row
       x + sum over y on lambda(x) of y = eps.

`analyze` reduces the bcd lattice only (q+2 nonzeros per x-row against
N-q-1 for acb) and proves the two lattices equal row by row with
`schemes_agree`, which reads each acb x-row from lambda(x) and never builds
the acb matrix.  One unit-pivot elimination runs, on the triple lattice
tri = Z^(N+1) / <x+y+z-eps>; every group is a quotient of it: A_T by the
all-points row and the x-rows, A_T/<eps> by eps on top, and the abelianized
triangle group Gamma_ab = Z^N / <x+y+z> as tri/<eps>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .presentation import (
    DEFAULT_BACKTRACK_BUDGET,
    TrianglePresentation,
    _point_row,
    find_m_subset,
    m_subset_occurrences,
    validate,
)
from .zlinalg import FpAbelianGroup, IntMatrix, SparseRow

SCHEMES = ("acb", "bcd")


class InternalError(RuntimeError):
    """Two independent computations of one number disagree: a bug, not bad input."""


def _shared_rows(T: TrianglePresentation) -> tuple[SparseRow, ...]:
    """The rows both schemes share: each triple, then the all-points row."""
    return T.triple_rows + (tuple((y, 1) for y in range(T.N)) + ((T.N, -1),),)


def relation_matrix(T: TrianglePresentation, scheme: str) -> IntMatrix:
    """Relation rows over N+1 columns (points 0..N-1, eps at column N)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    N = T.N
    rows: list[SparseRow] = []
    if scheme == "acb":
        for x, on_line in enumerate(T.lam_sets):  # +1 off lambda(x), -1 at x
            rows.append(tuple((y, v) for y in range(N) if (v := (y not in on_line) - (y == x))))
    rows += _shared_rows(T)
    if scheme == "bcd":
        rows += (_point_row((x, *line), ((N, -1),)) for x, line in enumerate(T.lam))
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
    3(q+1); it must kill every row of `relations` mod q^2 - 1.
    """
    modulus = q * q - 1
    f = [q + 1] * (relations.n_cols - 1) + [3 * (q + 1)]
    for row in relations.rows:
        if sum(v * f[c] for c, v in row) % modulus:
            return False
    bound = expected_epsilon_order(q)
    return epsilon_order is None or epsilon_order >= bound


def schemes_agree(T: TrianglePresentation, bcd: IntMatrix) -> bool:
    """True when the acb rows of T and the bcd rows `bcd` span the same lattice.

    Exact and elimination-free, and no acb matrix is built: the triple rows
    and the all-points row of `bcd` must be those of T, which both schemes
    share, and acb_x + bcd_x must equal the all-points row for every x.
    acb_x is 1 off lambda(x) minus e_x, so that reads
    bcd_x = e_x + 1_{lambda(x) as a set} - e_eps, checked one x at a time.
    Then each x-row of one scheme is the all-points row minus an x-row of
    the other, so each lattice contains the other.
    """
    N = T.N
    shared = _shared_rows(T)
    if (
        bcd.n_cols != N + 1
        or len(bcd.rows) != len(shared) + N
        or bcd.rows[: len(shared)] != shared
    ):
        return False
    for x, row in enumerate(bcd.rows[len(shared) :]):
        expected = dict.fromkeys(T.lam_sets[x], 1)
        expected[x] = expected.get(x, 0) + 1
        expected[N] = -1
        if dict(row) != expected:
            return False
    return True


def analyze(
    T: TrianglePresentation, m_budget: int = DEFAULT_BACKTRACK_BUDGET
) -> AnalysisReport:
    report = validate(T)
    if not report.ok:
        raise ValueError(
            f"presentation failed triangle axioms, witness {report.witness}, "
            f"{report.size} triples (expected {report.expected_size})"
        )

    q, N = T.q, T.N
    eps_vec = [0] * N + [1]
    flags: list[str] = []

    bcd = relation_matrix(T, "bcd")
    n_tri = len(bcd.rows) - N - 1  # the triple rows come first
    tri = FpAbelianGroup(N + 1, IntMatrix._trusted(N + 1, bcd.rows[:n_tri]))
    grp = tri.quotient_by(*bcd.rows[n_tri:])  # A_T: the all-points row and the x-rows
    factors = grp.invariants()
    free_rank = grp.free_rank
    epsilon_order = grp.element_order(eps_vec, "membership")
    quot = grp.quotient_by(((N, 1),))
    quot_factors, quot_order = quot.invariants(), quot.order()
    if free_rank:
        flags.append("InfiniteGroupUnexpected")
    elif (ratio := grp.order() // quot_order) != epsilon_order:
        # Independent algorithm guarding the headline number, at every q.
        raise InternalError(f"element-order methods disagree: {epsilon_order} vs {ratio}")

    m_result = find_m_subset(T, m_budget)
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


def cyclics_to_invariant_factors(cyclics: list[int]) -> tuple[int, ...]:
    """Canonical invariant factors of a direct sum of cyclic groups (CRT)."""
    from .gf import factorize

    primary: dict[int, list[int]] = {}
    for n in cyclics:
        for p, e in factorize(n).items():
            primary.setdefault(p, []).append(p**e)
    for p in primary:
        primary[p].sort(reverse=True)
    depth = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(depth):
        d = 1
        for p, powers in primary.items():
            if i < len(powers):
                d *= powers[i]
        factors.append(d)
    return tuple(sorted(factors))


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
