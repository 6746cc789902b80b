"""Singer model of the Desarguesian projective plane PG(2,q).

Points are residues mod N = q^2+q+1 (Singer logarithms of the cosets
F_q^x * zeta^k), and lines are the translates of the trace-zero difference
set that `gf.trace_zero_logs` finds.  Construction verifies the
difference-set property eagerly; `lines_form_plane` checks the axioms of a
line table read from a file.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import PrimePower, prime_power, trace_zero_logs

Point = int


class PlaneAxiomViolation(RuntimeError):
    """A projective-plane axiom failed during construction (internal bug)."""


class NotApplicable(ValueError):
    """The requested collineation does not exist for this q."""


@dataclass(frozen=True)
class PlaneContext:
    pp: PrimePower
    N: int
    tz: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.pp.q

    def line(self, x: Point) -> list[Point]:
        """The line lambda_0(x) as sorted point logs: public API, called in this repo by tests only."""
        return sorted((x + d) % self.N for d in self.tz)


def _verify_difference_set(tz, N, q):
    counts = [0] * N
    for d in tz:
        for e in tz:
            if d != e:
                counts[(d - e) % N] += 1
    if counts[0] != 0 or any(c != 1 for c in counts[1:]):
        raise PlaneAxiomViolation("trace-zero set is not a perfect difference set")


def lines_form_plane(lines, q: int) -> bool:
    """Projective-plane axioms for an explicit table of lines.

    There must be N = q^2+q+1 distinct lines of q+1 points each, and every
    pair of points must lie on exactly one line.
    """
    N = q * q + q + 1
    lines = [frozenset(l) for l in lines]
    if len(set(lines)) != N or any(len(l) != q + 1 for l in lines):
        return False
    pair_count: dict[tuple[int, int], int] = {}
    for line in lines:
        pts = sorted(line)
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                pair_count[(a, b)] = pair_count.get((a, b), 0) + 1
    return len(pair_count) == N * (N - 1) // 2 and all(c == 1 for c in pair_count.values())


def build_plane(pp: PrimePower | int) -> PlaneContext:
    if isinstance(pp, int):
        pp = prime_power(pp)
    q = pp.q
    N = q * q + q + 1
    tz = trace_zero_logs(pp)
    if len(tz) != q + 1:
        raise PlaneAxiomViolation(f"expected {q + 1} trace-zero cosets, got {len(tz)}")
    # The translates of a perfect difference set of size q+1 mod q^2+q+1 are
    # the lines of a projective plane of order q (Singer 1938), which has a
    # quadrilateral for q >= 2, so no further axiom check is needed.
    _verify_difference_set(tz, N, q)
    return PlaneContext(pp=pp, N=N, tz=tz)


def frobenius_collineation(ctx: PlaneContext, x: Point) -> Point:
    return (ctx.q * x) % ctx.N


def mult_by_omega(ctx: PlaneContext, x: Point) -> Point:
    if ctx.N % 3 != 0:
        raise NotApplicable(f"q = {ctx.q} is not 1 mod 3; no order-3 Singer element")
    return (x + ctx.N // 3) % ctx.N
