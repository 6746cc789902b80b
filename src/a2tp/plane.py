"""Singer model of the Desarguesian projective plane PG(2,q).

Points are residues mod N = q^2+q+1 (Singer logarithms of the cosets
F_q^x * zeta^k), and lines are the translates of the trace-zero difference
set that `gf.trace_zero_logs` finds.  Construction verifies the
difference-set property eagerly; `lines_form_plane` checks the axioms of a
line table read from a file.

The maps x -> q^i * x + c mod N are collineations: multiplication by q is the
Frobenius, which fixes the trace-zero set, and a translation moves each line to
a line.  `presentation.VARIANTS` twists by those of order 3 (q*x, q^2*x, and
x + N/3 when 3 | N).
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import BadInput, PrimePower, prime_power, trace_zero_logs

Point = int


class PlaneAxiomViolation(RuntimeError):
    """A projective-plane axiom failed during construction (internal bug)."""


class NotAPlane(BadInput):
    """A line table read from a file fails the projective-plane axioms."""


@dataclass(frozen=True)
class PlaneContext:
    pp: PrimePower
    N: int
    tz: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.pp.q


def _verify_difference_set(tz, N, q):
    counts = [0] * N
    for d in tz:
        for e in tz:
            if d != e:
                counts[(d - e) % N] += 1
    if counts[0] != 0 or any(c != 1 for c in counts[1:]):
        raise PlaneAxiomViolation("trace-zero set is not a perfect difference set")


def lines_form_plane(lines, q: int) -> bool:
    """Projective-plane axioms for a table of lines, each a sequence of points 0..N-1.

    There must be N = q^2+q+1 distinct lines of q+1 points each, and every
    pair of points must lie on exactly one line.  N lines of q+1 points hold
    N(q+1)q/2 = N(N-1)/2 pairs, one per pair of points, so it is enough that
    every pair lies on some line, i.e. that the lines through each point
    cover all N points: then no pair lies on two lines, and no two lines are
    equal.  A line is a bit mask, and each point ORs the masks of its lines.
    """
    N = q * q + q + 1
    if len(lines) != N:
        return False
    cover = [0] * N  # bit y of cover[x]: some line holds x and y
    for line in lines:
        if len(line) <= q or min(line) < 0:
            return False
        mask = sum(map((1).__lshift__, set(line)))
        if mask.bit_count() != q + 1 or mask >> N:
            return False
        for p in line:
            cover[p] |= mask
    return cover.count((1 << N) - 1) == N


def build_plane(q: int) -> PlaneContext:
    pp = prime_power(q)
    N = q * q + q + 1
    tz = trace_zero_logs(pp)
    if len(tz) != q + 1:
        raise PlaneAxiomViolation(f"expected {q + 1} trace-zero cosets, got {len(tz)}")
    # The translates of a perfect difference set of size q+1 mod q^2+q+1 are
    # the lines of a projective plane of order q (Singer 1938), which has a
    # quadrilateral for q >= 2, so no further axiom check is needed.
    _verify_difference_set(tz, N, q)
    return PlaneContext(pp=pp, N=N, tz=tz)
