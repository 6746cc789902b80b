"""Singer model of the Desarguesian projective plane PG(2,q).

Points are residues mod N = q^2+q+1 (Singer logarithms of the cosets
F_q^x * zeta^k), and lines are the translates of the trace-zero difference
set.  Construction verifies the plane axioms eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import FieldContext, PrimePower, build_field, prime_power

Point = int


class PlaneAxiomViolation(RuntimeError):
    """A projective-plane axiom failed during construction (internal bug)."""


class NotApplicable(ValueError):
    """The requested collineation does not exist for this q."""


@dataclass(frozen=True)
class PlaneContext:
    pp: PrimePower
    N: int
    field: FieldContext
    tz: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.pp.q

    @property
    def tz_set(self) -> frozenset[int]:
        return self._tz_set  # type: ignore[attr-defined]

    def __post_init__(self):
        object.__setattr__(self, "_tz_set", frozenset(self.tz))

    def line(self, x: Point) -> list[Point]:
        """The line lambda_0(x), as a sorted list of point logs."""
        return sorted((x + d) % self.N for d in self.tz)


def _verify_difference_set(tz, N, q):
    counts = [0] * N
    for d in tz:
        for e in tz:
            if d != e:
                counts[(d - e) % N] += 1
    if counts[0] != 0 or any(c != 1 for c in counts[1:]):
        raise PlaneAxiomViolation("trace-zero set is not a perfect difference set")


def _line_through(ctx: PlaneContext, a: Point, b: Point) -> Point:
    """The unique x with a, b both on lambda_0(x)."""
    N = ctx.N
    tz_set = ctx.tz_set
    for d in ctx.tz:
        x = (a - d) % N
        if (b - x) % N in tz_set:
            return x
    raise PlaneAxiomViolation(f"no line through {a}, {b}")


def _verify_quadrilateral(ctx: PlaneContext):
    """Find 4 points with no 3 collinear; existence is a plane axiom."""
    N = ctx.N
    tz_set = ctx.tz_set

    def collinear(a, b, c):
        x = _line_through(ctx, a, b)
        return (c - x) % N in tz_set

    l0 = ctx.line(0)
    p1, p2 = l0[0], l0[1]
    p3 = next(y for y in range(N) if (y - _line_through(ctx, p1, p2)) % N not in tz_set)
    lines = [_line_through(ctx, a, b) for a, b in ((p1, p2), (p1, p3), (p2, p3))]
    for p4 in range(N):
        if all((p4 - x) % N not in tz_set for x in lines):
            if not (collinear(p1, p2, p4) or collinear(p1, p3, p4) or collinear(p2, p3, p4)):
                return
    raise PlaneAxiomViolation("no quadrilateral found")


def build_plane(pp: PrimePower | int) -> PlaneContext:
    if isinstance(pp, int):
        pp = prime_power(pp)
    field = build_field(pp)
    q = pp.q
    N = q * q + q + 1
    # Points are cosets F_q^x zeta^k for k in [0, N); the representative zeta^k
    # determines trace-zero status since Tr is F_q-linear.
    tz = tuple(sorted(d for d in range(N) if field.trace(field.exp[d]) == 0))
    if len(tz) != q + 1:
        raise PlaneAxiomViolation(f"expected {q + 1} trace-zero cosets, got {len(tz)}")
    _verify_difference_set(tz, N, q)
    ctx = PlaneContext(pp=pp, N=N, field=field, tz=tz)
    # Column-sum property: every point misses exactly q^2 of the N lines.
    # By translation-invariance it suffices to count for the point 0.
    missed = sum(1 for x in range(N) if (0 - x) % N not in ctx.tz_set)
    if missed != q * q:
        raise PlaneAxiomViolation(f"point 0 misses {missed} lines, expected {q * q}")
    _verify_quadrilateral(ctx)
    return ctx


def frobenius_collineation(ctx: PlaneContext, x: Point) -> Point:
    return (ctx.q * x) % ctx.N


def mult_by_omega(ctx: PlaneContext, x: Point) -> Point:
    if ctx.N % 3 != 0:
        raise NotApplicable(f"q = {ctx.q} is not 1 mod 3; no order-3 Singer element")
    return (x + ctx.N // 3) % ctx.N
