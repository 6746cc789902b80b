"""Triangle presentations: generation, twisting, validation, M-subsets, I/O."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from .plane import PlaneContext, Point, frobenius_collineation, mult_by_omega
from .zlinalg import SparseRow

Triple = tuple[Point, Point, Point]

DEFAULT_BACKTRACK_BUDGET = 10**7


def _point_row(points: Iterable[Point], tail: SparseRow = ()) -> SparseRow:
    """The relation row of a multiset of points, followed by `tail`."""
    counts: dict[int, int] = {}
    for pt in points:
        counts[pt] = counts.get(pt, 0) + 1
    return tuple(sorted(counts.items())) + tail


class PhiNotOrder3(ValueError):
    """The twisting map is not an order-3 (or identity) collineation."""


class PhiDoesNotFixT(ValueError):
    """The twisting map does not fix the presentation triple-wise."""


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InconsistentHeader(ParseError):
    pass


@dataclass(frozen=True)
class TrianglePresentation:
    q: int
    N: int
    lam: tuple[tuple[Point, ...], ...]  # lam[x] = sorted points of lambda(x)
    triples: frozenset[Triple]
    origin: str
    base: Optional["TrianglePresentation"] = None  # pre-twist presentation
    phi_name: Optional[str] = None
    phi_perm: Optional[tuple[Point, ...]] = None  # the twisting collineation

    @property
    def lam_sets(self) -> tuple[frozenset[Point], ...]:
        return self._lam_sets  # type: ignore[attr-defined]

    def __post_init__(self):
        object.__setattr__(self, "_lam_sets", tuple(frozenset(l) for l in self.lam))

    @cached_property
    def triple_rows(self) -> tuple[SparseRow, ...]:
        """Each triple, in sorted order, as the relation row x + y + z - eps.

        Points are columns 0..N-1 and eps is column N.  Built once per
        presentation, for every relation lattice and check that reads it.
        """
        minus_eps = ((self.N, -1),)
        return tuple(_point_row(t, minus_eps) for t in sorted(self.triples))


@dataclass(frozen=True)
class AxiomResult:
    ok: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class ValidationReport:
    axiom_i: AxiomResult
    axiom_ii: AxiomResult
    axiom_iii: AxiomResult
    size: int
    expected_size: int

    @property
    def ok(self) -> bool:
        return (
            self.axiom_i.ok
            and self.axiom_ii.ok
            and self.axiom_iii.ok
            and self.size == self.expected_size
        )

    @property
    def witness(self) -> Optional[tuple]:
        """Witness of the first failing axiom; None when no axiom fails."""
        axioms = (self.axiom_i, self.axiom_ii, self.axiom_iii)
        return next((a.witness for a in axioms if not a.ok), None)


def _lambda0(plane: PlaneContext) -> tuple[tuple[Point, ...], ...]:
    return tuple(tuple(plane.line(x)) for x in range(plane.N))


def gen_t0(plane: PlaneContext) -> TrianglePresentation:
    """The Tits-type presentation: triples (x, x*xi, x*xi^(q+1}), Tr(xi)=0."""
    N, q = plane.N, plane.q
    triples = frozenset(
        (i, (i + d) % N, (i + (q + 1) * d) % N) for i in range(N) for d in plane.tz
    )
    return TrianglePresentation(q=q, N=N, lam=_lambda0(plane), triples=triples, origin="t0")


def gen_t0_dual(plane: PlaneContext) -> TrianglePresentation:
    """The inverted variant: triples (x, x*xi, x*xi^(q^2+1)), Tr(xi)=0."""
    N, q = plane.N, plane.q
    triples = frozenset(
        (i, (i + d) % N, (i + (q * q + 1) * d) % N) for i in range(N) for d in plane.tz
    )
    return TrianglePresentation(q=q, N=N, lam=_lambda0(plane), triples=triples, origin="t0dual")


def twist(
    T: TrianglePresentation, phi: Callable[[Point], Point], name: str = "phi"
) -> TrianglePresentation:
    """Twisted presentation {(x, phi(y), phi^2(z))}, compatible with phi o lambda.

    phi must be an order-3 collineation (the identity is accepted as a
    degenerate case) that fixes T triple-wise.
    """
    N = T.N
    perm = [phi(x) for x in range(N)]
    if sorted(perm) != list(range(N)):
        raise PhiNotOrder3("phi is not a permutation of the points")
    perm2 = [perm[perm[x]] for x in range(N)]
    if any(perm[perm2[x]] != x for x in range(N)):
        raise PhiNotOrder3("phi does not have order dividing 3")
    mapped = frozenset((perm[x], perm[y], perm[z]) for (x, y, z) in T.triples)
    if mapped != T.triples:
        raise PhiDoesNotFixT("phi does not map the presentation to itself")
    triples = frozenset((x, perm[y], perm2[z]) for (x, y, z) in T.triples)
    lam = tuple(tuple(sorted(perm[y] for y in line)) for line in T.lam)
    return TrianglePresentation(
        q=T.q,
        N=N,
        lam=lam,
        triples=triples,
        origin=f"twisted:{name}:{T.origin}",
        base=T,
        phi_name=name,
        phi_perm=tuple(perm),
    )


def twist_by_name(plane: PlaneContext, T: TrianglePresentation, name: str) -> TrianglePresentation:
    """Twist by one of the supported collineation families."""
    if name == "frob1":
        return twist(T, lambda x: frobenius_collineation(plane, x), name)
    if name == "frob2":
        return twist(
            T, lambda x: frobenius_collineation(plane, frobenius_collineation(plane, x)), name
        )
    if name == "omega":
        return twist(T, lambda x: mult_by_omega(plane, x), name)
    raise ValueError(f"unknown twist {name!r} (expected frob1, frob2 or omega)")


def validate(T: TrianglePresentation) -> ValidationReport:
    N = T.N
    by_pair: dict[tuple[Point, Point], Point] = {}
    ax3 = AxiomResult(True)
    for (x, y, z) in sorted(T.triples):
        prev = by_pair.get((x, y))
        if prev is not None and prev != z:
            if ax3.ok:
                ax3 = AxiomResult(False, (x, y))
        else:
            by_pair[(x, y)] = z

    started_by_x: list[set[Point]] = [set() for _ in range(N)]
    for (x, y) in by_pair:
        started_by_x[x].add(y)
    ax1 = AxiomResult(True)
    for x in range(N):
        incident_set = T.lam_sets[x]
        started = started_by_x[x]
        if started != incident_set:
            bad = min(started.symmetric_difference(incident_set))
            ax1 = AxiomResult(False, (x, bad))
            break

    ax2 = AxiomResult(True)
    for (x, y, z) in sorted(T.triples):
        if (y, z, x) not in T.triples:
            ax2 = AxiomResult(False, (x, y, z))
            break

    return ValidationReport(
        axiom_i=ax1,
        axiom_ii=ax2,
        axiom_iii=ax3,
        size=len(T.triples),
        expected_size=(T.q + 1) * N,
    )


def is_s_invariant(T: TrianglePresentation) -> bool:
    N = T.N
    return all(((x + 1) % N, (y + 1) % N, (z + 1) % N) in T.triples for (x, y, z) in T.triples)


@dataclass(frozen=True)
class MSubsetResult:
    subset: Optional[frozenset[Triple]]
    proven_absent: bool = False  # True only when the search space was exhausted

    @property
    def found(self) -> bool:
        return self.subset is not None


def _singer_orbit(T: TrianglePresentation) -> frozenset[Triple]:
    N = T.N
    x, y, z = min(T.triples)
    return frozenset(((x + k) % N, (y + k) % N, (z + k) % N) for k in range(N))


def m_subset_occurrences(T: TrianglePresentation, subset: Iterable[Triple]) -> list[int]:
    counts = [0] * T.N
    for (x, y, z) in subset:
        counts[x] += 1
        counts[y] += 1
        counts[z] += 1
    return counts


def find_m_subset(
    T: TrianglePresentation, budget: int = DEFAULT_BACKTRACK_BUDGET
) -> MSubsetResult:
    """Find M subset of T in which every point occurs exactly 3 times.

    Uses the Singer orbit for S-invariant presentations, the twisted image of
    the base orbit for twists of S-invariant presentations, and a bounded
    exact-cover backtracking search otherwise.
    """
    if is_s_invariant(T):
        m = _singer_orbit(T)
        if all(c == 3 for c in m_subset_occurrences(T, m)):
            return MSubsetResult(m)
    if T.base is not None and T.phi_perm is not None and is_s_invariant(T.base):
        m0 = _singer_orbit(T.base)
        perm = T.phi_perm
        perm2 = [perm[perm[x]] for x in range(T.N)]
        m = frozenset((x, perm[y], perm2[z]) for (x, y, z) in m0)
        if m <= T.triples and all(c == 3 for c in m_subset_occurrences(T, m)):
            return MSubsetResult(m)
    return _backtrack_m_subset(T, budget)


def _backtrack_m_subset(T: TrianglePresentation, budget: int) -> MSubsetResult:
    """Bounded exact-cover search for an M subset.

    Each node branches, in sorted order, on the usable triples through the
    lowest-index unfinished point with the fewest of them.  blocked[t] counts
    why triple t is not usable (it is chosen, or one of its points needs less
    than t's multiplicity there) and free[p] the usable triples through p; a
    move updates them only for the triples through the moved triple's points.
    The path is an explicit stack, so its depth is not bounded by the
    recursion limit.  Every node entered, the root included, counts against
    `budget`; the subset is proven absent only when the tree is exhausted.
    """
    N = T.N
    triples = sorted(T.triples)
    spread = [{pt: t.count(pt) for pt in t} for t in triples]  # point -> multiplicity
    through: list[list[tuple[int, int]]] = [[] for _ in range(N)]
    for idx, mult in enumerate(spread):
        for pt, m in mult.items():
            through[pt].append((idx, m))
    need = [3] * N
    blocked = [0] * len(triples)
    free = [len(ts) for ts in through]

    def block(idx: int, d: int) -> None:
        before = blocked[idx]
        blocked[idx] = before + d
        if not before or not blocked[idx]:  # usable before or after, not both
            for pt in spread[idx]:
                free[pt] -= d

    def toggle(idx: int, d: int) -> None:  # d = 1 chooses triple idx, -1 un-chooses it
        block(idx, d)
        for pt, m in spread[idx].items():
            old = need[pt]
            need[pt] = new = old - d * m
            lo, hi = min(old, new), max(old, new)
            for t, mt in through[pt]:
                if lo < mt <= hi:
                    block(t, d)

    stack: list[list] = []  # [options, next position] per node on the path
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return MSubsetResult(None)
        pick = min(((free[pt], pt) for pt in range(N) if need[pt]), default=None)
        if pick is None:  # every point satisfied
            return MSubsetResult(frozenset(triples[opts[pos - 1]] for opts, pos in stack))
        if pick[0]:
            stack.append([[t for t, _ in through[pick[1]] if not blocked[t]], 0])
        while stack:  # advance the deepest node with an untried option
            top = stack[-1]
            opts, pos = top
            if pos:
                toggle(opts[pos - 1], -1)
            if pos < len(opts):
                top[1] = pos + 1
                toggle(opts[pos], 1)
                break
            stack.pop()
        else:
            return MSubsetResult(None, proven_absent=True)


# --- file format -----------------------------------------------------------
#
#   line 1:    a2tp q=<q> n=<N>
#   N lines:   lambda <x>: <y1> ... <y(q+1)>     (ascending x)
#   rest:      t <x> <y> <z>
#   '#' starts a comment; blank lines ignored.


def write_presentation(T: TrianglePresentation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"a2tp q={T.q} n={T.N}\n")
        for x in range(T.N):
            fh.write(f"lambda {x}: " + " ".join(str(y) for y in T.lam[x]) + "\n")
        for (x, y, z) in sorted(T.triples):
            fh.write(f"t {x} {y} {z}\n")


def read_presentation(path) -> TrianglePresentation:
    with open(path, encoding="utf-8") as fh:
        raw = fh.readlines()
    lines: list[tuple[int, str]] = []
    for no, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            lines.append((no, body))
    if not lines:
        raise ParseError("empty file", 1)

    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "a2tp":
        raise ParseError(f"bad header {header!r}", no)
    try:
        q = int(parts[1].removeprefix("q="))
        N = int(parts[2].removeprefix("n="))
    except ValueError:
        raise ParseError(f"bad header {header!r}", no) from None
    if parts[1][:2] != "q=" or parts[2][:2] != "n=":
        raise ParseError(f"bad header {header!r}", no)
    if N != q * q + q + 1:
        raise InconsistentHeader(f"n={N} does not equal q^2+q+1={q * q + q + 1}", no)

    lam: list[tuple[Point, ...]] = []
    triples: set[Triple] = set()
    for no, body in lines[1:]:
        toks = body.split()
        if toks[0] == "lambda":
            if len(lam) >= N:
                raise InconsistentHeader(f"more than {N} lambda lines", no)
            if len(toks) < 2 or not toks[1].endswith(":"):
                raise ParseError("expected 'lambda <x>:'", no)
            try:
                x = int(toks[1][:-1])
                pts = [int(t) for t in toks[2:]]
            except ValueError:
                raise ParseError("non-integer point", no) from None
            if x != len(lam):
                raise ParseError(f"lambda lines must be ascending; expected x={len(lam)}", no)
            if len(pts) != q + 1:
                raise InconsistentHeader(f"lambda line has {len(pts)} points, expected {q + 1}", no)
            if any(not 0 <= p < N for p in pts):
                raise ParseError("point out of range", no)
            if len(set(pts)) != len(pts):
                raise ParseError("lambda line repeats a point", no)
            lam.append(tuple(sorted(pts)))
        elif toks[0] == "t":
            if len(toks) != 4:
                raise ParseError("triple line must have 3 points", no)
            try:
                x, y, z = (int(t) for t in toks[1:])
            except ValueError:
                raise ParseError("non-integer point", no) from None
            if any(not 0 <= p < N for p in (x, y, z)):
                raise ParseError("point out of range", no)
            triples.add((x, y, z))
        else:
            raise ParseError(f"unrecognized line {body!r}", no)
    if len(lam) != N:
        raise InconsistentHeader(f"expected {N} lambda lines, found {len(lam)}", lines[-1][0])
    return TrianglePresentation(
        q=q, N=N, lam=tuple(lam), triples=frozenset(triples), origin=f"file:{path}"
    )
