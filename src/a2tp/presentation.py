"""Triangle presentations: generation, twisting, validation, M-subsets, I/O."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Optional

from .gf import BadInput
from .plane import PlaneContext, Point, frobenius_collineation, mult_by_omega

Triple = tuple[Point, Point, Point]

DEFAULT_BACKTRACK_BUDGET = 10**7


class PhiNotOrder3(ValueError):
    """The twisting map is not an order-3 (or identity) collineation."""


class PhiDoesNotFixT(ValueError):
    """The twisting map does not fix the presentation triple-wise."""


class ParseError(BadInput):
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
    # third[k] is the z of the k-th pair (x, y), y on lambda(x); T itself when ok
    third: Optional[list[Optional[Point]]] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        axioms = (self.axiom_i, self.axiom_ii, self.axiom_iii)
        return all(a.ok for a in axioms) and self.size == self.expected_size

    @property
    def witness(self) -> Optional[tuple]:
        """Witness of the first failing axiom; None when no axiom fails."""
        axioms = (self.axiom_i, self.axiom_ii, self.axiom_iii)
        return next((a.witness for a in axioms if not a.ok), None)


def _shifted(points: list[Point], s: int) -> list[Point]:
    """points[(i + s) mod N] for i < N, where 0 <= s < N.

    Given points = list(range(N)), the results share its int objects, so a
    presentation built from them holds one object per point.
    """
    return points[s:] + points[:s]


def _lambda0(plane: PlaneContext) -> tuple[tuple[Point, ...], ...]:
    """lambda0(x) = the sorted points x + d mod N, d in the trace-zero set, for every x."""
    points = list(range(plane.N))
    return tuple(map(tuple, map(sorted, zip(*(_shifted(points, d) for d in plane.tz)))))


def _difference_orbits(plane: PlaneContext, k: int) -> frozenset[Triple]:
    """The triples (i, i + d, i + k*d) mod N for i < N and d in the trace-zero set."""
    N, points = plane.N, list(range(plane.N))
    return frozenset(
        chain.from_iterable(
            zip(points, _shifted(points, d % N), _shifted(points, k * d % N)) for d in plane.tz
        )
    )


def gen_t0(plane: PlaneContext) -> TrianglePresentation:
    """The Tits-type presentation: triples (x, x*xi, x*xi^(q+1}), Tr(xi)=0."""
    N, q = plane.N, plane.q
    triples = _difference_orbits(plane, q + 1)
    return TrianglePresentation(q=q, N=N, lam=_lambda0(plane), triples=triples, origin="t0")


def gen_t0_dual(plane: PlaneContext) -> TrianglePresentation:
    """The inverted variant: triples (x, x*xi, x*xi^(q^2+1)), Tr(xi)=0."""
    N, q = plane.N, plane.q
    triples = _difference_orbits(plane, q * q + 1)
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
    # phi is a bijection, so the image of T is T when it lies in T
    if not is_automorphism(T, perm):
        raise PhiDoesNotFixT("phi does not map the presentation to itself")
    triples = frozenset((x, perm[y], perm2[z]) for (x, y, z) in T.triples)
    lam = tuple(tuple(sorted(map(perm.__getitem__, line))) for line in T.lam)
    return TrianglePresentation(
        q=T.q, N=N, lam=lam, triples=triples, origin=f"twisted:{name}:{T.origin}"
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
    """Check the triangle axioms from one unsorted pass, and fill the third-point table.

    The pass maps each pair (x, y) to the z of its triple, in a dict per x; a
    triple whose z lost to another is set aside.  Slot k of the table holds
    that z for the k-th pair (x, y) with y on lambda(x), in the order of `lam`.
    Each witness is the least failure: the least (x, y) where y is on
    lambda(x) and starts no triple, or starts one and is not on it; the least
    triple whose rotation is not in T; the least (x, y) with two z's.
    A valid T needs no witness search: counts prove axioms (i) and (iii), and
    (ii) is one comparison over the table.
    """
    N = T.N
    z_of: list[dict[Point, Point]] = [{} for _ in range(N)]  # z_of[x][y] = z, freed on return
    for x, y, z in T.triples:
        z_of[x][y] = z
    xs = [x for x, line in enumerate(T.lam) for _ in line]
    ys = [y for line in T.lam for y in line]
    third = list(map(dict.get, map(z_of.__getitem__, xs), ys))
    keys = sum(map(len, z_of))
    size, expected_size = len(T.triples), (T.q + 1) * N
    # keys == size: one z per pair (iii).  With every slot started, each z_of[x] holds
    # lambda(x), and as many keys as points on the lines leave none off its line (i).
    if keys == size == sum(map(len, map(set, T.lam))) and None not in third:
        if list(map(dict.get, map(z_of.__getitem__, ys), third)) == xs:  # z_of[y][z] = x
            ok = AxiomResult(True)
            return ValidationReport(ok, ok, ok, size, expected_size, third)
    two_z = keys < size  # aside and off_line are empty for a valid T
    aside = [t for t in T.triples if z_of[t[0]][t[1]] != t[2]] if two_z else []
    on = list(map(set, T.lam))
    off_line = [(x, y, z) for x, by_y in enumerate(z_of) for y, z in by_y.items() if y not in on[x]]
    aside_set = frozenset(aside)
    unrotated = [
        (x, y, z)
        for x, y, z in chain(aside, off_line, zip(xs, ys, third))
        if z is not None and z_of[y].get(z) != x and (y, z, x) not in aside_set
    ]

    def result(failures: list) -> AxiomResult:
        return AxiomResult(False, min(failures)) if failures else AxiomResult(True)

    unstarted = [(x, y) for x, y, z in zip(xs, ys, third) if z is None]
    return ValidationReport(
        axiom_i=result(unstarted + [t[:2] for t in off_line]),
        axiom_ii=result(unrotated),
        axiom_iii=result([t[:2] for t in aside]),
        size=size,
        expected_size=expected_size,
        third=third,
    )


def is_automorphism(T: TrianglePresentation, g: list[Point]) -> bool:
    """g maps every triple of T into T: O(|T|) lookups, stopping at the first miss."""
    triples = T.triples
    return all((g[x], g[y], g[z]) in triples for x, y, z in triples)


def is_s_invariant(T: TrianglePresentation) -> bool:
    """T is invariant under the Singer cycle x -> x+1 mod N."""
    return is_automorphism(T, _shifted(list(range(T.N)), 1))


@dataclass(frozen=True)
class MSubsetResult:
    subset: Optional[frozenset[Triple]]
    proven_absent: bool = False  # True only when the search space was exhausted

    @property
    def found(self) -> bool:
        return self.subset is not None


def m_subset_occurrences(T: TrianglePresentation, subset: Iterable[Triple]) -> list[int]:
    counts = [0] * T.N
    for pt in chain.from_iterable(subset):
        counts[pt] += 1
    return counts


def _orbit(
    T: TrianglePresentation, triple: Triple, g0: list[Point], g1: list[Point], g2: list[Point]
) -> Optional[MSubsetResult]:
    """The N triples (g0^i x, g1^i y, g2^i z), i < N, as the result when they hold every
    point exactly 3 times; None at the first one not in T, or when they do not."""
    x, y, z = triple
    orbit = []
    for _ in range(T.N):
        if (x, y, z) not in T.triples:
            return None
        orbit.append((x, y, z))
        x, y, z = g0[x], g1[y], g2[z]
    m = frozenset(orbit)
    return MSubsetResult(m) if all(c == 3 for c in m_subset_occurrences(T, m)) else None


def find_m_subset(
    T: TrianglePresentation,
    budget: int = DEFAULT_BACKTRACK_BUDGET,
    third: Optional[list[Point]] = None,
) -> MSubsetResult:
    """Find M subset of T in which every point occurs exactly 3 times.

    Tries orbits of the least triple first, each returned only when `_orbit`
    certifies it: under (x+1, y+c, z+c^2) mod N for c = 1, q, q^2, the
    autotopisms of t0, t0dual and omega (c = 1) and of the frob1 (c = q) and
    frob2 (c = q^2) twists; then, for a valid T, under a point-regular cyclic
    automorphism g (`automorphism.find_cyclic_automorphism`).  Last comes the
    exact-cover search `_backtrack_m_subset`.  The two searches share
    `budget`: the finder counts each propagation as a node, O(Nq) Python
    steps at most, and may spend half of it; the backtracker gets the nodes
    left, so at least the other half.
    `third` is the table `validate(T)` fills; T is validated here when it is
    not given.
    """
    # The least triple of a valid T starts its table.
    least = (0, T.lam[0][0], third[0]) if third is not None else min(T.triples, default=None)
    if least:
        points = list(range(T.N))
        for c in (1, T.q, T.q * T.q):
            shifts = (_shifted(points, k % T.N) for k in (1, c, c * c))
            if found := _orbit(T, least, *shifts):
                return found
    if third is None:
        report = validate(T)
        third = report.third if report.ok else None
    nodes = 0
    if third is not None:
        # Imported on first use: no generated input needs it, and it imports this module.
        from .automorphism import find_cyclic_automorphism

        g, nodes = find_cyclic_automorphism(T, third, budget // 2)
        if g is not None and (found := _orbit(T, least, g, g, g)):
            return found
    return _backtrack_m_subset(T, budget - nodes)


def _backtrack_m_subset(T: TrianglePresentation, budget: int) -> MSubsetResult:
    """Bounded exact-cover search for an M subset, undoing each move from a log.

    Each node branches, in sorted order, on the usable triples through the
    lowest-index unfinished point with the fewest of them.  usable[i] is set
    while triple i is unchosen and fits need[p] at its points p; free[p]
    counts the usable triples through p, plus `done` once p is finished;
    over[p][k] lists the triples holding p more than k times.  A move clears
    what no longer fits and logs it for its undo: O(q) steps, and a pick is
    one `min` and `index` over free, whatever the size of T.  Every node
    entered, the root included, counts against `budget`; the subset is proven
    absent only when the tree is exhausted.
    """
    triples = sorted(T.triples)
    over: list[tuple[list[int], ...]] = [([], [], []) for _ in range(T.N)]
    for idx, (x, y, z) in enumerate(triples):  # slot k: the point's (k+1)-th copy
        over[x][0].append(idx)
        over[y][x == y].append(idx)
        over[z][(x == z) + (y == z)].append(idx)
    points = [t if len(set(t)) == 3 else tuple(set(t)) for t in triples]  # distinct points
    need = [3] * T.N
    usable = bytearray([1]) * len(triples)
    free = [len(by_k[0]) for by_k in over]
    done = len(triples) + 1  # above any count: marks a finished point

    stack: list[list] = []  # [options, next position, what the choice cleared] per node
    for _ in range(budget):
        least = min(free)
        if least == done:  # every point satisfied
            return MSubsetResult(frozenset(triples[opts[pos - 1]] for opts, pos, _ in stack))
        if least:
            stack.append([[t for t in over[free.index(least)][0] if usable[t]], 0, ()])
        while stack:  # advance the deepest node with an untried option
            top = stack[-1]
            opts, pos, cleared = top
            for t in cleared:
                usable[t] = 1
                for pt in points[t]:
                    free[pt] += 1
            if cleared:
                for pt in triples[opts[pos - 1]]:
                    if not need[pt]:
                        free[pt] -= done
                    need[pt] += 1
            if pos < len(opts):
                idx = opts[pos]
                top[1], top[2] = pos + 1, [idx]
                usable[idx] = 0
                for pt in triples[idx]:
                    need[pt] -= 1
                    for t in over[pt][need[pt]]:
                        if usable[t]:
                            usable[t] = 0
                            top[2].append(t)
                    if not need[pt]:
                        free[pt] += done
                for t in top[2]:
                    for pt in points[t]:
                        free[pt] -= 1
                break
            stack.pop()
        else:
            return MSubsetResult(None, proven_absent=True)
    return MSubsetResult(None)


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
        numbered = enumerate(fh.read().split("\n"), start=1)
    for no, line in numbered:  # up to the header; the body loop goes on from there
        header = line.split("#", 1)[0].strip()
        if header:
            break
    else:
        raise ParseError("empty file", 1)
    parts = header.split()
    if len(parts) != 3 or parts[0] != "a2tp" or parts[1][:2] != "q=" or parts[2][:2] != "n=":
        raise ParseError(f"bad header {header!r}", no)
    try:
        q, N = int(parts[1][2:]), int(parts[2][2:])
    except ValueError:
        raise ParseError(f"bad header {header!r}", no) from None
    if q < 2:
        raise InconsistentHeader(f"q={q} is below 2", no)
    if N != q * q + q + 1:
        raise InconsistentHeader(f"n={N} does not equal q^2+q+1={q * q + q + 1}", no)

    lam: list[tuple[Point, ...]] = []
    triples: set[Triple] = set()
    last_no = no
    for no, line in numbered:
        toks = line.split("#", 1)[0].split() if "#" in line else line.split()
        if not toks:
            continue
        last_no = no
        if toks[0] == "t":  # about nine lines in ten
            if len(toks) != 4:
                raise ParseError("triple line must have 3 points", no)
            try:
                x, y, z = int(toks[1]), int(toks[2]), int(toks[3])
            except ValueError:
                raise ParseError("non-integer point", no) from None
            if not (0 <= x < N and 0 <= y < N and 0 <= z < N):
                raise ParseError("point out of range", no)
            triples.add((x, y, z))
        elif toks[0] == "lambda":
            if len(lam) >= N:
                raise InconsistentHeader(f"more than {N} lambda lines", no)
            if len(toks) < 2 or not toks[1].endswith(":"):
                raise ParseError("expected 'lambda <x>:'", no)
            try:
                x = int(toks[1][:-1])
                pts = sorted(map(int, toks[2:]))
            except ValueError:
                raise ParseError("non-integer point", no) from None
            if x != len(lam):
                raise ParseError(f"lambda lines must be ascending; expected x={len(lam)}", no)
            if len(pts) != q + 1:
                raise InconsistentHeader(f"lambda line has {len(pts)} points, expected {q + 1}", no)
            if pts[0] < 0 or pts[-1] >= N:
                raise ParseError("point out of range", no)
            if len(set(pts)) != len(pts):
                raise ParseError("lambda line repeats a point", no)
            lam.append(tuple(pts))
        else:
            raise ParseError(f"unrecognized line {line.split('#', 1)[0].strip()!r}", no)
    if len(lam) != N:
        raise InconsistentHeader(f"expected {N} lambda lines, found {len(lam)}", last_no)
    return TrianglePresentation(
        q=q, N=N, lam=tuple(lam), triples=frozenset(triples), origin=f"file:{path}"
    )
