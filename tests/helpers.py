"""Helpers shared by several test modules; the program itself never needs them."""

from collections import Counter
from operator import mul

from a2tp.coinv import AnalysisReport, _point_rows, _valid_third
from a2tp.gf import _digits, _is_one, _poly_pow_mod, factorize
from a2tp.presentation import (
    AxiomResult,
    InconsistentHeader,
    ParseError,
    TrianglePresentation,
    ValidationReport,
    find_m_subset,
    is_s_invariant,
    m_subset_occurrences,
)
from a2tp.zlinalg import FpAbelianGroup, HnfBasis, IntMatrix, PointRows


def report_from_dict(d: dict) -> AnalysisReport:
    """Inverse of `AnalysisReport.to_dict`."""
    eps = d["epsilon_order"]
    return AnalysisReport(
        q=d["q"],
        N=d["n"],
        origin=d["origin"],
        invariant_factors=tuple(int(x) for x in d["invariant_factors"]),
        free_rank=d["free_rank"],
        quotient_invariant_factors=tuple(int(x) for x in d["quotient_invariant_factors"]),
        epsilon_order=None if eps == "infinite" else int(eps),
        checks=dict(d["checks"]),
        m_subset_size=d["m_subset_size"],
        conjecture_holds=d["conjecture_holds"],
        flags=tuple(d["flags"]),
    )


def triangle_rows(T, tail=()) -> tuple:
    """x + y + z, followed by `tail`, once per point multiset of the triples.

    In the order the sorted triples first give each multiset, as the program
    orders its triangle rows; built here from the triples alone.
    """
    rows = {}
    for t in sorted(T.triples):
        counts: dict[int, int] = {}
        for pt in t:
            counts[pt] = counts.get(pt, 0) + 1
        rows[tuple(sorted(counts.items())) + tail] = None
    return tuple(rows)


def acb_matrix(T) -> IntMatrix:
    """The acb relation rows of A_T, the oracle lattice for the program's bcd rows.

    For each x, +1 at each point off lambda(x) and -1 at x; then the rows
    both schemes share: the triangle rows, and the all-points row = eps.
    """
    N = T.N
    x_rows = tuple(
        tuple((y, v) for y in range(N) if (v := (y not in on_line) - (y == x)))
        for x, on_line in enumerate(map(frozenset, T.lam))
    )
    all_points = tuple((y, 1) for y in range(N)) + ((N, -1),)
    return IntMatrix(N + 1, x_rows + triangle_rows(T, ((N, -1),)) + (all_points,))


def bcd_point_rows(T) -> PointRows:
    """The point rows `analyze` reduces for a valid T: the triangle rows, the all-points
    row, then the x-rows, over the N points and eps."""
    return PointRows(T.N + 1, _point_rows(T, _valid_third(T)))


def triangle_lattice(T) -> FpAbelianGroup:
    """The triple lattice as `analyze` builds it, from the triangle point rows."""
    rows = bcd_point_rows(T).rows
    return FpAbelianGroup(T.N + 1, PointRows(T.N + 1, rows[: len(rows) - T.N - 1]))


def point_matrix(rows: PointRows) -> IntMatrix:
    """The (column, coefficient) rows of point rows: each point's count, then -1 at eps.

    The points keep the order in which each first occurs in its row."""
    eps = ((rows.n_cols - 1, -1),)
    return IntMatrix(rows.n_cols, tuple(tuple(Counter(row).items()) + eps for row in rows.rows))


def gamma_ab_matrix(T) -> IntMatrix:
    """Relations of the abelianized triangle group Γ_ab: x + y + z = 0 per point multiset.

    Built from the triples alone, over the N point columns, so that Γ_ab
    reduced from it is independent of the program's shared triple lattice.
    """
    return IntMatrix(T.N, triangle_rows(T))


def dense_matrix(n_cols: int, rows) -> IntMatrix:
    """The IntMatrix of dense integer rows of width `n_cols`, checked like any caller's."""
    return IntMatrix(n_cols, tuple(tuple((c, v) for c, v in enumerate(row) if v) for row in rows))


def dense_group(n_gens: int, rows) -> FpAbelianGroup:
    """Z^n_gens modulo the lattice of dense integer rows."""
    return FpAbelianGroup(n_gens, dense_matrix(n_gens, rows))


def order_by_quotient(group: FpAbelianGroup, element) -> int:
    """ord(element) as |A| / |A/<element>|: the oracle for `order_of` in finite groups.

    The quotient's order comes from its Smith diagonal, not from the Smith
    coordinates of `element` that `order_of` reads.
    """
    total = group.snf.group_order
    if total is None:
        raise ValueError("the quotient oracle requires a finite group")
    return total // group.quotient_by(dense_matrix(group.n_gens, [element])).snf.group_order


def hnf_contains(basis: HnfBasis, row) -> bool:
    """Whether `row` is in the lattice of `basis`, by a walk down its pivots: the
    full-width membership oracle, independent of peeling and Smith coordinates.
    """
    work = list(row)
    for j in range(basis.n_cols):
        v = work[j]
        if v == 0:
            continue
        piv = basis._pivots.get(j)
        if piv is None:
            return False
        qq, r = divmod(v, piv[j])
        if r:
            return False
        work[j:] = [x - qq * y for x, y in zip(work[j:], piv[j:])]
    return True


def reference_smith_check(group: FpAbelianGroup, smith, bound, combine):
    """Membership in a settled core lattice one Smith coordinate at a time: the oracle for
    `FpAbelianGroup._smith_check`, with its signature; `bound` is not needed here.

    Each generator's core image times V is kept on the coordinates with d_i != 1,
    reduced mod d_i, and a row is in the lattice iff `combine` of those values, one
    coordinate at a time, is 0 mod d_i on each torsion coordinate and 0 on each free one.
    """
    diag, transform = smith
    padded = diag + [0] * (len(transform) - len(diag))  # a free coordinate must be 0
    keep = [i for i, d in enumerate(padded) if d != 1]
    mods = [padded[i] for i in keep]
    columns = [[v[k] for v in transform] for k in keep]
    coordinates = [
        [x % d if d else x for x in (sum(map(mul, image, col)) for image in group._image)]
        for col, d in zip(columns, mods)
    ]

    def check(row) -> bool:
        values = (combine(coordinate, row) for coordinate in coordinates)
        return not any(x % d if d else x for x, d in zip(values, mods))

    return check


def reference_lines_form_plane(lines, q: int) -> bool:
    """The projective-plane axioms by counting every pair of points on every line: the
    oracle for `plane.lines_form_plane` on lines over the points 0..N-1.
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


def reference_validate(T) -> ValidationReport:
    """The triangle axioms checked over the sorted triples: the oracle for `validate`.

    Axiom (iii): the first (x, y) in sorted order with a second z.  Axiom
    (i): the first x whose started points differ from lambda(x), read as a
    set, with the least point of the difference.  Axiom (ii): the first
    sorted triple whose rotation is missing.
    """
    N = T.N
    by_pair = {}
    ordered = sorted(T.triples)
    ax3 = AxiomResult(True)
    for (x, y, z) in ordered:
        prev = by_pair.get((x, y))
        if prev is not None and prev != z:
            if ax3.ok:
                ax3 = AxiomResult(False, (x, y))
        else:
            by_pair[(x, y)] = z

    started_by_x = [set() for _ in range(N)]
    for (x, y) in by_pair:
        started_by_x[x].add(y)
    ax1 = AxiomResult(True)
    for x in range(N):
        incident_set = frozenset(T.lam[x])
        started = started_by_x[x]
        if started != incident_set:
            bad = min(started.symmetric_difference(incident_set))
            ax1 = AxiomResult(False, (x, bad))
            break

    ax2 = AxiomResult(True)
    for (x, y, z) in ordered:
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


def reference_primitive_modulus(pp) -> list[int]:
    """The lexicographically first primitive modulus, with neither the root test nor the
    t^(q^3) = t form: the oracle for `gf._primitive_modulus`.

    Every candidate t^d + (lower part) with a nonzero constant term, in
    ascending order of the lower part read as a base-p number, until the
    class of t has multiplicative order exactly q^3 - 1.
    """
    p, d = pp.p, 3 * pp.r
    m = pp.q**3 - 1
    t = [0, 1] + [0] * (d - 2)
    for n in range(1, p**d):
        candidate = _digits(n, p, d) + [1]
        if candidate[0] and _is_one(_poly_pow_mod(t, m, candidate, p)):
            if not any(_is_one(_poly_pow_mod(t, m // ell, candidate, p)) for ell in factorize(m)):
                return candidate
    raise AssertionError(f"no primitive modulus for p={p}, degree {d}")


def reference_read_presentation(path) -> TrianglePresentation:
    """The file reader line by line, every check in its own statement: the oracle for
    `read_presentation`, which must give an equal presentation or the same error.
    """
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

    lam = []
    triples = set()
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


def relabelled(T, rng) -> TrianglePresentation:
    """T under a random permutation of the points, redrawn until not S-invariant.

    The seeded relabelling of the benchmark's file inputs, built here from the
    program's public functions: the image of T's Singer-orbit M-subset is
    checked to be an M-subset of the result.
    """
    N = T.N
    m = find_m_subset(T).subset
    while True:
        perm = list(range(N))
        rng.shuffle(perm)
        lam = [()] * N
        for x in range(N):
            lam[perm[x]] = tuple(sorted(perm[y] for y in T.lam[x]))
        triples = frozenset((perm[x], perm[y], perm[z]) for (x, y, z) in T.triples)
        U = TrianglePresentation(
            q=T.q, N=N, lam=tuple(lam), triples=triples, origin=f"relabelled:{T.origin}"
        )
        if not is_s_invariant(U):
            image = frozenset((perm[x], perm[y], perm[z]) for (x, y, z) in m)
            if not (image <= U.triples and all(c == 3 for c in m_subset_occurrences(U, image))):
                raise AssertionError(f"relabelled {T.origin} q={T.q} lost its M-subset")
            return U
