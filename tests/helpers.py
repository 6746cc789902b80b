"""Helpers shared by several test modules; the program itself never needs them."""

from a2tp.coinv import AnalysisReport
from a2tp.gf import _digits, _is_one, _poly_pow_mod, factorize
from a2tp.presentation import AxiomResult, ValidationReport
from a2tp.zlinalg import FpAbelianGroup, IntMatrix


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


def gamma_ab_matrix(T) -> IntMatrix:
    """Relations of the abelianized triangle group Γ_ab: x + y + z = 0 per point multiset.

    Built from the triples alone, over the N point columns, so that Γ_ab
    reduced from it is independent of the program's shared triple lattice.
    """
    return IntMatrix(T.N, triangle_rows(T))


def order_by_quotient(group: FpAbelianGroup, element) -> int:
    """ord(element) as |A| / |A/<element>|: the oracle for `element_order` in finite groups."""
    total = group.order()
    if total is None:
        raise ValueError("the quotient oracle requires a finite group")
    return total // group.quotient_by(group._sparse(element)).order()


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
