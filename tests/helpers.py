"""Helpers shared by several test modules; the program itself never needs them."""

from a2tp.coinv import AnalysisReport
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


def gamma_ab_matrix(T) -> IntMatrix:
    """Relations of the abelianized triangle group Γ_ab: x + y + z = 0 per triple.

    Built from the triples alone, over the N point columns, so that Γ_ab
    reduced from it is independent of the program's shared triple lattice.
    """
    rows = []
    for t in sorted(T.triples):
        counts: dict[int, int] = {}
        for pt in t:
            counts[pt] = counts.get(pt, 0) + 1
        rows.append(tuple(sorted(counts.items())))
    return IntMatrix(T.N, tuple(rows))


def order_by_quotient(group: FpAbelianGroup, element) -> int:
    """ord(element) as |A| / |A/<element>|: the oracle for `element_order` in finite groups."""
    total = group.order()
    if total is None:
        raise ValueError("the quotient oracle requires a finite group")
    return total // group.quotient_by(group._sparse(element)).order()
