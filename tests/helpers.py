"""Helpers shared by several test modules; the program itself never needs them."""

from a2tp.coinv import AnalysisReport


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
