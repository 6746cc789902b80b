"""Triangle presentations over PG(2,q) and the abelian invariant A_T."""

from .coinv import AnalysisReport, analyze, expected_epsilon_order
from .gf import PrimePower, prime_power
from .plane import PlaneContext, build_plane
from .presentation import (
    TrianglePresentation,
    find_m_subset,
    gen_t0,
    gen_t0_dual,
    gen_variant,
    is_s_invariant,
    read_presentation,
    twist,
    validate,
    write_presentation,
)
from .zlinalg import FpAbelianGroup, SnfResult

__all__ = [
    "AnalysisReport",
    "FpAbelianGroup",
    "PlaneContext",
    "PrimePower",
    "SnfResult",
    "TrianglePresentation",
    "analyze",
    "build_plane",
    "expected_epsilon_order",
    "find_m_subset",
    "gen_t0",
    "gen_t0_dual",
    "gen_variant",
    "is_s_invariant",
    "prime_power",
    "read_presentation",
    "twist",
    "validate",
    "write_presentation",
]

__version__ = "0.1.0"
