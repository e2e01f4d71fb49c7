"""Exact golden-ratio matrix algebra, root enumeration, and E8 geometry.

The package centers on an 8x8 matrix U over the quadratic extension
Q(phi, sqrt(phi)) whose square is a golden variant of a Cartan matrix.
Everything downstream is exact: identity verification, power patterns,
root system enumeration, the E8 lattice via the extended Hamming code,
and convex hull layers of projected root vertices.
"""
from .constants import (
    NAMED_MATRICES,
    bracket_minus,
    bracket_plus,
    build_cmE8,
    build_cmU,
    build_hadamard,
    build_J,
    build_srE8,
    build_U,
    build_U_inv,
    resolve_matrix,
)
from .field import (
    HALF,
    ONE,
    PHI,
    SQRT5,
    SQRT_PHI,
    ZERO,
    GoldenExt,
    GoldenScalar,
    parse_scalar,
    sqrt5_form,
)
from .identities import IdentityReport, run_all, run_group, verify_power_pattern
from .lattice import (
    Hamming84,
    construction_a,
    gen_e8_roots,
    hadamard_code_correspondence,
    hamming84,
)
from .matrix import CharPoly, ExactMatrix, SingularMatrixError
from .roots import (
    EnumerationRule,
    RootRecord,
    distinct_roots,
    enumerate_roots,
    hasse_edges,
    summarize,
)

__version__ = "0.1.0"

# the hull names load phi8.hulls, and with it numpy and scipy, on first access
_HULL_NAMES = frozenset(
    ("HullLayer", "HullReport", "VertexSet", "analyze", "build_vertices", "tally_all")
)


def __getattr__(name: str):
    if name in _HULL_NAMES:
        from . import hulls

        return getattr(hulls, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CharPoly",
    "EnumerationRule",
    "ExactMatrix",
    "GoldenExt",
    "GoldenScalar",
    "HALF",
    "Hamming84",
    "HullLayer",
    "HullReport",
    "IdentityReport",
    "NAMED_MATRICES",
    "ONE",
    "PHI",
    "RootRecord",
    "SQRT5",
    "SQRT_PHI",
    "SingularMatrixError",
    "VertexSet",
    "ZERO",
    "analyze",
    "bracket_minus",
    "bracket_plus",
    "build_cmE8",
    "build_cmU",
    "build_hadamard",
    "build_J",
    "build_srE8",
    "build_U",
    "build_U_inv",
    "build_vertices",
    "construction_a",
    "distinct_roots",
    "enumerate_roots",
    "gen_e8_roots",
    "hadamard_code_correspondence",
    "hamming84",
    "hasse_edges",
    "parse_scalar",
    "resolve_matrix",
    "run_all",
    "run_group",
    "sqrt5_form",
    "summarize",
    "tally_all",
    "verify_power_pattern",
    "__version__",
]
