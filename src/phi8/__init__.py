"""Exact golden-ratio matrix algebra, root enumeration, and E8 geometry.

The package centers on an 8x8 matrix U over the quadratic extension
Q(phi, sqrt(phi)) whose square is a golden variant of a Cartan matrix.
Everything downstream is exact: identity verification, power patterns,
root system enumeration, the E8 lattice via the extended Hamming code,
and convex hull layers of projected root vertices.

``import phi8`` loads no submodule: each exported name loads its module
on first access (PEP 562), and a CLI command loads only the modules it
runs.  phi8 needs nothing beyond the standard library.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "constants": (
        "NAMED_MATRICES", "bracket_minus", "bracket_plus", "build_cmE8", "build_cmU",
        "build_hadamard", "build_J", "build_srE8", "build_U", "build_U_inv",
        "resolve_matrix",
    ),
    "field": (
        "HALF", "ONE", "PHI", "SQRT5", "SQRT_PHI", "ZERO", "GoldenExt", "GoldenScalar",
        "parse_scalar", "sqrt5_form",
    ),
    "identities": ("run_all", "run_group", "verify_power_pattern"),
    "lattice": (
        "Hamming84", "construction_a", "gen_e8_roots", "hadamard_code_correspondence",
        "hamming84",
    ),
    "matrix": ("CharPoly", "ExactMatrix", "SingularMatrixError"),
    "report": ("IdentityReport",),
    "roots": (
        "EnumerationRule", "RootRecord", "enumerate_roots", "hasse_edges", "summarize",
    ),
    "hulls": ("HullLayer", "HullReport", "VertexSet", "analyze", "build_vertices", "tally_all"),
}
# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:  # the submodules themselves, e.g. phi8.roots
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = [*_MODULE_OF, "__version__"]
