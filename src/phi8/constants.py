"""Builders for the named matrices of the golden family.

U is the symmetric golden fold matrix: its square is cmU, the golden
Cartan-like matrix (sqrt5/2 on the diagonal, 1/2 on the antidiagonal).
J is the exchange matrix, H the Sylvester Hadamard matrix, srE8 a
norm-2 simple-root basis of the E8 lattice, and cmE8 its Gram matrix,
the standard E8 Cartan matrix.  Bplus and Bminus are the traceless
orthogonal involutions factored out of odd powers of U.  Every builder
is cached: all callers share one immutable instance of each matrix.
"""
from __future__ import annotations

from functools import cache

from .field import HALF, GoldenExt, GoldenScalar
from .matrix import ExactMatrix

# 1/(2*sqrt(phi)) = ((phi-1)/2) * sqrt(phi)
_HALF_INV_PHI = GoldenScalar(-HALF, HALF)

# entries of 2*sqrt(phi)*U as (a, b) pairs meaning a + b*phi
_U_TABLE: tuple[tuple[tuple[int, int], ...], ...] = (
    ((1, -1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (-1, -1)),
    ((0, 0), (-1, 0), (0, 1), (0, 0), (0, 0), (0, 1), (1, 0), (0, 0)),
    ((0, 0), (0, 1), (0, 0), (-1, 0), (1, 0), (0, 0), (0, 1), (0, 0)),
    ((0, 0), (0, 0), (-1, 0), (0, 1), (0, 1), (1, 0), (0, 0), (0, 0)),
    ((0, 0), (0, 0), (1, 0), (0, 1), (0, 1), (-1, 0), (0, 0), (0, 0)),
    ((0, 0), (0, 1), (0, 0), (1, 0), (-1, 0), (0, 0), (0, 1), (0, 0)),
    ((0, 0), (1, 0), (0, 1), (0, 0), (0, 0), (0, 1), (-1, 0), (0, 0)),
    ((-1, -1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, -1)),
)

# entries of 2*sqrt(phi)*U^-1; same symmetry, with 1 and phi exchanged
# in the middle block and the corner sign flipped
_U_INV_TABLE: tuple[tuple[tuple[int, int], ...], ...] = (
    ((-1, 1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (-1, -1)),
    ((0, 0), (0, -1), (1, 0), (0, 0), (0, 0), (1, 0), (0, 1), (0, 0)),
    ((0, 0), (1, 0), (0, 0), (0, -1), (0, 1), (0, 0), (1, 0), (0, 0)),
    ((0, 0), (0, 0), (0, -1), (1, 0), (1, 0), (0, 1), (0, 0), (0, 0)),
    ((0, 0), (0, 0), (0, 1), (1, 0), (1, 0), (0, -1), (0, 0), (0, 0)),
    ((0, 0), (1, 0), (0, 0), (0, 1), (0, -1), (0, 0), (1, 0), (0, 0)),
    ((0, 0), (0, 1), (1, 0), (0, 0), (0, 0), (1, 0), (0, -1), (0, 0)),
    ((-1, -1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (-1, 1)),
)

# 2*Bplus; Bminus is the row reversal J*Bplus (equally Bplus*J)
_BRACKET_PLUS_TABLE: tuple[tuple[int, ...], ...] = (
    (0, 0, 0, 0, 0, 0, 0, 2),
    (0, 1, -1, 0, 0, -1, -1, 0),
    (0, -1, 0, 1, -1, 0, -1, 0),
    (0, 0, 1, -1, -1, -1, 0, 0),
    (0, 0, -1, -1, -1, 1, 0, 0),
    (0, -1, 0, -1, 1, 0, -1, 0),
    (0, -1, -1, 0, 0, -1, 1, 0),
    (2, 0, 0, 0, 0, 0, 0, 0),
)

# Bourbaki-ordered simple roots of E8 in the even coordinate system, doubled;
# halved, every row has squared norm 2 and the Gram matrix is build_cmE8()
SRE8_DOUBLED: tuple[tuple[int, ...], ...] = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)

_CME8_ROWS: tuple[tuple[int, ...], ...] = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


def _from_phi_table(table) -> ExactMatrix:
    return ExactMatrix(
        [
            [GoldenExt(0, GoldenScalar(a, b) * _HALF_INV_PHI) for a, b in row]
            for row in table
        ]
    )


@cache
def build_U() -> ExactMatrix:
    """The golden fold matrix, scaled by 1/(2*sqrt(phi)).

    Symmetric and centrosymmetric; row 5 equals row 2 with columns 3
    and 4 negated, row 6 equals row 1 with columns 1 and 6 negated.
    """
    return _from_phi_table(_U_TABLE)


@cache
def build_U_inv() -> ExactMatrix:
    """Inverse of the golden fold matrix, in closed form."""
    return _from_phi_table(_U_INV_TABLE)


@cache
def build_cmU() -> ExactMatrix:
    """(sqrt5/2)*I + (1/2)*J; equal to U*U."""
    sqrt5_half = GoldenScalar(-HALF, 1)
    return ExactMatrix(
        [
            [
                sqrt5_half if i == j else (HALF if i + j == 7 else 0)
                for j in range(8)
            ]
            for i in range(8)
        ]
    )


@cache
def build_J(n: int = 8) -> ExactMatrix:
    """Exchange matrix: ones on the antidiagonal."""
    return ExactMatrix(
        [[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]
    )


@cache
def build_hadamard(q: int) -> ExactMatrix:
    """Sylvester Hadamard matrix of size 2^q with +-1 entries.

    The normalization by sqrt(2^q) is irrational in the working field;
    use CharPoly.rescaled(2**q) for spectra of the normalized matrix.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    size = 2 ** q
    return ExactMatrix(
        [
            [(-1) ** bin(i & j).count("1") for j in range(size)]
            for i in range(size)
        ]
    )


@cache
def build_srE8() -> ExactMatrix:
    """Norm-2 simple-root rows for E8; Gram matrix is build_cmE8()."""
    return ExactMatrix(SRE8_DOUBLED) * HALF


@cache
def build_cmE8() -> ExactMatrix:
    """Standard E8 Cartan matrix, Bourbaki node ordering."""
    return ExactMatrix(_CME8_ROWS)


@cache
def bracket_plus() -> ExactMatrix:
    """Traceless orthogonal involution from odd power sums of U."""
    return ExactMatrix(_BRACKET_PLUS_TABLE) * HALF


@cache
def bracket_minus() -> ExactMatrix:
    """Row reversal of bracket_plus; appears in odd power differences."""
    return build_J() * bracket_plus()


NAMED_MATRICES = {
    "U": build_U,
    "Uinv": build_U_inv,
    "cmU": build_cmU,
    "J": build_J,
    "H": lambda: build_hadamard(3),
    "srE8": build_srE8,
    "cmE8": build_cmE8,
    "Bplus": bracket_plus,
    "Bminus": bracket_minus,
}

# bases for the hull vertices (`project --basis`)
BASIS_BUILDERS = {"U": build_U, "cmU": build_cmU}


def resolve_matrix(name_or_path: str) -> ExactMatrix:
    """Named built-ins take precedence over file paths."""
    builder = NAMED_MATRICES.get(name_or_path)
    if builder is not None:
        return builder()
    try:
        return ExactMatrix.from_file(name_or_path)
    except FileNotFoundError:
        raise ValueError(
            f"{name_or_path!r} is neither a named matrix "
            f"({', '.join(sorted(NAMED_MATRICES))}) nor a readable file"
        ) from None
