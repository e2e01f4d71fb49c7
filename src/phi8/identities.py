"""Exact verification battery for the golden matrix family.

Each verifier returns ``report.IdentityReport`` values.  The Schlafli
probe is informational: it documents a residual instead of asserting.
"""
from __future__ import annotations

import math
import sys

from .constants import (
    bracket_minus,
    bracket_plus,
    build_cmU,
    build_hadamard,
    build_J,
    build_U,
    build_U_inv,
)
from .field import HALF, PHI, PHI_FLOAT, SQRT5, SQRT_PHI, sqrt5_form
from .matrix import CharPoly, ExactMatrix
from .report import IdentityReport, Witness


def _witness(actual: ExactMatrix, expected: ExactMatrix) -> Witness | None:
    """The first entry, in row order, where actual differs from expected."""
    if actual == expected:  # rows compare at once; only a failure looks for its witness
        return None
    return next(Witness(i, j, str(e), str(a))
                for i, (row, want) in enumerate(zip(actual.rows, expected.rows))
                for j, (a, e) in enumerate(zip(row, want)) if a != e)


def _compare(name: str, actual: ExactMatrix, expected: ExactMatrix,
             details: dict[str, object] | None = None) -> IdentityReport:
    witness = _witness(actual, expected)
    return IdentityReport(name, witness is None, witness, details=details or {})


def verify_golden_cartan() -> IdentityReport:
    """cmU - cmU^-1 equals the exchange matrix J, with cmU = U*U."""
    cmU = build_cmU()
    return _compare("golden_cartan_difference", cmU - cmU.inverse(), build_J())


def verify_identity_sum() -> IdentityReport:
    """(cmU + cmU^-1) / (2*phi - 1) equals the identity."""
    cmU = build_cmU()
    lhs = (cmU + cmU.inverse()) / SQRT5
    return _compare("golden_cartan_sum", lhs, ExactMatrix.identity(cmU.n))


def verify_power_pattern(n: int) -> tuple[IdentityReport, ...]:
    """cmU^n + cmU^-n = (phi^n + phi^-n) I and the J-difference analogue.

    Even n puts the integer on the sum side, odd n on the difference
    side; the other scalar is an integer multiple of sqrt5.  Returns the
    sum, difference and parity reports; the first two carry their scalar
    as ``details["scalar"]``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # phi^n has n*log10(phi) digits; past max_n the interpreter refuses to print them
    max_n = math.floor(sys.get_int_max_str_digits() / math.log10(PHI_FLOAT))
    if max_n and n > max_n:  # a digit limit of 0 means unlimited
        raise ValueError(f"n must be at most {max_n}")
    cmU = build_cmU()
    cm_pow = cmU ** n
    cm_neg = cmU ** (-n)
    sum_scalar = (PHI ** n + PHI ** (-n))
    diff_scalar = (PHI ** n - PHI ** (-n))
    ident = ExactMatrix.identity(8)
    sum_rep = _compare(
        f"power_{n}_sum", cm_pow + cm_neg, ident * sum_scalar,
        details={"scalar": sqrt5_form(sum_scalar)},
    )
    diff_rep = _compare(
        f"power_{n}_diff", cm_pow - cm_neg, build_J() * diff_scalar,
        details={"scalar": sqrt5_form(diff_scalar)},
    )
    whole, root5 = (sum_scalar, diff_scalar) if n % 2 == 0 else (diff_scalar, sum_scalar)
    parity_ok = whole.is_integer() and (root5 / SQRT5).is_integer()
    parity_rep = IdentityReport(
        f"power_{n}_parity", parity_ok,
        details={
            "n_parity": "even" if n % 2 == 0 else "odd",
            "sum": sqrt5_form(sum_scalar),
            "diff": sqrt5_form(diff_scalar),
        },
    )
    return (sum_rep, diff_rep, parity_rep)


def verify_row_reversed_swap() -> tuple[IdentityReport, ...]:
    """Row-reversed golden Cartan matrix swaps the sum and difference laws.

    R = J*cmU satisfies R - R^-1 = I and R + R^-1 = sqrt5*J.  Reversing
    rows or columns gives the same R because cmU is a polynomial in J.
    """
    cmU = build_cmU()
    J = build_J()
    left = J * cmU
    right = cmU * J
    orders_agree = left == right
    R = left
    Rinv = R.inverse()
    diff_rep = _compare(
        "row_reversed_difference", R - Rinv, ExactMatrix.identity(8),
        details={"row_and_column_reversal_agree": orders_agree},
    )
    sum_rep = _compare("row_reversed_sum", R + Rinv, J * SQRT5)
    return (diff_rep, sum_rep)


def verify_odd_power_forms(n: int) -> tuple[IdentityReport, ...]:
    """U^n +- U^-n = -B(+-) * (phi^n +- 1) / phi^(n/2) for odd n."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    U = build_U()
    Uinv = build_U_inv()
    denom = PHI ** ((n - 1) // 2) * SQRT_PHI  # phi^(n/2) for odd n
    s_plus = (PHI ** n + 1) / denom
    s_minus = (PHI ** n - 1) / denom
    U_n, Uinv_n = U ** n, Uinv ** n
    plus_rep = _compare(
        f"odd_power_{n}_sum", U_n + Uinv_n, -(bracket_plus() * s_plus),
        details={"scale": str(s_plus)},
    )
    minus_rep = _compare(
        f"odd_power_{n}_diff", U_n - Uinv_n, -(bracket_minus() * s_minus),
        details={"scale": str(s_minus)},
    )
    return (plus_rep, minus_rep)


def verify_bracket_properties() -> tuple[IdentityReport, ...]:
    """Both bracket matrices are traceless orthogonal involutions and
    Bminus is the row reversal J*Bplus, equal to the column reversal."""
    Bp = bracket_plus()
    Bm = bracket_minus()
    J = build_J()
    ident = ExactMatrix.identity(8)
    reports = []
    for name, B in (("bracket_plus", Bp), ("bracket_minus", Bm)):
        ok = B.is_traceless() and B.is_orthogonal() and B * B == ident
        reports.append(IdentityReport(
            f"{name}_traceless_orthogonal", ok,
            details={"trace": str(B.trace()), "involution": B * B == ident},
        ))
    exchange_ok = Bm == J * Bp and Bm == Bp * J
    reports.append(IdentityReport("bracket_exchange", exchange_ok))
    return tuple(reports)


def _char_poly_report(name: str, poly: CharPoly, expected: tuple) -> IdentityReport:
    """Whether poly has the coefficients expected and is palindromic."""
    palindromic = poly.is_palindromic()
    return IdentityReport(
        name, poly.coeffs == expected and palindromic,
        details={"coeffs": [str(c) for c in poly.coeffs], "palindromic": palindromic},
    )


def verify_char_polys() -> tuple[IdentityReport, ...]:
    """Characteristic polynomials of U and the normalized Hadamard matrix:
    x^8 - 2*sqrt5*x^6 + 7*x^4 - 2*sqrt5*x^2 + 1 and (x^2 - 1)^4."""
    return (
        _char_poly_report("char_poly_U", build_U().char_poly(),
                          (1, 0, -2 * SQRT5, 0, 7, 0, -2 * SQRT5, 0, 1)),
        _char_poly_report("char_poly_hadamard_normalized", build_hadamard(3).char_poly().rescaled(8),
                          (1, 0, -4, 0, 6, 0, -4, 0, 1)),
    )


def schlafli_probe() -> IdentityReport:
    """Probe whether (1/2)I - (3/2)J reproduces -U^-1.  It does not;
    the report records the residual instead of asserting."""
    probe = ExactMatrix.identity(8) * HALF - build_J() * (3 * HALF)
    target = -build_U_inv()
    residuals = [abs(e.to_float()) for row in (probe - target).rows for e in row if e]
    return IdentityReport(
        "schlafli_probe", not residuals, _witness(probe, target), informational=True,
        details={"mismatched_entries": len(residuals),
                 "max_abs_residual": max(residuals, default=0.0)},
    )


def verify_product_identities() -> tuple[IdentityReport, ...]:
    """U*U = cmU and U*U^-1 = I, with U^-1 both closed-form and eliminated."""
    U = build_U()
    Uinv = build_U_inv()
    reports = (
        _compare("U_squared_is_cmU", U * U, build_cmU()),
        _compare("U_times_Uinv", U * Uinv, ExactMatrix.identity(8)),
        _compare("Uinv_matches_elimination", Uinv, U.inverse()),
    )
    return reports


VERIFIER_GROUPS = {
    "products": verify_product_identities,
    "golden-cartan": lambda: [verify_golden_cartan(), verify_identity_sum()],
    "row-reversed": verify_row_reversed_swap,
    "powers": lambda: [r for n in range(1, 13) for r in verify_power_pattern(n)],
    "odd-powers": lambda: [r for n in (1, 3, 5, 7, 9) for r in verify_odd_power_forms(n)],
    "brackets": verify_bracket_properties,
    "char-polys": verify_char_polys,
    "schlafli-probe": lambda: [schlafli_probe()],
}


def run_group(name: str) -> list[IdentityReport]:
    if name not in VERIFIER_GROUPS:
        raise ValueError(f"unknown verifier group {name!r}; choose from {sorted(VERIFIER_GROUPS)}")
    return list(VERIFIER_GROUPS[name]())


def run_all() -> list[IdentityReport]:
    """Every verifier group in registry order; informational probes included."""
    return [r for name in VERIFIER_GROUPS for r in run_group(name)]
