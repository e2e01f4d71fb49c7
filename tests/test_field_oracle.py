"""Field arithmetic against an independent oracle.

sympy computes in Q[a]/(a^4 - a^2 - 1), a = sqrt(phi): polynomials of
degree < 4 over QQ, reduced by the minimal polynomial of sqrt(phi).  Signs
are checked against a 50-digit evaluation at the real root sqrt(phi).
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from phi8.field import GoldenExt, GoldenScalar, _sign_q_phi, matmul  # noqa: E402

A = sympy.Symbol("a")
MODULUS = sympy.Poly(A**4 - A**2 - 1, A, domain=sympy.QQ)
SQRT_PHI = sympy.sqrt((1 + sympy.sqrt(5)) / 2)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
scalars = st.builds(GoldenScalar, rationals, rationals)
exts = st.builds(GoldenExt, scalars, scalars)


def to_poly(x: GoldenExt) -> sympy.Poly:
    """The coefficients of 1, a, a^2, a^3, read through the public API."""
    (u0, u2, ud), (v1, v3, vd) = x.u.phi_ints(), x.v.phi_ints()
    coeffs = ((v3, vd), (u2, ud), (v1, vd), (u0, ud))  # a^3 first
    return sympy.Poly.from_list(
        [sympy.Rational(n, d) for n, d in coeffs], A, domain=sympy.QQ
    )


def reduced(p: sympy.Poly) -> sympy.Poly:
    return p.rem(MODULUS)


def numeric_sign(x: GoldenExt) -> int:
    return int(sympy.sign(sympy.N(to_poly(x).as_expr().subs(A, SQRT_PHI), 50)))


@given(exts, exts)
@settings(max_examples=150, deadline=None)
def test_add_and_mul_match_polynomial_arithmetic(x, y):
    px, py = to_poly(x), to_poly(y)
    assert to_poly(x + y) == reduced(px + py)
    assert to_poly(x - y) == reduced(px - py)
    assert to_poly(x * y) == reduced(px * py)


@given(scalars, scalars)
@settings(max_examples=150, deadline=None)
def test_scalar_products_stay_scalar(x, y):
    product = x * y
    assert product.is_scalar()
    assert to_poly(product) == reduced(to_poly(x) * to_poly(y))


@given(exts)
@settings(max_examples=150, deadline=None)
def test_inverse_matches_polynomial_inverse(x):
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert to_poly(x.inverse()) == to_poly(x).invert(MODULUS)


@given(exts)
@settings(max_examples=150, deadline=None)
def test_sign_matches_50_digit_value(x):
    assert x.sign() == numeric_sign(x)


@given(exts, exts)
@settings(max_examples=150, deadline=None)
def test_sign_of_near_cancellation(x, y):
    # a difference of two nearby products probes the opposite-sign branches
    z = x * y - y * x.conjugate()
    assert z.sign() == numeric_sign(z)


@given(st.integers(-(2**100), 2**100), st.integers(-(2**100), 2**100))
@settings(max_examples=300, deadline=None)
def test_pair_sign_matches_50_digit_value(a, b):
    # the one sign rule for a + b*phi, which GoldenExt.sign and the hulls share
    value = sympy.N(sympy.Integer(a) + sympy.Integer(b) * sympy.GoldenRatio, 50)
    assert _sign_q_phi(a, b) == int(sympy.sign(value))


def test_pair_sign_at_lucas_fibonacci_pairs():
    # with s = 2a + b, the pairs (s, b) = (L_n, +-F_n) come closest to s^2 = 5b^2:
    # s^2 - 5b^2 = 4(-1)^n.  They are a + b*phi = F_(n-1) + F_n*phi = phi^n > 0
    # and F_(n+1) - F_n*phi = (1 - phi)^n, whose sign is (-1)^n
    f_prev, f = 0, 1  # F_0, F_1
    for n in range(1, 200):
        lucas = f_prev * 2 + f
        assert lucas * lucas - 5 * f * f == 4 * (-1) ** n
        psi_sign = (-1) ** n
        assert (_sign_q_phi(f_prev, f), _sign_q_phi(-f_prev, -f)) == (1, -1), n
        assert (_sign_q_phi(f_prev + f, -f), _sign_q_phi(-f_prev - f, f)) == (psi_sign, -psi_sign), n
        f_prev, f = f, f_prev + f
    assert _sign_q_phi(0, 0) == 0


@given(st.lists(st.tuples(st.one_of(st.just(GoldenExt(0)), exts), exts), max_size=6))
@settings(max_examples=100, deadline=None)
def test_dot_matches_polynomial_sum(pairs):
    total = sympy.Poly(0, A, domain=sympy.QQ)
    for x, y in pairs:
        total += to_poly(x) * to_poly(y)
    # the sum of x*y as the one entry of the product of a row by a column
    entry = matmul([[x for x, _ in pairs]], [[y] for _, y in pairs], 1)[0][0]
    assert to_poly(entry) == reduced(total)
