"""Exact scalar arithmetic in the golden field and its sqrt(phi) extension."""
import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phi8.field import (
    HALF,
    ONE,
    PHI,
    PHI_FLOAT,
    SQRT5,
    SQRT_PHI,
    SQRT_PHI_FLOAT,
    ZERO,
    GoldenExt,
    GoldenScalar,
    matmul,
    parse_scalar,
    sqrt5_form,
)
from phi8.matrix import ExactMatrix

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
scalars = st.builds(GoldenScalar, rationals, rationals)
exts = st.builds(GoldenExt, scalars, scalars)


class TestGoldenScalar:
    def test_phi_squared_is_phi_plus_one(self):
        assert PHI * PHI == PHI + 1

    def test_phi_minus_inverse_is_one(self):
        assert PHI - PHI.inverse() == ONE

    def test_sqrt5_squares_to_five(self):
        assert SQRT5 * SQRT5 == GoldenScalar(5)

    def test_sqrt5_is_two_phi_minus_one(self):
        assert SQRT5 == 2 * PHI - 1

    def test_phi_float(self):
        assert abs(PHI.to_float() - PHI_FLOAT) < 1e-15

    def test_sign_cases(self):
        assert ZERO.sign() == 0
        assert PHI.sign() == 1
        assert (-PHI).sign() == -1
        # mixed-sign coefficients where neither term dominates by eye
        assert (GoldenScalar(2, -1)).sign() == 1   # 2 - phi > 0
        assert (GoldenScalar(-2, 1)).sign() == -1
        assert (GoldenScalar(-3, 2)).sign() == 1   # 2*phi - 3 > 0
        assert (GoldenScalar(3, -2)).sign() == -1
        assert (GoldenScalar(5, -3)).sign() == 1   # 5 - 3*phi > 0
        assert (GoldenScalar(-8, 5)).sign() == 1   # 5*phi - 8 > 0

    def test_ordering_follows_floats(self):
        xs = [GoldenScalar(1), PHI, SQRT5, GoldenScalar(2), PHI * PHI]
        by_exact = sorted(xs)
        by_float = sorted(xs, key=lambda x: x.to_float())
        assert by_exact == by_float

    def test_inverse(self):
        x = GoldenScalar(Fraction(7, 3), Fraction(-2, 5))
        assert x * x.inverse() == ONE
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_pow_negative(self):
        assert PHI ** -2 == (PHI * PHI).inverse()
        assert PHI ** 0 == ONE

    def test_immutability(self):
        with pytest.raises(AttributeError):
            PHI._n = (2, 0, 0, 0, 1)

    def test_half(self):
        assert HALF + HALF == ONE


class TestGoldenExt:
    def test_sqrt_phi_squares_to_phi(self):
        assert SQRT_PHI * SQRT_PHI == GoldenExt(PHI)

    def test_half_inv_sqrt_phi_float(self):
        # 1/(2 sqrt phi) appears as the global scale of U
        x = GoldenExt(0, GoldenScalar(Fraction(-1, 2), Fraction(1, 2)))
        assert abs(x.to_float() - 1 / (2 * SQRT_PHI_FLOAT)) < 1e-12
        assert abs(x.to_float() - 0.3930756888) < 1e-9

    def test_quarter_power_example(self):
        # (-phi^2 / (2 sqrt phi))^2 = phi^3 / 4
        phi2 = PHI * PHI
        x = GoldenExt(0, GoldenScalar(Fraction(-1, 2), Fraction(1, 2))) * -phi2
        assert x * x == GoldenExt(PHI ** 3) * Fraction(1, 4)

    def test_sign(self):
        assert GoldenExt(0).sign() == 0
        assert SQRT_PHI.sign() == 1
        assert (-SQRT_PHI).sign() == -1
        # u and v in opposite directions: compare u^2 against v^2 phi
        assert GoldenExt(GoldenScalar(2), GoldenScalar(-1)).sign() == 1
        assert GoldenExt(GoldenScalar(1), GoldenScalar(-1)).sign() == -1

    def test_scalar_part_guard(self):
        with pytest.raises(ValueError):
            SQRT_PHI.scalar_part()
        assert GoldenExt(PHI).scalar_part() == PHI

    def test_division(self):
        x = GoldenExt(PHI, GoldenScalar(3, -1))
        assert x / x == GoldenExt(1)

    def test_pow(self):
        assert SQRT_PHI ** 2 == GoldenExt(PHI)
        assert SQRT_PHI ** -2 == GoldenExt(PHI.inverse())


# each entry point gives back an accepted x
ENTRY_POINTS = {
    "GoldenExt(x)": GoldenExt,
    "GoldenExt(0, x)": lambda x: GoldenExt(0, x) / SQRT_PHI,
    "GoldenScalar(x)": GoldenScalar,
    "GoldenScalar(0, x)": lambda x: GoldenScalar(0, x) / PHI,
    "GoldenExt(1) + x": lambda x: GoldenExt(1) + x - 1,
    "x * ONE": lambda x: x * ONE,
    "PHI < x": lambda x: (PHI < x, x)[1],
    "ExactMatrix([[x]])": lambda x: ExactMatrix([[x]])[0][0],
}
NEEDS_Q_PHI = ("GoldenExt(0, x)", "GoldenScalar(x)", "GoldenScalar(0, x)")
ENTRY_INPUTS = {
    "int": 3, "Fraction": Fraction(-1, 3), "phi": PHI, "GoldenScalar": GoldenScalar(3, -2),
    "1+sqrt(phi)": 1 + SQRT_PHI, "float": 0.1, "float-dyadic": 0.5, "str": "3",
    "Decimal": Decimal("0.5"),
}


class TestCoercion:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("name", ENTRY_INPUTS)
    def test_one_rule_for_every_entry_point(self, entry, name):
        call, x = ENTRY_POINTS[entry], ENTRY_INPUTS[name]
        if not isinstance(x, (int, Fraction, GoldenExt)):
            with pytest.raises(TypeError):
                call(x)
        elif entry in NEEDS_Q_PHI and not GoldenExt(x).is_scalar():
            with pytest.raises(ValueError, match=r"sqrt\(phi\) component"):
                call(x)
        else:
            assert call(x) == x

    def test_order_defers_to_an_unknown_operand(self):
        # a type coerce rejects gets its reflected comparison, as for == and +
        class Stub:
            __lt__ = __gt__ = __le__ = __ge__ = lambda self, other: "stub"

        for compare in (operator.lt, operator.gt, operator.le, operator.ge):
            assert compare(GoldenExt(1), Stub()) == "stub"
            with pytest.raises(TypeError):
                compare(GoldenExt(1), 0.5)


any_elements = st.one_of(scalars, exts)


class TestOneType:
    @given(any_elements, any_elements, rationals, st.integers(-3, 3))
    @settings(max_examples=150)
    def test_every_result_is_golden_ext(self, x, y, q, k):
        results = [x + y, x - y, x * y, -x, x.conjugate(), x.u, x.v,
                   x + q, q + x, x - q, q - x, x * q, q * x, x * k, k * x]
        if y:
            results += [x / y, q / y]
        if x:
            results += [x.inverse(), x ** k]
        assert all(type(r) is GoldenExt for r in results)

    @given(scalars)
    @settings(max_examples=150)
    def test_zeroth_and_first_power_of_a_scalar_are_plain(self, x):
        assert type(x ** 0) is GoldenExt and x ** 0 == ONE
        assert type(x ** 1) is GoldenExt and x ** 1 == x

    @given(rationals, rationals)
    @settings(max_examples=150)
    def test_scalar_constructor_builds_a_plus_b_phi(self, a, b):
        s = GoldenScalar(a, b)
        assert s == a + b * PHI and hash(s) == hash(a + b * PHI)
        d = math.lcm(a.denominator, b.denominator)
        assert s.phi_ints() == (a * d, b * d, d)

    @given(st.builds(GoldenExt, scalars, scalars.filter(bool)))
    @settings(max_examples=150)
    def test_q_phi_queries_reject_sqrt_phi_part(self, x):
        for query in (x.phi_ints, lambda: sqrt5_form(x)):
            with pytest.raises(ValueError, match=r"sqrt\(phi\) component"):
                query()

    @given(any_elements)
    @settings(max_examples=150)
    def test_repr_round_trip(self, x):
        names = {"Fraction": Fraction, "GoldenExt": GoldenExt, "GoldenScalar": GoldenScalar}
        assert eval(repr(x), names) == x


# zeros, and rationals with unequal denominators, between general elements
dot_entries = st.one_of(st.just(ZERO), st.builds(GoldenExt, rationals), exts)


def dot(xs, ys):
    """The sum of x*y over the pairs: the one entry of field.matmul of a row by a column."""
    return matmul([xs], [[y] for y in ys], 1)[0][0]


class TestDot:
    @given(st.lists(st.tuples(dot_entries, dot_entries), max_size=8))
    @settings(max_examples=150)
    def test_matches_sum_of_products(self, pairs):
        expected = sum((x * y for x, y in pairs), ZERO)
        result = dot([x for x, _ in pairs], [y for _, y in pairs])
        assert type(result) is GoldenExt
        assert result == expected and hash(result) == hash(expected)

    def test_unequal_denominators_and_zeros(self):
        xs = [HALF, ZERO, GoldenExt(Fraction(1, 3)), SQRT_PHI / 4]
        ys = [ONE, PHI, 3 * ONE, SQRT_PHI]
        assert dot(xs, ys) == Fraction(3, 2) + PHI / 4
        assert dot([], []) == ZERO and dot([ZERO], [PHI]) == ZERO


class TestHashContract:
    def test_rational_members_collapse(self):
        assert len({GoldenExt(3), GoldenScalar(3), 3, Fraction(3)}) == 1
        assert len({GoldenExt(HALF), HALF, Fraction(1, 2)}) == 1
        assert len({GoldenExt(PHI), PHI}) == 1

    @given(rationals, scalars, exts, exts)
    @settings(max_examples=150)
    def test_equal_values_hash_equal(self, q, s, x, y):
        # one value in each of its types
        assert GoldenScalar(q) == q == GoldenExt(q)
        assert hash(GoldenScalar(q)) == hash(q) == hash(GoldenExt(q))
        if q.denominator == 1:
            assert hash(GoldenScalar(q)) == hash(int(q))
        assert GoldenExt(s) == s and hash(GoldenExt(s)) == hash(s)
        # one value reached along two routes
        z = (x + y) - y
        assert z == x and hash(z) == hash(x)
        if y:
            w = (x * y) / y
            assert w == x and hash(w) == hash(x)


class TestRendering:
    def test_sqrt5_form(self):
        assert sqrt5_form(GoldenScalar(3)) == "3"
        assert sqrt5_form(SQRT5) == "sqrt(5)"
        assert sqrt5_form(SQRT5 * 3) == "3*sqrt(5)"
        assert sqrt5_form(GoldenScalar(7) + SQRT5) == "7 + sqrt(5)"

    def test_parse_simple(self):
        assert parse_scalar("phi") == GoldenExt(PHI)
        assert parse_scalar("1/2") == GoldenExt(HALF)
        assert parse_scalar("-phi + 2") == GoldenExt(2 - PHI)
        assert parse_scalar("3*sqrt(phi)") == GoldenExt(0, GoldenScalar(3))
        assert parse_scalar("1/2*phi*sqrt(phi)") == GoldenExt(0, PHI * HALF)

    def test_parse_rejects_garbage(self):
        for bad in ("", "+", "2*", "phi phi", "sqrt(2)", "1..2", "1/0", "phi*3/00"):
            with pytest.raises(ValueError):
                parse_scalar(bad)

    def test_parse_rejects_non_ascii_digits(self):
        # a rational is ASCII digits; other Unicode decimal digits are text
        for bad in ("\u0663/\u0664*phi", "\uff17", "1 + \u0663"):
            with pytest.raises(ValueError, match="cannot parse scalar"):
                parse_scalar(bad)

    @given(exts)
    @settings(max_examples=150)
    def test_parse_render_roundtrip(self, x):
        assert parse_scalar(str(x)) == x

    @given(any_elements)
    @settings(max_examples=150)
    def test_rendering_matches_the_fraction_reference(self, x):
        (ua, ub), (va, vb) = _fractions(x.u), _fractions(x.v)
        assert str(x) == _reference_terms(
            [(ua, ""), (ub, "phi"), (va, "sqrt(phi)"), (vb, "phi*sqrt(phi)")])
        scalar = lambda a, b: f"GoldenScalar({a!r}, {b!r})"
        assert repr(x) == (
            f"GoldenExt({scalar(ua, ub)}, {scalar(va, vb)})" if x.v else scalar(ua, ub))
        if x.is_scalar():
            # a + b*phi = (a + b/2) + (b/2)*sqrt5
            assert sqrt5_form(x) == _reference_terms([(ua + ub / 2, ""), (ub / 2, "sqrt(5)")])


def _fractions(s: GoldenExt) -> tuple[Fraction, Fraction]:
    """(a, b) of a value a + b*phi of Q(phi), as Fractions built from phi_ints."""
    a, b, d = s.phi_ints()
    return Fraction(a, d), Fraction(b, d)


def _reference_terms(terms: list[tuple[Fraction, str]]) -> str:
    """The sum of coeff*unit as text, rendered from Fraction coefficients."""
    parts: list[str] = []
    for coeff, unit in terms:
        if coeff == 0:
            continue
        if unit and coeff == 1:
            body = unit
        elif unit and coeff == -1:
            body = f"-{unit}"
        elif unit:
            body = f"{coeff}*{unit}"
        else:
            body = str(coeff)
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f" - {body[1:]}")
        else:
            parts.append(f" + {body}")
    return "".join(parts) if parts else "0"


# Scalar literals built with their values, never through parse_scalar.
_blank = st.sampled_from(["", " ", "\t", "  ", " \t"])
_factors = st.one_of(
    st.just(("phi", PHI)),
    st.just(("sqrt(phi)", SQRT_PHI)),
    st.integers(0, 999).map(lambda p: (str(p), Fraction(p))),
    st.tuples(st.integers(0, 999), st.integers(1, 999)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}", Fraction(*pq))
    ),
)


@st.composite
def _terms(draw, first):
    text, value = "", 1
    for _ in range(draw(st.integers(0 if first else 1, 3))):
        sign = draw(st.sampled_from("+-"))
        text += sign + draw(_blank)
        value = -value if sign == "-" else value
    factors = draw(st.lists(_factors, min_size=1, max_size=3))
    for i, (literal, factor) in enumerate(factors):
        joint = draw(_blank) + "*" + draw(_blank) if i else ""
        text += joint + literal
        value = value * factor
    return draw(_blank) + text + draw(_blank), value


@st.composite
def literals(draw):
    terms = [draw(_terms(True)), *draw(st.lists(_terms(False), max_size=3))]
    return "".join(t for t, _ in terms), sum((v for _, v in terms), GoldenExt(0))


_junk_text = st.lists(
    st.sampled_from(["phi", "sqrt(phi)", "sqrt(", "7", "0", "12/5", "/", "/0", "*",
                     "+", "-", " ", "\t", "\n", "x", "(", ")", ".", "#", ";", "\u0663"]),
    max_size=10,
).map("".join)


class TestLiteralGrammar:
    @given(literals())
    @settings(max_examples=150)
    def test_value_matches_construction(self, case):
        text, value = case
        assert parse_scalar(text) == value

    @given(_junk_text)
    @settings(max_examples=150)
    def test_value_or_value_error(self, text):
        try:
            result = parse_scalar(text)
        except ValueError:
            return
        assert isinstance(result, GoldenExt)


class TestFieldAxioms:
    @given(scalars, scalars, scalars)
    @settings(max_examples=150)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    @given(scalars)
    @settings(max_examples=150)
    def test_inverse_axiom(self, x):
        if x:
            assert x * x.inverse() == ONE
        else:
            assert x == ZERO

    @given(scalars, scalars)
    @settings(max_examples=150)
    def test_sign_multiplicative(self, x, y):
        assert (x * y).sign() == x.sign() * y.sign()

    @given(scalars)
    @settings(max_examples=150)
    def test_sign_matches_float(self, x):
        f = x.to_float()
        if abs(f) > 1e-9:
            assert x.sign() == (1 if f > 0 else -1)

    @given(exts, exts, exts)
    @settings(max_examples=150)
    def test_ext_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(exts)
    @settings(max_examples=150)
    def test_ext_inverse_and_float(self, x):
        if x:
            assert x * x.inverse() == GoldenExt(1)
        if abs(x.to_float()) > 1e-9:
            assert x.sign() == int(math.copysign(1, x.to_float()))

    @given(scalars)
    @settings(max_examples=150)
    def test_conjugate_depends_on_value_not_class(self, x):
        assert x.conjugate() == GoldenExt(x).conjugate()
