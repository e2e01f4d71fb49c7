"""Exact arithmetic in the quartic field Q(sqrt(phi)).

Every element is stored as five integers (c0, c1, c2, c3, d) meaning
(c0 + c1*a + c2*a**2 + c3*a**3) / d, where a = sqrt(phi) satisfies
a**4 = a**2 + 1, d > 0 and gcd(c0, c1, c2, c3, d) = 1.  That normal form
is unique, so equality and hashing compare integers.

``GoldenExt`` is the one element type, written u + v*sqrt(phi) with u, v
in Q(phi); every operation returns a ``GoldenExt``.  Lying in the
subfield Q(phi) (c1 = c3 = 0, written a + b*phi with phi = a**2) is a
property of a value, tested by ``is_scalar``; ``phi_ints``, the one
rational view (a, b, d) of (a + b*phi)/d, raises ``ValueError`` on a
sqrt(phi) component.  ``GoldenScalar(a, b)`` only builds a + b*phi.

One rule, ``coerce``, says what counts as a field element: an ``int``, a
``Fraction`` or a ``GoldenExt``.  Constructors, arithmetic, equality and
``ExactMatrix`` all apply it, and anything else, a ``float``, ``str`` or
``Decimal`` included, is a ``TypeError``.  A rational element hashes as
the equal ``Fraction``.  Floats appear only through ``to_float``.
Rendering, ``repr`` included, reads the integers, so this module never
imports ``fractions``.
"""
from __future__ import annotations

import math
import re
import sys
from functools import total_ordering
from math import gcd
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

PHI_FLOAT: float = (1.0 + math.sqrt(5.0)) / 2.0
SQRT_PHI_FLOAT: float = math.sqrt(PHI_FLOAT)

FieldLike = Union[int, "Fraction", "GoldenExt"]

_HASH = sys.hash_info


def _sign_q_phi(a: int, b: int) -> int:
    """Sign of a + b*phi.  With s = 2a + b, 2(a + b*phi) = s + b*sqrt5,
    whose sign is s's where s^2 > 5b^2 and b's elsewhere."""
    s = 2 * a + b
    return (s > 0) - (s < 0) if s * s > 5 * b * b else (b > 0) - (b < 0)


def _norm_parts(c0: int, c1: int, c2: int, c3: int) -> tuple[int, int]:
    """(n0, n2) with u^2 - v^2*phi = n0 + n2*phi for u = c0 + c2*phi, v = c1 + c3*phi."""
    t = 2 * c1 * c3 + c3 * c3
    return (c0 * c0 + c2 * c2 - t,
            2 * c0 * c2 + c2 * c2 - c1 * c1 - t - c3 * c3)


def _frozen(self, name: str, value: object = None) -> None:
    """``__setattr__`` and ``__delattr__`` of an immutable type."""
    raise AttributeError(f"{type(self).__name__} is immutable")


@total_ordering
class GoldenExt:
    """u + v*sqrt(phi) with u, v in Q(phi); (sqrt phi)^2 = phi."""

    __slots__ = ("_n",)
    __setattr__ = __delattr__ = _frozen

    def __init__(self, u: FieldLike = 0, v: FieldLike = 0) -> None:
        u, v = coerce(u), coerce(v)
        if v:
            u0, _, u2, _, ud = u.scalar_part()._n
            v0, _, v2, _, vd = v.scalar_part()._n
            u = _make(u0 * vd, v0 * ud, u2 * vd, v2 * ud, ud * vd)
        _set_n(self, u._n)

    def __getstate__(self) -> tuple[int, int, int, int, int]:
        return self._n

    def __setstate__(self, n: tuple[int, int, int, int, int]) -> None:
        _set_n(self, n)

    @property
    def u(self) -> "GoldenExt":
        c0, _, c2, _, d = self._n
        return _make(c0, 0, c2, 0, d)

    @property
    def v(self) -> "GoldenExt":
        _, c1, _, c3, d = self._n
        return _make(c1, 0, c3, 0, d)

    def __add__(self, other: object) -> "GoldenExt":
        try:
            b0, b1, b2, b3, bd = coerce(other)._n
        except TypeError:
            return NotImplemented
        a0, a1, a2, a3, ad = self._n
        if ad == bd:
            return _make(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
        return _make(a0 * bd + b0 * ad, a1 * bd + b1 * ad,
                     a2 * bd + b2 * ad, a3 * bd + b3 * ad, ad * bd)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GoldenExt":
        try:
            b0, b1, b2, b3, bd = coerce(other)._n
        except TypeError:
            return NotImplemented
        a0, a1, a2, a3, ad = self._n
        if ad == bd:
            return _make(a0 - b0, a1 - b1, a2 - b2, a3 - b3, ad)
        return _make(a0 * bd - b0 * ad, a1 * bd - b1 * ad,
                     a2 * bd - b2 * ad, a3 * bd - b3 * ad, ad * bd)

    def __rsub__(self, other: object) -> "GoldenExt":
        try:
            return coerce(other) - self
        except TypeError:
            return NotImplemented

    def __neg__(self) -> "GoldenExt":
        c0, c1, c2, c3, d = self._n
        return _make(-c0, -c1, -c2, -c3, d)

    def __mul__(self, other: object) -> "GoldenExt":
        a0, a1, a2, a3, ad = self._n
        if type(other) is int:
            return _make(a0 * other, a1 * other, a2 * other, a3 * other, ad)
        try:
            bn = coerce(other)._n
        except TypeError:
            return NotImplemented
        return _make(*_mul_n(self._n, bn))

    __rmul__ = __mul__

    def conjugate(self) -> "GoldenExt":
        """sqrt(phi) -> -sqrt(phi)."""
        c0, c1, c2, c3, d = self._n
        return _make(c0, -c1, c2, -c3, d)

    def inverse(self) -> "GoldenExt":
        """x^-1 = conj(x) * N' / (N N') with N = x conj(x) in Q(phi), N' its conjugate."""
        c0, c1, c2, c3, d = self._n
        n0, n2 = _norm_parts(c0, c1, c2, c3)
        r = n0 * n0 + n0 * n2 - n2 * n2  # N N', a rational integer
        if r == 0:
            raise ZeroDivisionError("division by zero GoldenExt")
        m0, m2 = (n0 + n2) * d, -n2 * d  # d * N'
        # (c0 + c2 phi) N' and (-c1 - c3 phi) N', with phi^2 = phi + 1
        return _make(
            c0 * m0 + c2 * m2, -(c1 * m0 + c3 * m2),
            c0 * m2 + c2 * m0 + c2 * m2, -(c1 * m2 + c3 * m0 + c3 * m2),
            r,
        )

    def __truediv__(self, other: object) -> "GoldenExt":
        try:
            return self * coerce(other).inverse()
        except TypeError:
            return NotImplemented

    def __rtruediv__(self, other: object) -> "GoldenExt":
        try:
            return coerce(other) * self.inverse()
        except TypeError:
            return NotImplemented

    def __pow__(self, k: int) -> "GoldenExt":
        # from a plain copy, so that a GoldenScalar's x**1 is a GoldenExt too
        return power(_make(*self._n), k, ONE)

    def __eq__(self, other: object) -> bool:
        try:
            return self._n == coerce(other)._n
        except TypeError:
            return NotImplemented

    def __lt__(self, other: object) -> bool:
        return (self - coerce(other)).sign() < 0

    def __hash__(self) -> int:
        c0, c1, c2, c3, d = self._n
        if c1 or c2 or c3:
            return hash(self._n)
        if d == 1:
            return hash(c0)
        # the hash of Fraction(c0, d), computed without building it
        try:
            h = hash(hash(abs(c0)) * pow(d, -1, _HASH.modulus))
        except ValueError:
            h = _HASH.inf
        h = h if c0 >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self) -> bool:
        c0, c1, c2, c3, _ = self._n
        return bool(c0 or c1 or c2 or c3)

    def sign(self) -> int:
        """Exact sign of u + v*sqrt(phi); integer arithmetic only."""
        c0, c1, c2, c3, _ = self._n
        su = _sign_q_phi(c0, c2)
        sv = _sign_q_phi(c1, c3)
        if su == 0 or sv == 0 or su == sv:
            return su or sv
        # opposite signs: compare u^2 against v^2*phi; phi is no square in Q(phi)
        return su if _sign_q_phi(*_norm_parts(c0, c1, c2, c3)) > 0 else sv

    def is_scalar(self) -> bool:
        """True iff the value lies in Q(phi): no sqrt(phi) component."""
        _, c1, _, c3, _ = self._n
        return not (c1 or c3)

    def is_rational(self) -> bool:
        _, c1, c2, c3, _ = self._n
        return not (c1 or c2 or c3)

    def is_integer(self) -> bool:
        return self.is_rational() and self._n[4] == 1

    def scalar_part(self) -> "GoldenExt":
        """This value, which must lie in Q(phi); ValueError on a sqrt(phi) component."""
        if not self.is_scalar():
            raise ValueError(f"{self} has a sqrt(phi) component")
        return self

    def phi_ints(self) -> tuple[int, int, int]:
        """(a, b, d) with value (a + b*phi)/d, in lowest terms with d > 0."""
        c0, _, c2, _, d = self.scalar_part()._n
        return c0, c2, d

    def to_float(self) -> float:
        c0, c1, c2, c3, d = self._n
        # a + b*PHI_FLOAT for u and v, then u + v*SQRT_PHI_FLOAT: hulls see the same floats
        return (c0 / d + (c2 / d) * PHI_FLOAT) + (c1 / d + (c3 / d) * PHI_FLOAT) * SQRT_PHI_FLOAT

    def __str__(self) -> str:
        c0, c1, c2, c3, d = self._n
        return _render_terms(d, [(c0, ""), (c2, "phi"), (c1, "sqrt(phi)"), (c3, "phi*sqrt(phi)")])

    def __repr__(self) -> str:
        c0, c1, c2, c3, d = self._n
        u, v = (f"GoldenScalar({_fraction_repr(a, d)}, {_fraction_repr(b, d)})"
                for a, b in ((c0, c2), (c1, c3)))
        return f"GoldenExt({u}, {v})" if c1 or c3 else u


class GoldenScalar(GoldenExt):
    """Builds a + b*phi from a, b in Q(phi); every result is a plain GoldenExt."""

    __slots__ = ()

    def __init__(self, a: FieldLike = 0, b: FieldLike = 0) -> None:
        a0, _, a2, _, ad = coerce(a).scalar_part()._n
        b0, _, b2, _, bd = coerce(b).scalar_part()._n
        # b*phi = b2 + (b0 + b2)*phi, since phi^2 = phi + 1
        _set_n(self, _normal(a0 * bd + b2 * ad, 0, a2 * bd + (b0 + b2) * ad, 0, ad * bd))


_new = object.__new__
_set_n = GoldenExt._n.__set__


def _make(c0: int, c1: int, c2: int, c3: int, d: int) -> GoldenExt:
    x = _new(GoldenExt)
    _set_n(x, _normal(c0, c1, c2, c3, d))
    return x


def _normal(c0: int, c1: int, c2: int, c3: int, d: int) -> tuple[int, int, int, int, int]:
    """Divide out gcd(c0, c1, c2, c3, d) and make d positive."""
    if d != 1:
        g = gcd(c0, c1, c2, c3, d)
        if d < 0:
            g = -g
        if g != 1:
            return c0 // g, c1 // g, c2 // g, c3 // g, d // g
    return c0, c1, c2, c3, d


def _mul_n(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    """Numerators and denominator of x*y, not normalized: the one product formula."""
    # degree-6 product, reduced by a^4 = a^2 + 1, a^5 = a^3 + a, a^6 = 2a^2 + 1
    a0, a1, a2, a3, ad = x
    b0, b1, b2, b3, bd = y
    p4 = a1 * b3 + a2 * b2 + a3 * b1
    p5 = a2 * b3 + a3 * b2
    p6 = a3 * b3
    return (a0 * b0 + p4 + p6,
            a0 * b1 + a1 * b0 + p5,
            a0 * b2 + a1 * b1 + a2 * b0 + p4 + 2 * p6,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + p5,
            ad * bd)


def matmul(xs: Sequence[Sequence[GoldenExt]], ys: Sequence[Sequence[GoldenExt]],
           width: int) -> list[tuple[GoldenExt, ...]]:
    """The rows of X*Y from the rows of X and of Y, which has ``width`` columns.

    Row i sums X[i][k] * (row k of Y) over the nonzero X[i][k] and the
    nonzero entries of row k, on raw numerators; each entry is normalized once.
    """
    sparse = [[(j, y._n) for j, y in enumerate(row) if y._n != _ZERO_N] for row in ys]
    out = []
    for row in xs:
        sums = [_ZERO_N] * width
        for x, terms in zip(row, sparse):
            if x._n != _ZERO_N:
                for j, yn in terms:
                    s0, s1, s2, s3, sd = sums[j]
                    t0, t1, t2, t3, td = _mul_n(x._n, yn)
                    if td == sd:
                        sums[j] = (s0 + t0, s1 + t1, s2 + t2, s3 + t3, sd)
                    else:  # a common denominator, reduced once by _make
                        sums[j] = (s0 * td + t0 * sd, s1 * td + t1 * sd,
                                   s2 * td + t2 * sd, s3 * td + t3 * sd, sd * td)
        out.append(tuple(ZERO if s is _ZERO_N else _make(*s) for s in sums))
    return out


def coerce(x: object) -> GoldenExt:
    """x as a field element: an int, a Fraction or a GoldenExt; TypeError otherwise."""
    # the exact type first: every binary operation coerces its other operand
    if type(x) is GoldenExt or isinstance(x, GoldenExt):
        return x
    # a Fraction can exist only once its module is loaded, so coerce imports none
    fractions = sys.modules.get("fractions")
    if isinstance(x, int) or (fractions is not None and isinstance(x, fractions.Fraction)):
        return _make(x.numerator, 0, 0, 0, x.denominator)
    raise TypeError(f"cannot use {type(x).__name__} as a field element")


def _fraction_repr(n: int, d: int) -> str:
    """repr(Fraction(n, d)) for d > 0, written from the integers."""
    g = gcd(n, d)
    return f"Fraction({n // g}, {d // g})"


def power(x, k: int, one):
    """x**k by square-and-multiply from x; k < 0 inverts x first, and x**0 is ``one``.

    The one power loop of ``GoldenExt`` and ``ExactMatrix``.
    """
    if not isinstance(k, int):
        return NotImplemented
    if k < 0:
        x, k = x.inverse(), -k
    result = None  # x to the low bits of k read so far
    while k:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if k:
            x = x * x
    return one if result is None else result


_ZERO_N = (0, 0, 0, 0, 1)
ZERO = _make(*_ZERO_N)
ONE = _make(1, 0, 0, 0, 1)
PHI = _make(0, 0, 1, 0, 1)
SQRT5 = 2 * PHI - 1
HALF = _make(1, 0, 0, 0, 2)
SQRT_PHI = _make(0, 1, 0, 0, 1)


def _render_terms(d: int, terms: list[tuple[int, str]]) -> str:
    """The terms c/d*unit as text, each c/d in lowest terms; d > 0."""
    parts: list[str] = []
    for c, unit in terms:
        if not c:
            continue
        g = gcd(c, d)
        coeff = str(c // g) if g == d else f"{c // g}/{d // g}"
        if unit and coeff == "1":
            body = unit
        elif unit and coeff == "-1":
            body = f"-{unit}"
        elif unit:
            body = f"{coeff}*{unit}"
        else:
            body = coeff
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f" - {body[1:]}")
        else:
            parts.append(f" + {body}")
    return "".join(parts) if parts else "0"


def sqrt5_form(x: GoldenExt) -> str:
    """Render in the {1, sqrt5} basis, e.g. '7' or '3*sqrt(5)'."""
    a, b, d = x.phi_ints()
    return _render_terms(2 * d, [(2 * a + b, ""), (b, "sqrt(5)")])


_FACTOR = r"sqrt\(phi\)|phi|[0-9]+(?:/[0-9]+)?"
# a run of signs, then factors joined by '*'
_TERM_RE = re.compile(rf"\s*((?:[+-]\s*)*)((?:{_FACTOR})(?:\s*\*\s*(?:{_FACTOR}))*)")


def parse_scalar(text: str) -> GoldenExt:
    """Parse a linear combination of 1, phi, sqrt(phi), phi*sqrt(phi).

    A term is a run of signs, then a '*'-separated product of rational
    literals (p or p/q with q > 0), 'phi', and 'sqrt(phi)'; every term
    after the first starts with a sign.
    """
    total, pos, end = ZERO, 0, len(text.rstrip())
    while True:
        m = _TERM_RE.match(text, pos)
        if m is None or (pos and not m.group(1)):
            raise ValueError(f"cannot parse scalar near {text[pos:]!r}")
        signs, product = m.groups()
        term = ONE
        for factor in product.split("*"):
            factor = factor.strip()
            if factor == "phi":
                term = term * PHI
            elif factor == "sqrt(phi)":
                term = term * SQRT_PHI
            else:
                num, _, den = factor.partition("/")
                try:
                    p, q = int(num), int(den or 1)
                except ValueError:  # only digits match, so only the digit limit gets here
                    raise _digit_limit_error() from None
                if q == 0:
                    raise ValueError(f"zero denominator in {text!r}")
                term = term * _make(p, 0, 0, 0, q)
        total = total + (-term if signs.count("-") % 2 else term)
        pos = m.end()
        if pos == end:
            # a product or sum of in-limit numbers may still be too long to print
            limit, big = sys.get_int_max_str_digits(), max(map(abs, total._n))
            if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
                raise _digit_limit_error()
            return total


def _digit_limit_error() -> ValueError:
    return ValueError(f"a number may have at most {sys.get_int_max_str_digits()} digits")
