"""Dense exact matrices over the golden field extension.

Entries are ``GoldenExt`` values; every operation here is exact.  Inverse
and determinant share one Gauss-Jordan pass, and ``**`` is the field's
square-and-multiply loop; a matrix keeps its inverse and square, so its
powers share one inverse and one chain of squares.  Only the constructor
coerces entries; results keep the plain ones they compute.  Work skips zero
entries: a product is one sparse ``field.matmul``.  The characteristic
polynomial uses the Faddeev-LeVerrier recursion, dividing only by integers.
"""
from __future__ import annotations

from functools import cache
from math import prod
from operator import add, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .field import ONE, ZERO, FieldLike, GoldenExt, _frozen, coerce, matmul, parse_scalar, power


class SingularMatrixError(ValueError):
    """Raised when elimination finds no nonzero pivot."""

    def __init__(self, column: int) -> None:
        super().__init__(f"singular matrix: no nonzero pivot in column {column}")
        self.column = column


class ExactMatrix:
    """Immutable square matrix over GoldenExt; keeps its inverse and square."""

    __slots__ = ("n", "rows", "_inverse", "_square")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, rows: Iterable[Iterable[FieldLike]]) -> None:
        converted = tuple(tuple(map(coerce, row)) for row in rows)
        n = len(converted)
        if n == 0:
            raise ValueError("empty matrix")
        for row in converted:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in {n}x{n}")
        self._fill(converted)

    def _fill(self, rows: tuple[tuple[GoldenExt, ...], ...]) -> "ExactMatrix":
        for slot, value in zip(self.__slots__, (len(rows), rows, None, None)):
            object.__setattr__(self, slot, value)
        return self

    def __reduce__(self):
        return type(self), (self.rows,)

    @classmethod
    @cache
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, i: int) -> tuple[GoldenExt, ...]:
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(sub, other)

    def _entrywise(self, op: Callable[..., GoldenExt], other: object) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_dim(other)
        return _computed([[op(a, b) if a or b else ZERO for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "ExactMatrix":
        return _computed([[-e if e else ZERO for e in row] for row in self.rows])

    def _check_dim(self, other: "ExactMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n}x{self.n} vs {other.n}x{other.n}")

    def __mul__(self, other: object) -> "ExactMatrix":
        if isinstance(other, ExactMatrix):
            if other is self:
                if self._square is None:
                    object.__setattr__(self, "_square", self._matmul(self))
                return self._square
            self._check_dim(other)
            return self._matmul(other)
        try:
            s = coerce(other)
        except TypeError:
            return NotImplemented
        return _computed([[e * s if e else ZERO for e in row] for row in self.rows])

    __rmul__ = __mul__  # the field is commutative

    def _matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        return _computed(matmul(self.rows, other.rows, self.n))

    def __truediv__(self, other: object) -> "ExactMatrix":
        return self * coerce(other).inverse()

    def transpose(self) -> "ExactMatrix":
        return _computed(zip(*self.rows))

    def trace(self) -> GoldenExt:
        return sum((row[i] for i, row in enumerate(self.rows)), ZERO)

    def _gauss_jordan(
        self, right: Sequence[Sequence[GoldenExt]]
    ) -> tuple[list[GoldenExt], int, list[list[GoldenExt]]]:
        """Reduce [self | right] to [I | X], first nonzero pivot in each column.

        Returns the pivots in column order, the number of row swaps and X;
        raises SingularMatrixError at a column without a nonzero pivot.
        """
        n = self.n
        work = [list(row) + list(extra) for row, extra in zip(self.rows, right)]
        pivots: list[GoldenExt] = []
        swaps = 0
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col]), None)
            if pivot_row is None:
                raise SingularMatrixError(col)
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                swaps += 1
            pivots.append(work[col][col])
            pinv = work[col][col].inverse()
            work[col] = [e * pinv if e else ZERO for e in work[col]]
            for r in range(n):
                if r == col or not work[r][col]:
                    continue
                factor = work[r][col]
                work[r] = [e - factor * p if p else e for e, p in zip(work[r], work[col])]
        return pivots, swaps, [row[n:] for row in work]

    def inverse(self) -> "ExactMatrix":
        """Gauss-Jordan on [self | I], run once per matrix."""
        if self._inverse is None:
            inverse = self._gauss_jordan(ExactMatrix.identity(self.n).rows)[2]
            object.__setattr__(self, "_inverse", _computed(inverse))
        return self._inverse

    def __pow__(self, k: int) -> "ExactMatrix":
        return power(self, k, ExactMatrix.identity(self.n))

    def det(self) -> GoldenExt:
        """Product of the Gauss-Jordan pivots, negated for an odd number of swaps."""
        try:
            pivots, swaps, _ = self._gauss_jordan([()] * self.n)
        except SingularMatrixError:
            return ZERO
        d = prod(pivots, start=ONE)
        return -d if swaps % 2 else d

    def char_poly(self) -> "CharPoly":
        """Faddeev-LeVerrier recursion; divides only by integers."""
        coeffs: list[GoldenExt] = [ONE, -(self.trace())]
        m = self
        for k in range(2, self.n + 1):
            # self * (m + c*I), c the last coefficient: c added on the diagonal
            m = self * _computed([e + coeffs[-1] if i == j else e for j, e in enumerate(row)]
                                 for i, row in enumerate(m.rows))
            coeffs.append(-(m.trace()) / k)
        return CharPoly(tuple(coeffs))

    def is_orthogonal(self) -> bool:
        return self.transpose() * self == ExactMatrix.identity(self.n)

    def is_traceless(self) -> bool:
        return not self.trace()

    def to_literal(self) -> str:
        """Render as newline-separated rows of ';'-separated entries."""
        return "\n".join("; ".join(str(e) for e in row) for row in self.rows)

    @classmethod
    def from_literal(cls, text: str) -> "ExactMatrix":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([parse_scalar(cell) for cell in line.split(";")])
        if not rows:
            raise ValueError("no matrix rows found")
        return cls(rows)

    @classmethod
    def from_file(cls, path: str) -> "ExactMatrix":
        with open(path, "r", encoding="utf-8-sig") as fh:
            return cls.from_literal(fh.read())

    def __repr__(self) -> str:
        return f"ExactMatrix({self.n}x{self.n})"


def _computed(rows: Iterable[Iterable[GoldenExt]]) -> ExactMatrix:
    """A result from square rows of computed GoldenExt entries: not coerced or checked again."""
    return object.__new__(ExactMatrix)._fill(tuple(map(tuple, rows)))


class CharPoly(NamedTuple):
    """Monic characteristic polynomial, coefficients degree-descending."""

    coeffs: tuple[GoldenExt, ...]

    __setattr__ = __delattr__ = _frozen

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

    def rescaled(self, denom_sq: FieldLike) -> "CharPoly":
        """Characteristic polynomial of A/s given this one for A, s^2 = denom_sq.

        Coefficient k picks up the factor s^-k; only even k stay rational,
        so every odd coefficient must vanish.
        """
        denom_sq = coerce(denom_sq)
        if denom_sq <= 0:
            raise ValueError("denom_sq must be positive")
        out: list[GoldenExt] = []
        for k, c in enumerate(self.coeffs):
            if k % 2 == 0:
                out.append(c / denom_sq ** (k // 2))
            elif not c:
                out.append(c)
            else:
                raise ValueError(f"odd coefficient {k} is nonzero; rescale is irrational")
        return CharPoly(tuple(out))

    def __repr__(self) -> str:
        return f"CharPoly(degree={self.degree})"
