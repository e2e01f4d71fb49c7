"""Exact matrix algebra: products, inverses, powers, char polys, literals."""
import copy
import pickle
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phi8.constants import build_cmU, build_hadamard, build_J, build_U, build_U_inv
from phi8.field import PHI, SQRT5, SQRT_PHI, GoldenExt, GoldenScalar
from phi8.matrix import CharPoly, ExactMatrix, SingularMatrixError
from phi8.report import IdentityReport

small_entries = st.integers(min_value=-4, max_value=4)


def random_matrix(n, draw_entries):
    return ExactMatrix([[next(draw_entries) for _ in range(n)] for _ in range(n)])


class TestBasics:
    def test_identity(self):
        I = ExactMatrix.identity(3)
        assert I * I == I
        assert I.trace() == GoldenExt(3)

    def test_dimension_mismatch(self):
        a = ExactMatrix.identity(2)
        b = ExactMatrix.identity(3)
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            a + b

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2, 3], [4, 5, 6]])

    def test_scalar_ops(self):
        J = build_J(3)
        assert (J * 2) / 2 == J
        assert 2 * J == J + J
        assert -J == J * -1

    def test_immutable(self):
        J = build_J()
        with pytest.raises(AttributeError):
            J.rows = ()
        with pytest.raises(TypeError):
            J[0][0] = 1

    def test_attributes_cannot_be_deleted(self):
        # the builders are cached: one deleted attribute would break every later caller
        values = [(build_U(), "rows"), (PHI, "_n"), (build_U().char_poly(), "coeffs"),
                  (IdentityReport("x", True), "holds")]
        for value, name in values:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
            assert hasattr(value, name)
        assert len(build_U().rows) == 8
        assert build_U() * build_U_inv() == ExactMatrix.identity(8)


class TestCopyAndPickle:
    """Immutable values survive copy, deepcopy and pickle unchanged."""

    @pytest.mark.parametrize("value", [
        PHI, 3 * SQRT_PHI, GoldenScalar(3, -2), build_U(), build_U().char_poly(),
    ], ids=["PHI", "3*SQRT_PHI", "GoldenScalar(3,-2)", "U", "char_poly_U"])
    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, value, clone):
        other = clone(value)
        assert other == value
        assert type(other) is type(value)
        assert hash(other) == hash(value)


class TestProducts:
    def test_U_squared_is_cmU(self):
        U = build_U()
        assert U * U == build_cmU()

    def test_U_times_inverse(self):
        assert build_U() * build_U_inv() == ExactMatrix.identity(8)

    def test_J_involution(self):
        J = build_J()
        assert J * J == ExactMatrix.identity(8)

    def test_elimination_inverse_matches_closed_form(self):
        assert build_U().inverse() == build_U_inv()

    def test_cmU_inverse_closed_form(self):
        # (sqrt5/2) I - (1/2) J, from the difference and sum identities
        half = Fraction(1, 2)
        expected = (
            ExactMatrix.identity(8) * (SQRT5 * half) - build_J() * half
        )
        assert build_cmU().inverse() == expected

    def test_singular_matrix_reports_column(self):
        singular = ExactMatrix([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError) as exc:
            singular.inverse()
        assert exc.value.column == 1
        assert singular.det() == GoldenExt(0)

    def test_det_of_products(self):
        U = build_U()
        J = build_J()
        assert J.det() == GoldenExt(1)  # 8x8 reversal: even permutation
        assert U.det() * U.det() == build_cmU().det()


# zeros repeated so that draws need row swaps and are often singular
oracle_entries = st.sampled_from([
    GoldenExt(0), GoldenExt(0), GoldenExt(0), GoldenExt(1), GoldenExt(-1), GoldenExt(2),
    GoldenExt(PHI), GoldenExt(-PHI), SQRT_PHI, PHI * SQRT_PHI - 1,
])


@st.composite
def oracle_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return ExactMatrix([[draw(oracle_entries) for _ in range(n)] for _ in range(n)])


def leibniz_det(m):
    """Sum over permutations of sign * product; shares no code with elimination."""
    total = GoldenExt(0)
    for perm in permutations(range(m.n)):
        inversions = sum(perm[i] > perm[j] for i in range(m.n) for j in range(i + 1, m.n))
        term = prod((m[i][perm[i]] for i in range(m.n)), start=GoldenExt(1))
        total = total - term if inversions % 2 else total + term
    return total


class TestEliminationOracle:
    @given(oracle_matrices())
    @settings(max_examples=200, deadline=None)
    def test_det_and_inverse_match_leibniz(self, m):
        d = m.det()
        assert d == leibniz_det(m)
        if d:
            assert m * m.inverse() == ExactMatrix.identity(m.n)
        else:
            with pytest.raises(SingularMatrixError):
                m.inverse()


# with rationals of unequal denominators, whose terms need a common denominator
product_entries = st.one_of(
    oracle_entries,
    st.builds(GoldenExt, st.fractions(min_value=-5, max_value=5, max_denominator=9)),
)


@st.composite
def product_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    a, b = ([[draw(product_entries) for _ in range(n)] for _ in range(n)] for _ in range(2))
    return ExactMatrix(a), ExactMatrix(b)


def textbook_product(a, b):
    """Entry (i, j) is the sum over k of a[i][k] * b[k][j], term by term."""
    rows = []
    for i in range(a.n):
        row = []
        for j in range(a.n):
            total = GoldenExt(0)
            for k in range(a.n):
                total = total + a[i][k] * b[k][j]
            row.append(total)
        rows.append(row)
    return ExactMatrix(rows)


class TestProductOracle:
    """The sparse product against the textbook sum; zero rows and columns occur."""

    @given(product_pairs())
    @settings(max_examples=200, deadline=None)
    def test_product_matches_textbook_sum(self, pair):
        a, b = pair
        assert a * b == textbook_product(a, b)
        assert a * a == textbook_product(a, a)  # the kept square

    def test_dense_hadamard(self):
        h = build_hadamard(2)
        assert h * h == textbook_product(h, h) == ExactMatrix.identity(4) * 4


# every operation below computes its result now: operands are fresh copies, with no memo
PLAIN_OPERATIONS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "neg": lambda a, b: -a,
    "scalar": lambda a, b: a * PHI,
    "int-scalar": lambda a, b: 2 * a,
    "div": lambda a, b: a / SQRT_PHI,
    "product": lambda a, b: a * b,
    "square": lambda a, b: a * a,
    "inverse": lambda a, b: a.inverse(),
    "pow0": lambda a, b: a ** 0,
    "pow2": lambda a, b: a ** 2,
}


class TestPlainEntries:
    """Every computed entry is a plain GoldenExt, also from cmU's GoldenScalar diagonal."""

    @pytest.mark.parametrize("op", PLAIN_OPERATIONS)
    @pytest.mark.parametrize("pair", [
        (build_cmU, build_J), (build_J, build_cmU), (build_U, build_cmU),
    ], ids=["cmU,J", "J,cmU", "U,cmU"])
    def test_computed_entries_are_plain(self, op, pair):
        assert type(build_cmU()[0][0]) is GoldenScalar
        a, b = (ExactMatrix(builder().rows) for builder in pair)
        result = PLAIN_OPERATIONS[op](a, b)
        assert all(type(e) is GoldenExt for row in result for e in row)


invertible_matrices = oracle_matrices().filter(lambda m: m.det())


def product_chain(m, k):
    """I * m * ... * m with k factors, one product at a time, never m * m."""
    out = ExactMatrix.identity(m.n)
    for _ in range(k):
        out = out * m
    return out


class TestKeptInverseAndSquare:
    """A matrix keeps its inverse and square; results match fresh computation."""

    @given(invertible_matrices, st.integers(min_value=-6, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_power_matches_fresh_product_chain(self, m, k):
        fresh = ExactMatrix(m.rows)
        first = m ** k
        assert m ** k == first
        if k >= 0:
            assert first == product_chain(fresh, k)
        else:
            assert first * product_chain(fresh, -k) == ExactMatrix.identity(m.n)

    @given(invertible_matrices)
    @settings(max_examples=100, deadline=None)
    def test_repeated_inverse(self, m):
        for _ in range(3):
            assert m * m.inverse() == ExactMatrix.identity(m.n)
        assert m.inverse() is m.inverse()

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    @given(m=invertible_matrices)
    @settings(max_examples=50, deadline=None)
    def test_filled_memo_survives_clone(self, clone, m):
        inverse, square = m.inverse(), m * m
        other = clone(m)
        assert other == m and hash(other) == hash(m) and type(other) is ExactMatrix
        assert other.inverse() == inverse and other * other == square


class TestPowers:
    def test_negative_power(self):
        cm = build_cmU()
        assert cm ** -1 == cm.inverse()
        assert cm ** 0 == ExactMatrix.identity(8)

    def test_power_law_on_cmU(self):
        cm = build_cmU()
        assert cm ** 3 == cm * cm * cm

    @given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
    @settings(max_examples=120, deadline=None)
    def test_pow_additive(self, j, k):
        cm = build_cmU()
        assert cm ** (j + k) == (cm ** j) * (cm ** k)


class TestCharPoly:
    def test_identity_char_poly(self):
        # (x - 1)^8
        cp = ExactMatrix.identity(8).char_poly()
        binom = (1, -8, 28, -56, 70, -56, 28, -8, 1)
        assert cp.coeffs == tuple(GoldenScalar(c) for c in binom)

    def test_U_char_poly(self):
        cp = build_U().char_poly()
        c = cp.coeffs
        two_sqrt5 = SQRT5 * 2
        assert c[0] == GoldenScalar(1)
        assert c[2] == -two_sqrt5
        assert c[4] == GoldenScalar(7)
        assert c[6] == -two_sqrt5
        assert c[8] == GoldenScalar(1)
        assert all(c[i] == GoldenScalar(0) for i in (1, 3, 5, 7))
        assert cp.is_palindromic()

    def test_J_char_poly_palindromic(self):
        assert build_J().char_poly().is_palindromic()

    def test_rescaled(self):
        # antidiagonal 2s: x^2 - 4, divided through by the norm squared
        m = ExactMatrix([[0, 2], [2, 0]])
        cp = m.char_poly().rescaled(4)
        assert cp.coeffs == tuple(GoldenScalar(c) for c in (1, 0, -1))
        with pytest.raises(TypeError):
            m.char_poly().rescaled(4.0)

    def test_rescaled_rejects_odd_coeffs(self):
        m = ExactMatrix([[1, 0], [0, 2]])
        with pytest.raises(ValueError):
            m.char_poly().rescaled(4)

    def test_char_poly_roots_of_U(self):
        # eigenvalues come in pairs +-sqrt(phi), +-1/sqrt(phi)
        cp = build_U().char_poly()
        for val in (PHI, PHI.inverse()):
            x = GoldenExt(0, 1) if val == PHI else GoldenExt(0, 1).inverse()
            acc = GoldenExt(0)
            for c in cp.coeffs:
                acc = acc * x + c
            assert acc == GoldenExt(0)

    @given(st.permutations(list(range(5))))
    @settings(max_examples=120, deadline=None)
    def test_similarity_invariance(self, perm):
        base = ExactMatrix(
            [[((i * 7 + j * 3) % 5) - 2 for j in range(5)] for i in range(5)]
        )
        P = ExactMatrix(
            [[1 if perm[i] == j else 0 for j in range(5)] for i in range(5)]
        )
        conj = P * base * P.inverse()
        assert conj.char_poly() == base.char_poly()


class TestPredicates:
    def test_symmetry_and_orthogonality(self):
        J = build_J()
        assert J == J.transpose()
        assert J.is_orthogonal()
        assert J.is_traceless()  # even size: reversal fixes no diagonal slot
        assert not build_J(3).is_traceless()
        U = build_U()
        assert U == U.transpose()


class TestLiterals:
    def test_roundtrip(self):
        for m in (build_U(), build_cmU(), build_J()):
            assert ExactMatrix.from_literal(m.to_literal()) == m

    def test_comments_and_blanks_skipped(self):
        text = "# heading\n1; 0\n\n0; 1\n"
        assert ExactMatrix.from_literal(text) == ExactMatrix.identity(2)

    def test_from_file(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text(build_cmU().to_literal())
        assert ExactMatrix.from_file(str(p)) == build_cmU()
