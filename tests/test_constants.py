"""Built-in matrices: entries, symmetries, and the named registry."""
from fractions import Fraction

import pytest

from phi8 import cli, constants, identities, lattice, matrix, roots
from phi8.constants import (
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
)
from phi8.field import PHI, SQRT5, GoldenExt, GoldenScalar
from phi8.matrix import ExactMatrix, resolve_matrix


def scale(x):
    # 1/(2 sqrt phi) as a GoldenExt
    return GoldenExt(0, GoldenScalar(Fraction(-1, 2), Fraction(1, 2))) * x


class TestU:
    def test_spot_entries(self):
        U = build_U()
        # corner block: rows {0,7} x cols {0,7} carry 1-phi and -1-phi
        assert U[0][0] == scale(1 - PHI)
        assert U[0][7] == scale(-1 - PHI)
        assert U[7][0] == scale(-1 - PHI)
        assert U[7][7] == scale(1 - PHI)
        # row 0 vanishes outside the corners
        for col in range(1, 7):
            assert U[0][col] == GoldenExt(0)
        # middle block: phi cells and +-1 cells
        assert U[1][1] == scale(-1)
        assert U[1][2] == scale(PHI)
        assert U[1][6] == scale(1)
        assert U[2][3] == scale(-1)
        assert U[2][4] == scale(1)

    def test_symmetric_and_centrosymmetric(self):
        U = build_U()
        J = build_J()
        assert U == U.transpose()
        assert J * U * J == U

    def test_row_sign_pattern(self):
        # row 5 is row 2 with columns 3 and 4 negated;
        # row 6 is row 1 with columns 1 and 6 negated (0-indexed)
        U = build_U()
        for col in range(8):
            flip = -1 if col in (3, 4) else 1
            assert U[5][col] == U[2][col] * flip
        for col in range(8):
            flip = -1 if col in (1, 6) else 1
            assert U[6][col] == U[1][col] * flip

    def test_inverse_table_consistent(self):
        assert build_U() * build_U_inv() == ExactMatrix.identity(8)

    def test_determinant_unit(self):
        # det(U)^2 = det(cmU) = 1
        d = build_U().det()
        assert d * d == GoldenExt(1)


class TestCmU:
    def test_structure(self):
        cm = build_cmU()
        half = Fraction(1, 2)
        sqrt5_half = SQRT5 * half
        for i in range(8):
            for j in range(8):
                if i == j:
                    assert cm[i][j] == GoldenExt(sqrt5_half)
                elif i + j == 7:
                    assert cm[i][j] == GoldenExt(half)
                else:
                    assert cm[i][j] == GoldenExt(0)

    def test_commutes_with_J(self):
        cm = build_cmU()
        J = build_J()
        assert J * cm == cm * J


class TestBrackets:
    def test_entries_are_half_integers(self):
        for B in (bracket_plus(), bracket_minus()):
            for row in B:
                for e in row:
                    _, b, d = e.phi_ints()
                    assert b == 0 and d in (1, 2)

    def test_exchange_relation(self):
        J = build_J()
        Bp = bracket_plus()
        assert bracket_minus() == J * Bp
        assert bracket_minus() == Bp * J


class TestHadamard:
    def test_orders(self):
        for q, n in ((1, 2), (2, 4), (3, 8)):
            H = build_hadamard(q)
            assert H.n == n
            assert H * H.transpose() == ExactMatrix.identity(n) * n

    def test_sylvester_doubling(self):
        H1 = build_hadamard(1)
        H2 = build_hadamard(2)
        for i in range(4):
            for j in range(4):
                expect = H1[i % 2][j % 2] * (-1 if (i >= 2 and j >= 2) else 1)
                assert H2[i][j] == expect

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_hadamard(0)


class TestE8Constants:
    def test_gram_is_cartan(self):
        S = build_srE8()
        assert S * S.transpose() == build_cmE8()

    def test_rows_have_norm_two(self):
        # the doubled rows: squared norm 2 * 2**2
        for row in constants.SRE8_DOUBLED:
            assert sum(x * x for x in row) == 8

    def test_cartan_diagonal(self):
        cm = build_cmE8()
        for i in range(8):
            assert cm[i][i] == GoldenExt(2)

    def test_cartan_symmetric(self):
        cm = build_cmE8()
        assert cm == cm.transpose()


class TestRegistry:
    def test_named(self):
        assert set(NAMED_MATRICES) == {
            "U", "Uinv", "cmU", "J", "H", "srE8", "cmE8", "Bplus", "Bminus",
        }
        for name in NAMED_MATRICES:
            m = resolve_matrix(name)
            assert m.n in (4, 8)

    def test_resolve_prefers_names_then_files(self, tmp_path, monkeypatch):
        p = tmp_path / "tiny.txt"
        p.write_text("1; 0\n0; 1\n")
        assert resolve_matrix(str(p)) == ExactMatrix.identity(2)
        # a file named like a built-in is shadowed by it
        monkeypatch.chdir(tmp_path)
        p.rename(tmp_path / "U")
        assert resolve_matrix("U") is build_U()
        with pytest.raises(ValueError):
            resolve_matrix("no-such-matrix")

    def test_missing_path_is_read_once(self, monkeypatch, capsys):
        calls = []
        read = ExactMatrix.from_file

        def counting(path):
            calls.append(path)
            return read(path)

        monkeypatch.setattr(ExactMatrix, "from_file", counting)
        message = ("'no-such-file' is neither a named matrix "
                   "(Bminus, Bplus, H, J, U, Uinv, cmE8, cmU, srE8) nor a readable file")
        with pytest.raises(ValueError) as exc:
            resolve_matrix("no-such-file")
        assert str(exc.value) == message
        assert calls == ["no-such-file"]
        # the CLI goes through the same resolver: one more read, the same message
        assert cli.main(["dump", "no-such-file"]) == 2
        assert calls == ["no-such-file"] * 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_builders_return_one_shared_instance(self):
        assert build_U() is build_U()
        assert build_cmE8() is build_cmE8()

    def test_choice_names_match_registries(self):
        # the CLI offers these names without loading the registries
        assert matrix.MATRIX_NAMES == tuple(constants.NAMED_MATRICES)
        assert cli.MATRIX_NAMES is matrix.MATRIX_NAMES
        assert cli.BASES == tuple(constants.BASIS_BUILDERS)
        assert cli.MODES == roots.MODES
        assert cli.MAX_ROOTS == roots.MAX_ROOTS
        assert cli.VERIFIER_GROUP_NAMES == tuple(identities.VERIFIER_GROUPS)
        assert cli.LATTICE_CHECK_NAMES == tuple(lattice.CHECK_GROUPS)
