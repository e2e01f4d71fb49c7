"""Command line behavior: exit codes, determinism, file outputs."""
import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, child_env
from phi8 import cli, constants, identities, lattice
from phi8.constants import build_cmU
from phi8.identities import IdentityReport
from phi8.matrix import ExactMatrix


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_exit_zero_and_pass_lines(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert all(l.startswith(("PASS", "INFO")) for l in lines)
        assert any(l.startswith("INFO schlafli_probe") for l in lines)

    def test_json_mode(self, capsys):
        code, out = run_cli(capsys, "verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(r["holds"] for r in payload if not r["informational"])

    def test_only_group(self, capsys):
        code, out = run_cli(capsys, "verify", "--only", "brackets")
        assert code == 0
        assert "bracket_exchange" in out

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        fake = [IdentityReport("broken", False)]
        monkeypatch.setattr(identities, "run_all", lambda: fake)
        code, out = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL broken" in out

    def test_informational_failure_does_not_fail_run(self, capsys, monkeypatch):
        fake = [IdentityReport("probe", False, informational=True)]
        monkeypatch.setattr(identities, "run_all", lambda: fake)
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert "INFO probe: deviates" in out


class TestPowers:
    def test_text(self, capsys):
        code, out = run_cli(capsys, "powers", "-n", "4")
        assert code == 0
        assert "(7) * I" in out
        assert "(3*sqrt(5)) * J" in out

    def test_bad_n_exits_two(self, capsys):
        code, _ = run_cli(capsys, "powers", "-n", "0")
        assert code == 2


class TestRoots:
    def test_e8_text_mentions_120(self, capsys):
        code, out = run_cli(capsys, "roots", "--matrix", "cmE8", "--max-height", "30")
        assert code == 0
        assert "120 positive roots" in out
        assert "max height 29" in out

    def test_json_summary(self, capsys):
        code, out = run_cli(
            capsys, "roots", "--matrix", "cmU", "--mode", "pair-coupling",
            "--max-height", "8", "--json",
        )
        payload = json.loads(out)
        assert payload["total"] == 120
        assert payload["by_height"][0] == [1, 8]

    def test_outputs_written(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PHI8_OUT_DIR", str(tmp_path))
        code, _ = run_cli(
            capsys, "roots", "--matrix", "cmE8", "--max-height", "4",
            "--dot", "hasse.dot", "--csv", "roots.csv",
        )
        assert code == 0
        assert (tmp_path / "hasse.dot").read_text().startswith("digraph hasse {")
        csv_text = (tmp_path / "roots.csv").read_text()
        assert csv_text.splitlines()[0] == "index,height,coeffs,weight,parents"

    def test_absolute_path_ignores_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PHI8_OUT_DIR", str(tmp_path / "unused"))
        target = tmp_path / "direct.dot"
        code, _ = run_cli(
            capsys, "roots", "--matrix", "cmE8", "--max-height", "3",
            "--dot", str(target),
        )
        assert code == 0
        assert target.exists()
        assert not (tmp_path / "unused").exists()

    def test_matrix_from_file(self, capsys, tmp_path):
        p = tmp_path / "a2.txt"
        p.write_text("2; -1\n-1; 2\n")
        code, out = run_cli(capsys, "roots", "--matrix", str(p))
        assert code == 0
        assert "3 positive roots" in out

    def test_unknown_matrix_exits_two(self, capsys):
        code, _ = run_cli(capsys, "roots", "--matrix", "bogus")
        assert code == 2

    def test_zero_diagonal_needs_other_mode(self, capsys):
        code, _ = run_cli(capsys, "roots", "--matrix", "J")
        assert code == 2
        code, out = run_cli(
            capsys, "roots", "--matrix", "J", "--mode", "pair-coupling",
            "--max-height", "8",
        )
        assert code == 0
        assert "120 positive roots" in out

    def test_max_roots_stops_unbounded_growth(self):
        # pair-coupling on cmE8 doubles its roots per height; without the
        # cap, height 30 runs until the timeout kills it
        proc = subprocess.run(
            [sys.executable, "-m", "phi8.cli", "roots", "--mode", "pair-coupling",
             "--max-height", "30", "--max-roots", "1000"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: enumeration passed max_roots=1000 at height 8\n"

    def test_max_roots_below_the_rank(self, tmp_path, capsys):
        # the simple roots count toward the bound, so it fires at height 1
        a2 = tmp_path / "a2.txt"
        a2.write_text("2; -1\n-1; 2\n")
        for argv, bound in ((["--max-roots", "5", "--max-height", "30"], 5),
                            (["--matrix", str(a2), "--max-roots", "1"], 1)):
            assert cli.main(["roots", *argv]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: enumeration passed max_roots={bound} at height 1\n"

    @pytest.mark.parametrize(
        "args",
        (
            ("--matrix", "{golden}/a3.txt"),
            ("--matrix", "{golden}/d5_scaled.txt", "--mode", "raw-pairing"),
            ("--matrix", "U", "--mode", "raw-pairing", "--max-height", "5"),
        ),
        ids=("a3", "d5_scaled-raw", "U-raw-h5"),
    )
    def test_no_dedup_changes_only_csv_rows_and_records(self, capsys, tmp_path, args):
        args = [a.format(golden=ROOT / "tests" / "golden") for a in args]

        def run(*extra):
            tag = "-".join(extra) or "plain"
            files = [tmp_path / f"{tag}.csv", tmp_path / f"{tag}.dot"]
            code, out = run_cli(capsys, "roots", *args, *extra,
                                "--json", "--csv", str(files[0]), "--dot", str(files[1]))
            assert code == 0
            text_code, text = run_cli(capsys, "roots", *args, *extra)
            assert text_code == 0
            return out, json.loads(out)["records"], text, *(f.read_text() for f in files)

        out, records, text, csv_text, dot = run()
        raw_out, raw_records, raw_text, raw_csv, raw_dot = run("--no-dedup")
        assert raw_text == text
        assert raw_dot == dot
        assert records == len(csv_text.splitlines()) - 1 == json.loads(out)["total"]
        assert raw_records == len(raw_csv.splitlines()) - 1 > records
        assert raw_out == out.replace(f'"records": {records},', f'"records": {raw_records},')


class TestLattice:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli(capsys, "lattice")
        assert code == 0
        assert "FAIL" not in out

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        fake = [IdentityReport("broken_lattice", False)]
        monkeypatch.setitem(lattice.CHECK_GROUPS, "hamming", lambda: fake)
        code, out = run_cli(capsys, "lattice", "--check", "hamming")
        assert code == 1
        assert out == "FAIL broken_lattice\n"

    def test_checks_cover_all(self, capsys):
        per_check = []
        for check in lattice.CHECK_GROUPS:
            code, out = run_cli(capsys, "lattice", "--check", check)
            assert code == 0
            per_check.extend(out.splitlines())
        code, out = run_cli(capsys, "lattice")
        assert per_check == out.splitlines()


class TestReportJson:
    """Every report command prints one JSON shape: a list of IdentityReport.to_dict()."""

    @pytest.mark.parametrize("argv, name", [
        (("verify", "--json"), "golden_cartan_difference"),
        (("lattice", "--json"), "lattice_unimodular"),
        (("lattice", "--check", "hamming", "--json"), "hamming_weight_enumerator"),
        (("powers", "-n", "2", "--json"), "power_2_sum"),
    ], ids=["verify", "lattice", "lattice-hamming", "powers"])
    def test_list_of_report_dicts(self, capsys, argv, name):
        code, out = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert code == 0
        assert isinstance(payload, list)
        keys = set(IdentityReport("any", True).to_dict())
        assert all(set(entry) == keys for entry in payload)
        assert all(entry["holds"] for entry in payload if not entry["informational"])
        assert name in {entry["name"] for entry in payload}
        if argv[0] == "powers":
            assert [e["details"]["scalar"] for e in payload[:2]] == ["3", "sqrt(5)"]


class TestProject:
    def test_dims_text(self, capsys):
        code, out = run_cli(capsys, "project", "--dims", "2,3,4")
        assert code == 0
        assert "240 vertices from 120 positive roots" in out
        assert "regular octahedron" in out
        assert "regular icosahedron" in out

    def test_bad_dims_exit_two(self, capsys):
        for bad in ("1,2", "a,b,c", "0,1,2", "1,1,2"):
            code, _ = run_cli(capsys, "project", "--dims", bad)
            assert code == 2, bad

    def test_json_and_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PHI8_OUT_DIR", str(tmp_path))
        code, out = run_cli(
            capsys, "project", "--dims", "2,3,4", "--json",
            "--csv", "sig.csv", "--obj", "mesh",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["vertex_count"] == 240
        assert len(payload["reports"]) == 1
        assert (tmp_path / "sig.csv").exists()
        objs = sorted((tmp_path / "mesh").glob("*.obj"))
        assert objs, "expected OBJ meshes"
        head = objs[0].read_text().splitlines()
        assert head[0].startswith("o dims234_layer")


class TestDump:
    def test_roundtrip(self, capsys):
        code, out = run_cli(capsys, "dump", "cmU")
        assert code == 0
        assert ExactMatrix.from_literal(out) == build_cmU()

    def test_all_named(self, capsys):
        for name in ("U", "Uinv", "J", "H", "srE8", "cmE8", "Bplus", "Bminus"):
            code, out = run_cli(capsys, "dump", name)
            assert code == 0
            assert ExactMatrix.from_literal(out).n in (4, 8)


class TestMalformedInput:
    @pytest.mark.parametrize("command", ("roots", "dump"))
    def test_zero_denominator_exits_two(self, capsys, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_text("2; 1/0\n-1; 2\n")
        argv = ("roots", "--matrix", str(path)) if command == "roots" else ("dump", str(path))
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "zero denominator" in captured.err

    def test_non_ascii_digit_exits_two(self, capsys, tmp_path):
        path = tmp_path / "arabic.txt"
        path.write_text("\u0663/\u0664*phi; 0\n0; 1\n", encoding="utf-8")
        code = cli.main(["dump", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", ("roots", "dump"))
    def test_byte_order_mark_accepted(self, capsys, tmp_path, command):
        text = (ROOT / "tests" / "golden" / "a3.txt").read_bytes()
        path = tmp_path / "a3.txt"
        argv = ["roots", "--matrix", str(path)] if command == "roots" else ["dump", str(path)]
        outs = []
        for data in (text, b"\xef\xbb\xbf" + text):
            path.write_bytes(data)
            code = cli.main(argv)
            outs.append(capsys.readouterr().out)
            assert code == 0
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("n, code", [(20575, 0), (20576, 2), (10**21, 2)])
    def test_powers_within_digit_limit(self, n, code):
        # phi^20576 has more digits than the default limit of 4300 lets Python print
        env = {**child_env(), "PYTHONINTMAXSTRDIGITS": "4300"}
        proc = subprocess.run(
            [sys.executable, "-m", "phi8.cli", "powers", "-n", str(n)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == code
        assert "set_int_max_str_digits" not in proc.stderr
        if code == 2:
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("command", ("dump", "roots"))
    @pytest.mark.parametrize(
        "cell",
        ("5" * 5001, "1/" + "5" * 5001, "5" * 4300, "9" * 3000 + "*" + "9" * 3000,
         f"1/{10**2999 + 1} + 1/{10**2999 + 3}"),
        ids=("numerator-5001", "denominator-5001", "numerator-4300", "product-3000x3000",
             "sum-3000+3000"))
    def test_cell_within_digit_limit(self, tmp_path, command, cell):
        # a cell of more digits than the interpreter converts is a usage error,
        # also when only its product or sum of in-limit numbers has that many
        path = tmp_path / "big.txt"
        path.write_text(f"2; {cell}\n0; 2\n")
        argv = ["dump", str(path)] if command == "dump" else ["roots", "--matrix", str(path)]
        env = {**child_env(), "PYTHONINTMAXSTRDIGITS": "4300"}
        proc = subprocess.run(
            [sys.executable, "-m", "phi8.cli", *argv],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert "set_int_max_str_digits" not in proc.stderr
        if len(cell) == 4300:
            assert proc.returncode == 0, proc.stderr
        else:
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ")
            assert "4300 digits" in proc.stderr


# Cells valid or not; rows may be ragged.
_cells = st.one_of(
    st.sampled_from(["2", "-1", "0", " 2 ", "phi", "-phi", "sqrt(phi)", "1/2*phi",
                     "-3/2", "--1", "1/0"]),
    st.lists(
        st.sampled_from(["phi", "sqrt(phi)", "2", "-1", "0", "1/0", "/", "*", "+", "-",
                         " ", "\t", "x", "(", ")", ".", "#"]),
        max_size=5,
    ).map("".join),
)
_rows = st.lists(_cells, min_size=1, max_size=4).map(";".join)
_fillers = st.sampled_from(["", "   ", "# comment", "  # indented comment"])


@st.composite
def matrix_files(draw):
    """1-4 rows with up to two blank or '#' lines among them."""
    lines = draw(st.lists(_rows, min_size=1, max_size=4))
    for filler in draw(st.lists(_fillers, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), filler)
    return "\n".join(lines)


class TestMatrixFileFuzz:
    @given(matrix_files())
    @settings(max_examples=150, deadline=None)
    def test_exit_zero_or_two(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "m.txt"
        path.write_text(text)
        for argv in (["dump", str(path)], ["roots", "--matrix", str(path), "--max-height", "4"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2), (argv, text, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert out.getvalue() == ""
                assert err.getvalue().startswith("error: ")


class TestEmptyOutputPath:
    @pytest.mark.parametrize(
        "argv",
        (
            ("roots", "--max-height", "3", "--csv", ""),
            ("roots", "--max-height", "3", "--dot", ""),
            ("project", "--dims", "1,2,3", "--csv", ""),
            ("project", "--dims", "1,2,3", "--obj", ""),
        ),
        ids=("roots-csv", "roots-dot", "project-csv", "project-obj"),
    )
    def test_usage_error_writes_nothing(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PHI8_OUT_DIR", raising=False)
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: output path is empty\n"
        assert list(tmp_path.iterdir()) == []


class TestInternalError:
    def test_unexpected_exception_exits_three(self, capsys, monkeypatch):
        def broken():
            raise RuntimeError("builder broke")

        monkeypatch.setitem(constants.NAMED_MATRICES, "cmE8", broken)
        code = cli.main(["dump", "cmE8"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("Traceback")
        assert "RuntimeError: builder broke" in captured.err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        (
            ("verify", "--json"),
            ("powers", "-n", "7", "--json"),
            ("roots", "--matrix", "cmE8", "--max-height", "30", "--json"),
            ("project", "--dims", "2,3,4", "--json"),
            ("lattice", "--check", "hamming", "--json"),
        ),
        ids=("verify", "powers", "roots", "project", "lattice"),
    )
    def test_double_run_byte_identical(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "phi8.cli", "powers", "-n", "1"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "(sqrt(5)) * I" in proc.stdout

    def test_usage_error_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "phi8.cli", "no-such-command"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 2
