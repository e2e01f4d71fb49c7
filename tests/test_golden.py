"""CLI output pinned byte for byte against the files in tests/golden/.

Each case runs one command and compares its stdout, and any file it
writes, with the stored copy.  Regenerate a golden file only for an
intended output change, and say why in the commit.
"""
from pathlib import Path

import pytest

from phi8 import cli

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, files written).  In argv "{out}" is the output directory
# and "{golden}" is tests/golden/ as seen from the repository root, where
# the cases run, so a matrix path printed to stdout stays the same.
PROJECT_234_OBJ = tuple(
    f"project_234_obj/dims234_layer{k}.obj" for k in range(13)
)
CASES = {
    "verify": (("verify",), ()),
    "verify_json": (("verify", "--json"), ()),
    "verify_only_powers": (("verify", "--only", "powers"), ()),
    "powers_12": (("powers", "-n", "12"), ()),
    "powers_37_json": (("powers", "-n", "37", "--json"), ()),
    "roots_e8_h30": (
        ("roots", "--max-height", "30", "--json",
         "--csv", "{out}/roots_e8_h30.csv", "--dot", "{out}/roots_e8_h30.dot"),
        ("roots_e8_h30.csv", "roots_e8_h30.dot"),
    ),
    # --no-dedup changes only the CSV rows and the JSON "records": the
    # DOT is compared with the one written without the flag
    "roots_e8_h30_no_dedup": (
        ("roots", "--max-height", "30", "--no-dedup", "--json",
         "--csv", "{out}/roots_e8_h30_no_dedup.csv", "--dot", "{out}/roots_e8_h30.dot"),
        ("roots_e8_h30_no_dedup.csv", "roots_e8_h30.dot"),
    ),
    "roots_cmU_pair_h8": (
        ("roots", "--matrix", "cmU", "--mode", "pair-coupling", "--max-height", "8"),
        (),
    ),
    "roots_d5_scaled_h30": (
        ("roots", "--matrix", "{golden}/d5_scaled.txt", "--max-height", "30",
         "--csv", "{out}/roots_d5_scaled_h30.csv", "--dot", "{out}/roots_d5_scaled_h30.dot"),
        ("roots_d5_scaled_h30.csv", "roots_d5_scaled_h30.dot"),
    ),
    "roots_a3_no_dedup_json": (
        ("roots", "--matrix", "{golden}/a3.txt", "--no-dedup", "--json",
         "--csv", "{out}/roots_a3_no_dedup.csv"),
        ("roots_a3_no_dedup.csv",),
    ),
    "lattice": (("lattice",), ()),
    "lattice_json": (("lattice", "--json"), ()),
    "lattice_vertex_coords_json": (("lattice", "--check", "vertex-coords", "--json"), ()),
    "project_all": (("project", "--all"), ()),
    "project_all_json": (("project", "--all", "--json"), ()),
    "project_all_cmU_json": (("project", "--all", "--basis", "cmU", "--json"), ()),
    "project_all_cmU_csv": (
        ("project", "--all", "--basis", "cmU", "--csv", "{out}/project_all_cmU.csv"),
        ("project_all_cmU.csv",),
    ),
    "project_234_json": (
        ("project", "--dims", "2,3,4", "--json", "--obj", "{out}/project_234_obj"),
        PROJECT_234_OBJ,
    ),
    "dump_U": (("dump", "U"), ()),
    "dump_cmU": (("dump", "cmU"), ()),
    "dump_d5_scaled": (("dump", "{golden}/d5_scaled.txt"), ()),
    "dump_literals": (("dump", "{golden}/literals.txt"), ()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys, tmp_path, monkeypatch):
    argv, files = CASES[name]
    monkeypatch.chdir(GOLDEN.parent.parent)
    monkeypatch.delenv("PHI8_OUT_DIR", raising=False)
    code = cli.main([arg.format(out=tmp_path, golden="tests/golden") for arg in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    for fname in files:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname
