"""CLI output pinned byte for byte against the files in tests/golden/.

Each case runs one command and compares its stdout, and any file it
writes, with the stored copy.  Regenerate a golden file only for an
intended output change, and say why in the commit.
"""
from pathlib import Path

import pytest

from phi8 import cli

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, files written); "{name}" in argv is the output directory
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
    "roots_cmU_pair_h8": (
        ("roots", "--matrix", "cmU", "--mode", "pair-coupling", "--max-height", "8"),
        (),
    ),
    "lattice": (("lattice",), ()),
    "lattice_json": (("lattice", "--json"), ()),
    "lattice_vertex_coords_json": (("lattice", "--check", "vertex-coords", "--json"), ()),
    "project_all": (("project", "--all"), ()),
    "dump_U": (("dump", "U"), ()),
    "dump_cmU": (("dump", "cmU"), ()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys, tmp_path):
    argv, files = CASES[name]
    code = cli.main([arg.format(out=tmp_path) for arg in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    for fname in files:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname
