"""The package surface, and which modules a command loads.

`import phi8` loads no submodule, and each command loads only the
modules it runs.  No command imports numpy or scipy: phi8 has no runtime
dependency, and scipy's qhull is only a test oracle.  No command imports
fractions either: below the API every number is the field's integers.  Each import check
runs in a fresh interpreter with src/ first on PYTHONPATH, because this
process has long since imported everything.
"""
import functools
import subprocess
import sys

import pytest

import phi8
from conftest import ROOT, child_env

HEAVY = ("numpy", "scipy", "scipy.spatial")
FRACTIONS = ("fractions", "decimal")
WATCHED = (*HEAVY, *FRACTIONS, "json", "traceback", "dataclasses", "inspect")
# a matrix file with golden entries, read relative to the repository root
MATRIX_FILE = "tests/golden/d5_scaled.txt"

# runs phi8.cli.main(argv), then reports on stderr which WATCHED modules
# and phi8 submodules it loaded
RUN_MAIN = f"""
import sys
from phi8.cli import main
code = main(sys.argv[1:])
loaded = [m for m in sys.modules if m in {WATCHED!r} or m.startswith("phi8.")]
sys.stderr.write("loaded: " + " ".join(loaded) + "\\n")
sys.exit(code)
"""


def fresh_python(code, *argv):
    env = child_env()
    env.pop("PHI8_OUT_DIR", None)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


@functools.cache
def loaded_by(*argv):
    proc = fresh_python(RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("loaded:"), proc.stderr
    return frozenset(last.split()[1:])


class TestImportCost:
    @pytest.mark.parametrize(
        "argv",
        (
            ("verify",),
            ("powers", "-n", "12"),
            ("dump", "U"),
            ("roots", "--max-height", "30"),
            ("lattice",),
        ),
        ids=("verify", "powers", "dump", "roots", "lattice"),
    )
    def test_command_loads_no_hull_stack(self, argv):
        assert loaded_by(*argv).isdisjoint(HEAVY)

    @pytest.mark.parametrize(
        "argv", (("project", "--dims", "2,3,4"), ("project", "--all", "--json", "--obj", "{tmp}")),
        ids=("dims", "all"))
    def test_project_loads_no_numpy_scipy_or_dataclasses(self, argv, tmp_path):
        # positive control: the probe does see the hulls module, which
        # imports none of them
        loaded = loaded_by(*(a.format(tmp=tmp_path / "obj") for a in argv))
        assert "phi8.hulls" in loaded
        assert loaded.isdisjoint((*HEAVY, "dataclasses", "inspect"))

    @pytest.mark.parametrize(
        "argv, absent, present",
        (
            (("dump", "U"),
             ("phi8.identities", "phi8.report", "phi8.roots", "phi8.lattice", "phi8.hulls",
              "json", "traceback", "dataclasses"),
             ("phi8.constants", "phi8.field", "phi8.matrix")),
            (("roots", "--max-height", "30"),
             ("phi8.identities", "phi8.report", "phi8.lattice", "dataclasses"), ("phi8.roots",)),
            (("verify",), ("phi8.roots", "phi8.lattice", "dataclasses", "inspect"),
             ("phi8.identities",)),
            (("powers", "-n", "12"), ("phi8.roots", "phi8.lattice", "dataclasses", "inspect"),
             ("phi8.identities",)),
            # positive controls: the probe sees the modules a command does use;
            # lattice builds its reports from the report model, not the identity battery
            (("lattice",), ("phi8.hulls", "phi8.identities", "dataclasses"),
             ("phi8.lattice", "phi8.roots", "phi8.report")),
            (("verify", "--json"), ("phi8.roots", "phi8.lattice", "dataclasses", "inspect"),
             ("phi8.identities", "json")),
        ),
        ids=("dump", "roots", "verify", "powers", "lattice", "verify-json"),
    )
    def test_command_loads_only_its_modules(self, argv, absent, present):
        loaded = loaded_by(*argv)
        assert loaded.isdisjoint(absent)
        assert loaded >= set(present)

    @pytest.mark.parametrize(
        "argv",
        (
            ("verify",),
            ("verify", "--json"),
            ("powers", "-n", "12"),
            ("dump", "U"),
            ("dump", MATRIX_FILE),
            ("roots", "--max-height", "30", "--csv", "{tmp}/r.csv", "--dot", "{tmp}/r.dot"),
            ("roots", "--matrix", MATRIX_FILE, "--csv", "{tmp}/r.csv", "--dot", "{tmp}/r.dot"),
            ("lattice",),
            ("lattice", "--json"),
            ("project", "--all", "--json", "--obj", "{tmp}/obj"),
            ("project", "--dims", "2,3,4"),
        ),
        ids=("verify", "verify-json", "powers", "dump-name", "dump-file", "roots-name",
             "roots-file", "lattice", "lattice-json", "project-all", "project-dims"),
    )
    def test_no_command_imports_fractions(self, argv, tmp_path):
        loaded = loaded_by(*(a.format(tmp=tmp_path) for a in argv))
        assert loaded.isdisjoint(FRACTIONS)

    @pytest.mark.parametrize(
        "argv, modules",
        (
            (("dump", MATRIX_FILE), {"phi8.cli", "phi8.field", "phi8.matrix"}),
            (("roots", "--matrix", MATRIX_FILE, "--csv", "{tmp}/r.csv", "--dot", "{tmp}/r.dot"),
             {"phi8.cli", "phi8.field", "phi8.matrix", "phi8.roots"}),
            # positive control: a name does load the builders
            (("dump", "U"), {"phi8.cli", "phi8.constants", "phi8.field", "phi8.matrix"}),
        ),
        ids=("dump-file", "roots-file", "dump-name"),
    )
    def test_matrix_file_loads_no_builders(self, argv, modules, tmp_path):
        loaded = loaded_by(*(a.format(tmp=tmp_path) for a in argv))
        assert {m for m in loaded if m.startswith("phi8.")} == modules

    def test_import_phi8_loads_no_submodule(self):
        proc = fresh_python(
            "import sys, phi8\n"
            "print(' '.join(m for m in sys.modules if m.startswith('phi8.')))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_report_model_is_a_leaf(self):
        proc = fresh_python(
            "import sys, phi8.report\n"
            "print(' '.join(m for m in sys.modules if m.startswith('phi8.')))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["phi8.report"]

    def test_field_views_load_no_fractions(self):
        # a rational, a Q(phi) and a sqrt(phi) element; the last has no
        # phi_ints or sqrt5_form, and its ValueError loads nothing either
        proc = fresh_python(
            "import sys\n"
            "from phi8.field import PHI, SQRT_PHI, GoldenExt, sqrt5_form\n"
            "for x in (GoldenExt(-3) / 4, (PHI - 2) / 6, (1 + SQRT_PHI) / 5):\n"
            "    print(repr(x), str(x), sep='; ')\n"
            "    try:\n"
            "        print(x.phi_ints(), sqrt5_form(x), sep='; ')\n"
            "    except ValueError:\n"
            "        print('no rational view')\n"
            f"print('loaded:', *(m for m in sys.modules if m in {FRACTIONS!r}))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "GoldenScalar(Fraction(-3, 4), Fraction(0, 1)); -3/4",
            "(-3, 0, 4); -3/4",
            "GoldenScalar(Fraction(-1, 3), Fraction(1, 6)); -1/3 + 1/6*phi",
            "(-2, 1, 6); -1/4 + 1/12*sqrt(5)",
            "GoldenExt(GoldenScalar(Fraction(1, 5), Fraction(0, 1)), "
            "GoldenScalar(Fraction(1, 5), Fraction(0, 1))); 1/5 + 1/5*sqrt(phi)",
            "no rational view",
            "loaded:",
        ]

    def test_from_phi8_import_hulls_loads_the_submodule(self):
        proc = fresh_python(
            "import sys, phi8\n"
            "assert 'phi8.hulls' not in sys.modules\n"
            "from phi8 import hulls\n"
            "assert hulls is sys.modules['phi8.hulls']\n"
            "assert 'numpy' not in sys.modules and 'scipy' not in sys.modules\n"
        )
        assert proc.returncode == 0, proc.stderr


class TestPackageApi:
    def test_every_exported_name_resolves(self):
        assert [name for name in phi8.__all__ if not hasattr(phi8, name)] == []

    def test_star_import(self):
        namespace = {}
        exec("from phi8 import *", namespace)
        assert set(phi8.__all__) <= set(namespace)

    def test_hull_names_are_the_hulls_objects(self):
        from phi8 import hulls

        for name in ("HullLayer", "HullReport", "VertexSet", "analyze",
                     "build_vertices", "tally_all"):
            assert getattr(phi8, name) is getattr(hulls, name)
        assert phi8.tally_all is phi8.hulls.tally_all

    def test_submodules_resolve(self):
        for name in ("constants", "field", "matrix", "identities", "roots", "lattice", "hulls",
                     "report"):
            assert getattr(phi8, name) is sys.modules[f"phi8.{name}"]

    def test_one_report_class(self):
        from phi8 import identities, report

        assert phi8.IdentityReport is identities.IdentityReport is report.IdentityReport
        # perfbench/tracer.py counts reports by patching the class's own __init__
        assert "__init__" in vars(report.IdentityReport)

    def test_e8_roots_are_fractions(self):
        # gen_e8_roots is the one query that returns Fractions, built where returned
        from fractions import Fraction

        assert all(type(v) is Fraction for v in phi8.gen_e8_roots()[0])

    def test_unknown_attribute_names_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            phi8.no_such_name
