"""The benchmark tracer in perfbench/ finds every phi8 function it hooks.

The tracer rebinds functions and methods by name and lists any it cannot
find as missing; a rename in phi8 would silently drop those per-layer
metrics, so this test fails on any missing hook but the ones it names.  A hook that is
found but bypassed reads 0 just as silently, so the hull hooks are also
checked to count what ``project --all`` does.
"""
import json
import subprocess
import sys

from conftest import ROOT, child_env

SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""

TALLY = """
from phi8 import hulls
for basis in ("U", "cmU"):
    hulls.tally_all(hulls.build_vertices(basis))
keys = ("hulls.peel", "hulls.layers", "hulls.qhull_calls")
print(json.dumps({key: tracer.counts[key] for key in keys}))
"""


def run_traced(script):
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_finds_every_hook():
    # the hulls no longer call qhull, and the lattice checks run on doubled
    # integer vectors, so the four Fraction functions the tracer names are
    # deleted; the benchmark change that spans the check groups drops these hooks
    assert sorted(run_traced(SCRIPT)) == [
        "phi8.hulls.ConvexHull",
        "phi8.lattice.count_contact_pairs",
        "phi8.lattice.e8_vertex_coords",
        "phi8.lattice.inner_product_histogram",
        "phi8.lattice.norm_sq",
    ]


def test_tally_all_peels_through_the_hooked_peel():
    # one peel per class (6 for U, 2 for cmU), and the layers of those peels
    counts = run_traced(SCRIPT + TALLY)
    assert counts == {"hulls.peel": 8, "hulls.layers": 59 + 42, "hulls.qhull_calls": 0}
