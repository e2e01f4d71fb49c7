"""The benchmark tracer in perfbench/ finds every phi8 function it hooks.

The tracer rebinds functions and methods by name and lists any it cannot
find as missing; a rename in phi8 would silently drop those per-layer
metrics, so this test fails on any missing hook instead.
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


def test_tracer_finds_every_hook():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
