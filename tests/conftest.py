"""Helpers shared by the tests that run phi8 in a child interpreter."""
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child_env():
    """This environment, with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env
