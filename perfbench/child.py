"""Run one phi8 command with the tracer installed.

    python3 perfbench/child.py TRACE_JSON ARGS...

behaves like ``phi8 ARGS...`` and writes the tracer's counters and span
times to TRACE_JSON when the command ends.
"""
from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import phi8.cli

    run = tracer.span("cli.main", phi8.cli.main)
    try:
        return run(args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
