"""Benchmark of the phi8 command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a phi8 checkout; phi8 is imported from its
``src/`` directory, never from an installed copy.  Ops run one at a
time, each in a fresh interpreter, as a closed loop with one client.
Every op's output is checked against the oracles in ``oracles.py``.

--trace 0 measures set-up (fresh interpreter to ``import phi8`` done)
several times and reports the median, then repeats whole passes over
the workload's ops for about S seconds (at least three) and reports the
time per pass over that window: measured time over passes completed.

--trace 1 runs a pass with ``tracer.py`` installed in every child, a
plain pass and a second traced pass, then the checked kernels of
``kernels.py``.  It reports the per-layer counters and times, and
tracing overhead as traced pass time over plain pass time.  The two
traced passes must give identical counts.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
readable report.  Scratch files go to ``.perfbench_work/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
# what the `phi8` console script runs
ENTRY = "import sys; from phi8.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170.0
MODULES = ("field", "matrix", "constants", "identities", "roots", "lattice", "hulls", "cli")
OP_METRICS = ("verify_s", "powers_s", "roots_s", "lattice_s", "project_s", "dump_s")


class Fatal(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class OpResult:
    seconds: float
    returncode: int
    maxrss_kb: int
    stdout: str = ""
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None


@dataclass
class Pass:
    wall: float
    ops: list[OpResult]
    op_seconds: dict[str, float]
    peak_rss_mb: float
    bytes_out: int

    @property
    def failed(self) -> int:
        return sum(1 for r in self.ops if r.problems)


def run_op(argv: list[str], out_path: Path, env: dict, timeout: float) -> OpResult:
    """Wall time from spawn to reap, exit code and max RSS of one process."""
    if timeout <= 0:
        return OpResult(0.0, -1, 0, problems=["not started: run time limit reached"])
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return OpResult(elapsed, proc.returncode, usage.ru_maxrss)


def stdout_path(key: str) -> Path:
    return WORK / "out" / f"{key}.txt"


def run_pass(ops: list[workloads.Op], env: dict, deadline: float, traced: bool) -> Pass:
    out_dir, phi8_out, trace_dir = WORK / "out", WORK / "phi8_out", WORK / "trace"
    for d in (out_dir, phi8_out, trace_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    env = dict(env, PHI8_OUT_DIR=str(phi8_out))
    if traced:
        env["PYTHONHASHSEED"] = "0"  # fixed set orders keep counts repeatable
    results = []
    start = time.perf_counter()
    for op in ops:
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), str(trace_dir / f"{op.key}.json")]
        else:
            argv = [sys.executable, "-c", ENTRY]
        results.append(run_op(argv + op.args, stdout_path(op.key), env,
                              deadline - time.perf_counter()))
    wall = time.perf_counter() - start

    outs = {}
    for op, r in zip(ops, results):
        path = stdout_path(op.key)
        outs[op.key] = r.stdout = path.read_text(encoding="utf-8") if path.exists() else ""
    op_seconds: dict[str, float] = {}
    bytes_out = 0
    for op, r in zip(ops, results):
        op_seconds[op.metric] = op_seconds.get(op.metric, 0.0) + r.seconds
        bytes_out += len(r.stdout.encode()) + sum(
            (phi8_out / f).stat().st_size for f in op.files if (phi8_out / f).exists())
        if r.returncode != 0:
            err = stdout_path(op.key).with_suffix(".err")
            tail = err.read_text(errors="replace").strip().splitlines()[-1:] if err.exists() else []
            r.problems.append(f"exit {r.returncode} {tail}")
            continue
        try:
            r.problems.extend(op.check(outs, phi8_out))
        except Exception as exc:  # a malformed output is a failed op, not a crash
            r.problems.append(f"output unreadable: {exc!r}")
        if traced:
            r.trace = json.loads((trace_dir / f"{op.key}.json").read_text())
    peak = max(r.maxrss_kb for r in results) / 1024.0
    return Pass(wall, results, op_seconds, peak, bytes_out)


def timed_import(module: str, env: dict, root: Path) -> float:
    """Seconds from spawning an interpreter to `import module` done."""
    code = f"import {module}, time; print(time.monotonic_ns(), {module}.__file__)"
    start = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise Fatal(f"cannot import {module}: {proc.stderr.strip()[-300:]}")
    stamp, path = proc.stdout.split(maxsplit=1)
    if module == "phi8" and not Path(path.strip()).resolve().is_relative_to(root / "src"):
        raise Fatal(f"phi8 imported from {path.strip()}, not from this checkout")
    return (int(stamp) - start) / 1e9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(rows: list[tuple[str, str, list[float]]]) -> None:
    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'mean':>12} {'n':>3}")
    for name, unit, values in rows:
        q1, med, q3 = quartiles(values)
        mean = statistics.mean(values)
        print(f"{name:34} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {mean:12.6g} {len(values):3d}")


def print_failures(passes: list[Pass], ops: list[workloads.Op]) -> None:
    for k, p in enumerate(passes):
        for op, r in zip(ops, p.ops):
            for problem in r.problems:
                print(f"FAIL pass {k} {op.key}: {problem}")


def end_to_end(ops, env, root, seconds: float, deadline: float):
    timed_import("phi8", env, root)  # compiles bytecode; not a sample
    setup = [timed_import("phi8", env, root) for _ in range(SETUP_SAMPLES)]
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, env, deadline, traced=False))
        elapsed = time.perf_counter() - start
        mean = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + mean > seconds:
            break
        if time.perf_counter() + mean > deadline:
            break
    rows = [("setup_s", "s", setup), ("pass_s", "s", [p.wall for p in passes])]
    for name in sorted({op.metric for op in ops}):
        rows.append((name, "s", [p.op_seconds[name] for p in passes]))
    rows.append(("peak_rss_mb", "MB", [p.peak_rss_mb for p in passes]))
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    report(rows)
    print("pass walls: " + " ".join(f"{p.wall:.4f}" for p in passes))
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    print_failures(passes, ops)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        # the mean, not the median: host speed drifts over whole passes, and
        # time per pass over the full window uses every pass measured
        "pass_s": {"value": statistics.mean(p.wall for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in passes), "unit": "MB"},
    }
    return attempted, failed, metrics


def aggregate(traces: list[dict]) -> dict[str, dict]:
    agg: dict[str, dict] = {"counts": {}, "busy": {}, "self": {}}
    missing: set[str] = set()
    for t in traces:
        for part in agg:
            for k, v in t[part].items():
                agg[part][k] = agg[part].get(k, 0) + v
        missing.update(t["missing"])
    agg["missing"] = sorted(missing)
    return agg


def layer_metrics(aggs: list[dict], kernel: dict, plain: list[Pass], traced: list[Pass],
                  scipy_s: list[float], root: Path) -> dict[str, tuple[float, str]]:
    """Counts from the first traced pass (all traced passes agree on
    them), times as means over the traced passes."""
    from tracer import FIELD_COUNTERS, IDENTITY_GROUPS, LATTICE_CHECKS

    counts = aggs[0]["counts"]
    busy, own = ({k: sum(a[part].get(k, 0.0) for a in aggs) / len(aggs)
                  for k in set().union(*(a[part] for a in aggs))} for part in ("busy", "self"))
    m: dict[str, tuple[float, str]] = {}
    for key in dict.fromkeys(FIELD_COUNTERS.values()):
        m[key] = (counts.get(key, 0), "count")
    for key, value in sorted(kernel.items()):
        m[key] = (value, key.rsplit("_", 1)[1])
    for op in ("matmul", "inverse", "char_poly", "det"):
        m[f"matrix.{op}"] = (counts.get(f"matrix.{op}", 0), "count")
        m[f"matrix.{op}_s"] = (busy.get(f"matrix.{op}", 0.0), "s")
    m["constants.builds"] = (counts.get("constants.build", 0), "count")
    m["constants.build_s"] = (busy.get("constants.build", 0.0), "s")
    for group in dict.fromkeys(IDENTITY_GROUPS.values()):
        m[f"identities.{group}_s"] = (busy.get(f"identities.{group}", 0.0), "s")
    m["identities.reports"] = (counts.get("identities.reports", 0), "count")
    cand = counts.get("roots.candidates_tried", 0)
    accepted = counts.get("roots.accept_events", 0)
    m["roots.enumerations"] = (counts.get("roots.enumerate", 0), "count")
    m["roots.enumerate_s"] = (busy.get("roots.enumerate", 0.0), "s")
    m["roots.candidates_tried"] = (cand, "count")
    m["roots.accept_events"] = (accepted, "count")
    m["roots.roots_found"] = (counts.get("roots.roots_found", 0), "count")
    m["roots.accept_ratio"] = (accepted / cand if cand else 0.0, "ratio")
    m["roots.summarize_s"] = (busy.get("roots.summarize", 0.0), "s")
    m["roots.emit_s"] = (busy.get("roots.emit", 0.0), "s")
    for check in dict.fromkeys(LATTICE_CHECKS.values()):
        m[f"lattice.{check}_s"] = (busy.get(f"lattice.{check}", 0.0), "s")
    m["lattice.pair_comparisons"] = (counts.get("lattice.pair_comparisons", 0), "count")
    for part in ("build_vertices", "project", "peel"):
        m[f"hulls.{part}_s"] = (busy.get(f"hulls.{part}", 0.0), "s")
    m["hulls.projections"] = (counts.get("hulls.project", 0), "count")
    m["hulls.qhull_calls"] = (counts.get("hulls.qhull_calls", 0), "count")
    m["hulls.layers"] = (counts.get("hulls.layers", 0), "count")
    m["cli.self_s"] = (own.get("cli.main", 0.0), "s")
    m["cli.bytes_out"] = (traced[0].bytes_out, "bytes")
    m["setup.scipy_spatial_s"] = (statistics.median(scipy_s), "s")
    for mod in MODULES:
        text = (root / "src" / "phi8" / f"{mod}.py").read_text(encoding="utf-8")
        m[f"src_lines.{mod}"] = (len(text.splitlines()), "lines")
    for name in OP_METRICS:
        m[f"op.{name}"] = (statistics.mean(p.op_seconds.get(name, 0.0) for p in plain), "s")
    m["trace.overhead"] = (statistics.mean(p.wall for p in traced)
                           / statistics.mean(p.wall for p in plain), "ratio")
    return m


def per_layer(ops, env, root, seed: int, deadline: float):
    # traced, plain, traced: drift during the run hits both sides alike
    traced = [run_pass(ops, env, deadline, traced=True)]
    plain = [run_pass(ops, env, deadline, traced=False)]
    traced.append(run_pass(ops, env, deadline, traced=True))
    proc = subprocess.run([sys.executable, str(HERE / "kernels.py"), str(seed)], env=env,
                          capture_output=True, text=True, check=False,
                          timeout=max(1.0, deadline - time.perf_counter()))
    kernel_ok = proc.returncode == 0
    kernel = json.loads(proc.stdout.splitlines()[-1]) if kernel_ok else {}
    scipy_s = [timed_import("scipy.spatial", env, root) for _ in range(3)]
    aggs = [aggregate([r.trace for r in p.ops if r.trace is not None]) for p in traced]
    repeat_ok = all(a["counts"] == aggs[0]["counts"] for a in aggs)
    metrics = layer_metrics(aggs, kernel, plain, traced, scipy_s, root)
    report([(k, unit, [v]) for k, (v, unit) in metrics.items()])
    if aggs[0]["missing"]:
        print("hooks missing from this phi8: " + ", ".join(aggs[0]["missing"]))
    if not kernel_ok:
        print(f"FAIL kernels: {proc.stderr.strip()[-300:]}")
    if not repeat_ok:
        print("FAIL counts differ between traced passes")
    print_failures(plain + traced, ops)
    attempted = sum(len(p.ops) for p in plain + traced) + 1
    failed = sum(p.failed for p in plain + traced) + (0 if kernel_ok else 1)
    ok = kernel_ok and repeat_ok
    return attempted, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()} if ok else {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.perf_counter() + RUN_LIMIT_S
    root = Path.cwd().resolve()
    try:
        if not (root / "src" / "phi8" / "cli.py").is_file():
            raise Fatal(f"no phi8 sources under {root / 'src'}; run from a phi8 checkout")
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        ops = workloads.WORKLOADS[args.workload](args.seed, WORK, stdout_path)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"{len(ops)} ops per pass: " + ", ".join(op.key for op in ops))
        if args.trace:
            attempted, failed, metrics = per_layer(ops, env, root, args.seed, deadline)
        else:
            attempted, failed, metrics = end_to_end(ops, env, root, args.seconds, deadline)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
