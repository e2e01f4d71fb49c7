"""Self-test of the benchmark: generator, oracles and counters.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Run from the root of a phi8 checkout.  It checks that

1. every generated matrix file parses, with phi8 and with the oracle's
   own reader, to the matrix the generator meant; that its normalized
   pairing 2*A_ij/A_ii is the relabelled Cartan matrix (row scaling and
   relabelling invariance); that one seed writes identical bytes twice;
   and that the seeds cover all 14 types;
2. the reflection-closure roots of every type match Kostant's height
   histogram, and each oracle rejects a corrupted output;
3. two traced passes of each workload give identical counts.

Exits non-zero on the first failure.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import sys
import time
from pathlib import Path

import gen
import oracles
import run
import workloads


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def generator(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    from phi8.matrix import ExactMatrix

    scratch = run.WORK / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    seen = set()
    for seed in range(1, 41):
        files = gen.write(seed, scratch / f"a{seed}")
        gen.write(seed, scratch / f"b{seed}")
        same = filecmp.dircmp(scratch / f"a{seed}", scratch / f"b{seed}")
        if seed <= 3:
            check(not same.diff_files and not same.left_only and not same.right_only,
                  f"seed {seed}: two runs write identical bytes")
        for f, path in files:
            seen.add((f.kind, f.rank))
            text = path.read_text(encoding="utf-8")
            mine = oracles.parse_matrix4(text)
            theirs = ExactMatrix.from_file(str(path))
            if mine != f.matrix4 or [[oracles.parse4(str(e)) for e in row] for row in theirs] != mine:
                check(False, f"seed {seed} {f.name}: parses to the generated matrix")
            base = oracles.cartan(f.kind, f.rank)
            two = oracles.scale4(oracles.ONE4, 2)
            for i, row in enumerate(mine):
                diag_inv = oracles.inv4(row[i])
                pairing = [oracles.mul4(oracles.mul4(two, e), diag_inv) for e in row]
                want = [oracles.scale4(oracles.ONE4, base[f.perm[i]][f.perm[j]]) for j in range(f.rank)]
                if pairing != want:
                    check(False, f"seed {seed} {f.name}: normalized pairing is invariant")
    check(True, "generated files parse and keep the normalized pairing (seeds 1-40)")
    check(len(seen) == 14, f"seeds 1-40 cover all 14 types ({len(seen)} seen)")
    shutil.rmtree(scratch, ignore_errors=True)


def oracle_checks() -> None:
    for kind, ranks in (("A", range(3, 9)), ("D", range(4, 9)), ("E", (6, 7, 8))):
        for n in ranks:
            hist: dict[int, int] = {}
            for b in oracles.weyl_positive_roots(oracles.cartan(kind, n)):
                hist[sum(b)] = hist.get(sum(b), 0) + 1
            if hist != oracles.kostant_histogram(kind, n):
                check(False, f"{kind}{n}: reflection closure matches Kostant")
    check(True, "reflection closure matches Kostant for all 14 types")
    good = ("cmU^10 + cmU^-10 = (123) * I\ncmU^10 - cmU^-10 = (55*sqrt(5)) * J\n"
            "PASS power_10_sum\nPASS power_10_diff\nPASS power_10_parity\n")
    check(not oracles.check_powers(good, 10), "powers oracle accepts L_10 and F_10")
    check(bool(oracles.check_powers(good.replace("123", "124"), 10)), "powers oracle rejects a wrong L_10")
    check(bool(oracles.check_all_pass("PASS a\nFAIL b\n", False)), "PASS oracle rejects a FAIL line")
    hist = oracles.kostant_histogram("E", 8)
    text = ("matrix cmE8 mode normalized-pairing max height 30\n"
            + oracles._histogram_line(hist) + "\n"
            + "120 positive roots (max height 29, through height 8: 56)\n")
    check(not oracles.check_roots_text(text, hist, True), "roots oracle accepts the E8 histogram")
    check(bool(oracles.check_roots_text(text.replace("2:7", "2:6"), hist, True)),
          "roots oracle rejects a changed E8 histogram")


def counters(root: Path, names: list[str], seed: int) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name in names:
        shutil.rmtree(run.WORK / "out", ignore_errors=True)
        ops = workloads.WORKLOADS[name](seed, run.WORK, run.stdout_path)
        counts = []
        for _ in range(2):
            p = run.run_pass(ops, env, time.perf_counter() + 600, traced=True)
            check(p.failed == 0, f"{name}: traced pass passes its oracles")
            counts.append(run.aggregate([r.trace for r in p.ops])["counts"])
        check(counts[0] == counts[1], f"{name}: two traced passes give identical counts")
        if name == "cartan-files":
            # corrupt one weight in a real listing: the CSV oracle must notice
            f = gen.generate(seed)[0]
            out = run.WORK / "phi8_out"
            csv_text = (out / f"{f.name}.csv").read_text()
            dot_text = (out / f"{f.name}.dot").read_text()
            check(not oracles.check_roots_files(csv_text, dot_text, f.matrix4, f.roots),
                  f"{f.name}: CSV and DOT listings pass the root oracle")
            lines = csv_text.splitlines()
            cells = lines[1].split(",")
            # no weight entry can be 7/3: entries are integers times a row scale
            lines[1] = ",".join(cells[:3] + ["7/3; " + cells[3].split("; ", 1)[1]] + cells[4:])
            check(bool(oracles.check_roots_files("\n".join(lines) + "\n", dot_text, f.matrix4, f.roots)),
                  f"{f.name}: a corrupted weight is rejected")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    root = Path.cwd().resolve()
    run.WORK.mkdir(exist_ok=True)
    generator(root)
    oracle_checks()
    counters(root, args.workload or sorted(workloads.WORKLOADS), args.seed)
    print("selftest passed")


if __name__ == "__main__":
    main()
