"""The three workloads: which phi8 commands one pass runs, and how each
command's output is checked.

The seed chooses the inputs only (exponents, op order, generated matrix
files); phi8 never sees it.  Each op names the end-to-end metric its
wall time adds to.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import oracles

E8_HIST = oracles.kostant_histogram("E", 8)
PAIR_COUPLING_HIST = dict(enumerate((8, 4, 8, 12, 16, 20, 24, 28), start=1))


@dataclass
class Op:
    key: str  # unique in the pass; names the stdout file
    metric: str  # end-to-end op-time metric this op adds to
    args: list[str]
    # check(stdout of every op by key, PHI8_OUT_DIR) -> problems
    check: Callable[[dict[str, str], Path], list[str]]
    files: list[str] = field(default_factory=list)  # written under PHI8_OUT_DIR


def identities(seed: int, work: Path, out_path) -> list[Op]:
    rng = random.Random(seed)
    # one exponent per band keeps the pass length close across seeds
    ns = [rng.randint(13, 40), rng.randint(41, 100), rng.randint(101, 200)]
    ops = [
        Op("verify", "verify_s", ["verify"],
           lambda outs, _: oracles.check_all_pass(outs["verify"], allow_info=True)),
        Op("verify-json", "verify_s", ["verify", "--json"],
           lambda outs, _: oracles.check_verify_json(outs["verify-json"], outs.get("verify"))),
    ]
    for n in ns:
        ops.append(Op(f"powers-{n}", "powers_s", ["powers", "-n", str(n)],
                      lambda outs, _, n=n: oracles.check_powers(outs[f"powers-{n}"], n)))
    rng.shuffle(ops)
    return ops


def geometry(seed: int, work: Path, out_path) -> list[Op]:
    ops = [
        Op("roots-cmE8", "roots_s", ["roots", "--max-height", "30"],
           lambda outs, _: oracles.check_roots_text(outs["roots-cmE8"], E8_HIST, True)),
        Op("roots-cmU", "roots_s",
           ["roots", "--matrix", "cmU", "--mode", "pair-coupling", "--max-height", "8"],
           lambda outs, _: oracles.check_roots_text(outs["roots-cmU"], PAIR_COUPLING_HIST, False)),
        Op("lattice", "lattice_s", ["lattice"],
           lambda outs, _: oracles.check_all_pass(outs["lattice"], allow_info=False)),
        Op("project-all", "project_s", ["project", "--all"],
           lambda outs, _: oracles.check_project_all(outs["project-all"])),
    ]
    random.Random(seed).shuffle(ops)
    return ops


def _roots_check(f: gen.CartanFile):
    hist: dict[int, int] = {}
    for b in f.roots:
        hist[sum(b)] = hist.get(sum(b), 0) + 1

    def check(outs: dict[str, str], out_dir: Path) -> list[str]:
        problems = oracles.check_roots_text(outs[f"roots-{f.name}"], hist, f.integer_weights)
        if hist != oracles.kostant_histogram(f.kind, f.rank):
            problems.append(f"reflection closure of {f.name} disagrees with Kostant")
        csv_text = (out_dir / f"{f.name}.csv").read_text(encoding="utf-8")
        dot_text = (out_dir / f"{f.name}.dot").read_text(encoding="utf-8")
        return problems + oracles.check_roots_files(csv_text, dot_text, f.matrix4, f.roots)

    return check


def _dump_check(f: gen.CartanFile):
    def check(outs: dict[str, str], _) -> list[str]:
        if oracles.parse_matrix4(outs[f"dump-{f.name}"]) != f.matrix4:
            return [f"dump of {f.name} does not read back as the generated matrix"]
        return []

    return check


def cartan_files(seed: int, work: Path, out_path) -> list[Op]:
    ops = []
    for f, path in gen.write(seed, work / "files"):
        src = str(path)
        ops.append(Op(f"roots-{f.name}", "roots_s",
                      ["roots", "--matrix", src, "--max-height", "30",
                       "--csv", f"{f.name}.csv", "--dot", f"{f.name}.dot"],
                      _roots_check(f), [f"{f.name}.csv", f"{f.name}.dot"]))
        ops.append(Op(f"dump-{f.name}", "dump_s", ["dump", src], _dump_check(f)))
        # the round trip dumps the dump; both must be byte-identical
        first, second = f"dump-{f.name}", f"redump-{f.name}"
        ops.append(Op(second, "dump_s", ["dump", str(out_path(first))],
                      lambda outs, _, a=first, b=second:
                      [] if outs[a] == outs[b] else [f"{b} differs from {a}"]))
    return ops


WORKLOADS = {
    "identities": identities,
    "geometry": geometry,
    "cartan-files": cartan_files,
}
