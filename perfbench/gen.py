"""Seeded generator of matrix files for the cartan-files workload.

Each file is a finite-type Cartan matrix (A_n, D_n or E_n), relabelled
by a random permutation; in half the files every row is also scaled by
a positive element of {1, phi, sqrt(phi), phi*sqrt(phi), 3/2*phi, 2}.
The normalized pairing 2*A_ij/A_ii is unchanged by positive row scaling
and relabelling only permutes it, so the positive roots of every file
are known without phi8: the Weyl-reflection closure of the unscaled
matrix, read through the permutation.

Entries are spelled with seeded factor order and spacing so that the
parser sees more than its own rendering.

Run ``python3 perfbench/gen.py SEED DIR`` to write one set of files.
"""
from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from oracles import ONE4, PHI4, S4, cartan, mul4, scale4, weyl_positive_roots

# The four files of a set come one from each slot.  Slots group the
# types by enumeration cost, so that every seed gives a pass of about
# the same length while all 14 types appear across seeds.
SLOTS = (
    (("E", 8),),
    (("E", 7), ("D", 8)),
    (("E", 6), ("D", 7), ("A", 8)),
    (("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7), ("D", 4), ("D", 5), ("D", 6)),
)

# row scale -> (factor tokens, value)
SCALES = {
    "1": ((), ONE4),
    "phi": (("phi",), PHI4),
    "sqrt(phi)": (("sqrt(phi)",), S4),
    "phi*sqrt(phi)": (("phi", "sqrt(phi)"), mul4(PHI4, S4)),
    "3/2*phi": (("3/2", "phi"), scale4(PHI4, Fraction(3, 2))),
    "2": (("2",), scale4(ONE4, 2)),
}


@dataclass(frozen=True)
class CartanFile:
    name: str
    kind: str
    rank: int
    perm: tuple[int, ...]  # file index i is node perm[i] of the Bourbaki labelling
    scales: tuple[str, ...]  # one per file row
    text: str

    @property
    def matrix4(self):
        """Entries as exact 4-tuples, as the generator meant them."""
        base = cartan(self.kind, self.rank)
        p = self.perm
        return [
            [scale4(SCALES[s][1], base[p[i]][p[j]]) for j in range(self.rank)]
            for i, s in enumerate(self.scales)
        ]

    @property
    def roots(self) -> set[tuple[int, ...]]:
        """Positive roots in file coordinates."""
        base = weyl_positive_roots(cartan(self.kind, self.rank))
        return {tuple(b[q] for q in self.perm) for b in base}

    @property
    def integer_weights(self) -> bool:
        # weight of simple root i is 2*scale_i, an integer iff the scale is
        return all(s in ("1", "2") for s in self.scales)


def _spell(rng: random.Random, coeff: int, scale: str) -> str:
    if coeff == 0:
        return "0"
    factors = list(SCALES[scale][0]) + (["2"] if coeff == 2 else [])
    rng.shuffle(factors)
    body = rng.choice(("*", " * ")).join(factors or ["1"])
    return "-" + body if coeff < 0 else body


def generate(seed: int) -> list[CartanFile]:
    rng = random.Random(seed)
    scaled = set(rng.sample(range(len(SLOTS)), len(SLOTS) // 2))
    files = []
    for k, slot in enumerate(SLOTS):
        kind, n = rng.choice(slot)
        perm = list(range(n))
        rng.shuffle(perm)
        names = list(SCALES)
        scales = tuple(rng.choice(names) if k in scaled else "1" for _ in range(n))
        base = cartan(kind, n)
        lines = [f"# {kind}{n} relabelled {' '.join(map(str, perm))}; row scales {', '.join(scales)}"]
        for i in range(n):
            sep = rng.choice(("; ", ";", " ; "))
            lines.append(sep.join(_spell(rng, base[perm[i]][perm[j]], scales[i]) for j in range(n)))
        files.append(
            CartanFile(f"m{k}_{kind}{n}", kind, n, tuple(perm), scales, "\n".join(lines) + "\n")
        )
    rng.shuffle(files)
    return files


def write(seed: int, directory: Path) -> list[tuple[CartanFile, Path]]:
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for f in generate(seed):
        path = directory / f"{f.name}.txt"
        path.write_text(f.text, encoding="utf-8")
        out.append((f, path))
    return out


if __name__ == "__main__":
    for f, path in write(int(sys.argv[1]), Path(sys.argv[2])):
        print(path)
