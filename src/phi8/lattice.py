"""E8 root system, the (8,4) extended Hamming code, and their gluing.

Everything here is exact: roots are doubled integer vectors, one cached
sorted list, and only ``gen_e8_roots`` and the test oracle
``e8_height_histogram`` build Fractions; codewords are bit tuples of one
cached code; and the Construction A lattice carries the 1/sqrt2 scaling
as a squared factor, so its Gram matrix is the integer B*B^T halved.
The contact count and the inner-product histogram share one integer
pair Gram per vector list.
Each ``CHECK_GROUPS`` entry is a ``phi8 lattice --check`` group: a
function that returns its ``IdentityReport`` values directly.
"""
from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache
from itertools import combinations, permutations
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .constants import SRE8_DOUBLED, build_cmE8, build_hadamard, build_srE8
from .field import HALF
from .matrix import ExactMatrix
from .report import IdentityReport
from .roots import EnumerationRule, enumerate_roots, signed_images

if TYPE_CHECKING:
    from fractions import Fraction

Root = tuple["Fraction", ...]
Doubled = tuple[int, ...]


@cache
def _doubled_roots() -> tuple[Doubled, ...]:
    """All 240 E8 roots in the even coordinate system, doubled and sorted.

    112 integer roots (+-1, +-1 in two slots, doubled to +-2) and 128
    half-integer roots (all +-1/2, even number of minus signs, doubled to +-1).
    """
    roots = [tuple(si * (k == i) + sj * (k == j) for k in range(8))
             for i, j in combinations(range(8), 2) for si in (2, -2) for sj in (2, -2)]
    roots += [tuple(-1 if mask & (1 << k) else 1 for k in range(8))
              for mask in range(256) if bin(mask).count("1") % 2 == 0]
    return tuple(sorted(roots))


def gen_e8_roots() -> list[Root]:
    """All 240 E8 roots in the even coordinate system, sorted."""
    from fractions import Fraction

    return [tuple(Fraction(x, 2) for x in v) for v in _doubled_roots()]


@lru_cache(maxsize=1)
def _pair_gram(vectors: tuple[Doubled, ...]) -> Counter[tuple[int, int]]:
    """Unordered pairs of doubled vectors a, b, counted by (|a|^2 + |b|^2, a.b).

    One integer loop over pairs that serves both the contact count and the
    inner-product histogram; each norm is computed once per vector.  The
    last Gram is kept, so equal vector lists share one build; callers must
    not mutate the returned Counter.
    """
    normed = [(v, sum(map(mul, v, v))) for v in vectors]
    return Counter(
        (na + nb, sum(map(mul, a, b))) for (a, na), (b, nb) in combinations(normed, 2)
    )


def _contacts(vectors: tuple[Doubled, ...]) -> int:
    """Unordered pairs at |a - b|^2 = 8, squared distance 2 before doubling."""
    return sum(c for (norms, dot), c in _pair_gram(vectors).items() if norms - 2 * dot == 8)


def _dot_counts(vectors: tuple[Doubled, ...]) -> Counter[int]:
    """Unordered pairs counted by a.b, which is 4<a, b> before doubling."""
    counts: Counter[int] = Counter()
    for (_, dot), c in _pair_gram(vectors).items():
        counts[dot] += c
    return counts


def weight_enumerator(words: Iterable[tuple[int, ...]]) -> dict[int, int]:
    """Number of codewords of each Hamming weight."""
    return dict(Counter(sum(w) for w in words))


class Hamming84(NamedTuple):
    """The (8,4) extended Hamming code from a systematic generator."""

    generator: tuple[tuple[int, ...], ...]
    codewords: tuple[tuple[int, ...], ...]

    def weight_enumerator(self) -> dict[int, int]:
        return weight_enumerator(self.codewords)

    def min_distance(self) -> int:
        return min(sum(w) for w in self.codewords if any(w))

    def is_self_dual(self) -> bool:
        return all(
            sum(a * b for a, b in zip(u, v)) % 2 == 0
            for u in self.generator
            for v in self.generator
        ) and len(self.codewords) == 16

    def is_doubly_even(self) -> bool:
        return all(sum(w) % 4 == 0 for w in self.codewords)


@cache
def hamming84() -> Hamming84:
    gen = (
        (1, 0, 0, 0, 0, 1, 1, 1),
        (0, 1, 0, 0, 1, 0, 1, 1),
        (0, 0, 1, 0, 1, 1, 0, 1),
        (0, 0, 0, 1, 1, 1, 1, 0),
    )
    words = set()
    for mask in range(16):
        w = [0] * 8
        for bit, row in enumerate(gen):
            if mask & (1 << bit):
                w = [(a + b) % 2 for a, b in zip(w, row)]
        words.add(tuple(w))
    return Hamming84(gen, tuple(sorted(words)))


def _construction_a_gram(code: Hamming84) -> tuple[tuple[int, ...], ...]:
    """B*B^T for the Construction A basis B of ``code``, twice the lattice's Gram matrix."""
    # the generator is systematic (identity in columns 1-4), so 2*e_j fills columns 5-8
    basis = code.generator + tuple(
        tuple(2 if k == col else 0 for k in range(8)) for col in range(4, 8)
    )
    return tuple(
        tuple(sum(a * b for a, b in zip(u, v)) for v in basis)
        for u in basis
    )


def construction_a() -> list[IdentityReport]:
    """Scaled Construction A lattice {x in Z^8 : x mod 2 in C} / sqrt2.

    The 1/sqrt2 never materializes: the Gram matrix is B*B^T / 2, which
    is integral because the code is self-dual.  For the extended Hamming
    code the result is an even unimodular lattice with 240 minimal
    vectors of squared norm 2, the E8 lattice.
    """
    code = hamming84()
    bbt = _construction_a_gram(code)
    is_even = all(bbt[i][i] % 4 == 0 for i in range(8)) and all(
        g % 2 == 0 for row in bbt for g in row)
    # leading principal minors; the last is the determinant, and all > 0
    # is Sylvester's criterion for positive definiteness
    minors = [(ExactMatrix([row[:k] for row in bbt[:k]]) * HALF).det() for k in range(1, 9)]
    count = len(_minimal_vectors(set(code.codewords)))
    return [
        IdentityReport("lattice_even", is_even),
        IdentityReport("lattice_unimodular", minors[-1] == 1, details={"det": str(minors[-1])}),
        IdentityReport("lattice_positive_definite", all(m.sign() > 0 for m in minors)),
        IdentityReport("lattice_minimal_vectors_240", count == 240, details={"count": count}),
    ]


def _minimal_vectors(codeset: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Vectors x in Z^8 with x mod 2 in the code and |x|^2 = 4.

    Any coordinate beyond +-2 already exceeds the norm budget, so the
    search space is finite and small.
    """
    found: list[tuple[int, ...]] = []

    def walk(pos: int, budget: int, prefix: list[int]) -> None:
        if pos == 8:
            if budget == 0 and tuple(c % 2 for c in prefix) in codeset:
                found.append(tuple(prefix))
            return
        for c in (-2, -1, 0, 1, 2):
            if c * c <= budget:
                prefix.append(c)
                walk(pos + 1, budget - c * c, prefix)
                prefix.pop()

    walk(0, 4, [])
    return found


def hadamard_code_correspondence() -> list[IdentityReport]:
    """Sylvester Hadamard rows and their negations, under (1 - s)/2,
    form the extended Hamming codeword set up to one column permutation.

    The permutation sigma reads source column sigma[j] into position j;
    it is the first such order in lexicographic order.
    """
    H = build_hadamard(3)
    mapped: set[tuple[int, ...]] = set()
    for row in H.rows:
        bits = tuple(int(e == -1) for e in row)
        mapped.add(bits)
        mapped.add(tuple(1 - b for b in bits))

    target = set(hamming84().codewords)
    we_match = weight_enumerator(mapped) == weight_enumerator(target)
    columns = list(zip(*mapped))
    permutation = next((p for p in permutations(range(8))
                        if set(zip(*map(columns.__getitem__, p))) == target),
                       None) if we_match else None
    return [
        IdentityReport("hadamard_weight_enumerator_match", we_match),
        IdentityReport("hadamard_column_permutation", permutation is not None,
                       details={"permutation": list(permutation) if permutation else None}),
    ]


def _doubled_vertex_coords() -> tuple[Doubled, ...]:
    """Signed images of the enumerated positive roots through doubled srE8 rows, sorted."""
    rule = EnumerationRule(mode="normalized-pairing", max_height=30)
    return tuple(sorted(signed_images(enumerate_roots(build_cmE8(), rule), SRE8_DOUBLED)))


def e8_height_histogram() -> dict[int, int]:
    """Height distribution of E8 positive roots, derived from the root
    coordinates alone; independent oracle for the enumeration rule."""
    from fractions import Fraction

    inv = build_srE8().inverse()
    inv_rows = []
    for row in inv.rows:
        if not all(e.is_rational() for e in row):
            raise AssertionError("rational basis produced an irrational inverse")
        inv_rows.append([Fraction(a, d) for a, _, d in (e.phi_ints() for e in row)])
    hist: dict[int, int] = {}
    for root in gen_e8_roots():
        coeffs = [
            sum(root[k] * inv_rows[k][i] for k in range(8)) for i in range(8)
        ]
        if any(c.denominator != 1 for c in coeffs):
            raise AssertionError("root left the integral span of the basis")
        if all(c >= 0 for c in coeffs):
            h = int(sum(coeffs))
            hist[h] = hist.get(h, 0) + 1
    return hist


def check_vertex_coords() -> list[IdentityReport]:
    """The signed srE8 images are the 240 E8 roots, pair for pair."""
    coords = _doubled_vertex_coords()
    roots = _doubled_roots()
    return [
        IdentityReport("vertex_count_240", len(coords) == 240, details={"count": len(coords)}),
        IdentityReport("vertex_norms_two", all(sum(map(mul, v, v)) == 8 for v in coords)),
        IdentityReport("vertex_set_matches_roots", coords == roots),
        IdentityReport("vertex_inner_histogram_matches", _dot_counts(coords) == _dot_counts(roots)),
    ]


def _check_roots() -> list[IdentityReport]:
    roots = _doubled_roots()
    pairs = _contacts(roots)
    return [
        IdentityReport("root_count_240", len(roots) == 240, details={"count": len(roots)}),
        IdentityReport("root_norms_two", all(sum(map(mul, v, v)) == 8 for v in roots)),
        IdentityReport("contact_pairs_6720", pairs == 6720, details={"count": pairs}),
    ]


def _check_hamming() -> list[IdentityReport]:
    code = hamming84()
    we = code.weight_enumerator()
    return [
        IdentityReport("hamming_weight_enumerator", we == {0: 1, 4: 14, 8: 1},
                       details={"enumerator": {str(k): v for k, v in sorted(we.items())}}),
        IdentityReport("hamming_min_distance_4", code.min_distance() == 4),
        IdentityReport("hamming_self_dual", code.is_self_dual()),
        IdentityReport("hamming_doubly_even", code.is_doubly_even()),
    ]


# `phi8 lattice --check` name -> its reports, in the order `--check all` runs them
CHECK_GROUPS = {
    "roots": _check_roots,
    "hamming": _check_hamming,
    "construction-a": construction_a,
    "hadamard-map": hadamard_code_correspondence,
    "vertex-coords": check_vertex_coords,
}
