"""E8 root system, the (8,4) extended Hamming code, and their gluing.

Everything here is exact: roots are Fraction tuples, codewords are bit
tuples, and the Construction A lattice carries the 1/sqrt2 scaling as a
squared factor so the Gram matrix stays rational.  The contact count
and the inner-product histogram share one pair Gram per root list.
``CHECK_GROUPS`` reports the checks of ``phi8 lattice`` as
``IdentityReport`` values.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Iterable

from .constants import build_cmE8, build_hadamard, srE8_rows
from .identities import IdentityReport
from .matrix import ExactMatrix
from .roots import EnumerationRule, enumerate_roots, signed_images

Root = tuple[Fraction, ...]


def gen_e8_roots() -> list[Root]:
    """All 240 E8 roots in the even coordinate system, sorted.

    112 integer roots (+-1, +-1 in two slots) and 128 half-integer
    roots (all +-1/2, even number of minus signs).
    """
    roots: list[Root] = []
    for i, j in combinations(range(8), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [Fraction(0)] * 8
                v[i] = Fraction(si)
                v[j] = Fraction(sj)
                roots.append(tuple(v))
    half = Fraction(1, 2)
    for mask in range(256):
        if bin(mask).count("1") % 2 == 0:
            roots.append(
                tuple(-half if mask & (1 << k) else half for k in range(8))
            )
    roots.sort()
    return roots


def norm_sq(v: Root) -> Fraction:
    return sum(x * x for x in v)


def _scaled_int_vectors(roots: tuple[Root, ...]) -> list[tuple[int, ...]]:
    """Doubled coordinates; doubling clears all denominators in the even
    coordinate system, and any other coordinate raises ValueError."""
    scaled = [tuple(2 * x for x in v) for v in roots]
    if any(x.denominator != 1 for v in scaled for x in v):
        raise ValueError("coordinates must be integers or half-integers")
    return [tuple(x.numerator for x in v) for v in scaled]


@lru_cache(maxsize=1)
def _pair_gram(roots: tuple[Root, ...]) -> Counter[tuple[int, int]]:
    """Unordered pairs of doubled vectors a, b, counted by (|a|^2 + |b|^2, a.b).

    One integer loop over pairs that serves both the contact count and the
    inner-product histogram; each norm is computed once per vector.  The
    last Gram is kept, so equal root lists share one build; callers must
    not mutate the returned Counter.
    """
    scaled = _scaled_int_vectors(roots)
    normed = [(v, sum(map(mul, v, v))) for v in scaled]
    return Counter(
        (na + nb, sum(map(mul, a, b))) for (a, na), (b, nb) in combinations(normed, 2)
    )


def count_contact_pairs(roots: list[Root]) -> int:
    """Unordered root pairs at squared distance 2 (inner product 1)."""
    # squared distance 2 in original units = 8 after doubling
    gram = _pair_gram(tuple(roots))
    return sum(c for (norms, dot), c in gram.items() if norms - 2 * dot == 8)


def inner_product_histogram(roots: list[Root]) -> dict[Fraction, int]:
    """Distribution of <a, b> over unordered distinct pairs."""
    # count 4<a, b> as integers, then build one Fraction per distinct value
    counts: Counter[int] = Counter()
    for (_, dot), c in _pair_gram(tuple(roots)).items():
        counts[dot] += c
    return {Fraction(k, 4): c for k, c in counts.items()}


def weight_enumerator(words: Iterable[tuple[int, ...]]) -> dict[int, int]:
    """Number of codewords of each Hamming weight."""
    return dict(Counter(sum(w) for w in words))


@dataclass(frozen=True)
class Hamming84:
    """The (8,4) extended Hamming code from a systematic generator."""

    generator: tuple[tuple[int, ...], ...]
    codewords: tuple[tuple[int, ...], ...]

    @classmethod
    def standard(cls) -> "Hamming84":
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
        return cls(gen, tuple(sorted(words)))

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


def hamming84() -> Hamming84:
    return Hamming84.standard()


@dataclass(frozen=True)
class ConstructionAReport:
    basis: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[Fraction, ...], ...]
    gram_det: Fraction
    is_even: bool
    is_positive_definite: bool
    minimal_vector_count: int


def construction_a(code: Hamming84 | None = None) -> ConstructionAReport:
    """Scaled Construction A lattice {x in Z^8 : x mod 2 in C} / sqrt2.

    The 1/sqrt2 never materializes: the Gram matrix is B*B^T / 2, which
    is integral because the code is self-dual.  For the extended Hamming
    code the result is an even unimodular lattice with 240 minimal
    vectors of squared norm 2, the E8 lattice.
    """
    code = code or hamming84()
    if len(code.codewords) != 16 or any(len(w) != 8 for w in code.codewords):
        raise ValueError("Construction A here expects an (8,4) binary code")
    if not code.is_self_dual() or not code.is_doubly_even():
        raise ValueError("code must be self-dual and doubly even")

    # GF(2) row reduction to find pivot columns of the generator
    reduced = [list(row) for row in code.generator]
    pivots: list[int] = []
    r = 0
    for col in range(8):
        pivot = next((i for i in range(r, len(reduced)) if reduced[i][col]), None)
        if pivot is None:
            continue
        reduced[r], reduced[pivot] = reduced[pivot], reduced[r]
        for i in range(len(reduced)):
            if i != r and reduced[i][col]:
                reduced[i] = [(a + b) % 2 for a, b in zip(reduced[i], reduced[r])]
        pivots.append(col)
        r += 1
    if r != 4:
        raise ValueError("generator must have rank 4")

    basis = [tuple(row) for row in reduced]
    for col in range(8):
        if col not in pivots:
            basis.append(tuple(2 if k == col else 0 for k in range(8)))
    basis_t = tuple(basis)

    gram = tuple(
        tuple(Fraction(sum(a * b for a, b in zip(u, v)), 2) for v in basis_t)
        for u in basis_t
    )
    det = ExactMatrix(gram).det()
    if det.b != 0:
        raise AssertionError("Gram determinant left the rationals")
    gram_det = det.a

    is_even = all(
        gram[i][i].denominator == 1 and gram[i][i] % 2 == 0 for i in range(8)
    ) and all(g.denominator == 1 for row in gram for g in row)

    pos_def = True
    for k in range(1, 9):
        minor = ExactMatrix([row[:k] for row in gram[:k]])
        if minor.det().sign() <= 0:
            pos_def = False
            break

    codeset = set(code.codewords)
    count = _count_minimal(codeset)
    return ConstructionAReport(basis_t, gram, gram_det, is_even, pos_def, count)


def _count_minimal(codeset: set[tuple[int, ...]]) -> int:
    """Vectors x in Z^8 with x mod 2 in the code and |x|^2 = 4.

    Any coordinate beyond +-2 already exceeds the norm budget, so the
    search space is finite and small.
    """
    count = 0

    def walk(pos: int, budget: int, prefix: list[int]) -> None:
        nonlocal count
        if pos == 8:
            if budget == 0 and tuple(c % 2 for c in prefix) in codeset:
                count += 1
            return
        for c in (-2, -1, 0, 1, 2):
            if c * c <= budget:
                prefix.append(c)
                walk(pos + 1, budget - c * c, prefix)
                prefix.pop()

    walk(0, 4, [])
    return count


@dataclass(frozen=True)
class HadamardCorrespondence:
    mapped: tuple[tuple[int, ...], ...]
    weight_enumerator_matches: bool
    permutation: tuple[int, ...] | None
    holds: bool


def hadamard_code_correspondence() -> HadamardCorrespondence:
    """Sylvester Hadamard rows and their negations, under (1 - s)/2,
    form the extended Hamming codeword set up to one column permutation.

    The permutation sigma reads source column sigma[j] into position j.
    """
    H = build_hadamard(3)
    mapped: set[tuple[int, ...]] = set()
    for row in H.rows:
        bits = tuple((1 - int(e.a)) // 2 for e in row)
        mapped.add(bits)
        mapped.add(tuple(1 - b for b in bits))
    mapped_t = tuple(sorted(mapped))

    code = hamming84()
    target = set(code.codewords)

    we_match = weight_enumerator(mapped_t) == weight_enumerator(target)

    permutation = _find_column_permutation(mapped_t, code.codewords) if we_match else None
    holds = permutation is not None and {
        tuple(w[c] for c in permutation) for w in mapped_t
    } == target
    return HadamardCorrespondence(mapped_t, we_match, permutation, holds)


def _find_column_permutation(
    source: tuple[tuple[int, ...], ...], target: tuple[tuple[int, ...], ...]
) -> tuple[int, ...] | None:
    """Backtracking search with prefix pruning over 16-word codes."""
    n = len(source[0])
    target_prefixes = [
        sorted(w[:k] for w in target) for k in range(n + 1)
    ]

    def extend(chosen: list[int], used: set[int]) -> tuple[int, ...] | None:
        k = len(chosen)
        if k == n:
            return tuple(chosen)
        for col in range(n):
            if col in used:
                continue
            chosen.append(col)
            used.add(col)
            prefix = sorted(tuple(w[c] for c in chosen) for w in source)
            if prefix == target_prefixes[k + 1]:
                full = extend(chosen, used)
                if full is not None:
                    return full
            chosen.pop()
            used.remove(col)
        return None

    return extend([], set())


def e8_vertex_coords() -> list[Root]:
    """Signed images of the enumerated positive roots through srE8, sorted."""
    rule = EnumerationRule(mode="normalized-pairing", max_height=30)
    return sorted(signed_images(enumerate_roots(build_cmE8(), rule), srE8_rows()))


def e8_height_histogram() -> dict[int, int]:
    """Height distribution of E8 positive roots, derived from the root
    coordinates alone; independent oracle for the enumeration rule."""
    inv = ExactMatrix(srE8_rows()).inverse()
    inv_rows = []
    for row in inv.rows:
        if not all(e.is_rational() for e in row):
            raise AssertionError("rational basis produced an irrational inverse")
        inv_rows.append([e.a for e in row])
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
    coords = e8_vertex_coords()
    roots = gen_e8_roots()
    return [
        IdentityReport("vertex_count_240", len(coords) == 240, details={"count": len(coords)}),
        IdentityReport("vertex_norms_two", all(norm_sq(v) == 2 for v in coords)),
        IdentityReport("vertex_set_matches_roots", coords == roots),
        IdentityReport("vertex_inner_histogram_matches",
                       inner_product_histogram(coords) == inner_product_histogram(roots)),
    ]


def _check_roots() -> list[IdentityReport]:
    roots = gen_e8_roots()
    pairs = count_contact_pairs(roots)
    return [
        IdentityReport("root_count_240", len(roots) == 240, details={"count": len(roots)}),
        IdentityReport("root_norms_two", all(norm_sq(v) == 2 for v in roots)),
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


def _check_construction_a() -> list[IdentityReport]:
    rep = construction_a()
    return [
        IdentityReport("lattice_even", rep.is_even),
        IdentityReport("lattice_unimodular", rep.gram_det == 1,
                       details={"det": str(rep.gram_det)}),
        IdentityReport("lattice_positive_definite", rep.is_positive_definite),
        IdentityReport("lattice_minimal_vectors_240", rep.minimal_vector_count == 240,
                       details={"count": rep.minimal_vector_count}),
    ]


def _check_hadamard_map() -> list[IdentityReport]:
    corr = hadamard_code_correspondence()
    perm = list(corr.permutation) if corr.permutation else None
    return [
        IdentityReport("hadamard_weight_enumerator_match", corr.weight_enumerator_matches),
        IdentityReport("hadamard_column_permutation", corr.holds,
                       details={"permutation": perm}),
    ]


# `phi8 lattice --check` name -> its reports, in the order `--check all` runs them
CHECK_GROUPS = {
    "roots": _check_roots,
    "hamming": _check_hamming,
    "construction-a": _check_construction_a,
    "hadamard-map": _check_hadamard_map,
    "vertex-coords": check_vertex_coords,
}
