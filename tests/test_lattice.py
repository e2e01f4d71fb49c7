"""E8 root coordinates, the extended Hamming code, and Construction A."""
import json
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, child_env
from phi8 import cli, lattice
from phi8.constants import build_hadamard
from phi8.lattice import (
    CHECK_GROUPS,
    _construction_a_gram,
    _contacts,
    _doubled_roots,
    _doubled_vertex_coords,
    _dot_counts,
    _minimal_vectors,
    check_vertex_coords,
    construction_a,
    e8_height_histogram,
    gen_e8_roots,
    hadamard_code_correspondence,
    hamming84,
)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@pytest.fixture(scope="module")
def roots():
    """The 240 roots, doubled: integer roots have even entries, the rest odd."""
    return _doubled_roots()


class TestRoots:
    def test_count(self, roots):
        assert len(roots) == 240

    def test_split_integer_half_integer(self, roots):
        integer = [v for v in roots if all(x % 2 == 0 for x in v)]
        half = [v for v in roots if all(x % 2 == 1 for x in v)]
        assert len(integer) == 112
        assert len(half) == 128
        assert len(integer) + len(half) == len(roots)

    def test_norms(self, roots):
        # squared norm 2 before doubling
        assert all(dot(v, v) == 8 for v in roots)

    def test_half_integer_sign_parity(self, roots):
        for v in roots:
            if v[0] % 2 == 1:
                assert sum(1 for x in v if x < 0) % 2 == 0

    def test_contact_pairs(self, roots):
        assert _contacts(roots) == 6720

    def test_inner_product_histogram(self, roots):
        # doubled dots are 4<a,b>, <a,b> in {-2,-1,0,1} for distinct unordered
        # pairs; -2 only for antipodes, and the +-1 counts match by symmetry
        hist = _dot_counts(roots)
        assert hist == {-8: 120, -4: 6720, 0: 15120, 4: 6720}
        assert sum(hist.values()) == 240 * 239 // 2

    def test_closed_under_negation(self, roots):
        rootset = set(roots)
        assert all(tuple(-x for x in v) in rootset for v in roots)


# doubled differences of squared length 8, i.e. squared distance 2
CONTACT_STEPS = ((2, 2, 0, 0, 0, 0, 0, 0), (1,) * 8, (2, 1, 1, 1, 1, 0, 0, 0))


@st.composite
def doubled_vectors(draw):
    """2-12 vectors with doubled entries in -4..4, norms mixed, each base
    vector optionally followed by a neighbour one contact step away."""
    coord = st.integers(-4, 4)
    out = []
    for v in draw(st.lists(st.tuples(*[coord] * 8), min_size=2, max_size=6)):
        out.append(v)
        if draw(st.booleans()):
            step = draw(st.permutations(draw(st.sampled_from(CONTACT_STEPS))))
            signs = draw(st.tuples(*[st.sampled_from((1, -1))] * 8))
            out.append(tuple(max(-4, min(4, x + s * d)) for x, s, d in zip(v, signs, step)))
    return tuple(out)


class TestPairKernel:
    @given(doubled_vectors())
    @settings(max_examples=150)
    def test_matches_brute_force(self, vectors):
        pairs = list(combinations(vectors, 2))
        contacts = sum(1 for a, b in pairs if sum((x - y) ** 2 for x, y in zip(a, b)) == 8)
        histogram = Counter(dot(a, b) for a, b in pairs)
        assert _contacts(vectors) == contacts
        assert _dot_counts(vectors) == histogram


class TestHamming:
    def test_counts_and_weights(self):
        code = hamming84()
        assert len(code.codewords) == 16
        assert code.weight_enumerator() == {0: 1, 4: 14, 8: 1}
        assert code.min_distance() == 4

    def test_self_dual_doubly_even(self):
        code = hamming84()
        assert code.is_self_dual()
        assert code.is_doubly_even()

    def test_generator_is_systematic(self):
        # construction_a takes its basis from this: generator rows plus 2*e_j, j = 5..8
        identity = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        assert [row[:4] for row in hamming84().generator] == identity

    def test_built_once(self):
        # an immutable builder: every check of one `phi8 lattice` shares one code
        assert hamming84() is hamming84()

    def test_closed_under_addition(self):
        words = set(hamming84().codewords)
        for u in words:
            for v in words:
                assert tuple((a + b) % 2 for a, b in zip(u, v)) in words


class TestConstructionA:
    def test_report(self):
        t0 = time.monotonic()
        reports = {r.name: r for r in construction_a()}
        elapsed = time.monotonic() - t0
        assert list(reports) == [
            "lattice_even", "lattice_unimodular", "lattice_positive_definite",
            "lattice_minimal_vectors_240",
        ]
        # lattice_even holds only if every Gram entry is integral
        assert reports["lattice_even"].holds
        assert reports["lattice_unimodular"].holds
        assert reports["lattice_unimodular"].details == {"det": "1"}
        assert reports["lattice_positive_definite"].holds
        assert reports["lattice_minimal_vectors_240"].holds
        assert reports["lattice_minimal_vectors_240"].details == {"count": 240}
        assert elapsed < 10.0

    def test_minimal_vectors(self):
        code = hamming84()
        vectors = _minimal_vectors(set(code.codewords))
        assert len(vectors) == len(set(vectors)) == 240
        assert all(dot(x, x) == 4 for x in vectors)
        assert all(tuple(c % 2 for c in x) in code.codewords for x in vectors)

    def test_gram_integral(self):
        # B*B^T, twice the Gram matrix: even entries make the halved Gram integral
        bbt = _construction_a_gram(hamming84())
        assert len(bbt) == 8 and all(len(row) == 8 for row in bbt)
        assert all(type(g) is int and g % 2 == 0 for row in bbt for g in row)


def hadamard_words() -> set[tuple[int, ...]]:
    """Sylvester Hadamard rows under (1 - s)/2, with their complements."""
    words = set()
    for row in build_hadamard(3).rows:
        bits = tuple((1 - e.phi_ints()[0]) // 2 for e in row)
        words.add(bits)
        words.add(tuple(1 - b for b in bits))
    return words


class TestHadamardCorrespondence:
    def test_bijection(self):
        reports = {r.name: r for r in hadamard_code_correspondence()}
        assert list(reports) == ["hadamard_weight_enumerator_match", "hadamard_column_permutation"]
        assert reports["hadamard_weight_enumerator_match"].holds
        assert reports["hadamard_column_permutation"].holds
        perm = reports["hadamard_column_permutation"].details["permutation"]
        assert perm is not None
        assert sorted(perm) == list(range(8))
        mapped = {tuple(w[c] for c in perm) for w in hadamard_words()}
        assert mapped == set(hamming84().codewords)

    def test_permutation_is_not_identity(self):
        # the raw bit images differ from the systematic codeword set,
        # so the matching permutation must actually move columns
        _, perm_report = hadamard_code_correspondence()
        assert perm_report.details["permutation"] != list(range(8))
        assert hadamard_words() != set(hamming84().codewords)

    def test_mapped_is_closed_code(self):
        words = hadamard_words()
        assert len(words) == 16
        for u in words:
            for v in words:
                assert tuple((a + b) % 2 for a, b in zip(u, v)) in words

    def test_no_column_order_fails(self, monkeypatch, capsys):
        # one weight-4 codeword swapped for a weight-4 non-codeword keeps the
        # weight enumerator, but the set is no longer linear, so no column
        # order of the (linear) Hadamard words reaches it: all 8! are tried
        code = hamming84()
        words = set(code.codewords)
        outsider = next(w for w in product((0, 1), repeat=8) if sum(w) == 4 and w not in words)
        words.remove(next(w for w in sorted(words) if sum(w) == 4))
        words.add(outsider)
        fake = lattice.Hamming84(code.generator, tuple(sorted(words)))
        assert fake.weight_enumerator() == {0: 1, 4: 14, 8: 1}
        monkeypatch.setattr(lattice, "hamming84", lambda: fake)
        we_report, perm_report = hadamard_code_correspondence()
        assert we_report.holds
        assert not perm_report.holds
        assert perm_report.details == {"permutation": None}
        assert cli.main(["lattice", "--check", "hadamard-map"]) == 1
        assert "FAIL hadamard_column_permutation" in capsys.readouterr().out


class TestCheckGroups:
    def test_groups_are_the_report_functions(self):
        assert CHECK_GROUPS["construction-a"] is construction_a
        assert CHECK_GROUPS["hadamard-map"] is hadamard_code_correspondence


class TestVertexCoords:
    def test_signed_images_are_the_roots(self, roots):
        reports = {r.name: r for r in check_vertex_coords()}
        assert reports["vertex_count_240"].details == {"count": 240}
        assert reports["vertex_norms_two"].holds
        assert reports["vertex_set_matches_roots"].holds
        assert reports["vertex_inner_histogram_matches"].holds

    def test_coords_sorted_deterministic(self):
        coords = _doubled_vertex_coords()
        assert coords == _doubled_vertex_coords()
        assert list(coords) == sorted(coords)


class TestDoubledIntegers:
    """The checks run on doubled integer vectors; gen_e8_roots is a view of them."""

    def test_doubling_the_api_lists_gives_the_integer_lists(self):
        assert [tuple(2 * x for x in v) for v in gen_e8_roots()] == list(_doubled_roots())

    def test_checks_skip_the_fraction_api(self, monkeypatch):
        groups = ("roots", "vertex-coords")
        expected = [[r.to_dict() for r in CHECK_GROUPS[g]()] for g in groups]

        def forbidden(*args):
            raise AssertionError("Fraction API called by a check")

        monkeypatch.setattr(lattice, "gen_e8_roots", forbidden)
        assert [[r.to_dict() for r in CHECK_GROUPS[g]()] for g in groups] == expected


class TestHeightHistogram:
    def test_total_and_peak(self):
        hist = e8_height_histogram()
        assert sum(hist.values()) == 120
        assert max(hist) == 29
        assert hist[1] == 8

    def test_decreasing_counts(self):
        # dual partition of the exponents: layer sizes weakly decrease
        hist = e8_height_histogram()
        counts = [hist[h] for h in sorted(hist)]
        assert counts == sorted(counts, reverse=True)


# counts the integer pair Gram builds of one `phi8 lattice`: each build is
# one miss of the kernel's cache
COUNT_GRAMS = """
import contextlib, io, json
from phi8 import cli, lattice

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["lattice"])
print(json.dumps({"code": code, "builds": lattice._pair_gram.cache_info().misses}))
"""


class TestComputedOnce:
    def test_one_pair_gram_per_lattice_command(self):
        proc = subprocess.run(
            [sys.executable, "-c", COUNT_GRAMS], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"code": 0, "builds": 1}
