"""Acceptance battery.

One test per criterion; `pytest -v` therefore prints one pass/fail line
per criterion.  Each test also prints a one-line verdict with the
measured values, visible with -s or in failure reports.

Exact checks use field equality (zero tolerance).  phi8 has no float
tolerance left: the hull peel decides every triangle, flatness and edge
equality on exact Z[phi] pairs, and floats give only the printed edge
spread and the OBJ vertices.
"""
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

from conftest import child_env, random_exact_image
from phi8.constants import (
    bracket_minus,
    bracket_plus,
    build_cmE8,
    build_cmU,
    build_hadamard,
    build_J,
    build_srE8,
    build_U,
    build_U_inv,
)
from phi8.field import PHI, SQRT5, GoldenExt, GoldenScalar
from phi8.hulls import (
    build_vertices,
    group_by_signature,
    peel_hulls,
    tally_all,
)
from phi8.lattice import (
    construction_a,
    e8_height_histogram,
    gen_e8_roots,
    hadamard_code_correspondence,
    hamming84,
)
from phi8.matrix import ExactMatrix
from phi8.roots import EnumerationRule, enumerate_roots, summarize

EVEN_QUARTIC = (1, 0, -4, 0, 6, 0, -4, 0, 1)


def test_criterion_01_exact_identity_battery():
    U = build_U()
    cmU = build_cmU()
    I = ExactMatrix.identity(8)
    assert U * U == cmU
    assert cmU - cmU.inverse() == build_J()
    assert (cmU + cmU.inverse()) / SQRT5 == I
    assert U * build_U_inv() == I
    print("CRITERION 1: PASS - all four identities hold entry-exact")


def test_criterion_02_characteristic_polynomials():
    cp_U = build_U().char_poly()
    c = cp_U.coeffs
    two_sqrt5 = SQRT5 * 2
    expected_U = (
        GoldenScalar(1), GoldenScalar(0), -two_sqrt5, GoldenScalar(0),
        GoldenScalar(7), GoldenScalar(0), -two_sqrt5, GoldenScalar(0),
        GoldenScalar(1),
    )
    assert c == expected_U
    assert cp_U.is_palindromic()

    cp_H = build_hadamard(3).char_poly().rescaled(8)
    assert cp_H.coeffs == tuple(GoldenScalar(k) for k in EVEN_QUARTIC)
    assert cp_H.is_palindromic()
    print("CRITERION 2: PASS - both char polys coefficient-exact and palindromic")


def test_criterion_03_power_laws():
    cmU = build_cmU()
    I = ExactMatrix.identity(8)
    J = build_J()
    for n in range(1, 11):
        s = PHI ** n + PHI ** (-n)
        d = PHI ** n - PHI ** (-n)
        assert cmU ** n + cmU ** (-n) == I * s
        assert cmU ** n - cmU ** (-n) == J * d
        sp, sq = sqrt5_parts(s)
        dp, dq = sqrt5_parts(d)
        if n % 2 == 0:
            assert sq == 0 and sp.denominator == 1, f"n={n} sum not integer"
            assert dp == 0 and dq.denominator == 1, f"n={n} diff not m*sqrt5"
        else:
            assert sp == 0 and sq.denominator == 1, f"n={n} sum not m*sqrt5"
            assert dq == 0 and dp.denominator == 1, f"n={n} diff not integer"
    print("CRITERION 3: PASS - power laws and parity alternation, n = 1..10")


def sqrt5_parts(x):
    """(p, q) with x = p + q*sqrt5: (a + b*phi)/e = (2a + b)/(2e) + b/(2e)*sqrt5."""
    a, b, e = x.phi_ints()
    return Fraction(2 * a + b, 2 * e), Fraction(b, 2 * e)


def test_criterion_04_odd_power_forms():
    U = build_U()
    Bp = bracket_plus()
    Bm = bracket_minus()
    I = ExactMatrix.identity(8)
    for n in (1, 3, 5, 7):
        denom = GoldenExt(0, PHI ** ((n - 1) // 2))  # phi^(n/2)
        s_plus = GoldenExt(PHI ** n + 1) / denom
        s_minus = GoldenExt(PHI ** n - 1) / denom
        assert U ** n + U ** (-n) == -(Bp * s_plus)
        assert U ** n - U ** (-n) == -(Bm * s_minus)
    for B in (Bp, Bm):
        assert B.is_traceless()
        assert B.is_orthogonal()
        assert B * B == I
        assert B.char_poly().coeffs == tuple(
            GoldenScalar(k) for k in EVEN_QUARTIC
        )
    print("CRITERION 4: PASS - odd-power bracket forms for n in {1,3,5,7}")


def test_criterion_05_e8_counts():
    roots = gen_e8_roots()
    assert len(roots) == 240
    assert all(sum(x * x for x in v) == 2 for v in roots)
    # doubled coordinates are integers, and squared distance 2 becomes 8
    assert all((2 * x).denominator == 1 for v in roots for x in v)
    doubled = [tuple(int(2 * x) for x in v) for v in roots]
    pairs = sum(1 for a, b in combinations(doubled, 2)
                if sum((x - y) ** 2 for x, y in zip(a, b)) == 8)
    assert pairs == 6720
    S = build_srE8()
    assert S * S.transpose() == build_cmE8()
    print(f"CRITERION 5: PASS - 240 roots, norm 2, {pairs} distance-2 pairs, exact Gram")


def test_criterion_06_hamming_construction_a():
    code = hamming84()
    assert len(code.codewords) == 16
    assert code.weight_enumerator() == {0: 1, 4: 14, 8: 1}
    assert code.min_distance() == 4

    t0 = time.monotonic()
    reports = {r.name: r for r in construction_a()}
    elapsed = time.monotonic() - t0
    assert reports["lattice_even"].holds
    assert reports["lattice_unimodular"].holds
    assert reports["lattice_unimodular"].details == {"det": "1"}
    assert reports["lattice_minimal_vectors_240"].holds
    assert reports["lattice_minimal_vectors_240"].details == {"count": 240}
    assert elapsed < 10.0, f"bounded search took {elapsed:.2f}s"

    corr = {r.name: r for r in hadamard_code_correspondence()}
    permutation = corr["hadamard_column_permutation"].details["permutation"]
    assert corr["hadamard_weight_enumerator_match"].holds
    assert corr["hadamard_column_permutation"].holds and permutation is not None
    print(
        f"CRITERION 6: PASS - code and even unimodular Gram verified in "
        f"{elapsed:.2f}s; Hadamard bijection via permutation {permutation}"
    )


def test_criterion_07_root_enumeration():
    # the independent oracle derives heights from lattice coordinates
    recs = enumerate_roots(build_cmE8(), EnumerationRule(max_height=30))
    s = summarize(recs)
    assert s["total"] == 120
    assert s["max_height"] == 29
    assert s["by_height"] == e8_height_histogram()

    # default rule on the golden matrix: reported and compared, and the
    # shortfall against 120 is a documented finding rather than a crash
    golden = summarize(enumerate_roots(build_cmU(), EnumerationRule(max_height=8)))
    assert golden["e8_reference"] == 120
    assert golden["cumulative_through_8"] == 8
    assert golden["cumulative_8_matches_e8"] is False

    # the connected-support reading documented in the README closes the gap
    coupled = summarize(
        enumerate_roots(build_cmU(), EnumerationRule(mode="pair-coupling", max_height=8))
    )
    assert coupled["cumulative_through_8"] == 120
    print(
        "CRITERION 7: PASS - cmE8 matches the oracle (120 roots, height 29); "
        "golden-matrix default rule reports 8/120 through height 8 "
        "(documented deviation; pair-coupling mode reaches 120)"
    )


def test_criterion_08_projection_tally():
    vset = build_vertices()
    reports = tally_all(vset)
    assert len(reports) == 56
    groups = group_by_signature(reports)
    assert len(groups) > 1

    target = next(r for r in reports if r.dims == (2, 3, 4))
    kinds = [l.classification for l in target.layers]
    assert any(k == "regular octahedron" for k in kinds)
    assert any(l.vertex_count == 12 and "icosahedron" in l.classification
               for l in target.layers)
    print(
        f"CRITERION 8: PASS - 56 reports, {len(groups)} distinct signatures; "
        f"dims (2,3,4) holds octahedral and icosahedral shells"
    )


def test_criterion_09_cli_determinism(tmp_path):
    commands = (
        ("verify", "--json"),
        ("powers", "-n", "6", "--json"),
        ("roots", "--matrix", "cmE8", "--max-height", "30", "--json",
         "--dot", "hasse.dot", "--csv", "roots.csv"),
        ("lattice", "--check", "hamming", "--json"),
        ("project", "--dims", "2,3,4", "--json", "--csv", "sig.csv",
         "--obj", "mesh"),
    )
    outputs: list[dict[str, bytes]] = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        captured: dict[str, bytes] = {}
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "phi8.cli", *argv],
                capture_output=True,
                env={**child_env(), "PHI8_OUT_DIR": str(out_dir)},
            )
            assert proc.returncode == 0, proc.stderr.decode()
            captured["stdout:" + " ".join(argv)] = proc.stdout
        for f in sorted(out_dir.rglob("*")):
            if f.is_file():
                captured["file:" + str(f.relative_to(out_dir))] = f.read_bytes()
        outputs.append(captured)
    assert outputs[0].keys() == outputs[1].keys()
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], f"nondeterministic: {key}"
    # sanity: the JSON streams parse
    for key, blob in outputs[0].items():
        if key.startswith("stdout:"):
            json.loads(blob)
    print(
        f"CRITERION 9: PASS - {len(outputs[0])} streams/files byte-identical "
        f"across two full CLI runs"
    )


def test_criterion_10_property_suites():
    rng = random.Random(8163264)

    def rand_scalar():
        return GoldenScalar(
            Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
        )

    # field axioms
    field_cases = 0
    for _ in range(120):
        x, y, z = rand_scalar(), rand_scalar(), rand_scalar()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if x:
            assert x * x.inverse() == GoldenScalar(1)
        field_cases += 1

    # similarity invariance of the characteristic polynomial
    base = ExactMatrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)])
    cp = base.char_poly()
    sim_cases = 0
    for _ in range(110):
        perm = list(range(5))
        rng.shuffle(perm)
        P = ExactMatrix(
            [[1 if perm[i] == j else 0 for j in range(5)] for i in range(5)]
        )
        assert (P * base * P.inverse()).char_poly() == cp
        sim_cases += 1

    # power additivity on the golden Cartan matrix
    cmU = build_cmU()
    pow_cases = 0
    for _ in range(110):
        j = rng.randint(-4, 4)
        k = rng.randint(-4, 4)
        assert cmU ** (j + k) == (cmU ** j) * (cmU ** k)
        pow_cases += 1

    # rotation invariance of hull classification, under exact orthogonal maps
    ico = (
        [[(0, 0), (a, 0), (0, b)] for a in (-1, 1) for b in (-1, 1)]  # b * phi
        + [[(a, 0), (0, b), (0, 0)] for a in (-1, 1) for b in (-1, 1)]
        + [[(0, b), (0, 0), (a, 0)] for a in (-1, 1) for b in (-1, 1)]
    )
    hull_cases = 0
    for k in range(110):
        layers = peel_hulls(*random_exact_image(ico, rng, reflect=k % 2))
        assert layers[0].classification == "regular icosahedron"
        hull_cases += 1

    assert min(field_cases, sim_cases, pow_cases, hull_cases) >= 100
    print(
        f"CRITERION 10: PASS - randomized cases: field {field_cases}, "
        f"similarity {sim_cases}, powers {pow_cases}, hulls {hull_cases}"
    )
