"""Output oracles that share no code with phi8.

Everything here is derived from outside facts: Kostant's exponent rule
for root heights, closure of the simple roots under Weyl reflections,
the Lucas and Fibonacci numbers, and a separate exact arithmetic for
Q(sqrt(phi)) used to read matrix literals back.  Each ``check_*``
function returns a list of problems; an empty list means the output
holds.
"""
from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from itertools import combinations

# ---------------------------------------------------------------- field
# An element of Q(s), s = sqrt(phi), is a 4-tuple of Fractions over the
# basis (1, phi, s, phi*s), with phi^2 = phi + 1 and s^2 = phi.

ZERO4 = (Fraction(0),) * 4
ONE4 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
PHI4 = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
S4 = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))

# products of basis elements, in the same basis
_TABLE = {
    (0, 0): (1, 0, 0, 0), (0, 1): (0, 1, 0, 0), (0, 2): (0, 0, 1, 0), (0, 3): (0, 0, 0, 1),
    (1, 1): (1, 1, 0, 0), (1, 2): (0, 0, 0, 1), (1, 3): (0, 0, 1, 1),
    (2, 2): (0, 1, 0, 0), (2, 3): (1, 1, 0, 0),
    (3, 3): (1, 2, 0, 0),
}


def add4(x, y):
    return tuple(a + b for a, b in zip(x, y))


def scale4(x, c):
    return tuple(a * c for a in x)


def mul4(x, y):
    out = [Fraction(0)] * 4
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            for k, t in enumerate(_TABLE[(min(i, j), max(i, j))]):
                if t:
                    out[k] += a * b * t
    return tuple(out)


def _inv2(a, b):
    # (a + b*phi)^-1 = (a + b - b*phi) / (a^2 + a*b - b^2)
    n = a * a + a * b - b * b
    return (a + b) / n, -b / n


def inv4(x):
    """Inverse via the conjugate s -> -s, then the golden conjugate."""
    u = (x[0], x[1])
    v = (x[2], x[3])

    def m2(p, q):
        return (p[0] * q[0] + p[1] * q[1], p[0] * q[1] + p[1] * q[0] + p[1] * q[1])

    # norm u^2 - phi*v^2 lies in Q(phi)
    uu = m2(u, u)
    vv = m2(m2(v, v), (Fraction(0), Fraction(1)))
    norm = (uu[0] - vv[0], uu[1] - vv[1])
    if not any(norm):
        raise ZeroDivisionError("zero element")
    ni = _inv2(*norm)
    nu = m2(u, ni)
    nv = m2(v, ni)
    return (nu[0], nu[1], -nv[0], -nv[1])


def float4(x) -> float:
    phi = (1 + 5 ** 0.5) / 2
    s = phi ** 0.5
    return float(x[0]) + float(x[1]) * phi + float(x[2]) * s + float(x[3]) * phi * s


_TOKEN = re.compile(r"\s*(sqrt\(phi\)|phi|\d+(?:/\d+)?|[+\-*])")


def parse4(text: str):
    """Read a scalar literal: +/- separated terms, each a *-product of
    rationals, phi and sqrt(phi)."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad literal {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    total = ZERO4
    i = 0
    while i < len(tokens):
        sign = 1
        while tokens[i] in "+-":
            sign = -sign if tokens[i] == "-" else sign
            i += 1
        term = ONE4
        while i < len(tokens) and tokens[i] not in "+-":
            tok = tokens[i]
            if tok != "*":
                factor = {"phi": PHI4, "sqrt(phi)": S4}.get(tok)
                term = mul4(term, factor) if factor else scale4(term, Fraction(tok))
            i += 1
        total = add4(total, scale4(term, sign))
    return total


def parse_matrix4(text: str):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([parse4(cell) for cell in line.split(";")])
    return rows


# ------------------------------------------------------- Cartan types

EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}


def exponents(kind: str, n: int) -> tuple[int, ...]:
    if kind == "A":
        return tuple(range(1, n + 1))
    if kind == "D":
        return tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
    return EXPONENTS[f"E{n}"]


def cartan(kind: str, n: int) -> list[list[int]]:
    """Bourbaki-labelled Cartan matrix of A_n, D_n or E_n (0-based)."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if kind == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif kind == "E":
        chain = [0, 2] + list(range(3, n))
        edges = list(zip(chain, chain[1:])) + [(1, 3)]
    else:
        raise ValueError(kind)
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    return a


def kostant_histogram(kind: str, n: int) -> dict[int, int]:
    """Roots of height k = exponents that are >= k (Kostant)."""
    exps = exponents(kind, n)
    return {k: sum(1 for m in exps if m >= k) for k in range(1, max(exps) + 1)}


def weyl_positive_roots(a: list[list[int]]) -> set[tuple[int, ...]]:
    """Positive roots as the closure of the simple roots under simple
    reflections s_i(b) = b - (A b)_i e_i, kept while positive."""
    n = len(a)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    found = set(simple)
    todo = list(simple)
    while todo:
        b = todo.pop()
        for i in range(n):
            c = sum(a[i][k] * b[k] for k in range(n))
            r = tuple(x - c if k == i else x for k, x in enumerate(b))
            if all(x >= 0 for x in r) and any(r) and r not in found:
                found.add(r)
                todo.append(r)
    return found


def fib_lucas(n: int) -> tuple[int, int]:
    f0, f1 = 0, 1
    for _ in range(n):
        f0, f1 = f1, f0 + f1
    return f0, 2 * f1 - f0  # L_n = F_(n-1) + F_(n+1) = 2 F_(n+1) - F_n


# ------------------------------------------------------------- checks

def _histogram_line(hist: dict[int, int]) -> str:
    return "height counts: " + " ".join(f"{h}:{c}" for h, c in sorted(hist.items()))


def check_roots_text(out: str, hist: dict[int, int], integer_weights: bool | None) -> list[str]:
    lines = out.splitlines()
    total = sum(hist.values())
    through8 = sum(c for h, c in hist.items() if h <= 8)
    want = [
        _histogram_line(hist),
        f"{total} positive roots (max height {max(hist)}, through height 8: {through8})",
    ]
    problems = []
    if lines[1:3] != want:
        problems.append(f"roots summary {lines[1:3]!r} != {want!r}")
    if integer_weights is not None:
        flagged = "weights include non-integer values" in lines[3:]
        if flagged == integer_weights:
            problems.append("non-integer weight flag disagrees with the row scales")
    return problems


def check_roots_files(csv_text: str, dot_text: str, a_scaled, roots: set) -> list[str]:
    """CSV and DOT listings against the reflection-closure root set.

    ``a_scaled`` is the file's matrix as 4-tuples; each weight entry j
    must equal sum_i a_scaled[j][i] * beta_i exactly.
    """
    problems = []
    n = len(a_scaled)
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != ["index", "height", "coeffs", "weight", "parents"]:
        return [f"csv header {rows[0]!r}"]
    body = rows[1:]
    listed = [tuple(int(c) for c in r[2].split()) for r in body]
    if listed != sorted(roots, key=lambda b: (sum(b), b)):
        return ["csv roots differ from the reflection closure or are misordered"]
    index = {b: i for i, b in enumerate(listed)}
    for r, b in zip(body, listed):
        if int(r[0]) != index[b] or int(r[1]) != sum(b):
            problems.append(f"csv index/height wrong for {b}")
        weight = [parse4(w) for w in r[3].split(";")]
        if weight != [_weight4(a_scaled, b, j) for j in range(n)]:
            problems.append(f"csv weight wrong for {b}")
        parents = sorted(tuple(int(x) for x in p.split("+e")) for p in r[4].split("; ") if p)
        expect = sorted(
            (index[p], j)
            for j in range(n)
            for p in [tuple(x - (1 if k == j else 0) for k, x in enumerate(b))]
            if p in index
        )
        if parents != expect:
            problems.append(f"csv parents wrong for {b}")
        if len(problems) > 5:
            break
    labels = dict(re.findall(r'(r\d+_\d+) \[label="([\d ]+)"\];', dot_text))
    names = {tuple(int(c) for c in lab.split()): name for name, lab in labels.items()}
    if set(names) != roots:
        problems.append("dot node labels differ from the root set")
        return problems
    edges = set(re.findall(r"^  (r\d+_\d+) -> (r\d+_\d+);$", dot_text, re.M))
    want_edges = {
        (names[b], names[c])
        for b in roots
        for j in range(n)
        for c in [tuple(x + (1 if k == j else 0) for k, x in enumerate(b))]
        if c in roots
    }
    if edges != want_edges:
        problems.append(f"dot edges: {len(edges)} listed, {len(want_edges)} expected")
    return problems


def _weight4(a_scaled, b, j):
    acc = ZERO4
    for i, c in enumerate(b):
        if c:
            acc = add4(acc, scale4(a_scaled[j][i], c))
    return acc


def check_powers(out: str, n: int) -> list[str]:
    f, lucas = fib_lucas(n)
    root5 = f"{f}*sqrt(5)"
    plus, minus = (str(lucas), root5) if n % 2 == 0 else (root5, str(lucas))
    want = [
        f"cmU^{n} + cmU^-{n} = ({plus}) * I",
        f"cmU^{n} - cmU^-{n} = ({minus}) * J",
        f"PASS power_{n}_sum",
        f"PASS power_{n}_diff",
        f"PASS power_{n}_parity",
    ]
    lines = out.splitlines()
    return [] if lines == want else [f"powers -n {n}: {lines[:2]!r} != {want[:2]!r}"]


def check_all_pass(out: str, allow_info: bool) -> list[str]:
    lines = out.splitlines()
    bad = [
        l for l in lines
        if not (l.startswith("PASS ") or (allow_info and l.startswith("INFO ")))
    ]
    names = [l.split()[1].rstrip(":") for l in lines]
    problems = []
    if not lines or bad:
        problems.append(f"not all PASS: {bad[:3]!r}")
    if len(set(names)) != len(names):
        problems.append("check names repeat")
    return problems


def check_verify_json(out: str, text_out: str | None) -> list[str]:
    reports = json.loads(out)
    problems = []
    if not reports:
        problems.append("empty report list")
    failing = [r["name"] for r in reports if not r["informational"] and not r["holds"]]
    if failing:
        problems.append(f"reports failing: {failing[:3]}")
    if text_out is not None:
        names = [l.split()[1].rstrip(":") for l in text_out.splitlines()]
        if names != [r["name"] for r in reports]:
            problems.append("json report names differ from the text listing")
    return problems


_LAYER = re.compile(r"^(?:[a-z ]+?)(?:\(v=(\d+)\))?$")
_LAYER_SIZES = {"regular octahedron": 6, "regular icosahedron": 12,
                "irregular icosahedron": 12, "point": 1}


def check_project_all(out: str) -> list[str]:
    lines = out.splitlines()
    problems = []
    if lines[0] != "basis U: 240 vertices from 120 positive roots":
        problems.append(f"header {lines[0]!r}")
    body = lines[1:-1]
    dims = [tuple(int(d) for d in re.match(r"dims \((\d),(\d),(\d)\)", l).groups()) for l in body]
    if dims != list(combinations(range(1, 9), 3)):
        problems.append("projection triples are not the 56 coordinate choices")
    signatures = set()
    for line in body:
        m = re.match(r"dims \(\d,\d,\d\) -> (\d+) points: (.*)$", line)
        count, sig = int(m.group(1)), m.group(2)
        signatures.add(sig)
        sizes = []
        for layer in sig.split(" | "):
            lm = _LAYER.match(layer)
            sizes.append(int(lm.group(1)) if lm and lm.group(1) else _LAYER_SIZES.get(layer, -1))
        # peeling puts every projected point in exactly one layer
        if sum(sizes) != count or count > 240:
            problems.append(f"layers do not partition the points: {line[:40]}")
    if lines[-1] != f"56 coordinate triples, {len(signatures)} distinct signatures":
        problems.append(f"footer {lines[-1]!r}")
    return problems
