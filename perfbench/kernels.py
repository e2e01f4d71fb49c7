"""Layer kernels: field and matrix operations timed on checked work.

    python3 perfbench/kernels.py SEED

prints one JSON object of kernel timings.  Every timed result is kept
and verified after the clock stops (for example (a*b)/b == a and
cmU * cmU^-1 == I), so a timing cannot come from skipped work; a failed
check exits non-zero.  Only phi8's public API is used.
"""
from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction

from oracles import float4
from phi8 import ExactMatrix, parse_scalar, resolve_matrix

BATCH = 200
ROUNDS = 7
BASIS = ("", "*phi", "*sqrt(phi)", "*phi*sqrt(phi)")


def _literal(coeffs) -> str:
    return " + ".join(f"{c}{unit}" for c, unit in zip(coeffs, BASIS))


def _timed(fn, items, per: float) -> tuple[float, list]:
    """Median over ROUNDS of the time per item, in units of `per` seconds."""
    times, results = [], None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        results = [fn(x) for x in items]
        times.append((time.perf_counter() - start) / len(items))
    return statistics.median(times) / per, results


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"kernel check failed: {what}")


def field_kernels(rng: random.Random) -> dict[str, float]:
    coeffs = [
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4))
        for _ in range(BATCH)
    ]
    coeffs = [c for c in coeffs if any(c)]
    texts = [_literal(c) for c in coeffs]
    phi, root = parse_scalar("phi"), parse_scalar("sqrt(phi)")
    xs = [c[0] + c[1] * phi + c[2] * root + c[3] * phi * root for c in coeffs]
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    cpairs = list(zip(coeffs, coeffs[1:] + coeffs[:1]))
    out: dict[str, float] = {}

    out["field.parse_us"], parsed = _timed(parse_scalar, texts, 1e-6)
    _require(parsed == xs, "parse_scalar(literal) equals the arithmetic sum")

    out["field.mul_ns"], products = _timed(lambda p: p[0] * p[1], pairs, 1e-9)
    _require(all(p / b == a for p, (a, b) in zip(products, pairs)), "(a*b)/b == a")
    _require(all(abs(p.to_float() - float4(a) * float4(b)) < 1e-6 * (1 + abs(p.to_float()))
                 for p, (a, b) in zip(products, cpairs)), "a*b agrees with float arithmetic")

    out["field.add_ns"], sums = _timed(lambda p: p[0] + p[1], pairs, 1e-9)
    _require(all(s - b == a for s, (a, b) in zip(sums, pairs)), "(a+b)-b == a")

    out["field.inverse_ns"], invs = _timed(lambda x: x.inverse(), xs, 1e-9)
    _require(all(x * i == 1 for x, i in zip(xs, invs)), "a*a.inverse() == 1")

    diffs = [a - b for a, b in pairs]
    out["field.sign_ns"], signs = _timed(lambda d: d.sign(), diffs, 1e-9)
    for s, (ca, cb) in zip(signs, cpairs):
        approx = float4(ca) - float4(cb)
        _require(abs(approx) < 1e-9 or s == (1 if approx > 0 else -1), "sign matches float sign")

    out["field.hash_ns"], hashes = _timed(hash, xs, 1e-9)
    _require(all(h == hash(p) for h, p in zip(hashes, parsed)), "equal elements hash equal")
    return out


def matrix_kernels() -> dict[str, float]:
    U, cmU = resolve_matrix("U"), resolve_matrix("cmU")
    ident = ExactMatrix.identity(8)
    out: dict[str, float] = {}

    out["matrix.UxU_ms"], squares = _timed(lambda m: m * m, [U], 1e-3)
    _require(squares[0] == cmU, "U*U == cmU")

    out["matrix.inverse_ms"], invs = _timed(lambda m: m.inverse(), [cmU], 1e-3)
    _require(cmU * invs[0] == ident, "cmU * cmU^-1 == I")

    out["matrix.char_poly_ms"], polys = _timed(lambda m: m.char_poly(), [U], 1e-3)
    # x^8 - 2 sqrt5 x^6 + 7 x^4 - 2 sqrt5 x^2 + 1, with sqrt5 = 2 phi - 1
    want = ["1", "0", "2 - 4*phi", "0", "7", "0", "2 - 4*phi", "0", "1"]
    _require(list(polys[0].coeffs) == [parse_scalar(w) for w in want], "char poly of U")
    return out


def main() -> None:
    rng = random.Random(int(sys.argv[1]))
    result = field_kernels(rng)
    result.update(matrix_kernels())
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
