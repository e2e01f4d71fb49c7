"""Helpers shared by several test modules: the environment of a child
interpreter, and exact Z[phi] point clouds with their floats."""
import os
from math import lcm
from pathlib import Path

from phi8.matrix import ExactMatrix

ROOT = Path(__file__).resolve().parent.parent
PHI = (1 + 5 ** 0.5) / 2


def child_env():
    """This environment, with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def floats_of(exact, scale=1):
    """The floats (a + b*phi) / scale of rows of Z[phi] pairs (a, b)."""
    return [tuple((a + PHI * b) / scale for a, b in row) for row in exact]


def random_exact_image(exact, rng, reflect):
    """Rows of Z[phi] pairs under a random rational orthogonal map and a
    random rational scale, as floats and exact pairs.

    The map is the Cayley transform Q = (I - S)(I + S)^-1 of an integer
    skew matrix S with entries in [-4, 4], then a reflection if
    ``reflect``; Q^T Q = I is checked exactly.
    """
    s12, s13, s23 = (rng.randint(-4, 4) for _ in range(3))
    S = ExactMatrix([[0, s12, s13], [-s12, 0, s23], [-s13, -s23, 0]])
    I = ExactMatrix.identity(3)
    Q = (I - S) * (I + S).inverse()
    if reflect:
        Q = ExactMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]) * Q
    assert Q.transpose() * Q == I
    den = lcm(*(x.phi_ints()[2] for row in Q for x in row))
    num = [[a * den // d for a, _, d in (x.phi_ints() for x in row)] for row in Q]
    assert ExactMatrix(num) == Q * den
    p, q = rng.randint(1, 9), rng.randint(1, 9)
    # image[n][i] = p * sum_j num[i][j] * exact[n][j], on both parts of each pair
    image = [tuple(tuple(p * sum(num[i][j] * row[j][k] for j in range(3)) for k in range(2))
                   for i in range(3)) for row in exact]
    return floats_of(image, q * den), image
