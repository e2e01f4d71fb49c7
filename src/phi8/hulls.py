"""Signed root vertices and their 3-coordinate convex hull layers.

The 120 positive roots of the golden Cartan matrix, taken with both
signs through a basis matrix, give 240 points in 8 dimensions.  Picking
three coordinates projects them to 3-space, where repeated convex hull
peeling splits the cloud into nested polyhedral shells.

Each vertex set indexes its exact coordinate values once, in one table
for all eight coordinates; a projection sorts its distinct value-id
triples as integer codes and reads its floats and exact Z[phi] pairs
from that table.  Both tests that name a layer are exact on those pairs:
the affine rank that ends a peel, and edge equality (one squared length
for every edge).  Floats decide only which facets qhull reports, and
they give the printed edge spread.

``peel_hulls`` is the one reader of qhull output, and both ``analyze``
(``project --dims``) and ``tally_all`` (``project --all``) call it.  A
``HullLayer`` holds only index arrays on its cloud: its member rows, its
triangles and its edge endpoints, with its label; counts, the edge
spread, points and faces are derived when read.  ``tally_all`` peels one
triple per class, triples whose point sets are equal up to the order of
the columns, and maps those layers onto the others.  A column order is
an isometry, and every hull here is simplicial with no two coplanar
facets, so layers, edges and labels carry over, and each spread,
computed on the triple's own floats, has the bits of a direct peel; only
the vertex order within a triangle may differ.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from math import lcm
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .constants import BASIS_BUILDERS, build_cmU
from .field import ONE, SQRT_PHI, GoldenExt
from .roots import EnumerationRule, enumerate_roots, signed_images

ExactPoint = tuple[GoldenExt, ...]

PAIR_ENTRY_LIMIT = 2 ** 18  # 3x3 determinants of differences, < 432 * limit**3, fit int64


@dataclass(frozen=True)
class CoordinateIndex:
    """Every exact coordinate value of a vertex set, computed once.

    ``values`` holds the distinct values of all eight coordinates in
    ascending order and ``floats`` their ``to_float()``; ``ranks[k, i]``
    is the position of point i's coordinate k in ``values``.  Ranks
    preserve order, so sorting rank triples sorts the exact triples they
    stand for, and equal id triples are equal points whichever
    coordinates they came from.  ``pairs[r]`` is (a, b) in int64 with
    ``values[r] * s == a + b*phi``, one s > 0 for all values.
    """

    values: tuple[GoldenExt, ...]
    floats: np.ndarray
    ranks: np.ndarray
    pairs: np.ndarray


@dataclass(frozen=True)
class VertexSet:
    positive_root_count: int
    points: tuple[ExactPoint, ...]

    @cached_property
    def index(self) -> CoordinateIndex:
        columns = list(zip(*self.points))
        values = tuple(sorted(set().union(*columns)))
        rank = {v: r for r, v in enumerate(values)}.__getitem__
        scale = ONE if all(v.is_scalar() for v in values) else SQRT_PHI
        # .a and .b raise ValueError on a value with both a Q(phi) and a sqrt(phi) part
        scale *= lcm(*(x.denominator for v in values for x in ((v * scale).a, (v * scale).b)))
        pairs = np.array([(int((v * scale).a), int((v * scale).b)) for v in values], dtype=object)
        if (abs(pairs) >= PAIR_ENTRY_LIMIT).any():
            raise ValueError(f"a scaled coordinate reaches {PAIR_ENTRY_LIMIT}; int64 ranks could overflow")
        return CoordinateIndex(values, np.array([v.to_float() for v in values]),
                               np.array([list(map(rank, col)) for col in columns], dtype=np.intp),
                               pairs.reshape(-1, 2).astype(np.int64))


def build_vertices(basis: str = "U") -> VertexSet:
    """Map the cmU pair-coupling roots to height 8 through a basis matrix, both signs."""
    if basis not in BASIS_BUILDERS:
        raise ValueError(f"unknown basis {basis!r}; expected one of {sorted(BASIS_BUILDERS)}")
    records = enumerate_roots(build_cmU(), EnumerationRule(mode="pair-coupling", max_height=8))
    return VertexSet(len(records), tuple(signed_images(records, BASIS_BUILDERS[basis]().rows)))


@dataclass(frozen=True, eq=False)
class Projection:
    """The distinct projected points: ``keys`` holds their ``CoordinateIndex``
    id triples as rows, in exact order, and ``float_points`` their floats."""

    dims: tuple[int, int, int]
    keys: np.ndarray
    float_points: np.ndarray


def project(vset: VertexSet, dims: Sequence[int]) -> Projection:
    """Select three 1-based coordinates and collapse coincident images.

    Works on the value ids of ``vset.index``: no exact value is hashed,
    compared or converted here.
    """
    dims_t = tuple(dims)
    if len(dims_t) != 3 or len(set(dims_t)) != 3:
        raise ValueError("dims must be three distinct coordinates")
    if any(not (1 <= d <= 8) for d in dims_t):
        raise ValueError("coordinates are numbered 1 through 8")
    index = vset.index
    # a point's code is its id triple in base len(values): sorted codes are sorted triples
    shape = (len(index.values),) * 3
    codes = np.unique(np.ravel_multi_index(index.ranks[[d - 1 for d in dims_t]], shape))
    keys = np.stack(np.unravel_index(codes, shape), axis=1)
    return Projection(dims_t, keys, index.floats[keys])


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Z[phi] products on the last axis: (a, b)(c, d) = (ac + bd, ad + bc + bd)."""
    a, b, c, d = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    return np.stack([a * c + b * d, a * d + b * c + b * d], axis=-1)


def _affine_rank(exact: np.ndarray) -> int:
    """Exact affine rank of points given as rows of three Z[phi] pairs."""
    d = exact[1:] - exact[0]
    rows = (d != 0).any(axis=(1, 2))
    if not rows.any():
        return 0
    r = d[rows.argmax()]
    cross = _mul(d[:, [1, 2, 0]], r[[2, 0, 1]]) - _mul(d[:, [2, 0, 1]], r[[1, 2, 0]])
    rows = (cross != 0).any(axis=(1, 2))
    if not rows.any():
        return 1
    return 3 if (_mul(d, cross[rows.argmax()]).sum(axis=1) != 0).any() else 2


def _edges(triangles: np.ndarray, n: int) -> np.ndarray:
    """Endpoints [a, b], a < b, of the distinct edges of triangles on points 0..n-1."""
    tri = np.sort(triangles, axis=1).astype(np.intp)
    codes = np.unique(np.concatenate([tri[:, 0] * n + tri[:, 1],
                                      tri[:, 0] * n + tri[:, 2],
                                      tri[:, 1] * n + tri[:, 2]]))
    return np.stack(np.divmod(codes, n))


def _classify(exact: np.ndarray, nv: int, ends: np.ndarray) -> str:
    """Name a hull by vertex count, edge count and exact edge equality: equal
    edges have one squared length, the sum of ``_mul(d, d)``, d = exact[a] - exact[b]."""
    if nv == 12 and ends.shape[1] == 30 and (np.unique(ends, return_counts=True)[1] == 5).all():
        regular, irregular = "regular icosahedron", "irregular icosahedron"
    elif nv == 6 and ends.shape[1] == 12:
        regular, irregular = "regular octahedron", "other(v=6)"
    else:
        return f"other(v={nv})"
    d = exact[ends[0]] - exact[ends[1]]
    lengths = _mul(d, d).sum(axis=1)
    return regular if (lengths == lengths[0]).all() else irregular


@dataclass(frozen=True, eq=False)
class HullLayer:
    """One shell of a cloud as index arrays on its rows; counts, the edge
    spread, ``points`` (the members in row order) and ``faces`` (triangles
    that number them) are derived when read."""

    classification: str
    cloud: np.ndarray
    members: np.ndarray  # rows of ``cloud``, sorted ascending here
    triangles: np.ndarray  # rows of ``cloud``, one triangle per row
    ends: np.ndarray  # rows of ``cloud``, [a, b] edge endpoints as columns

    def __post_init__(self):
        object.__setattr__(self, "members", np.sort(self.members))

    @property
    def vertex_count(self) -> int:
        return len(self.members)

    @property
    def edge_count(self) -> int:
        return self.ends.shape[1]

    @cached_property
    def edge_spread(self) -> float:
        """(max - min) / max of the edge lengths; 0 without edges."""
        if not self.edge_count:
            return 0.0
        d = self.cloud[self.ends[0]] - self.cloud[self.ends[1]]
        # sqrt(d . d) edge by edge, the float bits of np.linalg.norm(d[i]);
        # norm(d, axis=1) sums the squares differently and moves last bits
        lengths = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
        return float((lengths.max() - lengths.min()) / lengths.max())

    @property
    def points(self) -> tuple[tuple[float, float, float], ...]:
        return tuple(map(tuple, self.cloud[self.members].tolist()))

    @property
    def faces(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted(map(tuple, np.searchsorted(self.members, self.triangles).tolist())))


def peel_hulls(pts: np.ndarray, exact: np.ndarray) -> list[HullLayer]:
    """Strip convex hull vertex shells off ``pts`` until the rest degenerates.

    ``exact`` holds the same points as Z[phi] pairs (int64 below
    ``PAIR_ENTRY_LIMIT``, else Python ints) and decides flatness and edge
    equality.
    """
    pts = np.asarray(pts, dtype=float)
    order = np.arange(len(pts))
    layers = []
    while len(order):
        rank = _affine_rank(exact[order])
        label = ("point", "collinear", "coplanar", None)[rank]
        if label is None:
            try:
                hull = ConvexHull(pts[order])
            except QhullError:
                # exactly full rank, yet too flat in floats for qhull; treat as terminal
                label = "unresolved"
        if label:
            name = f"{label}(v={len(order)})" if rank else label
            layers.append(HullLayer(name, pts, order, np.empty((0, 3), np.intp),
                                    np.empty((2, 0), np.intp)))
            break
        tri = order[hull.simplices]
        ends = _edges(tri, len(pts))
        label = _classify(exact, len(hull.vertices), ends)
        layers.append(HullLayer(label, pts, order[hull.vertices], tri, ends))
        order = np.delete(order, hull.vertices)
    return layers


@dataclass(frozen=True)
class HullReport:
    dims: tuple[int, int, int]
    point_count: int
    layers: tuple[HullLayer, ...]

    @property
    def signature(self) -> str:
        return " | ".join(layer.classification for layer in self.layers)

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "point_count": self.point_count,
            "signature": self.signature,
            "layers": [
                {
                    "classification": l.classification,
                    "vertex_count": l.vertex_count,
                    "edge_count": l.edge_count,
                    "edge_spread": l.edge_spread,
                }
                for l in self.layers
            ],
        }


def analyze(vset: VertexSet, dims: Sequence[int]) -> HullReport:
    proj = project(vset, dims)
    return HullReport(proj.dims, len(proj.keys),
                      tuple(peel_hulls(proj.float_points, vset.index.pairs[proj.keys])))


def all_dim_triples() -> list[tuple[int, int, int]]:
    return list(combinations(range(1, 9), 3))


def tally_all(vset: VertexSet) -> list[HullReport]:
    """Hull layer reports for every 3-coordinate choice, sorted by dims.

    The first triple of each class is peeled; the others map its layers.
    """
    shape = (len(vset.index.values),) * 3  # the codes of ``project``
    # sorted codes of a point set -> (peeled layers, peeled codes in that set)
    peeled: dict[bytes, tuple[list[HullLayer], np.ndarray]] = {}
    reports = []
    for dims in all_dim_triples():
        proj = project(vset, dims)
        pts, ids = proj.float_points, proj.keys.T  # ids: one row per coordinate
        codes = np.ravel_multi_index(ids, shape)
        found = peeled.get(codes.tobytes())
        if found:
            layers, moved = found
            # peeled point i is point position[i] here
            position = np.searchsorted(codes, moved)
            layers = [HullLayer(l.classification, pts, position[l.members], position[l.triangles],
                                position[l.ends]) for l in layers]
        else:
            layers = peel_hulls(pts, vset.index.pairs[proj.keys])
            for perm in permutations(range(3)):
                moved = np.ravel_multi_index(ids[list(perm)], shape)
                peeled.setdefault(np.sort(moved).tobytes(), (layers, moved))
        reports.append(HullReport(proj.dims, len(proj.keys), tuple(layers)))
    return reports


def group_by_signature(reports: Iterable[HullReport]) -> dict[str, list[tuple[int, int, int]]]:
    groups: dict[str, list[tuple[int, int, int]]] = {}
    for rep in reports:
        groups.setdefault(rep.signature, []).append(rep.dims)
    return {sig: sorted(dims) for sig, dims in sorted(groups.items())}


def emit_layer_obj(layer: HullLayer, name: str) -> str:
    """Wavefront OBJ text for one shell; faces are qhull triangles."""
    lines = [f"o {name}"]
    for p in layer.points:
        lines.append("v {:.12f} {:.12f} {:.12f}".format(*p))
    for tri in layer.faces:
        lines.append("f {} {} {}".format(tri[0] + 1, tri[1] + 1, tri[2] + 1))
    return "\n".join(lines) + "\n"
