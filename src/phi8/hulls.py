"""Signed root vertices and their 3-coordinate convex hull layers.

The 120 positive roots of the golden Cartan matrix, taken with both
signs through a basis matrix, give 240 points in 8 dimensions.  Picking
three coordinates projects them to 3-space, where repeated convex hull
peeling splits the cloud into nested polyhedral shells.

Each vertex set indexes its exact coordinate values once, in one table
for all eight coordinates; a projection sorts its distinct value-id
triples and reads its floats from that table.  Three decisions are made
on floats: the affine rank (an SVD against ``AFFINE_RANK_REL_TOL``),
edge equality (the relative edge spread against ``EDGE_EQUAL_REL_TOL``)
and qhull's own merging of nearly coplanar facets.

``analyze`` (``project --dims``) peels directly.  ``tally_all``
(``project --all``) peels one triple per class, triples whose point sets
are equal up to the order of the columns, and relabels the others.  A
column order is an isometry, and every hull here is simplicial with no
two coplanar facets, so layers and edges carry over, and each spread,
recomputed on the triple's own floats, has the bits of a direct peel;
only the vertex order within a triangle may differ.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .constants import BASIS_BUILDERS, build_cmU
from .field import GoldenExt
from .roots import EnumerationRule, RootRecord, enumerate_roots, signed_images

ExactPoint = tuple[GoldenExt, ...]

AFFINE_RANK_REL_TOL = 1e-9
EDGE_EQUAL_REL_TOL = 1e-6


@dataclass(frozen=True)
class CoordinateIndex:
    """Every exact coordinate value of a vertex set, computed once.

    ``values`` holds the distinct values of all eight coordinates in
    ascending order and ``floats`` their ``to_float()``; ``ranks[k][i]``
    is the position of point i's coordinate k in ``values``.  Ranks
    preserve order, so sorting rank tuples sorts the exact tuples they
    stand for, and equal id triples are equal points whichever
    coordinates they came from.
    """

    values: tuple[GoldenExt, ...]
    floats: tuple[float, ...]
    ranks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class VertexSet:
    positive_root_count: int
    points: tuple[ExactPoint, ...]

    @cached_property
    def index(self) -> CoordinateIndex:
        columns = list(zip(*self.points))
        values = tuple(sorted(set().union(*columns)))
        rank = {v: r for r, v in enumerate(values)}.__getitem__
        return CoordinateIndex(values, tuple(v.to_float() for v in values),
                               tuple(tuple(map(rank, col)) for col in columns))


def default_roots() -> list[RootRecord]:
    rule = EnumerationRule(mode="pair-coupling", max_height=8)
    return enumerate_roots(build_cmU(), rule)


def build_vertices(
    roots: Sequence[RootRecord] | None = None, basis: str = "U"
) -> VertexSet:
    """Map root coefficient vectors through a basis matrix, both signs."""
    if basis not in BASIS_BUILDERS:
        raise ValueError(f"unknown basis {basis!r}; expected one of {sorted(BASIS_BUILDERS)}")
    records = list(roots) if roots is not None else default_roots()
    points = dict.fromkeys(signed_images(records, BASIS_BUILDERS[basis]().rows))
    return VertexSet(len(records), tuple(points))


@dataclass(frozen=True)
class Projection:
    """The distinct projected points as ``CoordinateIndex`` id triples, in exact order."""

    dims: tuple[int, int, int]
    keys: tuple[tuple[int, int, int], ...]
    float_points: tuple[tuple[float, float, float], ...]


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
    keys = tuple(sorted(set(zip(*(index.ranks[d - 1] for d in dims_t)))))
    floats = index.floats.__getitem__
    return Projection(dims_t, keys, tuple(tuple(map(floats, key)) for key in keys))


def _affine_rank(points: np.ndarray) -> int:
    if len(points) <= 1:
        return 0
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > AFFINE_RANK_REL_TOL * sv[0]))


def _edges(triangles: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (a, b), a < b, of the distinct edges of triangles on points 0..n-1."""
    tri = np.sort(triangles, axis=1).astype(np.intp)
    codes = np.unique(np.concatenate([tri[:, 0] * n + tri[:, 1],
                                      tri[:, 0] * n + tri[:, 2],
                                      tri[:, 1] * n + tri[:, 2]]))
    return codes // n, codes % n


def _edge_spread(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """(max - min) / max of the edge lengths |points[a] - points[b]|; 0 without edges."""
    if not len(a):
        return 0.0
    d = points[a] - points[b]
    # sqrt(d . d) edge by edge, the float bits of np.linalg.norm(d[i]);
    # norm(d, axis=1) sums the squares differently and moves last bits
    lengths = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    return float((lengths.max() - lengths.min()) / lengths.max())


@dataclass(frozen=True)
class HullLayer:
    classification: str
    vertex_count: int
    edge_count: int
    edge_spread: float
    points: tuple[tuple[float, float, float], ...]
    faces: tuple[tuple[int, int, int], ...]


def _layer(pts: np.ndarray, label: str, members: np.ndarray, edge_count: int = 0,
           spread: float = 0.0, faces: tuple[tuple[int, int, int], ...] = ()) -> HullLayer:
    return HullLayer(label, len(members), edge_count, spread,
                     tuple(map(tuple, pts[members].tolist())), faces)


def classify_hull(points: np.ndarray, hull: ConvexHull) -> tuple[str, int, float]:
    """Name the shell by vertex count, edge count and edge regularity."""
    a, b = _edges(hull.simplices, len(points))
    nv = len(hull.vertices)
    ne = len(a)
    spread = _edge_spread(points, a, b)
    equal = spread <= EDGE_EQUAL_REL_TOL
    degrees = np.bincount(np.concatenate([a, b]), minlength=len(points))
    if nv == 6 and ne == 12 and equal:
        return "regular octahedron", ne, spread
    if nv == 12 and ne == 30 and (degrees[hull.vertices] == 5).all():
        name = "regular icosahedron" if equal else "irregular icosahedron"
        return name, ne, spread
    return f"other(v={nv})", ne, spread


def peel_hulls(pts: np.ndarray) -> list[HullLayer]:
    """Strip convex hull vertex shells until the cloud degenerates."""
    pts = np.asarray(pts, dtype=float)
    order = np.arange(len(pts))
    layers: list[HullLayer] = []
    while len(order):
        current = pts[order]
        rank = _affine_rank(current)
        if rank < 3:
            label = ("point", "collinear", "coplanar")[rank]
            layers.append(_layer(pts, f"{label}(v={len(order)})" if rank else label, order))
            break
        try:
            hull = ConvexHull(current)
        except QhullError:
            # full-rank input should never get here; treat as terminal
            layers.append(_layer(pts, f"unresolved(v={len(order)})", order))
            break
        shell_local = np.sort(hull.vertices)
        label, edge_count, spread = classify_hull(current, hull)
        local_pos = np.empty(len(order), dtype=np.intp)
        local_pos[shell_local] = np.arange(len(shell_local))
        faces = tuple(sorted(map(tuple, local_pos[hull.simplices].tolist())))
        layers.append(_layer(pts, label, order[shell_local], edge_count, spread, faces))
        keep = np.ones(len(order), dtype=bool)
        keep[shell_local] = False
        order = order[keep]
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
    layers = peel_hulls(proj.float_points)
    return HullReport(proj.dims, len(proj.keys), tuple(layers))


def all_dim_triples() -> list[tuple[int, int, int]]:
    return list(combinations(range(1, 9), 3))


def _relabel(layers: Sequence[HullLayer], shells: Sequence[tuple], position: np.ndarray,
             proj: Projection) -> list[HullLayer]:
    """Layers peeled from another triple's points, moved onto ``proj``.

    ``shells[k]`` holds layer k's points, faces and edges in the peeled
    triple, whose point i is point ``position[i]`` of ``proj``.  The
    edge spread is recomputed on ``proj``'s floats.
    """
    pts = np.asarray(proj.float_points, dtype=float)
    relabelled = []
    for layer, (rows, tri, a, b) in zip(layers, shells):
        mapped = position[rows]
        shell = np.sort(mapped)
        local = np.searchsorted(shell, mapped)
        spread = _edge_spread(pts[shell], local[a], local[b])
        faces = tuple(sorted(map(tuple, local[tri].tolist())))
        relabelled.append(_layer(pts, layer.classification, shell, layer.edge_count, spread, faces))
    return relabelled


def tally_all(vset: VertexSet) -> list[HullReport]:
    """Hull layer reports for every 3-coordinate choice, sorted by dims.

    The first triple of each class is peeled; the others relabel its layers.
    """
    # a point's code is its id triple in base len(values), so sorted keys give sorted codes
    weights = len(vset.index.values) ** np.arange(2, -1, -1, dtype=np.int64)
    # sorted codes of a point set -> (peeled layers, their shells, peeled codes in that set)
    peeled: dict[bytes, tuple[list[HullLayer], list[tuple], np.ndarray]] = {}
    reports = []
    for dims in all_dim_triples():
        proj = project(vset, dims)
        keys = np.array(proj.keys, dtype=np.int64)
        codes = keys @ weights
        found = peeled.get(codes.tobytes())
        if found:
            layers, shells, moved = found
            layers = _relabel(layers, shells, np.searchsorted(codes, moved), proj)
        else:
            layers = peel_hulls(proj.float_points)
            index_of = {p: i for i, p in enumerate(proj.float_points)}
            shells = []
            for layer in layers:
                tri = np.array(layer.faces, dtype=np.intp).reshape(-1, 3)
                rows = [index_of[p] for p in layer.points]
                shells.append((rows, tri, *_edges(tri, len(rows))))
            for perm in permutations(range(3)):
                moved = keys[:, perm] @ weights
                peeled.setdefault(np.sort(moved).tobytes(), (layers, shells, moved))
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
