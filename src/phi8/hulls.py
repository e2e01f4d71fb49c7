"""Signed root vertices and their 3-coordinate convex hull layers.

The 120 positive roots of the golden Cartan matrix, taken with both
signs through a basis matrix, give 240 points in 8 dimensions.  Picking
three coordinates projects them to 3-space, where repeated convex hull
peeling splits the cloud into nested polyhedral shells.

Vertex coordinates and projections are kept exact until the hull step;
only qhull sees floats.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
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
class VertexSet:
    basis_name: str
    positive_root_count: int
    points: tuple[ExactPoint, ...]


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
    points = set(signed_images(records, BASIS_BUILDERS[basis]().rows))
    return VertexSet(basis, len(records), tuple(sorted(points)))


@dataclass(frozen=True)
class Projection:
    dims: tuple[int, int, int]
    points: tuple[tuple[GoldenExt, GoldenExt, GoldenExt], ...]
    multiplicities: tuple[int, ...]

    def float_array(self) -> np.ndarray:
        return np.array(
            [[x.to_float() for x in p] for p in self.points], dtype=float
        )


def project(vset: VertexSet, dims: Sequence[int]) -> Projection:
    """Select three 1-based coordinates and collapse coincident images."""
    dims_t = tuple(dims)
    if len(dims_t) != 3 or len(set(dims_t)) != 3:
        raise ValueError("dims must be three distinct coordinates")
    if any(not (1 <= d <= 8) for d in dims_t):
        raise ValueError("coordinates are numbered 1 through 8")
    idx = [d - 1 for d in dims_t]
    tally: Counter[tuple[GoldenExt, GoldenExt, GoldenExt]] = Counter()
    for p in vset.points:
        tally[(p[idx[0]], p[idx[1]], p[idx[2]])] += 1
    keys = sorted(tally)
    return Projection(dims_t, tuple(keys), tuple(tally[k] for k in keys))


def _affine_rank(points: np.ndarray) -> int:
    if len(points) <= 1:
        return 0
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > AFFINE_RANK_REL_TOL * sv[0]))


def _hull_edges(hull: ConvexHull) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    for simplex in hull.simplices:
        for a, b in combinations(sorted(int(i) for i in simplex), 2):
            edges.add((a, b))
    return edges


@dataclass(frozen=True)
class HullLayer:
    classification: str
    vertex_count: int
    edge_count: int
    edge_spread: float
    points: tuple[tuple[float, float, float], ...]
    multiplicities: tuple[int, ...]
    faces: tuple[tuple[int, int, int], ...]


def classify_hull(points: np.ndarray, hull: ConvexHull) -> tuple[str, int, float]:
    """Name the shell by vertex count, edge count and edge regularity."""
    edges = _hull_edges(hull)
    shell = [int(i) for i in hull.vertices]
    nv = len(shell)
    lengths = [float(np.linalg.norm(points[a] - points[b])) for a, b in edges]
    spread = (max(lengths) - min(lengths)) / max(lengths) if lengths else 0.0
    equal = spread <= EDGE_EQUAL_REL_TOL
    degrees: Counter[int] = Counter()
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1
    if nv == 6 and len(edges) == 12 and equal:
        return "regular octahedron", len(edges), spread
    if nv == 12 and len(edges) == 30 and all(degrees[i] == 5 for i in shell):
        name = "regular icosahedron" if equal else "irregular icosahedron"
        return name, len(edges), spread
    return f"other(v={nv})", len(edges), spread


def peel_hulls(projection: Projection) -> list[HullLayer]:
    """Strip convex hull vertex shells until the cloud degenerates."""
    return peel_point_cloud(projection.float_array(), projection.multiplicities)


def peel_point_cloud(
    pts: np.ndarray, multiplicities: Sequence[int] | None = None
) -> list[HullLayer]:
    pts = np.asarray(pts, dtype=float)
    mult = list(multiplicities) if multiplicities is not None else [1] * len(pts)
    if len(mult) != len(pts):
        raise ValueError("one multiplicity per point required")
    order = list(range(len(pts)))
    layers: list[HullLayer] = []

    def layer(label: str, members: list[int], edge_count: int = 0, spread: float = 0.0,
              faces: tuple[tuple[int, int, int], ...] = ()) -> HullLayer:
        return HullLayer(
            label,
            len(members),
            edge_count,
            spread,
            tuple(tuple(map(float, pts[i])) for i in members),
            tuple(mult[i] for i in members),
            faces,
        )

    while order:
        current = pts[order]
        rank = _affine_rank(current)
        if rank < 3:
            label = ("point", "collinear", "coplanar")[rank]
            layers.append(layer(f"{label}(v={len(order)})" if rank else label, order))
            break
        try:
            hull = ConvexHull(current)
        except QhullError:
            # full-rank input should never get here; treat as terminal
            layers.append(layer(f"unresolved(v={len(order)})", order))
            break
        shell_local = sorted(int(i) for i in hull.vertices)
        label, edge_count, spread = classify_hull(current, hull)
        local_pos = {v: k for k, v in enumerate(shell_local)}
        faces = (tuple(local_pos[int(i)] for i in simplex) for simplex in hull.simplices)
        shell = [order[i] for i in shell_local]
        layers.append(layer(label, shell, edge_count, spread, tuple(sorted(faces))))
        shell_set = set(shell)
        order = [i for i in order if i not in shell_set]
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
    layers = peel_hulls(proj)
    return HullReport(proj.dims, len(proj.points), tuple(layers))


def all_dim_triples() -> list[tuple[int, int, int]]:
    return list(combinations(range(1, 9), 3))


def tally_all(vset: VertexSet) -> list[HullReport]:
    """Hull layer reports for every 3-coordinate choice, sorted by dims."""
    return [analyze(vset, dims) for dims in all_dim_triples()]


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
