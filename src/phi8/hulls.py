"""Signed root vertices and their 3-coordinate convex hull layers.

The 120 positive roots of the golden Cartan matrix, taken with both
signs through a basis matrix, give 240 points in 8 dimensions.  Picking
three coordinates projects them to 3-space, where repeated convex hull
peeling splits the cloud into nested polyhedral shells.

Each vertex set indexes its exact coordinate values once, in one table
for all eight coordinates; a projection sorts its distinct value-id
triples as integer codes and reads its floats and exact Z[phi] pairs
from that table.  Every test that shapes a layer is exact on those
pairs: the affine rank that ends a peel, each hull's triangles and so
its members, and edge equality (one squared length for every edge).
The hull is gift wrapped (Chand & Kapur 1970), every open edge of a
wave at once.  Floats only propose each edge's third corner; a proposal
stands only if an exact sign test finds no point in front of its plane
and none on it outside the triangle, and the edges that fail wrap by an
exact tournament.  No float decides a layer; floats give only the
proposals and the printed edge spread.  Triangles face outward, and a
face with more than three corners (none in the vertex sets here) is
fanned from its least row.

``peel_hulls`` is the one peel, and both ``analyze`` (``project
--dims``) and ``tally_all`` (``project --all``) call it.  A
``HullLayer`` holds only index arrays on its cloud: its member rows,
its triangles and its edge endpoints, with its label; counts, the edge
spread, points and faces are derived when read.  ``tally_all`` peels
one triple per class, triples whose point sets are equal up to the
order of the columns, and maps those layers onto the others.  A column
order is an isometry, and every hull here is simplicial with no two
coplanar facets, so layers, edges and labels carry over, and each
spread, computed on the triple's own floats, has the bits of a direct
peel; an odd column order is a reflection, so the mapped triangles are
reversed to face outward.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .constants import BASIS_BUILDERS, build_cmU
from .field import ONE, SQRT_PHI, GoldenExt
from .roots import EnumerationRule, enumerate_roots, signed_images

ExactPoint = tuple[GoldenExt, ...]

# Entries |a|, |b| < PAIR_ENTRY_LIMIT keep every intermediate of the peel in
# int64.  A difference is < 2L, a cross product of two < 24 L^2, and an
# orientation determinant u + v*phi has |u|, |v| < 432 L^3; the largest
# value formed is s*s in its sign, s = 2u + v < 1296 L^3, and
# 1296^2 * 132^6 < 2^63.  Larger entries stay Python ints.
PAIR_ENTRY_LIMIT = 132


@dataclass(frozen=True)
class CoordinateIndex:
    """Every exact coordinate value of a vertex set, computed once.

    ``values`` holds the distinct values of all eight coordinates in
    ascending order and ``floats`` their ``to_float()``; ``ranks[k, i]``
    is the position of point i's coordinate k in ``values``.  Ranks
    preserve order, so sorting rank triples sorts the exact triples they
    stand for, and equal id triples are equal points whichever
    coordinates they came from.  ``pairs[r]`` is (a, b) with
    ``values[r] * s == a + b*phi``, one s > 0 for all values: int64 when
    every entry is below ``PAIR_ENTRY_LIMIT``, else Python ints.
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
        if (abs(pairs) < PAIR_ENTRY_LIMIT).all():
            pairs = pairs.astype(np.int64)
        return CoordinateIndex(values, np.array([v.to_float() for v in values]),
                               np.array([list(map(rank, col)) for col in columns], dtype=np.intp),
                               pairs.reshape(-1, 2))


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


# Exact geometry on Z[phi] pair arrays z: z[0] holds the a and z[1] the b
# of each value a + b*phi, and the last axis holds the three coordinates.

def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Z[phi] products: (a, b)(c, d) = (ac + bd, ad + bc + bd)."""
    (a, b), (c, d) = x, y
    bd = b * d
    return np.array([a * c + bd, a * d + b * c + bd])


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r, l = [1, 2, 0], [2, 0, 1]
    return _mul(x[..., r], y[..., l]) - _mul(x[..., l], y[..., r])


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _mul(x, y).sum(axis=-1)


def _sign(x: np.ndarray) -> np.ndarray:
    """Signs of a + b*phi.  With s = 2a + b, 2(a + b*phi) = s + b*sqrt5,
    whose sign is s's where s^2 > 5b^2 and b's elsewhere."""
    a, b = x
    s = 2 * a + b
    return np.where(s * s > 5 * b * b, np.sign(s), np.sign(b))


def _affine_rank(exact: np.ndarray) -> int:
    """Exact affine rank of points given as rows of three Z[phi] pairs."""
    z = np.moveaxis(exact, -1, 0)
    d = z[:, 1:] - z[:, :1]
    rows = (d != 0).any(axis=(0, 2))
    if not rows.any():
        return 0
    cross = _cross(d, d[:, rows.argmax(), None])
    rows = (cross != 0).any(axis=(0, 2))
    if not rows.any():
        return 1
    return 3 if (_dot(d, cross[:, rows.argmax(), None]) != 0).any() else 2


def _tournament(cand: np.ndarray, beats) -> np.ndarray:
    """The winner of each row of candidate ids, in log2 rounds of pairs;
    ``beats(d, e)`` is true where e beats d, a total preorder."""
    while cand.shape[1] > 1:
        if cand.shape[1] % 2:
            cand = np.concatenate([cand, cand[:, :1]], axis=1)
        d, e = cand[:, 0::2], cand[:, 1::2]
        cand = np.where(beats(d, e), e, d)
    return cand[:, 0]


def _only(mask: np.ndarray) -> np.ndarray:
    """Rows of candidate point ids where ``mask`` holds, other entries
    replaced by the row's first such id."""
    return np.where(mask, np.arange(mask.shape[1]), mask.argmax(axis=1)[:, None])


def _turns(x: np.ndarray, y: np.ndarray, normal_signs: np.ndarray) -> np.ndarray:
    """For coplanar x, y: positive where y lies left of x seen from the side
    that the plane's normal points to, zero where collinear.  x cross y is
    parallel to the normal, so the signs of their components agree or all
    flip."""
    return (_sign(_cross(x, y)) * normal_signs).sum(axis=-1)


def _wrap_exact(z: np.ndarray, b: np.ndarray, axis: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Row i: the candidate d with no candidate in front of the plane through
    b[i] spanned by axis[i] and d - b[i], for an edge ending at b[i] with
    direction axis[i]; of coplanar candidates the next corner of the face
    after b[i], and of collinear ones the farthest.  The candidates must lie
    within less than a half-turn around the axis."""
    origin, axis = z[:, b, None], axis[:, :, None]

    def beats(d, e):
        u, v = z[:, d] - origin, z[:, e] - origin
        normal = _cross(axis, u)
        side = _sign(_dot(normal, v))
        tie = (side == 0) & (d != e)
        if tie.any():
            turn = _turns(u, v, _sign(normal))
            side = np.where(tie, np.where(turn != 0, -turn, _sign(_dot(v, v) - _dot(u, u))), side)
        return side > 0

    return _tournament(cand, beats)


def _off_axis(z: np.ndarray, b: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Row i: the points off the line through b[i] along axis[i]."""
    return (_cross(axis[:, :, None], z[:, None] - z[:, b, None]) != 0).any(axis=(0, 3))


def _first_edge(z: np.ndarray) -> tuple[int, int]:
    """Two ends of one hull edge, exactly.  The lexicographic minimum p is a
    vertex; wrapping the downward vertical line through p, as if an edge
    ended at p, gives p's next corner on a vertical face."""

    def below(d, e):
        s = _sign(z[:, e] - z[:, d])
        return np.where(s[..., 0] != 0, s[..., 0], np.where(s[..., 1] != 0, s[..., 1], s[..., 2])) < 0

    p = _tournament(np.arange(z.shape[1])[None], below)
    down = np.zeros((2, 1, 3), dtype=z.dtype)
    down[0, 0, 2] = -1
    return int(p[0]), int(_wrap_exact(z, p, down, _only(_off_axis(z, p, down)))[0])


def _certified(z: np.ndarray, a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Row i: whether the triangle (a[i], b[i], d[i]) is a whole hull face,
    outward: no point in front of its normal (b - a) x (d - a), some point
    behind, and every point on its plane inside it or on its edges."""
    origin = z[:, a]
    normal = _cross(z[:, b] - origin, z[:, d] - origin)
    signs = _sign(_dot(z[:, None] - origin[:, :, None], normal[:, :, None]))
    ok = ~(signs > 0).any(axis=1) & (signs < 0).any(axis=1)
    row, e = np.nonzero(signs == 0)
    extra = (e != a[row]) & (e != b[row]) & (e != d[row])
    row, e = row[extra], e[extra]
    if len(row):
        normal_signs = _sign(normal[:, row])
        inside = np.ones(len(row), dtype=bool)
        for x, y in ((a, b), (b, d), (d, a)):
            x, y = z[:, x[row]], z[:, y[row]]
            inside &= _turns(y - x, z[:, e] - x, normal_signs) >= 0
        ok[row[~inside]] = False
    return ok


def _face(z: np.ndarray, a: int, b: int, d: int) -> np.ndarray:
    """The outward triangles of the hull face on the plane of (a, b, d), a
    plane with no point in front: its polygon, marched exactly from the
    edge a -> b, as a fan from its least row."""
    origin = z[:, a, None]
    on_plane = _dot(z - origin, _cross(z[:, b, None] - origin, z[:, d, None] - origin)) == 0
    on_plane = on_plane.all(axis=0)
    ring = [a, b]
    while True:
        cur, axis = np.array(ring[-1:]), z[:, ring[-1:]] - z[:, ring[-2:-1]]
        nxt = int(_wrap_exact(z, cur, axis, _only(on_plane & _off_axis(z, cur, axis)))[0])
        if nxt == ring[0]:
            break
        ring.append(nxt)
    ring = np.roll(ring, -int(np.argmin(ring)))
    return np.stack([np.full(len(ring) - 2, ring[0]), ring[1:-1], ring[2:]], axis=1)


def _propose(floats: np.ndarray, ends: np.ndarray, pa: np.ndarray, pb: np.ndarray,
             pc: np.ndarray) -> np.ndarray:
    """Float guesses of each open edge pa -> pb's third corner: the point
    that folds least from the triangle (pb, pa, pc) behind it, the argmin of
    atan2(h, r), h its height over that triangle and r its reach beyond the
    edge; of near ties, the one farthest from the edge's line.  Row i never
    proposes the points ends[i]."""
    t = pb - pa
    x, y = pa - pb, pc - pb
    normal = x[:, [1, 2, 0]] * y[:, [2, 0, 1]] - x[:, [2, 0, 1]] * y[:, [1, 2, 0]]
    reach = t[:, [1, 2, 0]] * normal[:, [2, 0, 1]] - t[:, [2, 0, 1]] * normal[:, [1, 2, 0]]
    rel = floats[None] - pa[:, None]
    # |reach| = |t| |normal|: scale h to match, so that atan2 reads true angles
    h = np.einsum("mnk,mk->mn", rel, normal) * np.sqrt((t * t).sum(axis=1))[:, None]
    r = np.einsum("mnk,mk->mn", rel, reach)
    fold = np.arctan2(h, r)
    fold[np.arange(len(ends))[:, None], ends] = np.inf  # an edge's own ends fold by rounding noise
    # of points on one face (folds equal up to rounding) the corner is the farthest out
    near = fold <= fold.min(axis=1, keepdims=True) + 1e-9
    return np.where(near, -(h * h + r * r), np.inf).argmin(axis=1)


def _start(z: np.ndarray, floats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A first open edge a -> b and its proposed third corner d.  Floats
    propose a face through the point of least x: wrap the vertical line
    through it from the plane x = min, then wrap the edge found.  If that
    triangle is no certified face, the exact first edge, with no proposal."""
    p = int(floats[:, 0].argmin())
    pp = floats[p, None]
    up = pp + [0.0, 0.0, 1.0]
    q = int(_propose(floats, np.array([[p]]), up, pp, pp + [0.0, 1.0, 0.0])[0])
    a, b = np.array([q]), np.array([p])
    d = _propose(floats, np.array([[q, p]]), floats[a], pp, up)
    if _certified(z, a, b, d)[0]:
        return a, b, d
    a, b = (np.array([i]) for i in _first_edge(z))
    return a, b, a.copy()


def _hull(z: np.ndarray, floats: np.ndarray) -> np.ndarray:
    """The outward triangles of the hull of a solid cloud, by gift wrapping
    every open edge of a wave at once.  Floats propose each edge's third
    corner, and a proposal stands only if ``_certified``.  Other edges wrap
    by an exact tournament, and a face with more corners becomes a fan."""
    n = z.shape[1]
    done = np.zeros((n, n), dtype=bool)  # directed edges of emitted triangles
    third = np.zeros((n, n), dtype=np.intp)  # third[u, v]: the corner after u -> v
    a, b, d = _start(z, floats)
    faces = []
    while len(a):
        ok = _certified(z, a, b, d)
        if not ok.all():
            bad = ~ok
            axis = z[:, b[bad]] - z[:, a[bad]]
            d[bad] = _wrap_exact(z, b[bad], axis, _only(_off_axis(z, b[bad], axis)))
            ok[bad] = _certified(z, a[bad], b[bad], d[bad])
        tri = np.concatenate([np.stack([a[ok], b[ok], d[ok]], axis=1),
                              *(_face(z, *abd) for abd in zip(a[~ok], b[~ok], d[~ok]))])
        # one rotation per triangle, least corner first, so duplicates are equal rows
        tri = tri[np.arange(len(tri))[:, None], (tri.argmin(axis=1)[:, None] + [0, 1, 2]) % 3]
        tri = tri[np.unique((tri[:, 0] * n + tri[:, 1]) * n + tri[:, 2], return_index=True)[1]]
        for k in range(3):
            u, v, w = tri[:, k], tri[:, (k + 1) % 3], tri[:, (k + 2) % 3]
            done[u, v] = True
            third[u, v] = w
        faces.append(tri)
        u, v = np.nonzero(done & ~done.T)
        a, b = v, u
        d = _propose(floats, np.stack([a, b], axis=1), floats[a], floats[b], floats[third[u, v]])
    return np.concatenate(faces)


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
    d = np.moveaxis(exact[ends[0]] - exact[ends[1]], -1, 0)
    lengths = _dot(d, d)
    return regular if (lengths == lengths[:, :1]).all() else irregular


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
    ``PAIR_ENTRY_LIMIT``, else Python ints) and decides every layer: its
    members, its triangles, flatness and edge equality.
    """
    pts = np.asarray(pts, dtype=float)
    order = np.arange(len(pts))
    layers = []
    while len(order):
        rank = _affine_rank(exact[order])
        if rank < 3:
            label = ("point", "collinear", "coplanar")[rank]
            name = f"{label}(v={len(order)})" if rank else label
            layers.append(HullLayer(name, pts, order, np.empty((0, 3), np.intp),
                                    np.empty((2, 0), np.intp)))
            break
        tri = _hull(np.moveaxis(exact[order], -1, 0), pts[order])
        vertices = np.unique(tri)
        tri = order[tri]
        ends = _edges(tri, len(pts))
        layers.append(HullLayer(_classify(exact, len(vertices), ends), pts, order[vertices], tri, ends))
        order = np.delete(order, vertices)
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
    # sorted codes of a point set -> (peeled layers, peeled codes in that
    # set, whether that column order is odd)
    peeled: dict[bytes, tuple[list[HullLayer], np.ndarray, bool]] = {}
    reports = []
    for dims in all_dim_triples():
        proj = project(vset, dims)
        pts, ids = proj.float_points, proj.keys.T  # ids: one row per coordinate
        codes = np.ravel_multi_index(ids, shape)
        found = peeled.get(codes.tobytes())
        if found:
            layers, moved, odd = found
            # peeled point i is point position[i] here
            position = np.searchsorted(codes, moved)
            layers = [HullLayer(l.classification, pts, position[l.members],
                                position[l.triangles[:, ::-1] if odd else l.triangles],
                                position[l.ends]) for l in layers]
        else:
            layers = peel_hulls(pts, vset.index.pairs[proj.keys])
            for perm in permutations(range(3)):
                moved = np.ravel_multi_index(ids[list(perm)], shape)
                # an odd column order is a reflection: it turns triangles inside out
                odd = (perm[1] - perm[0]) * (perm[2] - perm[0]) * (perm[2] - perm[1]) < 0
                peeled.setdefault(np.sort(moved).tobytes(), (layers, moved, odd))
        reports.append(HullReport(proj.dims, len(proj.keys), tuple(layers)))
    return reports


def group_by_signature(reports: Iterable[HullReport]) -> dict[str, list[tuple[int, int, int]]]:
    groups: dict[str, list[tuple[int, int, int]]] = {}
    for rep in reports:
        groups.setdefault(rep.signature, []).append(rep.dims)
    return {sig: sorted(dims) for sig, dims in sorted(groups.items())}


def emit_layer_obj(layer: HullLayer, name: str) -> str:
    """Wavefront OBJ text for one shell; faces are its outward triangles."""
    lines = [f"o {name}"]
    for p in layer.points:
        lines.append("v {:.12f} {:.12f} {:.12f}".format(*p))
    for tri in layer.faces:
        lines.append("f {} {} {}".format(tri[0] + 1, tri[1] + 1, tri[2] + 1))
    return "\n".join(lines) + "\n"
