"""Signed root vertices and their 3-coordinate convex hull layers.

The 120 positive roots of the golden Cartan matrix, taken with both
signs through a basis matrix, give 240 points in 8 dimensions.  Picking
three coordinates projects them to 3-space, where repeated convex hull
peeling splits the cloud into nested polyhedral shells.

Each vertex set indexes its exact coordinate values once, in one table
for all eight coordinates; a projection sorts its distinct value-id
triples and reads its floats and exact Z[phi] pairs from that table.
All of it is plain Python ints, tuples and dicts.  Every test that
shapes a layer is exact on the pairs: the affine rank that ends a peel,
each hull's faces and so its members, and edge equality (one squared
length for every edge).  The hull is gift wrapped (Chand & Kapur 1970):
one fold over the rows still in play per open edge, in which a point
takes over only if it lies strictly in front of the plane so far.  The
points left on the final plane hold every point of the face off the
edge's line, and every face is marched exactly over them, corner by
corner: the next corner first, then the farthest.  Every face is listed
outward.  Floats decide nothing; they give only the OBJ vertices and the
printed edge spread.

A peel works in the cloud's own rows and wraps one open edge per orbit
(Bremner, Dutour Sikirić & Schürmann 2009).  A cloud's group, the
signed coordinate permutations that map its exact rows onto themselves,
is found once and maps every layer onto itself, row for row; a moved
cloud has only the identity.  A face that a wrap finds brings its
images, a reflection's reversed to face outward.  A hull's faces are
sorted, each from its least row, whatever the order of the cloud.

``peel_hulls`` is the one peel, and both ``analyze`` (``project
--dims``) and ``tally_all`` (``project --all``) call it.  A
``HullLayer`` holds only index tuples on its cloud: its member rows,
its faces and its edge endpoints, with its label; counts, the edge
spread and points are derived when read.  ``tally_all`` peels one
triple per class, triples whose point sets are equal up to the order
of the columns, and maps those layers onto the others.  A column order
is an isometry, and faces and edges are the polytope's own, so layers,
faces, edges and labels carry over, and each spread, computed on the
triple's own floats, has the bits of a direct peel; an odd column order
is a reflection, so the mapped faces are reversed to face outward.  A
mapped layer keeps the peeled layer, the row map and its parity, and
builds its index tuples when read, its faces sorted and each from its
least row, as a peel gives them.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property, cmp_to_key
from itertools import chain, combinations, permutations, product, starmap
from math import fsum, lcm, sqrt
from operator import itemgetter, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .constants import BASIS_BUILDERS, build_cmU
from .field import ONE, SQRT_PHI, GoldenExt, _frozen, _sign_q_phi
from .roots import EnumerationRule, enumerate_roots, signed_images

ExactPoint = tuple[GoldenExt, ...]
Pair = tuple[int, int]  # (a, b) for a + b*phi
Row = tuple[int, ...]  # a point or vector as six ints: (a0, b0, a1, b1, a2, b2)
FloatPoint = tuple[float, float, float]
Symmetry = tuple[list[int], bool]  # a row map g (row i goes to row g[i]), and if it reflects


class CoordinateIndex(NamedTuple):
    """Every exact coordinate value of a vertex set, computed once.

    ``values`` holds the distinct values of all eight coordinates in
    ascending order and ``floats`` their ``to_float()``; ``ranks[k][i]``
    is the position of point i's coordinate k in ``values``.  Ranks
    preserve order, so sorting rank triples sorts the exact triples they
    stand for, and equal id triples are equal points whichever
    coordinates they came from.  ``pairs[r]`` is the pair of ints (a, b)
    with ``values[r] * s == a + b*phi``, one s > 0 for all values.
    """

    values: tuple[GoldenExt, ...]
    floats: tuple[float, ...]
    ranks: tuple[tuple[int, ...], ...]
    pairs: tuple[Pair, ...]

    def exact(self, keys: Iterable[tuple[int, int, int]]) -> list[tuple[Pair, Pair, Pair]]:
        """The points of id triples, as rows of three Z[phi] pairs."""
        p = self.pairs
        return [(p[x], p[y], p[z]) for x, y, z in keys]


class VertexSet:
    """The signed root images, with their ``CoordinateIndex`` built on first read."""

    __setattr__ = __delattr__ = _frozen

    def __init__(self, positive_root_count: int, points: tuple[ExactPoint, ...]) -> None:
        vars(self).update(positive_root_count=positive_root_count, points=points)

    @cached_property
    def index(self) -> CoordinateIndex:
        columns = list(zip(*self.points))
        values = tuple(sorted(set().union(*columns)))
        rank = {v: r for r, v in enumerate(values)}.__getitem__
        scale = ONE if all(v.is_scalar() for v in values) else SQRT_PHI
        # phi_ints raises ValueError on a value with both a Q(phi) and a sqrt(phi) part
        scale *= lcm(*((v * scale).phi_ints()[2] for v in values))
        return CoordinateIndex(values, tuple(v.to_float() for v in values),
                               tuple(tuple(map(rank, col)) for col in columns),
                               tuple((v * scale).phi_ints()[:2] for v in values))


def build_vertices(basis: str = "U") -> VertexSet:
    """Map the cmU pair-coupling roots to height 8 through a basis matrix, both signs."""
    if basis not in BASIS_BUILDERS:
        raise ValueError(f"unknown basis {basis!r}; expected one of {sorted(BASIS_BUILDERS)}")
    records = enumerate_roots(build_cmU(), EnumerationRule(mode="pair-coupling", max_height=8))
    return VertexSet(len(records), tuple(signed_images(records, BASIS_BUILDERS[basis]().rows)))


class Projection(NamedTuple):
    """The distinct projected points: ``keys`` holds their ``CoordinateIndex``
    id triples, in exact order, and ``float_points`` their floats."""

    dims: tuple[int, int, int]
    keys: tuple[tuple[int, int, int], ...]
    float_points: tuple[FloatPoint, ...]


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
    f = index.floats
    return Projection(dims_t, keys, tuple((f[x], f[y], f[z]) for x, y, z in keys))


# Exact geometry on rows: six ints (a0, b0, a1, b1, a2, b2) stand for the
# coordinates a_k + b_k*phi of a point or vector.

def _rows(exact: Iterable[Sequence[Pair]]) -> list[Row]:
    """Rows of three Z[phi] pairs, flattened to six ints each."""
    return [(*x, *y, *w) for x, y, w in exact]


def _sub(x: Row, y: Row) -> Row:
    return tuple(map(sub, x, y))


def _cross(x: Row, y: Row) -> Row:
    """x cross y: component k is x_(k+1) y_(k+2) - x_(k+2) y_(k+1), where
    (a + b*phi)(c + d*phi) = ac + bd + (ad + bc + bd)*phi; e_k collects the
    b*d terms."""
    a0, b0, a1, b1, a2, b2 = x
    c0, d0, c1, d1, c2, d2 = y
    e0, e1, e2 = b1 * d2 - b2 * d1, b2 * d0 - b0 * d2, b0 * d1 - b1 * d0
    return (a1 * c2 - a2 * c1 + e0, a1 * d2 + b1 * c2 - a2 * d1 - b2 * c1 + e0,
            a2 * c0 - a0 * c2 + e1, a2 * d0 + b2 * c0 - a0 * d2 - b0 * c2 + e1,
            a0 * c1 - a1 * c0 + e2, a0 * d1 + b0 * c1 - a1 * d0 - b1 * c0 + e2)


def _dot(x: Row, y: Row) -> Pair:
    a0, b0, a1, b1, a2, b2 = x
    c0, d0, c1, d1, c2, d2 = y
    bd = b0 * d0 + b1 * d1 + b2 * d2
    return (a0 * c0 + a1 * c1 + a2 * c2 + bd,
            a0 * d0 + a1 * d1 + a2 * d2 + b0 * c0 + b1 * c1 + b2 * c2 + bd)


def _lex(x: Row, y: Row) -> int:
    """-1, 0 or 1 as x is lexicographically below, at or above y."""
    d = _sub(x, y)
    return next((s for s in starmap(_sign_q_phi, (d[0:2], d[2:4], d[4:6])) if s), 0)


def _affine_rank(z: Sequence[Row]) -> int:
    """Exact affine rank of points given as rows."""
    d = [_sub(p, z[0]) for p in z]
    u = next((x for x in d if any(x)), None)
    if u is None:
        return 0
    c = next((w for w in (_cross(x, u) for x in d) if any(w)), None)
    if c is None:
        return 1
    return 3 if any(any(_dot(x, c)) for x in d) else 2


def _plane(t: Row, u: Row, origin: Row) -> tuple[Row, tuple[int, ...]]:
    """The normal n = t x u, and the coefficients (S, S.origin, V, V.origin)
    of the side of a point p: 2 (p - origin).n = s + v*sqrt5, with
    s = S.p - S.origin and v = V.p - V.origin."""
    n = a0, b0, a1, b1, a2, b2 = _cross(t, u)
    s = 2 * a0 + b0, a0 + 3 * b0, 2 * a1 + b1, a1 + 3 * b1, 2 * a2 + b2, a2 + 3 * b2
    v = b0, a0 + b0, b1, a1 + b1, b2, a2 + b2
    return n, (*s, sum(map(mul, s, origin)), *v, sum(map(mul, v, origin)))


def _fold(z: Sequence[Row], alive: list[int], o: int, t: Row, d: int) -> tuple[int, Row, list[int]]:
    """Wrap the line through z[o] along t, from the point d off it, over the
    rows ``alive``: the d with none of them in front of the plane through
    z[o] spanned by t and z[d] - z[o], that plane's normal t x (z[d] - z[o]),
    and the rows on it met after d, the line's own included.  All of them
    must lie within less than a half-turn around the line, so one pass finds
    the last plane: a point takes over only if it lies strictly in front."""
    origin = z[o]
    n, side = _plane(t, _sub(z[d], origin), origin)
    p0, p1, p2, p3, p4, p5, pc, q0, q1, q2, q3, q4, q5, qc = side
    on = []
    for i in alive:
        x0, y0, x1, y1, x2, y2 = z[i]
        s = p0 * x0 + p1 * y0 + p2 * x1 + p3 * y1 + p4 * x2 + p5 * y2 - pc
        v = q0 * x0 + q1 * y0 + q2 * x1 + q3 * y1 + q4 * x2 + q5 * y2 - qc
        if s <= 0 and v <= 0:
            if not (s or v):
                on.append(i)
        elif not (s < 0 and s * s > 5 * v * v or v < 0 and 5 * v * v > s * s):
            d, on = i, []
            n, side = _plane(t, _sub(z[i], origin), origin)
            p0, p1, p2, p3, p4, p5, pc, q0, q1, q2, q3, q4, q5, qc = side
    return d, n, on


def _corner(z: Sequence[Row], o: int, n: Row, cands: Sequence[int]) -> int:
    """Of points cands on a plane with normal n, none at z[o] and all within
    less than a half-turn around it, the one turned farthest clockwise seen
    from n (the face's next corner after z[o]), and of those in one
    direction the farthest."""
    origin = z[o]
    best, u = cands[0], _sub(z[cands[0]], origin)
    for e in cands[1:]:
        w = _sub(z[e], origin)
        turn = _sign_q_phi(*_dot(_cross(u, w), n))
        (a, b), (c, d) = _dot(w, w), _dot(u, u)
        if turn < 0 or not turn and _sign_q_phi(a - c, b - d) > 0:
            best, u = e, w
    return best


def _wrap(z: Sequence[Row], alive: list[int], o: int, t: Row, d: int) -> tuple[int, Row, list[int]]:
    """The hull corner next to z[o] across the line through it along t, folded
    from d over the rows ``alive``, with the plane's normal and its rows off that line."""
    d, n, on = _fold(z, alive, o, t, d)
    plane = [d, *(e for e in on if e != d and any(_cross(t, _sub(z[e], z[o]))))]
    return _corner(z, o, n, plane), n, plane


def _face(z: Sequence[Row], a: int, b: int, d: int, n: Row, plane: list[int]) -> list[int]:
    """The corners of the hull face with normal n on the edge a -> b, outward
    from a: d is the corner after b, and the march goes on over the wrap's
    ``plane``, which holds every point of the face off the line a-b, and a,
    corner by corner until it comes back to a."""
    ring, rest = [a, b, d], [*plane, a]
    while True:
        t = _sub(z[ring[-1]], z[ring[-2]])
        nxt = _corner(z, ring[-1], n, [e for e in rest if any(_cross(t, _sub(z[e], z[ring[-1]])))])
        if nxt == a:
            return ring
        ring.append(nxt)


# the six orders of three columns, each with whether it is odd, a reflection
_ORDERS = [(p, (p[1] - p[0]) * (p[2] - p[0]) * (p[2] - p[1]) < 0) for p in permutations(range(3))]


def _symmetries(z: Sequence[Row]) -> list[Symmetry]:
    """The signed permutations of the three coordinates that map the rows
    onto themselves, the identity included."""
    columns = [[(p[k], p[k + 1]) for p in z] for k in (0, 2, 4)]
    signed = [{1: c, -1: [(-a, -b) for a, b in c]} for c in columns]
    at = {p: i for i, p in enumerate(zip(*columns))}
    group = []
    for (i, j, k), odd in _ORDERS:
        for r, s, t in product((1, -1), repeat=3):
            x, y, w = signed[i][r], signed[j][s], signed[k][t]
            if (x[0], y[0], w[0]) not in at:  # most fail at once
                continue
            g = list(map(at.get, zip(x, y, w)))
            if None not in g:
                group.append((g, odd != (r * s * t < 0)))
    return group


def _hull(z: Sequence[Row], alive: list[int], group: Iterable[Symmetry]) -> list[tuple[int, ...]]:
    """The outward faces of the hull of the solid cloud of rows ``alive``,
    whose first is its lexicographic minimum, sorted, each from its least
    row, by gift wrapping one open edge per orbit: ``group`` maps those
    rows onto themselves, and each face a wrap finds brings its images."""
    # every other point lies beside or above the vertical line through
    # the first, so wrapping that line as if it were an edge ending there
    # gives a hull edge o -> q
    o = alive[0]
    start = next(i for i in alive if z[i][:4] != z[o][:4])
    q = _wrap(z, alive, o, (0, 0, 0, 0, -1, 0), start)[0]
    t = _sub(z[q], z[o])
    todo = [(o, q, next(i for i in alive if any(_cross(t, _sub(z[i], z[q])))))]
    closed: set[tuple[int, int]] = set()  # the directed edges (u, v) of the faces found
    faces = []
    while todo:
        a, b, d = todo.pop()  # wrap the face on the edge a -> b from d
        if (a, b) in closed:
            continue
        face = _face(z, a, b, *_wrap(z, alive, b, _sub(z[b], z[a]), d))
        # the face and its images; a reflection's image is reversed to face outward
        for f in [face, *([g[c] for c in (face[::-1] if odd else face)] for g, odd in group)]:
            if (f[0], f[1]) in closed:  # an image found before, e.g. by a stabiliser
                continue
            faces.append(_least_first(f))
            for u, v, w in zip(f, f[1:] + f[:1], f[2:] + f[:2]):
                closed.add((u, v))
                todo.append((v, u, w))
    return sorted(faces)


def _least_first(face: list[int]) -> tuple[int, ...]:
    """The face's corners turned round to start at its least row."""
    k = face.index(min(face))
    return tuple(face[k:] + face[:k])


def _edges(faces: Iterable[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The distinct boundary edges (a, b), a < b, of faces, sorted."""
    return sorted({(min(u, v), max(u, v)) for f in faces for u, v in zip(f, f[1:] + f[:1])})


def _classify(z: Sequence[Row], nv: int, ends: Sequence[tuple[int, int]]) -> str:
    """Name a hull by vertex count, edge count and exact edge equality: equal
    edges have one squared length, ``_dot(d, d)``, d = z[a] - z[b]."""
    if nv == 12 and len(ends) == 30 and set(Counter(chain(*ends)).values()) == {5}:
        regular, irregular = "regular icosahedron", "irregular icosahedron"
    elif nv == 6 and len(ends) == 12:
        regular, irregular = "regular octahedron", "other(v=6)"
    else:
        return f"other(v={nv})"
    lengths = {_dot(d, d) for d in (_sub(z[a], z[b]) for a, b in ends)}
    return regular if len(lengths) == 1 else irregular


_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter: x = hi + lo, each part 26 bits wide


def _fma_square(x: float, acc: float) -> float:
    """fl(x*x + acc) with the one rounding of a fused multiply-add: x*x is
    exactly hi*hi + 2*hi*lo + lo*lo (Dekker 1971), and fsum rounds the
    exact sum of its terms once."""
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    return fsum((hi * hi, 2 * hi * lo, lo * lo, acc))


class HullLayer:
    """One shell of a cloud as index tuples on its rows: its members, its
    faces, polygons of three or more corners, and its edge ends; counts,
    the edge spread and ``points`` (the members in row order) are derived
    when read."""

    __setattr__ = __delattr__ = _frozen

    def __init__(self, classification: str, cloud: Sequence[FloatPoint], members: Iterable[int],
                 faces: tuple[tuple[int, ...], ...], ends: tuple[tuple[int, int], ...]) -> None:
        # members: rows of ``cloud``, sorted ascending here; faces (three or
        # more corners, outward) and ends (one per edge): rows of ``cloud``
        vars(self).update(classification=classification, cloud=cloud,
                          members=tuple(sorted(members)), faces=faces, ends=ends)

    @property
    def vertex_count(self) -> int:
        return len(self.members)

    @property
    def edge_count(self) -> int:
        return len(self.ends)

    @cached_property
    def edge_spread(self) -> float:
        """(max - min) / max of the edge lengths; 0 without edges.  With d
        the difference of an edge's float ends, its length is
        sqrt(fl(d2^2 + fl(d1^2 + fl(d0^2)))), one rounding per fused step:
        the bits of a fused multiply-add dot product, whatever the host."""
        if not self.ends:
            return 0.0
        lengths = []
        for a, b in self.ends:
            (x0, x1, x2), (y0, y1, y2) = self.cloud[a], self.cloud[b]
            lengths.append(sqrt(_fma_square(x2 - y2, _fma_square(x1 - y1, (x0 - y0) * (x0 - y0)))))
        return (max(lengths) - min(lengths)) / max(lengths)

    @property
    def points(self) -> tuple[FloatPoint, ...]:
        return tuple(self.cloud[i] for i in self.members)


class _MappedLayer(HullLayer):
    """A peeled layer carried onto another cloud: its row i is row ``at[i]``
    here, and an odd map, a reflection, reverses the faces.  Its index
    tuples are mapped when read, its faces in a peel's form: sorted, each
    from its least row."""

    def __init__(self, peeled: HullLayer, cloud: Sequence[FloatPoint], at: Sequence[int],
                 odd: bool) -> None:
        vars(self).update(classification=peeled.classification, cloud=cloud, peeled=peeled,
                          at=at, odd=odd)

    vertex_count = property(lambda self: self.peeled.vertex_count)
    edge_count = property(lambda self: self.peeled.edge_count)

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.at[i] for i in self.peeled.members))

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        at = self.at
        return tuple(sorted(_least_first([at[i] for i in (f[::-1] if self.odd else f)])
                            for f in self.peeled.faces))

    @cached_property
    def ends(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.at[a], self.at[b]) for a, b in self.peeled.ends)


def peel_hulls(pts: Sequence[FloatPoint], exact: Sequence[Sequence[Pair]]) -> list[HullLayer]:
    """Strip convex hull vertex shells off ``pts`` until the rest degenerates.

    ``exact`` holds the same points as rows of three Z[phi] pairs and
    decides every layer: its members, its faces, flatness and edge
    equality.
    """
    z = _rows(exact)
    # the rows still in play stay in exact lexicographic order, so every rest
    # starts at a hull vertex; a projection's rows are in that order already
    alive = sorted(range(len(z)), key=cmp_to_key(lambda i, j: _lex(z[i], z[j])))
    # the cloud's group maps each layer, and so each rest, onto itself
    group = _symmetries(z)
    layers = []
    while alive:
        rank = _affine_rank([z[i] for i in alive])
        if rank < 3:
            label = ("point", "collinear", "coplanar")[rank]
            layers.append(HullLayer(f"{label}(v={len(alive)})" if rank else label, pts, alive, (), ()))
            break
        faces = tuple(_hull(z, alive, group))
        vertices = {i for f in faces for i in f}
        ends = tuple(_edges(faces))
        layers.append(HullLayer(_classify(z, len(vertices), ends), pts, vertices, faces, ends))
        alive = [i for i in alive if i not in vertices]
    return layers


class HullReport(NamedTuple):
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
                      tuple(peel_hulls(proj.float_points, vset.index.exact(proj.keys))))


def all_dim_triples() -> list[tuple[int, int, int]]:
    return list(combinations(range(1, 9), 3))


def tally_all(vset: VertexSet) -> list[HullReport]:
    """Hull layer reports for every 3-coordinate choice, sorted by dims.

    The first triple of each class is peeled; the others map its layers.
    """
    # a point set -> (peeled layers, the peeled keys in that set's column
    # order, whether that column order is odd)
    peeled: dict[frozenset, tuple[list[HullLayer], list[tuple[int, int, int]], bool]] = {}
    reports = []
    for dims in all_dim_triples():
        proj = project(vset, dims)
        pts, keys = proj.float_points, proj.keys
        found = peeled.get(frozenset(keys))
        if found:
            layers, moved, odd = found
            row = {key: i for i, key in enumerate(keys)}
            at = [row[key] for key in moved]  # peeled point i is point at[i] here
            layers = [_MappedLayer(layer, pts, at, odd) for layer in layers]
        else:
            layers = peel_hulls(pts, vset.index.exact(keys))
            for perm, odd in _ORDERS:
                moved = list(map(itemgetter(*perm), keys))
                peeled.setdefault(frozenset(moved), (layers, moved, odd))
        reports.append(HullReport(proj.dims, len(keys), tuple(layers)))
    return reports


def group_by_signature(reports: Iterable[HullReport]) -> dict[str, list[tuple[int, int, int]]]:
    groups: dict[str, list[tuple[int, int, int]]] = {}
    for rep in reports:
        groups.setdefault(rep.signature, []).append(rep.dims)
    return {sig: sorted(dims) for sig, dims in sorted(groups.items())}


def emit_layer_obj(layer: HullLayer, name: str) -> str:
    """Wavefront OBJ text for one shell: its members, then one outward
    face per ``f`` line, numbered from 1 in member order."""
    lines = [f"o {name}"]
    for p in layer.points:
        lines.append("v {:.12f} {:.12f} {:.12f}".format(*p))
    at = {m: k for k, m in enumerate(layer.members, 1)}
    for face in sorted(tuple(at[i] for i in f) for f in layer.faces):
        lines.append("f " + " ".join(map(str, face)))
    return "\n".join(lines) + "\n"
