"""Convex hull peeling, shell classification, and the projection tally."""
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import sqrt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import floats_of, random_exact_image
from phi8 import hulls
from phi8.constants import build_U
from phi8.field import SQRT_PHI, GoldenExt, GoldenScalar, _sign_q_phi
from phi8.hulls import (
    HullReport,
    VertexSet,
    all_dim_triples,
    analyze,
    build_vertices,
    emit_layer_obj,
    group_by_signature,
    peel_hulls,
    project,
    tally_all,
)
from phi8.lattice import gen_e8_roots


def cloud(triples, scale=1):
    """The floats (a + b*phi) / scale of rows of three Z[phi] pairs (a, b), and the pairs."""
    exact = [tuple(tuple(pair) for pair in row) for row in triples]
    return floats_of(exact, scale), exact


def integers(rows):
    """Integer coordinates as Z[phi] pairs (k, 0)."""
    return [[(k, 0) for k in row] for row in rows]


def octahedron():
    return cloud(integers([[s * (i == k) for i in range(3)] for k in range(3) for s in (1, -1)]))


def icosahedron():
    # cyclic shifts of (0, a, b*phi)
    pts = []
    for a in (-1, 1):
        for b in (-1, 1):
            pts += [[(0, 0), (a, 0), (0, b)], [(a, 0), (0, b), (0, 0)], [(0, b), (0, 0), (a, 0)]]
    return cloud(pts)


def cube_with_center():
    return cloud(integers([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)] + [[0, 0, 0]]))


def lifted_grid():
    """A 3x3 grid in the plane z = 0 with its centre lifted by 10**-30."""
    n = 10 ** 30
    return cloud([[(x * n, 0), (y * n, 0), (int(x == y == 1), 0)] for x in range(3) for y in range(3)], n)


def stretched(exact, numerators, denominator):
    """Scale coordinate k of an exact cloud by numerators[k] / denominator."""
    exact = [tuple((a * m, b * m) for (a, b), m in zip(row, numerators)) for row in exact]
    return floats_of(exact, denominator), exact


def fused_length(p, q):
    """sqrt(fl(d2^2 + fl(d1^2 + fl(d0^2)))), d = p - q, each step rounded
    once, as a fused multiply-add rounds: exactly, in Fractions."""
    acc = 0.0
    for x, y in zip(p, q):
        acc = float(Fraction(x - y) ** 2 + Fraction(acc))
    return sqrt(acc)


def assert_outward(exact, layer):
    """Every face of the layer is flat, and no point of the layer lies in
    front of it, exactly: a face whose first corners are i, j, k has the
    normal (j - i) x (k - i), over Z[phi]."""
    z = hulls._rows(exact)
    for face in layer.faces:
        i, j, k = face[:3]
        normal = hulls._cross(hulls._sub(z[j], z[i]), hulls._sub(z[k], z[i]))
        side = lambda m: _sign_q_phi(*hulls._dot(hulls._sub(z[m], z[i]), normal))
        assert {side(m) for m in face} == {0}
        signs = [side(m) for m in layer.members]
        assert max(signs) <= 0
        assert min(signs) < 0  # no face is degenerate


def directed_edges(layer):
    """How often each directed edge (u, v) runs along a face of the layer."""
    return Counter(e for f in layer.faces for e in zip(f, f[1:] + f[:1]))


def ext_sub(x, y):
    return tuple(s - t for s, t in zip(x, y))


def ext_dot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def ext_cross(x, y):
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def exact_hull(exact):
    """The hull of a solid cloud of rows of Z[phi] pairs, by brute force on
    GoldenExt values, sharing no code with the peel.  Every plane through
    three affinely independent points with no point in front holds a face,
    the points on it; two faces that share more than one point meet in an
    edge, whose ends are the extreme shared points along it.  Returns
    {face corners: outward normal}, the members and the edges (a, b), a < b."""
    p = [tuple(GoldenScalar(a, b) for a, b in row) for row in exact]
    planes = {}  # the points on a face -> its outward normal
    for i, j, k in combinations(range(len(p)), 3):
        if any({i, j, k} <= face for face in planes):
            continue
        n = ext_cross(ext_sub(p[j], p[i]), ext_sub(p[k], p[i]))
        if not any(n):
            continue
        signs, on = set(), set()
        for m, q in enumerate(p):
            sign = ext_dot(ext_sub(q, p[i]), n).sign()
            if sign:
                signs.add(sign)
            else:
                on.add(m)
            if len(signs) == 2:
                break
        else:
            planes[frozenset(on)] = n if signs == {-1} else tuple(-x for x in n)
    edges = set()
    for f, g in combinations(planes, 2):
        shared = sorted(f & g)
        if len(shared) > 1:
            a, b = shared[:2]
            along = lambda m: ext_dot(ext_sub(p[m], p[a]), ext_sub(p[b], p[a]))
            edges.add(tuple(sorted((min(shared, key=along), max(shared, key=along)))))
    members = {m for e in edges for m in e}
    return {f & members: n for f, n in planes.items()}, members, edges


def assert_exact_faces(exact, layer, rest):
    """A layer peeled from the rows ``rest`` of ``exact`` has the faces,
    members and edges of ``exact_hull``; each face is a cycle along its
    edges that turns counter-clockwise seen from outside."""
    faces, members, edges = exact_hull([exact[r] for r in rest])
    normals = {frozenset(rest[m] for m in f): n for f, n in faces.items()}
    assert list(layer.members) == sorted(rest[m] for m in members)
    assert set(layer.ends) == {tuple(sorted((rest[a], rest[b]))) for a, b in edges}
    assert len(layer.ends) == len(edges)
    assert {frozenset(f) for f in layer.faces} == set(normals)
    assert len(layer.faces) == len(normals)
    p = {r: tuple(GoldenScalar(a, b) for a, b in exact[r]) for r in rest}
    for f in layer.faces:
        assert len(set(f)) == len(f)
        assert all(tuple(sorted(e)) in layer.ends for e in zip(f, f[1:] + f[:1]))
        turn = ext_cross(ext_sub(p[f[1]], p[f[0]]), ext_sub(p[f[2]], p[f[0]]))
        assert ext_dot(turn, normals[frozenset(f)]).sign() > 0


class TestFixtures:
    def test_octahedron(self):
        layers = peel_hulls(*octahedron())
        assert len(layers) == 1
        assert layers[0].classification == "regular octahedron"
        assert layers[0].vertex_count == 6
        assert layers[0].edge_count == 12
        assert layers[0].edge_spread <= 1e-12

    def test_icosahedron(self):
        layers = peel_hulls(*icosahedron())
        assert len(layers) == 1
        assert layers[0].classification == "regular icosahedron"
        assert layers[0].edge_count == 30

    def test_stretched_icosahedron_is_irregular(self):
        pts, exact = stretched(icosahedron()[1], [5, 5, 7], 5)  # z times 7/5
        assert peel_hulls(pts, exact)[0].classification == "irregular icosahedron"

    def test_near_regular_icosahedron_is_irregular(self):
        # z times (10**8 + 1) / 10**8: the edge spread is 1e-8, yet the edges
        # differ exactly
        n = 10 ** 8
        pts, exact = stretched(icosahedron()[1], [n, n, n + 1], n)
        layer = peel_hulls(pts, exact)[0]
        assert layer.classification == "irregular icosahedron"
        assert 0 < layer.edge_spread < 1e-7

    def test_cube_with_center(self):
        # the cube's faces are its six squares, with no diagonal edge; the
        # lone interior point remains
        layers = peel_hulls(*cube_with_center())
        assert [l.classification for l in layers] == ["other(v=8)", "point"]
        assert layers[0].edge_count == 12
        assert sorted(map(len, layers[0].faces)) == [4] * 6

    def test_shuffled_cloud_keeps_its_rows(self):
        # a 3 x 2 x 3 grid peels to two boxes of 6 faces and a segment; in
        # any row order each face starts at its least row, the faces are
        # sorted, and the layers are the sorted grid's, row for row
        grid = sorted(integers(product((-1, 0, 2), (-2, 1), (0, 3, -1))))
        order = list(range(len(grid)))
        random.Random(3).shuffle(order)  # row k of the shuffled cloud is row order[k] of the grid
        want = peel_hulls(*cloud(grid))
        got = peel_hulls(*cloud([grid[k] for k in order]))
        assert [l.classification for l in want] == ["other(v=8)", "other(v=8)", "collinear(v=2)"]
        assert sum(len(l.faces) for l in got) == 12
        for g, w in zip(got, want, strict=True):
            assert all(f[0] == min(f) for f in g.faces)
            assert list(g.faces) == sorted(g.faces)
            assert g.classification == w.classification
            assert sorted(order[i] for i in g.members) == list(w.members)
            moved = [tuple(order[i] for i in f) for f in g.faces]
            assert sorted(f[f.index(min(f)):] + f[:f.index(min(f))] for f in moved) == list(w.faces)
            assert sorted(tuple(sorted((order[a], order[b]))) for a, b in g.ends) == list(w.ends)

    def test_collinear(self):
        layers = peel_hulls(*cloud(integers([[t, 2 * t, -t] for t in range(5)])))
        assert layers == [layers[0]]
        assert layers[0].classification == "collinear(v=5)"

    def test_coplanar(self):
        layers = peel_hulls(*cloud(integers([[x, y, 2] for x in range(3) for y in range(3)])))
        assert layers[0].classification == "coplanar(v=9)"

    def test_single_point(self):
        layers = peel_hulls(*cloud(integers([[1, 2, 3]])))
        assert layers[0].classification == "point"

    def test_nested_octahedra(self):
        _, exact = octahedron()
        layers = peel_hulls(*cloud(stretched(exact, [3, 3, 3], 1)[1] + exact))
        assert [l.classification for l in layers] == [
            "regular octahedron", "regular octahedron",
        ]

    @pytest.mark.parametrize("shape", [octahedron, icosahedron, cube_with_center])
    def test_floats_only_propose(self, shape):
        # floats neither propose nor decide: floats that show nothing (all
        # zero) or lie (a random cloud) leave every layer's members and
        # oriented faces as they are
        pts, exact = shape()
        want = peel_hulls(pts, exact)
        rng = random.Random(7)
        for floats in ([(0.0,) * 3] * len(pts), [tuple(rng.gauss(0, 1) for _ in p) for p in pts]):
            got = peel_hulls(floats, exact)
            assert [(l.classification, l.members, l.faces) for l in got] == \
                [(l.classification, l.members, l.faces) for l in want]

    def test_solid_but_flat_in_floats_peels_exactly(self):
        # a 3x3 grid with its centre lifted by 10**-30: exactly solid, yet flat
        # in floats, and the square base is marched as one face.  The hull is
        # a pyramid on the 4 corners; the 4 edge midpoints lie on its base
        # edges, so they are no vertices and form the next, flat layer
        pts, exact = lifted_grid()
        assert hulls._affine_rank(hulls._rows(exact)) == 3
        layers = peel_hulls(pts, exact)
        assert [l.classification for l in layers] == ["other(v=5)", "coplanar(v=4)"]
        assert [l.members for l in layers] == [(0, 2, 4, 6, 8), (1, 3, 5, 7)]
        # 4 triangular sides and the base square as one face, with neither
        # diagonal 0-8 nor 2-6 as an edge
        assert (layers[0].edge_count, len(layers[0].faces)) == (8, 5)
        assert sorted(map(len, layers[0].faces)) == [3, 3, 3, 3, 4]
        assert (0, 8) not in layers[0].ends and (2, 6) not in layers[0].ends
        assert_outward(exact, layers[0])


class TestFaceOracle:
    """The exact peel against ``exact_hull``, a brute force on GoldenExt values."""

    @pytest.mark.parametrize("shape", [cube_with_center, lifted_grid])
    def test_faces_members_and_edges(self, shape):
        pts, exact = shape()
        assert_exact_faces(exact, peel_hulls(pts, exact)[0], list(range(len(exact))))

    def test_grid_shells(self):
        # {-2, 0, 2}^3 without the origin: a cube with a point inside each edge
        # and each square, then a cuboctahedron with a point inside each
        # square, then an octahedron; the march steps over the inner points
        pts, exact = cloud(integers([p for p in product((-2, 0, 2), repeat=3) if any(p)]))
        layers = peel_hulls(pts, exact)
        rest, shapes = list(range(len(exact))), []
        for layer in layers:
            assert_exact_faces(exact, layer, rest)
            shapes.append((layer.vertex_count, sorted(map(len, layer.faces)), layer.edge_count))
            rest = sorted(set(rest) - set(layer.members))
        assert rest == []
        assert shapes == [(8, [4] * 6, 12), (12, [3] * 8 + [4] * 6, 24), (6, [3] * 8, 12)]
        assert layers[-1].classification == "regular octahedron"


class TestRotationInvariance:
    def test_classification_invariant_under_rotation(self):
        # criterion-level property: >= 100 random exact orthogonal maps
        rng = random.Random(20260819)
        for k in range(120):
            for shape, label in ((icosahedron, "regular icosahedron"), (octahedron, "regular octahedron")):
                pts, exact = random_exact_image(shape()[1], rng, reflect=k % 2)
                assert peel_hulls(pts, exact)[0].classification == label, f"case {k}"


@pytest.fixture(scope="module")
def vset():
    return build_vertices()


class TestVertexSet:
    def test_240_distinct_vertices(self, vset):
        assert len(vset.points) == 240
        assert vset.positive_root_count == 120
        assert len(set(vset.points)) == 240

    def test_closed_under_negation(self, vset):
        pts = set(vset.points)
        assert all(tuple(-x for x in p) in pts for p in vset.points)

    def test_cmU_basis_also_builds(self):
        alt = build_vertices(basis="cmU")
        assert len(alt.points) == 240

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            build_vertices(basis="Q")

    @pytest.mark.parametrize("basis", ["U", "cmU"])
    def test_builds_without_exact_sort(self, basis, monkeypatch):
        # nothing reads the order of the points, so building them sorts nothing
        def forbidden(*args):
            raise AssertionError("exact compare inside build_vertices()")

        monkeypatch.setattr(GoldenExt, "__lt__", forbidden)
        assert len(build_vertices(basis=basis).points) == 240


def e8_through_U():
    """The 240 roots of ``gen_e8_roots()``, each times the rows of U."""
    U = build_U().rows
    return VertexSet(120, tuple(tuple(sum(r[i] * U[i][k] for i in range(8)) for k in range(8))
                                for r in gen_e8_roots()))


@pytest.fixture(scope="module")
def vsets(vset):
    return {"U": vset, "cmU": build_vertices(basis="cmU"), "E8": e8_through_U()}


def exact_points(vset, proj):
    """The exact triples that a projection's value ids stand for."""
    return tuple(tuple(vset.index.values[r] for r in key) for key in proj.keys)


def reference_projection(vset, dims):
    """Collect distinct exact triples, sort them exactly, convert coordinate by coordinate."""
    keys = sorted({tuple(p[d - 1] for d in dims) for p in vset.points})
    return tuple(keys), [tuple(x.to_float() for x in key) for key in keys]


def float_bits(points):
    """Float triples as hex strings, which tell -0.0 from 0.0."""
    return [tuple(map(float.hex, p)) for p in points]


class TestProjection:
    @pytest.mark.parametrize("basis", ["U", "cmU"])
    def test_matches_exact_reference(self, vsets, basis):
        vset = vsets[basis]
        for dims in all_dim_triples():
            proj = project(vset, dims)
            points, floats = reference_projection(vset, dims)
            assert exact_points(vset, proj) == points, dims
            assert all(type(x) is float for p in proj.float_points for x in p), dims
            assert float_bits(proj.float_points) == float_bits(floats), dims

    @pytest.mark.parametrize("basis", ["U", "cmU"])
    def test_projects_without_field_arithmetic(self, vsets, basis, monkeypatch):
        # once the index is built, a projection only tallies and sorts
        # integer ranks; any exact compare, hash or conversion would raise
        vset = vsets[basis]
        expected = [project(vset, dims) for dims in all_dim_triples()]

        def forbidden(*args):
            raise AssertionError("exact field operation inside project()")

        for name in ("__lt__", "__eq__", "__hash__", "to_float", "sign"):
            monkeypatch.setattr(GoldenExt, name, forbidden)
        got = [project(vset, dims) for dims in all_dim_triples()]
        monkeypatch.undo()
        # compare dims, keys and the bits of the floats
        fields = lambda p: (p.dims, p.keys, float_bits(p.float_points))
        assert list(map(fields, got)) == list(map(fields, expected))

    def test_collapse_with_multiplicity(self, vset):
        proj = project(vset, (2, 3, 4))
        assert len(vset.points) == 240
        assert len(proj.keys) == 181
        # every vertex lands on a projected point, and each point is some vertex's image
        images = {tuple(p[d - 1] for d in (2, 3, 4)) for p in vset.points}
        assert images == set(exact_points(vset, proj))

    def test_projection_validation(self, vset):
        for bad in ((1, 2), (1, 2, 2), (0, 1, 2), (7, 8, 9)):
            with pytest.raises(ValueError):
                project(vset, bad)

    def test_full_signature_dims_234(self, vset):
        # frozen against an independent float implementation of the
        # whole pipeline, which produced the identical 14-layer stack
        rep = analyze(vset, (2, 3, 4))
        assert [l.classification for l in rep.layers] == [
            "irregular icosahedron",
            "irregular icosahedron",
            "other(v=24)",
            "other(v=18)",
            "other(v=24)",
            "irregular icosahedron",
            "other(v=18)",
            "irregular icosahedron",
            "irregular icosahedron",
            "regular octahedron",
            "irregular icosahedron",
            "regular octahedron",
            "regular icosahedron",
            "point",
        ]

    def test_dims_123_ends_coplanar(self, vset):
        rep = analyze(vset, (1, 2, 3))
        assert rep.layers[-1].classification.startswith("coplanar")

    def test_antidiagonal_symmetry(self, vset):
        # reversing all coordinate picks i -> 9-i yields the same stack
        a = analyze(vset, (1, 2, 3))
        b = analyze(vset, (6, 7, 8))
        assert a.signature == b.signature


class TestPeelBookkeeping:
    @pytest.mark.parametrize("basis", ["U", "cmU"])
    def test_classify_matches_loop_reference(self, vsets, basis, monkeypatch):
        # every hull of every projection, each peeled directly: edges from
        # a set of triangle pairs, lengths from a fused chain in Fractions,
        # degrees counted, and edges equal when their squared lengths, sums
        # of GoldenExt squares on the exact projected points, are one value
        wrap = hulls._hull
        seen, peeled = [], []

        def recorded(z, alive, group):
            peeled.append((z, alive, wrap(z, alive, group)))
            return peeled[-1][2]

        def square(p, q):
            d = [x - y for x, y in zip(p, q)]
            return d[0] * d[0] + d[1] * d[1] + d[2] * d[2]

        monkeypatch.setattr(hulls, "_hull", recorded)
        for dims in all_dim_triples():
            peeled.clear()
            proj = project(vsets[basis], dims)
            exact = exact_points(vsets[basis], proj)
            rest = list(range(len(exact)))  # the projection's rows that each hull is given
            layers = analyze(vsets[basis], dims).layers
            assert len(layers) - len(peeled) in (0, 1), dims
            for layer, (z, alive, tri) in zip(layers, peeled):
                assert [z[i] for i in alive] == \
                    hulls._rows(vsets[basis].index.exact(proj.keys[r] for r in rest)), dims
                assert all(len(t) == 3 for t in tri), dims  # every face here is a triangle
                points = proj.float_points
                edges = sorted({e for t in tri for e in combinations(sorted(t), 2)})
                assert hulls._edges(tri) == edges
                lengths = [fused_length(points[i], points[j]) for i, j in edges]
                spread = (max(lengths) - min(lengths)) / max(lengths)
                degree = Counter(v for e in edges for v in e)
                vertices = sorted(degree)
                nv, ne = len(vertices), len(edges)
                equal = lambda: len({square(exact[i], exact[j]) for i, j in edges}) == 1
                if nv == 6 and ne == 12 and equal():
                    label = "regular octahedron"
                elif nv == 12 and ne == 30 and all(degree[v] == 5 for v in vertices):
                    label = "regular icosahedron" if equal() else "irregular icosahedron"
                else:
                    label = f"other(v={nv})"
                got = (layer.classification, layer.vertex_count, layer.edge_count, layer.edge_spread)
                assert got == (label, nv, ne, spread), dims
                seen.append(label)
                rest = [r for r in rest if r not in degree]
        assert len(seen) == {"U": 524, "cmU": 1200}[basis]
        assert len(set(seen)) >= 3

    @pytest.mark.parametrize("basis", ["U", "cmU"])
    def test_matches_qhull(self, vsets, basis):
        # qhull is a test-only oracle: on every projection it peels the same
        # layers, with the same members and the same faces, all triangles, as sets
        spatial = pytest.importorskip("scipy.spatial")
        for dims in all_dim_triples():
            proj = project(vsets[basis], dims)
            layers = analyze(vsets[basis], dims).layers
            rest = list(range(len(proj.keys)))
            for layer in layers[:-1] if layers[-1].edge_count == 0 else layers:
                qhull = spatial.ConvexHull([proj.float_points[r] for r in rest])
                assert list(layer.members) == sorted(rest[v] for v in qhull.vertices), dims
                assert sorted(map(sorted, layer.faces)) == \
                    sorted(sorted(rest[v] for v in t) for t in qhull.simplices), dims
                rest = sorted(set(rest) - set(layer.members))
            assert rest == (list(layers[-1].members) if layers[-1].edge_count == 0 else []), dims

    def test_faces_point_outward(self, vsets):
        # every face of --dims 2,3,4 and of every --all layer of each vertex
        # set has no point of its layer in front, checked exactly
        for basis, vset in vsets.items():
            for rep in [analyze(vset, (2, 3, 4)), *tally_all(vset)]:
                exact = vset.index.exact(project(vset, rep.dims).keys)
                for layer in rep.layers:
                    if layer.edge_count:
                        assert_outward(exact, layer)

    def test_layers_partition_the_cloud(self, vset):
        for dims in all_dim_triples():
            proj = project(vset, dims)
            layers = peel_hulls(proj.float_points, vset.index.exact(proj.keys))
            points = [p for layer in layers for p in layer.points]
            assert sorted(points) == sorted(proj.float_points), dims
            assert sum(l.vertex_count for l in layers) == len(proj.keys), dims


@pytest.fixture(scope="module")
def reports(vset):
    return tally_all(vset)


class TestTally:
    def test_all_triples_covered(self, reports):
        assert len(reports) == 56
        assert [r.dims for r in reports] == all_dim_triples()

    def test_multiple_signatures(self, reports):
        groups = group_by_signature(reports)
        assert len(groups) > 1
        assert sorted(d for dims in groups.values() for d in dims) == all_dim_triples()

    def test_reports_serializable(self, reports):
        d = reports[0].to_dict()
        assert d["dims"] == [1, 2, 3]
        assert isinstance(d["signature"], str)


class TestTallyRelabels:
    """``tally_all`` peels one triple per class; ``analyze`` is the oracle."""

    @pytest.mark.parametrize("basis", ["U", "cmU", "E8"])
    def test_equals_direct_peel(self, vsets, basis):
        # the E8 roots through U have polygon faces (each v=20 layer is a
        # regular dodecahedron); U and cmU have none
        vset = vsets[basis]
        direct = [analyze(vset, dims) for dims in all_dim_triples()]
        tallied = tally_all(vset)
        assert [r.to_dict() for r in tallied] == [r.to_dict() for r in direct]
        for got, want in zip(tallied, direct):
            for n, (g, w) in enumerate(zip(got.layers, want.layers, strict=True), 1):
                assert (g.classification, g.members, g.points) == \
                    (w.classification, w.members, w.points), got.dims
                # a mapped face starts at its least row and the faces are sorted, as peeled
                assert g.faces == w.faces, got.dims
                assert emit_layer_obj(g, f"layer{n}") == emit_layer_obj(w, f"layer{n}"), got.dims
                assert {frozenset(e) for e in g.ends} == {frozenset(e) for e in w.ends}, got.dims
                assert g.edge_spread.hex() == w.edge_spread.hex(), got.dims
        polygons = sum(len(f) > 3 for r in direct for l in r.layers for f in l.faces)
        assert (polygons > 0) == (basis == "E8")

    @pytest.mark.parametrize("basis", ["U", "cmU"])
    def test_layers_build_points_and_faces_on_read(self, vsets, basis):
        vset = vsets[basis]
        # each face names the same points, whatever corner it starts at
        corners = lambda layer: sorted(sorted(layer.cloud[i] for i in f) for f in layer.faces)
        for got, dims in zip(tally_all(vset), all_dim_triples()):
            want = analyze(vset, dims)
            for g, w in zip(got.layers, want.layers, strict=True):
                # a layer keeps index tuples on its report's one cloud, no
                # per-point floats, and computes its edge spread only when read;
                # a mapped layer keeps the peeled layer, its row map and parity
                assert set(vars(g)) in ({"classification", "cloud", "members", "faces", "ends"},
                                        {"classification", "cloud", "peeled", "at", "odd"}), dims
                assert g.cloud is got.layers[0].cloud, dims
                assert all(type(i) is int for i in g.members), dims
                assert "edge_spread" not in vars(g), dims
                assert g.edge_spread == w.edge_spread, dims
                assert "edge_spread" in vars(g), dims
                assert g.points == w.points, dims
                assert corners(g) == corners(w), dims

    @pytest.mark.parametrize("basis, clouds, calls", [("U", 6, 53), ("cmU", 2, 40)])
    def test_peels_one_cloud_per_class(self, vsets, basis, clouds, calls, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(hulls, "_hull", counting("hull", hulls._hull))
        monkeypatch.setattr(hulls, "peel_hulls", counting("peel", hulls.peel_hulls))
        monkeypatch.setattr(hulls, "_edges", counting("edges", hulls._edges))
        monkeypatch.setattr(hulls, "project", counting("project", hulls.project))
        tally_all(vsets[basis])
        # edges are computed once per wrapped hull, never again for a mapped layer
        assert counts == {"hull": calls, "peel": clouds, "edges": calls, "project": 56}


# signed permutations of three coordinates: coordinate k of the image is
# sign k times coordinate perm[k]
SIGNED_PERMUTATIONS = [(perm, signs) for perm in permutations(range(3))
                       for signs in product((1, -1), repeat=3)]


def signed_image(g, point):
    """A signed permutation applied to a point of three values or Z[phi] pairs."""
    perm, signs = g
    return tuple(tuple(s * x for x in point[k]) if isinstance(point[k], tuple) else s * point[k]
                 for k, s in zip(perm, signs))


def layer_shapes(layers):
    return [(l.classification, l.members, l.faces, l.ends) for l in layers]


class TestOrbitWrap:
    """Each peeled cloud wraps one open edge per orbit of its group, the
    signed coordinate permutations that map its exact rows onto themselves."""

    PEELED = [("U", (1, 2, 3), 8), ("U", (1, 2, 7), 8), ("U", (1, 2, 8), 8), ("U", (2, 3, 4), 24),
              ("U", (2, 3, 6), 8), ("U", (2, 3, 7), 8), ("cmU", (1, 2, 3), 48), ("cmU", (1, 2, 7), 8)]

    @pytest.mark.parametrize("basis, dims, order", PEELED,
                             ids=[f"{b}-{''.join(map(str, d))}" for b, d, _ in PEELED])
    def test_group_orders_of_the_peeled_clouds(self, vsets, basis, dims, order):
        # against a brute force over all 48 signed permutations of the
        # GoldenExt points, which shares no code with the rows
        vset = vsets[basis]
        proj = project(vset, dims)
        points = set(exact_points(vset, proj))
        brute = sum({signed_image(g, p) for p in points} == points for g in SIGNED_PERMUTATIONS)
        group = hulls._symmetries(hulls._rows(vset.index.exact(proj.keys)))
        assert len(group) == brute == order
        n = len(points)
        assert (list(range(n)), False) in group
        assert all(sorted(g) == list(range(n)) for g, _ in group)
        assert sum(odd for _, odd in group) == order // 2

    @pytest.mark.parametrize("basis, peeled, wraps, plain", [
        ("U", [8, 8, 8, 24, 8, 8], 165, 877), ("cmU", [48, 8], 93, 400)], ids=["U", "cmU"])
    def test_wraps_per_tally(self, vsets, basis, peeled, wraps, plain, monkeypatch):
        # the peeled clouds have the orders pinned above, and the plain wrap,
        # every open edge folded, gives the same reports
        calls, orders = Counter(), []
        wrap, symmetries = hulls._wrap, hulls._symmetries

        def counted(*args):
            calls["wrap"] += 1
            return wrap(*args)

        def recorded(z):
            group = symmetries(z)
            orders.append(len(group))
            return group

        monkeypatch.setattr(hulls, "_wrap", counted)
        monkeypatch.setattr(hulls, "_symmetries", recorded)
        reports = tally_all(vsets[basis])
        assert calls["wrap"] <= wraps
        assert orders == peeled
        calls.clear()
        monkeypatch.setattr(hulls, "_symmetries", lambda z: ())
        direct = tally_all(vsets[basis])
        assert calls["wrap"] == plain
        assert [layer_shapes(r.layers) for r in reports] == [layer_shapes(r.layers) for r in direct]

    def test_stabilised_triangles_are_added_once(self):
        # each face of the octahedron is fixed by 6 of its 48 symmetries
        floats, exact = octahedron()
        assert len(hulls._symmetries(hulls._rows(exact))) == 48
        layer = peel_hulls(floats, exact)[0]
        assert len(layer.faces) == 8
        directed = directed_edges(layer)
        assert set(directed.values()) == {1} and len(directed) == 24

    def test_translated_cloud_has_a_trivial_group(self, vset):
        # the group fixes the origin, so a cloud moved by (1, 2, 4), which no
        # signed permutation but the identity fixes, gets the plain wrap
        proj = project(vset, (2, 3, 4))
        exact = vset.index.exact(proj.keys)
        moved = [tuple((a + t, b) for (a, b), t in zip(row, (1, 2, 4))) for row in exact]
        assert len(hulls._symmetries(hulls._rows(exact))) == 24
        assert hulls._symmetries(hulls._rows(moved)) == [(list(range(len(exact))), False)]


def phi_times(x):
    """phi * (a + b*phi) = b + (a + b)*phi, on a pair."""
    a, b = x
    return (b, a + b)


def pair_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


# a small grid of Z[phi] values
GRID = [(a, b) for a in (-1, 0, 2) for b in (-1, 0, 1)]


class TestExactRank:
    """The peel's flatness test is exact over Z[phi]; no SVD, no tolerance."""

    def test_point(self):
        _, exact = cloud([[(1, 2), (0, -1), (3, 0)]] * 4)
        assert hulls._affine_rank(hulls._rows(exact)) == 0
        assert hulls._affine_rank(hulls._rows(exact[:1])) == 0

    def test_line_with_phi_direction(self):
        # base + t * (1 + phi, 2, -phi) for t = 0..4
        _, exact = cloud([[(1 + t, t), (2 * t, 0), (5, -t)] for t in range(5)])
        assert hulls._affine_rank(hulls._rows(exact)) == 1

    def test_plane_with_phi_coefficient(self):
        # z = x + phi*y: flat over Q(phi), whatever its floats round to
        plane = [[x, y, pair_add(x, phi_times(y))] for x in GRID for y in GRID]
        floats, exact = cloud(plane)
        assert hulls._affine_rank(hulls._rows(exact)) == 2
        layers = peel_hulls(floats, exact)
        assert [l.classification for l in layers] == [f"coplanar(v={len(plane)})"]
        # one point lifted off the plane makes the cloud solid
        lifted = plane + [[(0, 0), (0, 0), (1, 0)]]
        assert hulls._affine_rank(hulls._rows(cloud(lifted)[1])) == 3

    def test_solid(self):
        _, exact = cloud([[x, y, z] for x in GRID[:2] for y in GRID[:2] for z in GRID[:2]])
        assert hulls._affine_rank(hulls._rows(exact)) == 3

    @pytest.mark.parametrize("basis, scale, bound", [("U", 2 * SQRT_PHI, 8), ("cmU", 2, 14)])
    def test_pairs_reproduce_values(self, vsets, basis, scale, bound):
        index = vsets[basis].index
        assert len(index.pairs) == len(index.values)
        assert all(len(pair) == 2 and all(type(x) is int for x in pair) for pair in index.pairs)
        for (a, b), value in zip(index.pairs, index.values, strict=True):
            assert GoldenScalar(a, b) / scale == value
        assert max(abs(x) for pair in index.pairs for x in pair) == bound

    def test_oversized_value_keeps_python_ints(self):
        # one integer type at every size: a value past int64 keeps its
        # exact pair, and a small one is the same type
        at = lambda x: VertexSet(1, ((GoldenExt(x),) + (GoldenExt(0),) * 7,)).index.pairs
        for x in (131, 132, 2 ** 63, 10 ** 40):
            pairs = at(x)
            assert all(type(e) is int for pair in pairs for e in pair)
            assert pairs == ((0, 0), (x, 0))

    def test_pair_entry_limit_keeps_int64_exact(self):
        # orientation signs of corner clouds, entries +-top: a determinant
        # is homogeneous of degree 3, so every top > 0 gives the signs of
        # top = 1, also where its intermediates pass 2**63
        rng = random.Random(23)
        corners = [[tuple(rng.choice((-1, 1)) for _ in range(6)) for _ in range(4)]
                   for _ in range(400)]

        def signs(top):
            dets = [hulls._dot(hulls._sub(d, a), hulls._cross(hulls._sub(b, a), hulls._sub(c, a)))
                    for a, b, c, d in ([tuple(top * e for e in row) for row in quad]
                                       for quad in corners)]
            return [_sign_q_phi(*x) for x in dets], max(abs(e) for x in dets for e in x)

        unit, _ = signs(1)
        assert {-1, 1} <= set(unit)
        for top in (131, 528, 10 ** 40):
            assert signs(top)[0] == unit
        assert signs(10 ** 40)[1] > 2 ** 63

    def test_forty_digit_pairs_peel_like_small_ones(self, vset):
        # one integer type: scaled by a 40-digit factor and moved by a
        # different 40-digit offset in each coordinate, which leaves the big
        # cloud no symmetry but the identity, a projection peels by the plain
        # wrap to the same layers and the same oriented faces as the orbit wrap
        proj = project(vset, (2, 3, 4))
        small = vset.index.exact(proj.keys)
        k = 10 ** 39 + 7
        offsets = [(3 * 10 ** 39 + 1, -10 ** 39), (3 * 10 ** 39 + 2, -10 ** 39 + 1),
                   (3 * 10 ** 39 + 3, -10 ** 39 + 2)]
        big = [tuple((k * a + u, k * b + v) for (a, b), (u, v) in zip(row, offsets)) for row in small]
        assert len(str(max(abs(x) for row in big for pair in row for x in pair))) == 40
        assert len(hulls._symmetries(hulls._rows(small))) == 24
        assert len(hulls._symmetries(hulls._rows(big))) == 1
        assert layer_shapes(peel_hulls(proj.float_points, big)) == \
            layer_shapes(peel_hulls(proj.float_points, small))

    def test_mixed_parts_raise(self):
        mixed = (1 + SQRT_PHI,) + (GoldenExt(0),) * 7
        with pytest.raises(ValueError, match="sqrt"):
            VertexSet(1, (mixed,)).index

    @pytest.mark.parametrize("basis", ["U", "cmU"])
    def test_project_makes_no_linalg_call(self, vsets, basis, monkeypatch):
        # --all and --dims give the same reports where numpy cannot even be
        # imported, so no numpy.linalg function (or any other numpy) is called
        vset = vsets[basis]
        expected = [r.to_dict() for r in tally_all(vset)]
        monkeypatch.setitem(sys.modules, "numpy", None)
        tallied = [r.to_dict() for r in tally_all(vset)]
        direct = [analyze(vset, dims).to_dict() for dims in all_dim_triples()]
        monkeypatch.undo()
        assert tallied == expected
        assert direct == expected


class TestEdgeSpread:
    def test_fused_chain_sets_the_bits(self, vset):
        # the pinned spread of --all's (1,2,7) layer 0 comes from lengths
        # sqrt(fl(d2^2 + fl(d1^2 + fl(d0^2)))); plain left-to-right sums of
        # the squares move its last bits
        layer = analyze(vset, (1, 2, 7)).layers[0]
        fused = [fused_length(layer.cloud[a], layer.cloud[b]) for a, b in layer.ends]
        assert layer.edge_spread == (max(fused) - min(fused)) / max(fused) == 0.23409092817284105
        plain = [sqrt(sum((x - y) * (x - y) for x, y in zip(layer.cloud[a], layer.cloud[b])))
                 for a, b in layer.ends]
        assert (max(plain) - min(plain)) / max(plain) == 0.2340909281728412

    def test_fma_square_rounds_once(self):
        # against the exact sum rounded once, on random magnitudes; some of
        # the cases round differently from x*x + acc
        rng = random.Random(24)
        differs = 0
        for _ in range(3000):
            x = rng.uniform(-4, 4) * 2.0 ** rng.randint(-30, 30)
            acc = rng.uniform(0, 4) * 2.0 ** rng.randint(-60, 60)
            want = float(Fraction(x) ** 2 + Fraction(acc))
            assert hulls._fma_square(x, acc) == want, (x, acc)
            differs += x * x + acc != want
        assert differs > 0


def coplanar_groups(z, members, triangles):
    """The faces that triangles lie in: for each triangle that is not
    degenerate, the members on its plane, exactly."""
    out = set()
    for i, j, k in triangles:
        n = hulls._cross(hulls._sub(z[j], z[i]), hulls._sub(z[k], z[i]))
        if any(n):
            out.add(frozenset(m for m in members if not any(hulls._dot(hulls._sub(z[m], z[i]), n))))
    return out


@st.composite
def degenerate_clouds(draw):
    """Exact clouds full of coplanar and collinear points: subsets of integer
    grids, cube surfaces with points on their edges and faces (and some
    inside), and points with small Z[phi] entries."""
    kind = draw(st.sampled_from(["grid", "cube", "phi"]))
    if kind == "grid":
        sides = draw(st.tuples(*[st.integers(2, 4)] * 3))
        grid = list(product(*map(range, sides)))
        points = draw(st.lists(st.sampled_from(grid), min_size=4, max_size=40, unique=True))
    elif kind == "cube":
        k = draw(st.integers(1, 3))
        surface = [p for p in product(range(-k, k + 1), repeat=3) if k in map(abs, p)]
        inside = list(product(range(1 - k, k), repeat=3))
        points = list(product((-k, k), repeat=3))
        points += draw(st.lists(st.sampled_from(surface), max_size=30, unique=True))
        points += draw(st.lists(st.sampled_from(inside), max_size=8, unique=True))
        points = list(dict.fromkeys(points))
    else:
        entry = st.tuples(st.integers(-2, 2), st.integers(-1, 1))
        return draw(st.lists(st.tuples(entry, entry, entry), min_size=4, max_size=30, unique=True))
    return [tuple((c, 0) for c in p) for p in points]


class TestDegenerateClouds:
    """qhull, a test-only oracle, against the exact peel on clouds with many
    coplanar and collinear points, and ``exact_hull`` on rests of at most 20."""

    @given(degenerate_clouds())
    @settings(max_examples=150, deadline=None)
    def test_peel_matches_qhull(self, exact):
        spatial = pytest.importorskip("scipy.spatial")
        floats, z = floats_of(exact), hulls._rows(exact)
        rest = list(range(len(exact)))
        for layer in peel_hulls(floats, exact):
            if not layer.edge_count:  # the flat rest ends the peel
                assert list(layer.members) == rest
                rest = []
                break
            assert_outward(exact, layer)
            # a closed surface: each directed edge once, and its reverse once
            directed = directed_edges(layer)
            assert all(n == 1 and directed[v, u] == 1 for (u, v), n in directed.items())
            qhull = spatial.ConvexHull([floats[r] for r in rest])
            assert list(layer.members) == sorted(rest[v] for v in qhull.vertices)
            theirs = [tuple(rest[v] for v in t) for t in qhull.simplices]
            assert {frozenset(f) for f in layer.faces} == coplanar_groups(z, layer.members, theirs)
            if len(rest) <= 20:
                assert_exact_faces(exact, layer, rest)
            rest = sorted(set(rest) - set(layer.members))
        assert rest == []


@st.composite
def symmetric_clouds(draw):
    """Small Z[phi] clouds closed under the subgroup that one to three random
    signed permutations generate, with those generators."""
    entry = st.tuples(st.integers(-3, 3), st.integers(-2, 2))
    seeds = draw(st.lists(st.tuples(entry, entry, entry), min_size=2, max_size=4))
    generators = draw(st.lists(st.sampled_from(SIGNED_PERMUTATIONS), min_size=1, max_size=3))
    points, todo = set(seeds), list(seeds)
    while todo:
        point = todo.pop()
        for image in (signed_image(g, point) for g in generators):
            if image not in points:
                points.add(image)
                todo.append(image)
    return sorted(points), generators


class TestSymmetricClouds:
    """The orbit wrap against the plain wrap, and qhull, a test-only oracle,
    on clouds with random symmetry groups."""

    @given(symmetric_clouds())
    @settings(max_examples=80, deadline=None)
    def test_orbit_wrap_peels_like_the_plain_wrap(self, drawn):
        spatial = pytest.importorskip("scipy.spatial")
        exact, generators = drawn
        floats = floats_of(exact)
        group = [g for g, _ in hulls._symmetries(hulls._rows(exact))]
        row = {p: i for i, p in enumerate(exact)}
        assert all([row[signed_image(g, p)] for p in exact] in group for g in generators)
        layers = peel_hulls(floats, exact)
        with mock.patch.object(hulls, "_symmetries", lambda z: ()):  # the plain wrap
            assert layer_shapes(layers) == layer_shapes(peel_hulls(floats, exact))
        rest = list(range(len(exact)))
        for layer in layers:
            if not layer.edge_count:  # the flat rest ends the peel
                assert list(layer.members) == rest
                rest = []
                break
            assert_outward(exact, layer)
            qhull = spatial.ConvexHull([floats[r] for r in rest])
            assert list(layer.members) == sorted(rest[v] for v in qhull.vertices)
            rest = sorted(set(rest) - set(layer.members))
        assert rest == []


class TestObjEmission:
    def test_obj_format(self):
        layer = peel_hulls(*octahedron())[0]
        text = emit_layer_obj(layer, "octa")
        lines = text.splitlines()
        assert lines[0] == "o octa"
        assert sum(1 for l in lines if l.startswith("v ")) == 6
        assert sum(1 for l in lines if l.startswith("f ")) == 8
        # all face indices are in range
        for l in lines:
            if l.startswith("f "):
                assert all(1 <= int(t) <= 6 for t in l.split()[1:])

    def test_obj_cube_has_square_faces(self):
        # one f line per square, its four corners turning counter-clockwise
        # seen from outside: no vertex lies in front of the plane of its
        # first three corners (the cube's floats are exact)
        lines = emit_layer_obj(peel_hulls(*cube_with_center())[0], "cube").splitlines()
        vertices = [tuple(map(float, l.split()[1:])) for l in lines if l.startswith("v ")]
        faces = [[vertices[int(t) - 1] for t in l.split()[1:]] for l in lines if l.startswith("f ")]
        assert len(vertices) == 8 and [len(f) for f in faces] == [4] * 6
        for p, q, r, _ in faces:
            n = ext_cross(ext_sub(q, p), ext_sub(r, p))
            sides = [ext_dot(ext_sub(v, p), n) for v in vertices]
            assert max(sides) == 0 and sides.count(0) == 4

    def test_obj_deterministic(self):
        layer = peel_hulls(*icosahedron())[0]
        assert emit_layer_obj(layer, "ico") == emit_layer_obj(layer, "ico")
