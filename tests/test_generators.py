import json
import re
from fractions import Fraction
from itertools import combinations

import pytest

from simplexcolor.dual import build_dual, find_clique, stats
from simplexcolor.errors import InputError
from simplexcolor.generators import (
    BOUNDARY_ABSTRACT,
    CLOSED_FAN,
    DELAUNAY2D,
    FAN,
    FREUDENTHAL,
    PATH,
    TRI_TILING,
    MAX_ENTRIES,
    MAX_SIMPLICES,
    GeneratorSpec,
    _simplex_count,
    _vertex_count,
    generate,
)
from simplexcolor.model import (
    COMBINATORIAL,
    GEOMETRIC_STRICT,
    complex_to_dict,
    validate,
)


def cofactor_det(rows):
    """Determinant by cofactor expansion along the first row: a test-local
    oracle, independent of the library's integer kernel."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def exact_volume(c):
    total = Fraction(0)
    d = c.dimension
    fact = 1
    for k in range(2, d + 1):
        fact *= k
    for i in range(len(c.simplices)):
        pts = [c.vertices[v] for v in c.simplices[i].vertex_ids]
        rows = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
        total += abs(Fraction(cofactor_det(rows))) / fact
    return total


class TestFan:
    def test_k3_is_tri_k3(self):
        c = generate(GeneratorSpec(FAN, 2, 3))
        assert len(c.simplices) == 3
        assert validate(c, GEOMETRIC_STRICT).ok
        g = build_dual(c)
        assert find_clique(g, 3) is not None
        assert find_clique(g, 4) is None

    @pytest.mark.parametrize("k", [3, 4, 7, 12])
    def test_ring_structure_d2(self, k):
        c = generate(GeneratorSpec(FAN, 2, k))
        assert len(c.simplices) == k
        assert validate(c, GEOMETRIC_STRICT).ok
        g = build_dual(c)
        assert all(len(g[i]) == 2 for i in range(k))
        # central vertex fully surrounded: all its edges glued
        spokes = [own for f, own in c.facet_owners.items() if 0 in f]
        assert all(len(own) == 2 for own in spokes)

    @pytest.mark.parametrize("d,k", [(3, 3), (3, 6), (4, 4), (7, 3)])
    def test_ring_any_dimension(self, d, k):
        c = generate(GeneratorSpec(FAN, d, k))
        assert len(c.simplices) == k
        assert validate(c, COMBINATORIAL).ok
        g = build_dual(c)
        assert all(len(g[i]) == 2 for i in range(k))

    def test_closed_fan_alias(self):
        a = generate(GeneratorSpec(CLOSED_FAN, 2, 6))
        b = generate(GeneratorSpec(FAN, 2, 6))
        assert a == b

    def test_closed_fan_only_planar(self):
        with pytest.raises(InputError):
            generate(GeneratorSpec(CLOSED_FAN, 3, 4))

    def test_too_small_rejected(self):
        with pytest.raises(InputError):
            generate(GeneratorSpec(FAN, 2, 2))


class TestTriTiling:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_counts_and_validity(self, m):
        c = generate(GeneratorSpec(TRI_TILING, 2, m))
        assert len(c.simplices) == 2 * m * m
        assert len(c.vertices) == (m + 1) ** 2
        assert validate(c, GEOMETRIC_STRICT).ok

    def test_full_degree_interior(self):
        c = generate(GeneratorSpec(TRI_TILING, 2, 3))
        assert stats(build_dual(c), 2).max_degree == 3

    def test_dimension_checked(self):
        with pytest.raises(InputError):
            generate(GeneratorSpec(TRI_TILING, 3, 2))


class TestFreudenthal:
    def test_unit_cube_six_tetrahedra(self):
        c = generate(GeneratorSpec(FREUDENTHAL, 3, 1))
        assert len(c.simplices) == 6
        assert validate(c, GEOMETRIC_STRICT).ok
        assert exact_volume(c) == 1
        # every tetrahedron contains the main diagonal
        zero = next(i for i, p in enumerate(c.vertices) if all(x == 0 for x in p))
        one = next(i for i, p in enumerate(c.vertices) if all(x == 1 for x in p))
        for s in c.simplices:
            assert zero in s.vertex_ids and one in s.vertex_ids

    @pytest.mark.parametrize(
        "d,m,count",
        [(1, 4, 4), (2, 3, 18), (3, 2, 48), (4, 1, 24), (4, 2, 384)],
    )
    def test_counts(self, d, m, count):
        c = generate(GeneratorSpec(FREUDENTHAL, d, m))
        assert len(c.simplices) == count
        assert len(c.vertices) == (m + 1) ** d

    @pytest.mark.parametrize("d,m", [(1, 3), (2, 2), (3, 2)])
    def test_exact_volume_fills_grid(self, d, m):
        c = generate(GeneratorSpec(FREUDENTHAL, d, m))
        assert exact_volume(c) == m ** d

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 2)])
    def test_valid(self, d, m):
        c = generate(GeneratorSpec(FREUDENTHAL, d, m))
        assert validate(c, GEOMETRIC_STRICT).ok


class TestPath:
    @pytest.mark.parametrize("d,n", [(1, 5), (2, 8), (3, 6), (4, 5)])
    def test_chain(self, d, n):
        c = generate(GeneratorSpec(PATH, d, n))
        assert len(c.simplices) == n
        assert validate(c, GEOMETRIC_STRICT).ok
        g = build_dual(c)
        degrees = sorted(map(len, g))
        if n == 1:
            assert degrees == [0]
        else:
            assert degrees[:2] == [1, 1] and all(x == 2 for x in degrees[2:])


class TestBoundaryAbstract:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dual_is_complete(self, d):
        c = generate(GeneratorSpec(BOUNDARY_ABSTRACT, d))
        assert len(c.simplices) == d + 2
        # combinatorial invariants hold; every facet is glued
        assert validate(c, COMBINATORIAL).ok
        assert all(len(own) == 2 for own in c.facet_owners.values())
        # brute-force shared-facet enumeration: every pair adjacent
        for i, j in combinations(range(d + 2), 2):
            shared = set(c.simplices[i].vertex_ids) & set(c.simplices[j].vertex_ids)
            assert len(shared) == d
        assert find_clique(build_dual(c), d + 2) is not None

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_strict_report_lists_the_pairs_with_simplex_0(self, d):
        # Simplex 0 is the standard simplex; every other one is the cone
        # from its centroid, the last vertex, over one of its facets.  So
        # simplex 0 overlaps each of them, and they tile it.
        c = generate(GeneratorSpec(BOUNDARY_ABSTRACT, d))
        rep = validate(c, GEOMETRIC_STRICT)
        assert [i.code for i in rep.issues] == ["interior-overlap"] * (d + 1)
        assert [i.where for i in rep.issues] == [(0, k) for k in range(1, d + 2)]

    def test_not_geometrically_valid(self):
        c = generate(GeneratorSpec(BOUNDARY_ABSTRACT, 2))
        rep = validate(c, GEOMETRIC_STRICT)
        assert any(i.code in ("interior-overlap", "degenerate-simplex") for i in rep.issues)


def circumcenter(a, b, c):
    """Exact circumcenter of a non-degenerate triangle (independent route
    for the empty-circumcircle oracle)."""
    ax, ay, bx, by, cx, cy = (Fraction(v) for v in (*a, *b, *c))
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    return ux, uy


def brute_hull_edges(pts):
    edges = set()
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = pts[i], pts[j]
            dx, dy = b[0] - a[0], b[1] - a[1]
            signs = set()
            for k in range(n):
                if k in (i, j):
                    continue
                cr = dx * (pts[k][1] - a[1]) - dy * (pts[k][0] - a[0])
                signs.add((cr > 0) - (cr < 0))
            if 1 not in signs or -1 not in signs:
                edges.add((i, j))
    return edges


class TestDelaunay:
    @pytest.mark.parametrize("seed", range(6))
    def test_empty_circumcircles(self, seed):
        c = generate(GeneratorSpec(DELAUNAY2D, 2, 40, seed=seed))
        assert validate(c, GEOMETRIC_STRICT).ok
        pts = [(p[0], p[1]) for p in c.vertices]
        for s in c.simplices:
            a, b, cc = (pts[v] for v in s.vertex_ids)
            ux, uy = circumcenter(a, b, cc)
            r2 = (a[0] - ux) ** 2 + (a[1] - uy) ** 2
            for k, p in enumerate(pts):
                if k in s.vertex_ids:
                    continue
                dist2 = (p[0] - ux) ** 2 + (p[1] - uy) ** 2
                assert dist2 >= r2, (s, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_boundary_is_convex_hull(self, seed):
        c = generate(GeneratorSpec(DELAUNAY2D, 2, 35, seed=seed))
        pts = [(p[0], p[1]) for p in c.vertices]
        boundary = {f for f, own in c.facet_owners.items() if len(own) == 1}
        assert boundary == brute_hull_edges(pts)

    def test_all_points_used(self):
        c = generate(GeneratorSpec(DELAUNAY2D, 2, 50, seed=11))
        used = {v for s in c.simplices for v in s.vertex_ids}
        assert used == set(range(len(c.vertices)))
        assert len(c.vertices) == 50

    def test_seeds_differ(self):
        a = generate(GeneratorSpec(DELAUNAY2D, 2, 30, seed=1))
        b = generate(GeneratorSpec(DELAUNAY2D, 2, 30, seed=2))
        assert a != b

    def test_no_overglued_facets(self):
        c = generate(GeneratorSpec(DELAUNAY2D, 2, 80, seed=3))
        assert max(map(len, c.facet_owners.values())) <= 2

    def test_cocircular_grid_handled(self):
        # A perfect grid is massively cocircular; exact predicates must
        # still produce a valid triangulation of the full square.
        import simplexcolor.generators as gen

        pts = [(x * 100, y * 100) for x in range(4) for y in range(4)]
        tri = gen._Triangulation(sorted(pts))
        for i in range(16):
            assert tri.insert(3 + i)
        real = [ids for ids in tri.tris.values() if min(ids) >= 3]
        assert len(real) == 18  # 2 * (n-1)^2 triangles tile the square


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec(FAN, 2, 8),
            GeneratorSpec(FAN, 3, 5),
            GeneratorSpec(TRI_TILING, 2, 4),
            GeneratorSpec(DELAUNAY2D, 2, 60, seed=9),
            GeneratorSpec(FREUDENTHAL, 3, 2),
            GeneratorSpec(PATH, 3, 10),
            GeneratorSpec(BOUNDARY_ABSTRACT, 2),
        ],
    )
    def test_identical_bytes(self, spec):
        a = json.dumps(complex_to_dict(generate(spec)))
        b = json.dumps(complex_to_dict(generate(spec)))
        assert a == b


def test_unknown_kind():
    with pytest.raises(InputError):
        generate(GeneratorSpec("moebius", 2, 3))


@pytest.mark.parametrize("spec, message", [
    (GeneratorSpec(FAN, 1, 3), "fan requires dimension >= 2"),
    (GeneratorSpec(FAN, 2, 2), "fan requires at least 3 simplices"),
    (GeneratorSpec(CLOSED_FAN, 2, 2), "closed-fan requires at least 3 triangles"),
    (GeneratorSpec(TRI_TILING, 2, 0), "tri-tiling requires at least 1 row"),
    (GeneratorSpec(DELAUNAY2D, 2, 2), "delaunay2d requires at least 3 points"),
    (GeneratorSpec(FREUDENTHAL, 0, 1), "freudenthal requires dimension >= 1"),
    (GeneratorSpec(FREUDENTHAL, 2, 0), "freudenthal requires at least 1 cell per side"),
    (GeneratorSpec(PATH, 0, 1), "path requires dimension >= 1"),
    (GeneratorSpec(PATH, 2, 0), "path requires at least 1 simplex"),
    (GeneratorSpec(BOUNDARY_ABSTRACT, 0), "boundary-abstract requires dimension >= 1"),
    (GeneratorSpec(CLOSED_FAN, 3, 3), "closed-fan is a planar kind (dimension 2)"),
    (GeneratorSpec(TRI_TILING, 1, 1), "tri-tiling is a planar kind (dimension 2)"),
    (GeneratorSpec(DELAUNAY2D, 3, 3), "delaunay2d is a planar kind (dimension 2)"),
    (GeneratorSpec(PATH, 4, MAX_SIMPLICES + 1),
     f"path of size {MAX_SIMPLICES + 1} in dimension 4 would build more than {MAX_SIMPLICES} "
     f"simplices or {MAX_ENTRIES} vertex coordinates and ids (the generator cap)"),
    # An unknown kind is named before the cap, which cannot count its simplices.
    (GeneratorSpec("moebius", 2, 10**9), "unknown generator kind 'moebius'"),
    # Integer fields are judged first: a bool or float is not read as a number.
    (GeneratorSpec(PATH, True, True), "'dimension' must be an integer"),
    (GeneratorSpec(PATH, 2, 2.5), "'size' must be an integer"),
    (GeneratorSpec(FAN, 2, "5"), "'size' must be an integer"),
    (GeneratorSpec(DELAUNAY2D, 2, 10, "x"), "'seed' must be an integer"),
    (GeneratorSpec("moebius", 2.0, 10**9), "'dimension' must be an integer"),
])
def test_single_fault_refusal_messages(spec, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        generate(spec)


@pytest.mark.parametrize("spec", [
    GeneratorSpec(FAN, 2, 8), GeneratorSpec(FAN, 4, 3), GeneratorSpec(CLOSED_FAN, 2, 9),
    GeneratorSpec(TRI_TILING, 2, 5), GeneratorSpec(FREUDENTHAL, 3, 2),
    GeneratorSpec(FREUDENTHAL, 4, 1), GeneratorSpec(PATH, 3, 10),
    GeneratorSpec(BOUNDARY_ABSTRACT, 3), GeneratorSpec(DELAUNAY2D, 2, 60, seed=9),
])
def test_simplex_count_matches_generated(spec):
    built = len(generate(spec).simplices)
    if spec.kind == DELAUNAY2D:
        assert built <= _simplex_count(spec)
    else:
        assert built == _simplex_count(spec)


@pytest.mark.parametrize("spec", [
    GeneratorSpec(FAN, 2, MAX_SIMPLICES + 1), GeneratorSpec(CLOSED_FAN, 2, 10**8),
    GeneratorSpec(TRI_TILING, 2, 708), GeneratorSpec(DELAUNAY2D, 2, MAX_SIMPLICES // 2 + 3),
    GeneratorSpec(FREUDENTHAL, 3, 70), GeneratorSpec(FREUDENTHAL, 10**9, 1),
    GeneratorSpec(PATH, 4, MAX_SIMPLICES + 1), GeneratorSpec(BOUNDARY_ABSTRACT, MAX_SIMPLICES),
])
def test_size_cap_rejects_before_building(spec):
    with pytest.raises(InputError, match=f"{spec.kind} of size {spec.size} .* {MAX_SIMPLICES} simplices"):
        generate(spec)


@pytest.mark.parametrize("spec", [
    GeneratorSpec(FAN, 2, 5), GeneratorSpec(FAN, 7, 3), GeneratorSpec(CLOSED_FAN, 2, 4),
    GeneratorSpec(TRI_TILING, 2, 4), GeneratorSpec(FREUDENTHAL, 2, 3),
    GeneratorSpec(FREUDENTHAL, 1, 5), GeneratorSpec(PATH, 4, 1),
    GeneratorSpec(BOUNDARY_ABSTRACT, 4), GeneratorSpec(DELAUNAY2D, 2, 40, seed=2),
])
def test_vertex_count_matches_generated(spec):
    built = len(generate(spec).vertices)
    if spec.kind == DELAUNAY2D:
        assert built <= _vertex_count(spec)
    else:
        assert built == _vertex_count(spec)
