import json
import random
import re
import time
from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from math import cos, lcm, pi, sin
from operator import mul

import pytest

import simplexcolor.geometry as geometry_module
import simplexcolor.model as model_module
from simplexcolor.coloring import color, peel, save_certificate
from simplexcolor.errors import InputError
from simplexcolor.generators import GeneratorSpec, generate
from simplexcolor.geometry import _feasible_point, _nullspace, orientation
from simplexcolor.model import (
    COMBINATORIAL,
    GEOMETRIC_STRICT,
    Coloring,
    Complex,
    Facet,
    Issue,
    Simplex,
    ValidationReport,
    _box_cells,
    coloring_from_dict,
    complex_from_dict,
    load,
    load_coloring,
    save,
    save_coloring,
    validate,
)


class _Id(IntEnum):
    """An int subclass that is not bool: accepted wherever ints are."""

    A = 0
    B = 2


def unit_triangle():
    return Complex(2, ((0, 0), (1, 0), (0, 1)), (Simplex((0, 1, 2)),))


def two_glued_triangles():
    verts = ((0, 0), (1, 0), (0, 1), (1, 1))
    return Complex(2, verts, (Simplex((0, 1, 2)), Simplex((1, 2, 3))))


def fan_k3():
    # Three triangles sharing and surrounding a central vertex.
    verts = ((0, 0), (2, 0), (-1, 2), (-1, -2))
    return Complex(2, verts, (Simplex((0, 1, 2)), Simplex((0, 2, 3)), Simplex((0, 1, 3))))


def tetra_boundary_in_plane():
    # Boundary of a tetrahedron forced into R^2: combinatorially fine,
    # geometrically overlapping.
    verts = ((0, 0), (4, 0), (0, 4), (1, 1))
    simplices = tuple(
        Simplex(ids) for ids in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    )
    return Complex(2, verts, simplices)


class TestStructure:
    def test_simplex_ids_must_increase(self):
        with pytest.raises(InputError):
            Simplex((2, 1, 3))
        with pytest.raises(InputError):
            Simplex((1, 1, 2))

    def test_facets_of_simplex(self):
        # Leaving out vertex k = 0..d in turn: decreasing lexicographic order.
        s = Simplex((0, 2, 5))
        assert s.facet_ids() == ((2, 5), (0, 5), (0, 2))

    def test_vertex_reference_checked(self):
        with pytest.raises(InputError):
            Complex(2, ((0, 0), (1, 0)), (Simplex((0, 1, 2)),))

    def test_vertex_dimension_checked(self):
        with pytest.raises(InputError):
            Complex(2, ((0, 0, 0),), ())

    @pytest.mark.parametrize("d, simplices, message", [
        # The dimension is judged first, before any vertex is read.
        (True, ((0, 1, 2),), "'dimension' must be an integer"),
        (2.0, ((0, 1, 2),), "'dimension' must be an integer"),
        ("2", ((0, 1, 2),), "'dimension' must be an integer"),
        (0, ((0, 1, 2),), "dimension must be >= 1, got 0"),
        (2, ((0, 1, 2), (0, 1)), "simplex 1 has 2 vertices, expected 3"),
    ], ids=["bool", "float", "string", "zero", "short-simplex"])
    def test_refusal_messages(self, d, simplices, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Complex(d, ((0, 0), (1, 0), (0, 1)), simplices)


class TestVertexCoordinates:
    def test_integral_coordinates_stored_as_int(self):
        c = Complex(6, ((Fraction(4, 2), 2.0, "6/3", Fraction(1, 3), "-0.5", 7),), ())
        assert c.vertices[0] == (2, 2, 2, Fraction(1, 3), Fraction(-1, 2), 7)
        assert [type(x) for x in c.vertices[0]] == [int, int, int, Fraction, Fraction, int]

    def test_equality_and_hash_across_input_forms(self):
        forms = [Complex(2, (row,), ()) for row in (
            (2, Fraction(1, 3)), (Fraction(6, 3), "1/3"), ["2", Fraction(2, 6)], (2.0, "2/6"),
            (2, Fraction(1, 3)))]
        assert all(c == forms[0] and hash(c) == hash(forms[0]) for c in forms)
        assert all(type(c.vertices[0]) is tuple and hash(c.vertices[0]) == hash(forms[0].vertices[0])
                   for c in forms)
        assert len(set(forms)) == 1
        assert Complex(2, ((1, 2),), ()) != Complex(2, ((1, Fraction(5, 2)),), ())

    def test_boolean_coordinate_refused(self):
        # bool is an int subclass: read as a number, True would become 1.
        with pytest.raises(InputError, match=r"^cannot interpret True as a rational number$"):
            Complex(2, ((True, 0), (1, 0), (0, 1)), ((0, 1, 2),))
        with pytest.raises(InputError, match=r"^cannot interpret True as a rational number$"):
            orientation([(True, False), (1, 0), (0, 1)], 2)


class TestValueClasses:
    @pytest.mark.parametrize("cls, entries", [
        (Simplex, (0, 1.7, 3)), (Simplex, (0, True, 3)), (Simplex, ("0", 1, 2)),
        (Facet, (0.5, 2)), (Facet, (0, 2.0)), (Coloring, (1.9, True)), (Coloring, (0, "1")),
        (Simplex, [0, True, 3]), (Facet, [0, 2.0]), (Coloring, [True]),
        (Simplex, (_Id.A, True)), (Coloring, [_Id.B, 0.5]),
    ])
    def test_non_integer_entries_rejected(self, cls, entries):
        # int() would truncate these silently: (0, 1.7, 3) to (0, 1, 3).
        with pytest.raises(InputError, match="must be integers"):
            cls(entries)

    def test_int_subclass_ids_accepted_and_lists_become_tuples(self):
        s = Simplex([_Id.A, 1, _Id.B])
        assert type(s.vertex_ids) is tuple and s.vertex_ids == (0, 1, 2)
        assert s == Simplex((0, 1, 2)) and hash(s) == hash(Simplex((0, 1, 2)))
        f = Facet([_Id.A, _Id.B])
        assert type(f.vertex_ids) is tuple and f == Facet((0, 2))
        col = Coloring([_Id.B, 0, _Id.A])
        assert type(col.colors) is tuple and col.colors == (2, 0, 0)
        with pytest.raises(InputError, match=r"^simplex ids must be strictly increasing"):
            Simplex((_Id.B, 1))

    def test_complex_rejects_non_integer_simplex_ids(self):
        with pytest.raises(InputError, match="simplex ids must be integers"):
            Complex(2, ((0, 0), (1, 0), (0, 1)), ((0, 1.9, 2),))

    @pytest.mark.parametrize("row, message", [
        ([2, 1, 0], "simplex ids must be strictly increasing: (2, 1, 0)"),
        ([0, 1.9, 2], "simplex ids must be integers: (0, 1.9, 2)"),
    ])
    def test_complex_from_dict_names_the_simplex(self, row, message):
        data = {"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
                "simplices": [[0, 1, 2], row]}
        with pytest.raises(InputError, match=f"^{re.escape('simplex 1: ' + message)}$"):
            complex_from_dict(data)

    def test_facet_is_a_simplex_with_its_own_name(self):
        f = Facet((0, 2))
        assert isinstance(f, Simplex)
        assert f == Facet([0, 2]) and hash(f) == hash(Facet((0, 2)))
        assert f != Simplex((0, 2))
        assert sorted([Facet((1, 2)), Facet((0, 3))]) == [Facet((0, 3)), Facet((1, 2))]
        assert repr(f) == "Facet(vertex_ids=(0, 2))"
        with pytest.raises(InputError, match=r"^facet ids must be strictly increasing: \(2, 0\)$"):
            Facet((2, 0))
        with pytest.raises(InputError, match=r"^simplex ids must be strictly increasing"):
            Simplex((0, 2, 1))


class TestValidate:
    def test_single_triangle_valid(self):
        assert validate(unit_triangle(), COMBINATORIAL).ok
        assert validate(unit_triangle(), GEOMETRIC_STRICT).ok

    def test_two_glued_triangles_valid(self):
        c = two_glued_triangles()
        assert validate(c, GEOMETRIC_STRICT).ok
        assert len(c.facet_owners[(1, 2)]) == 2

    def test_degenerate_simplex_reported(self):
        c = Complex(2, ((0, 0), (1, 0), (2, 0)), (Simplex((0, 1, 2)),))
        rep = validate(c)
        assert not rep.ok
        assert any(i.code == "degenerate-simplex" for i in rep.issues)

    def test_overglued_facet_reported(self):
        verts = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, -1))
        c = Complex(2, verts, (Simplex((0, 1, 2)), Simplex((1, 2, 3)), Simplex((1, 2, 4))))
        rep = validate(c)
        assert any(i.code == "overglued-facet" for i in rep.issues)

    def test_overglued_report_literal(self):
        # Two facets each owned by three triangles, one of them degenerate.
        # Issues follow first-seen facet order: (1, 2) before (0, 1).
        verts = ((0, 0), (1, 0), (0, 1), (1, 1),
                 (-1, -1), (2, 0), (0, -1))
        c = Complex(2, verts, tuple(Simplex(s) for s in (
            (1, 2, 4), (0, 1, 5), (0, 1, 2), (1, 2, 3), (0, 1, 6))))
        combinatorial = (
            Issue("degenerate-simplex", "simplex 1 is affinely degenerate", (1,)),
            Issue("overglued-facet", "facet (1, 2) shared by 3 simplices", (0, 2, 3)),
            Issue("overglued-facet", "facet (0, 1) shared by 3 simplices", (1, 2, 4)),
        )
        overlaps = (
            Issue("interior-overlap", "simplices 0 and 4 have overlapping interiors", (0, 4)),
            Issue("interior-overlap", "simplices 0 and 2 have overlapping interiors", (0, 2)),
        )
        assert validate(c) == ValidationReport(COMBINATORIAL, combinatorial)
        assert validate(c, GEOMETRIC_STRICT) == ValidationReport(
            GEOMETRIC_STRICT, combinatorial + overlaps)

    def test_duplicate_simplex_reported(self):
        c = Complex(
            2,
            ((0, 0), (1, 0), (0, 1)),
            (Simplex((0, 1, 2)), Simplex((0, 1, 2))),
        )
        rep = validate(c)
        assert any(i.code == "duplicate-simplex" for i in rep.issues)

    def test_coincident_vertices_reported(self):
        c = Complex(
            2,
            ((0, 0), (1, 0), (0, 1), (1, 0)),
            (Simplex((0, 1, 2)),),
        )
        rep = validate(c)
        assert any(i.code == "coincident-vertices" for i in rep.issues)

    def test_coincident_rational_vertices_paired_with_first(self):
        half = Fraction(1, 2)
        c = Complex(
            2,
            ((half, -3), (1, half), (Fraction(2, 4), -3),
             (half, 3), ("1/2", "-3")),
            (Simplex((0, 1, 3)),),
        )
        found = [i.where for i in validate(c).issues if i.code == "coincident-vertices"]
        assert found == [(0, 2), (0, 4)]

    def test_abstract_tetra_boundary_overlaps_in_plane(self):
        c = tetra_boundary_in_plane()
        assert validate(c, COMBINATORIAL).ok
        rep = validate(c, GEOMETRIC_STRICT)
        assert any(i.code in ("interior-overlap", "degenerate-simplex") for i in rep.issues)

    def test_combinatorial_verdict_unchanged_by_level(self):
        c = tetra_boundary_in_plane()
        comb = validate(c, COMBINATORIAL)
        strict = validate(c, GEOMETRIC_STRICT)
        comb_codes = {i.code for i in comb.issues}
        strict_comb_codes = {
            i.code for i in strict.issues if i.code != "interior-overlap"
        }
        assert comb_codes == strict_comb_codes

    def test_summary(self):
        assert validate(unit_triangle()).summary() == "combinatorial: ok"
        c = Complex(2, ((0, 0), (1, 0), (2, 0), (1, 0)), ((0, 1, 2),))
        assert validate(c, GEOMETRIC_STRICT).summary() == (
            "geometric-strict: 2 issue(s)\n"
            "  [coincident-vertices] vertices 1 and 3 share coordinates\n"
            "  [degenerate-simplex] simplex 0 is affinely degenerate")

    def test_unknown_level_rejected(self):
        with pytest.raises(InputError):
            validate(unit_triangle(), "sloppy")

    def test_3d_overlap_detected(self):
        # A small tetrahedron strictly inside a big one (no shared ids).
        verts = (
            (0, 0, 0), (6, 0, 0), (0, 6, 0), (0, 0, 6),
            (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2),
        )
        c = Complex(3, verts, (Simplex((0, 1, 2, 3)), Simplex((4, 5, 6, 7))))
        rep = validate(c, GEOMETRIC_STRICT)
        assert any(i.code == "interior-overlap" for i in rep.issues)

    def test_3d_glued_tetra_not_flagged(self):
        verts = (
            (0, 0, 0), (1, 0, 0), (0, 1, 0),
            (0, 0, 1), (0, 0, -1),
        )
        c = Complex(3, verts, (Simplex((0, 1, 2, 3)), Simplex((0, 1, 2, 4))))
        assert validate(c, GEOMETRIC_STRICT).ok


def oracle_triangles_overlap(t1, t2):
    """Independent open-interior overlap test for two 2D triangles.

    Interiors intersect iff some edge pair crosses properly, or one
    triangle's vertex lies strictly inside the other, or they coincide
    partially (detected by midpoint-of-overlap probing of edge pairs).
    """

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    def strictly_inside(p, tri):
        s = {orient(tri[i], tri[(i + 1) % 3], p) for i in range(3)}
        return s == {1} or s == {-1}

    def proper_cross(a, b, c, d):
        return (
            orient(a, b, c) * orient(a, b, d) < 0
            and orient(c, d, a) * orient(c, d, b) < 0
        )

    for i in range(3):
        for j in range(3):
            if proper_cross(t1[i], t1[(i + 1) % 3], t2[j], t2[(j + 1) % 3]):
                return True
    for p in t1:
        if strictly_inside(p, t2):
            return True
    for p in t2:
        if strictly_inside(p, t1):
            return True
    # Centroid probes catch identical/nested-with-touching cases.
    c1 = tuple(sum(v[i] for v in t1) / 3 for i in range(2))
    c2 = tuple(sum(v[i] for v in t2) / 3 for i in range(2))
    return strictly_inside(c1, t2) or strictly_inside(c2, t1)


def test_overlap_check_matches_independent_oracle():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        raw = [
            (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
            for _ in range(6)
        ]
        t1, t2 = raw[:3], raw[3:]

        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        if orient(*t1) == 0 or orient(*t2) == 0:
            continue
        if len({p for p in raw}) != 6:
            continue
        verts = tuple((x, y) for x, y in raw)
        c = Complex(2, verts, (Simplex((0, 1, 2)), Simplex((3, 4, 5))))
        rep = validate(c, GEOMETRIC_STRICT)
        flagged = any(i.code == "interior-overlap" for i in rep.issues)
        assert flagged == oracle_triangles_overlap(t1, t2), (t1, t2)
        checked += 1
    assert checked > 150


class TestFacetMultiplicity:
    def test_single_simplex_all_exposed(self):
        assert sorted(map(len, unit_triangle().facet_owners.values())) == [1, 1, 1]

    def test_single_tetrahedron(self):
        c = Complex(
            3,
            ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
            (Simplex((0, 1, 2, 3)),),
        )
        assert sorted(map(len, c.facet_owners.values())) == [1, 1, 1, 1]

    def test_two_glued(self):
        owners = two_glued_triangles().facet_owners
        assert sorted(map(len, owners.values())) == [1, 1, 1, 1, 2]

    def test_fan_of_three(self):
        owners = fan_k3().facet_owners
        interior = [f for f, own in owners.items() if len(own) == 2]
        boundary = [f for f, own in owners.items() if len(own) == 1]
        assert len(interior) == 3 and len(boundary) == 3
        assert all(0 in f for f in interior)


class TestSerialization:
    def test_json_single_triangle(self, tmp_path):
        p = tmp_path / "tri.json"
        p.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "vertices": [[0, 0], ["1/1", 0], [0, "1/3"]],
                    "simplices": [[0, 1, 2]],
                }
            )
        )
        c = load(str(p))
        assert c.dimension == 2
        assert c.vertices[2] == (Fraction(0), Fraction(1, 3))
        assert len(c.simplices) == 1

    def test_round_trip_exact(self, tmp_path):
        verts = (
            (Fraction(1, 3), Fraction(-7, 11)),
            (Fraction(4, 2), 0.0),
            ("0/5", Fraction(22, 7)),
        )
        c = Complex(2, verts, (Simplex((0, 1, 2)),))
        path = str(tmp_path / "c.json")
        save(c, path)
        assert json.loads(open(path).read())["vertices"] == [["1/3", "-7/11"], [2, 0], [0, "22/7"]]
        assert load(path) == c

    def test_round_trip_bytes_stable(self, tmp_path):
        c = two_glued_triangles()
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save(c, p1)
        save(load(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_missing_dimension_named(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"vertices": [], "simplices": []}))
        with pytest.raises(InputError, match="dimension"):
            load(str(p))

    def test_json_syntax_error_positioned(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"dimension": 2,,}')
        with pytest.raises(InputError, match="line 1"):
            load(str(p))

    @pytest.mark.parametrize("name", ["c.json", "c.off", "col.json"])
    def test_non_utf8_file_named(self, tmp_path, name):
        p = tmp_path / name
        p.write_bytes(b"\xff\xfe{\x00}")
        with pytest.raises(InputError, match=re.escape(f"{p}: not UTF-8")):
            if name == "col.json":
                load_coloring(str(p))
            else:
                load(str(p))

    @pytest.mark.parametrize("data", [
        {"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [[0, 1.7, 2]]},
        {"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [[False, 1, 2]]},
        {"dimension": True, "vertices": [[0], [1]], "simplices": [[0, 1]]},
        {"dimension": 1, "vertices": [[0], [True]], "simplices": [[0, 1]]},
        {"dimension": 1, "vertices": [[0], [1e999]], "simplices": [[0, 1]]},
        {"dimension": 1, "vertices": ["0", "1"], "simplices": [[0, 1]]},
        {"dimension": 1, "vertices": [[0], [1]], "simplices": "01"},
        [2, [], []],
    ])
    def test_complex_json_types_rejected(self, data):
        with pytest.raises(InputError):
            complex_from_dict(data)

    @pytest.mark.parametrize("data", [
        {"colors": [1.9]}, {"colors": [True]}, {"colors": "ab"}, {"colors": 3}, [0, 1],
    ])
    def test_coloring_json_types_rejected(self, data):
        with pytest.raises(InputError):
            coloring_from_dict(data)

    def test_coloring_round_trip(self, tmp_path):
        col = Coloring((0, 2, 1))
        path = str(tmp_path / "col.json")
        save_coloring(col, path)
        assert load_coloring(path) == col

    def test_off_import(self, tmp_path):
        p = tmp_path / "mesh.off"
        p.write_text(
            "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n3 1 3 2\n"
        )
        c = load(str(p))
        assert c.dimension == 2
        assert len(c.simplices) == 2
        assert validate(c, GEOMETRIC_STRICT).ok

    def test_off_rejects_quads(self, tmp_path):
        p = tmp_path / "quad.off"
        p.write_text("OFF\n4 1 0\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n")
        with pytest.raises(InputError, match="triangle"):
            load(str(p))

    def test_off_rejects_nonplanar(self, tmp_path):
        p = tmp_path / "solid.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 1\n3 0 1 2\n")
        with pytest.raises(InputError, match="planar"):
            load(str(p))

    def test_off_export_refuses_other_dimensions(self, tmp_path):
        path = tmp_path / "t.off"
        c = Complex(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2, 3),))
        with pytest.raises(InputError, match="^OFF export supports only dimension-2 complexes$"):
            save(c, str(path))
        assert not path.exists()

    def test_off_round_trip(self, tmp_path):
        c = two_glued_triangles()
        path = str(tmp_path / "c.off")
        save(c, path)
        assert load(path) == c

    def test_written_bytes(self, tmp_path):
        verts = ((0, 0), (1, 0), (0, 1), (Fraction(3, 2), 1))
        c = Complex(2, verts, (Simplex((0, 1, 2)), Simplex((1, 2, 3))))
        cert = peel(c)
        save(c, str(tmp_path / "c.json"))
        save(c, str(tmp_path / "c.off"))
        save_coloring(color(c, cert), str(tmp_path / "col.json"))
        save_certificate(cert, str(tmp_path / "cert.json"))
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert written == {
            "c.json": b'{"dimension":2,"vertices":[[0,0],[1,0],[0,1],["3/2",1]],'
                      b'"simplices":[[0,1,2],[1,2,3]]}\n',
            "c.off": b"OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n3/2 1 0\n3 0 1 2\n3 1 2 3\n",
            "col.json": b'{"colors":[1,0]}\n',
            "cert.json": b'{"method":"combinatorial","steps":[[0,[0,1]],[1,[1,2]]]}\n',
        }

    @pytest.mark.parametrize("name", ["m.off", "M.OFF", "m.Off", "m.json", "m.txt", "m.off.json"])
    def test_format_follows_the_path(self, tmp_path, name):
        # OFF exactly when the path ends in .off, in any case; JSON otherwise.
        c = two_glued_triangles()
        path = str(tmp_path / name)
        save(c, path)
        assert open(path, "rb").read().startswith(b"OFF\n" if name.lower().endswith(".off") else b"{")
        assert load(path) == c


# ---------------------------------------------------------------------------
# Strict validation against an eager Fraction SAT oracle


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def oracle_interiors_overlap(pts_a, pts_b, d):
    """Eager Fraction SAT, independent of the library's integer kernel:
    build every candidate axis (facet normals of both simplices, and in 3D
    all edge-edge cross products), then look for one that separates the
    two simplices in the closed sense."""
    if d == 1:
        axes = [(Fraction(1),)]
    else:
        axes = []
        for pts in (pts_a, pts_b):
            if d == 2:
                for i in range(3):
                    p, q = pts[i], pts[(i + 1) % 3]
                    axes.append((q[1] - p[1], p[0] - q[0]))
            else:
                for skip in range(4):
                    tri = [pts[k] for k in range(4) if k != skip]
                    u = tuple(tri[1][i] - tri[0][i] for i in range(3))
                    v = tuple(tri[2][i] - tri[0][i] for i in range(3))
                    axes.append(_cross3(u, v))
        if d == 3:
            edges_a = [tuple(q[i] - p[i] for i in range(3)) for p, q in combinations(pts_a, 2)]
            edges_b = [tuple(q[i] - p[i] for i in range(3)) for p, q in combinations(pts_b, 2)]
            axes += [_cross3(ea, eb) for ea in edges_a for eb in edges_b]
    for axis in axes:
        if not any(axis):
            continue
        proj_a = [sum(axis[i] * p[i] for i in range(d)) for p in pts_a]
        proj_b = [sum(axis[i] * p[i] for i in range(d)) for p in pts_b]
        if max(proj_a) <= min(proj_b) or max(proj_b) <= min(proj_a):
            return False
    return True


def cofactor_det(rows):
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * rows[0][j] * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def is_degenerate(pts):
    base = pts[0]
    return cofactor_det([[a - b for a, b in zip(p, base)] for p in pts[1:]]) == 0


def overlap_pairs(report):
    return [i.where for i in report.issues if i.code == "interior-overlap"]


def simplex_coords(c, i):
    """Simplex i's vertex coordinates, in vertex-id order."""
    return [c.vertices[v] for v in c.simplices[i].vertex_ids]


def oracle_pairs(c):
    """Every overlapping pair of non-degenerate simplices, by the oracle,
    with a Fraction x-interval prefilter."""
    d = c.dimension
    live = []
    for i in range(len(c.simplices)):
        pts = simplex_coords(c, i)
        if not is_degenerate(pts):
            live.append((min(p[0] for p in pts), max(p[0] for p in pts), i, pts))
    live.sort()
    found = set()
    for a, (lo_i, hi_i, i, pts_i) in enumerate(live):
        for lo_j, _hi_j, j, pts_j in live[a + 1:]:
            if lo_j >= hi_i:
                break
            if oracle_interiors_overlap(pts_i, pts_j, d):
                found.add((min(i, j), max(i, j)))
    return found


def random_coord(rng, rational):
    if rational:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Fraction(rng.randint(-3, 3))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("rational", [False, True])
def test_strict_overlap_matches_fraction_sat_oracle(d, rational):
    """Random simplex pairs sharing 0..d vertex ids, small integer or
    rational coordinates: the strict report flags exactly the pairs the
    oracle does.  Glued pairs (d shared ids) cover both apex placements."""
    rng = random.Random(100 * d + rational)
    by_shared = {k: [0, 0] for k in range(d + 1)}  # [disjoint, overlapping]
    for _ in range(400):
        shared = rng.randint(0, d)
        verts = [tuple(random_coord(rng, rational) for _ in range(d))
                 for _ in range(2 * (d + 1) - shared)]
        ids_a = list(range(d + 1))
        ids_b = rng.sample(ids_a, shared) + list(range(d + 1, len(verts)))
        pts_a = [verts[v] for v in ids_a]
        pts_b = [verts[v] for v in sorted(ids_b)]
        if is_degenerate(pts_a) or is_degenerate(pts_b):
            continue
        c = Complex(d, verts,
                    (Simplex(tuple(ids_a)), Simplex(tuple(sorted(ids_b)))))
        expected = oracle_interiors_overlap(pts_a, pts_b, d)
        assert bool(overlap_pairs(validate(c, GEOMETRIC_STRICT))) == expected, (pts_a, pts_b)
        by_shared[shared][expected] += 1
    for k, (disjoint, overlapping) in by_shared.items():
        assert disjoint >= 5 and overlapping >= 5, (k, by_shared)


def test_glued_pair_apex_sides():
    # The shared edge (0,0)-(2,0); apexes on opposite sides, then on one side.
    for apex_b, overlap in (((1, -1), False), ((5, 1), True), ((1, 1), True)):
        verts = ((0, 0), (2, 0), (1, 2), tuple(apex_b))
        c = Complex(2, verts, (Simplex((0, 1, 2)), Simplex((0, 1, 3))))
        assert bool(overlap_pairs(validate(c, GEOMETRIC_STRICT))) == overlap, apex_b
    # Two tetrahedra glued on the face z = 0, apexes above and below / both above.
    for apex_z, overlap in ((-1, False), (3, True)):
        verts = ((0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 1),
                 (Fraction(1, 2), Fraction(1, 3), apex_z))
        c = Complex(3, verts, (Simplex((0, 1, 2, 3)), Simplex((0, 1, 2, 4))))
        assert bool(overlap_pairs(validate(c, GEOMETRIC_STRICT))) == overlap, apex_z


def test_strict_report_invariant_under_rational_scaling():
    factor = Fraction(3, 7)
    cases = [tetra_boundary_in_plane(), moved_vertex(generate(GeneratorSpec("delaunay2d", 2, 60, 3))),
             moved_vertex(generate(GeneratorSpec("freudenthal", 3, 2)))]
    for c in cases:
        scaled = Complex(c.dimension,
                         tuple(tuple(x * factor for x in p) for p in c.vertices),
                         c.simplices)
        before = validate(c, GEOMETRIC_STRICT)
        assert overlap_pairs(before)
        assert validate(scaled, GEOMETRIC_STRICT).issues == before.issues


def moved_vertex(c):
    """Move the last vertex of simplex 0 to the centroid of the middle
    simplex, which forces interior overlaps."""
    mid = simplex_coords(c, len(c.simplices) // 2)
    centroid = [sum(p[k] for p in mid) / len(mid) for k in range(c.dimension)]
    verts = list(c.vertices)
    verts[c.simplices[0].vertex_ids[-1]] = tuple(centroid)
    return Complex(c.dimension, tuple(verts), c.simplices)


def primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found if p * p <= k):
            found.append(k)
        k += 1
    return found


def coprime_strip(triangles, shift_every=0):
    """A strip of triangles between y = 0 and y = 1 whose vertices each
    carry their own prime denominator, so the LCM over the whole vertex
    table has tens of thousands of bits.  With shift_every = n, every n-th
    top vertex moves right by 3/2, past its neighbours."""
    cols = triangles // 2 + 1
    ps = primes(2 * cols)
    verts = []
    for k in range(cols):
        for row in (0, 1):
            p = ps[2 * k + row]
            x = Fraction(k * p + 1, p)
            if row and shift_every and k % shift_every == 0:
                x += Fraction(3, 2)
            verts.append((x, row))
    simplices = []
    for k in range(cols - 1):
        a = 2 * k
        simplices += [Simplex((a, a + 1, a + 2)), Simplex((a + 1, a + 2, a + 3))]
    return Complex(2, tuple(verts), tuple(simplices))


def test_coprime_denominator_strip():
    c = coprime_strip(2000)
    assert len(c.simplices) == 2000
    start = time.perf_counter()
    report = validate(c, GEOMETRIC_STRICT)
    elapsed = time.perf_counter() - start
    assert report.ok, report.summary()
    assert elapsed < 10.0, elapsed

    perturbed = coprime_strip(2000, shift_every=37)
    pairs = overlap_pairs(validate(perturbed, GEOMETRIC_STRICT))
    assert pairs
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == oracle_pairs(perturbed)


def test_tiny_gaps_with_huge_denominators_are_exact():
    # Two triangles separated, or overlapping, by 1/(3^80 * 7^40) along x.
    eps = Fraction(1, 3 ** 80 * 7 ** 40)
    for gap, overlap in ((eps, False), (Fraction(0), False), (-eps, True)):
        verts = ((0, 0), (1, Fraction(1, 2)), (0, 1),
                 (1 + gap, 0), (1 + gap, 1), (2, Fraction(1, 3)))
        c = Complex(2, verts, (Simplex((0, 1, 2)), Simplex((3, 4, 5))))
        rep = validate(c, GEOMETRIC_STRICT)
        assert bool(overlap_pairs(rep)) == overlap, gap
        assert bool(overlap_pairs(rep)) == oracle_interiors_overlap(
            list(verts[:3]), list(verts[3:]), 2)


def test_many_degenerate_simplices_reported_once_each():
    # 3000 collinear triangles plus one real one: every degenerate simplex
    # is reported and skipped by the overlap check.
    verts = tuple((k, 0) for k in range(3002)) + ((0, 1),)
    simplices = tuple(Simplex((k, k + 1, k + 2)) for k in range(3000)) + (Simplex((0, 1, 3002)),)
    rep = validate(Complex(2, verts, simplices), GEOMETRIC_STRICT)
    codes = [i.code for i in rep.issues]
    assert codes.count("degenerate-simplex") == 3000
    assert "interior-overlap" not in codes


# ---------------------------------------------------------------------------
# Pairs sharing a ridge (d - 1 vertex ids) on its boundary cases, and the
# order in which overlapping pairs are reported


def check_pairs_against_oracle(d, verts, pairs):
    """Each (ids_a, ids_b, overlap) over one vertex table: the strict report
    flags the pair exactly when the Fraction SAT oracle does, and the oracle
    agrees with the stated verdict."""
    vertices = verts
    for ids_a, ids_b, overlap in pairs:
        c = Complex(d, vertices, (Simplex(ids_a), Simplex(ids_b)))
        expected = oracle_interiors_overlap(simplex_coords(c, 0), simplex_coords(c, 1), d)
        assert expected == overlap, (ids_a, ids_b)
        assert bool(overlap_pairs(validate(c, GEOMETRIC_STRICT))) == overlap, (ids_a, ids_b)


def test_shared_vertex_with_edges_on_one_ray():
    # A = (0,0) (2,0) (1,2); B shares (0,0) and has an edge on the ray of A's
    # edge along +x, reaching past A's edge or ending inside it.
    verts = [(0, 0), (2, 0), (1, 2), (3, 0), (1, 0), (1, -2), (3, 1), (2, 1)]
    check_pairs_against_oracle(2, verts, [
        ((0, 1, 2), (0, 3, 5), False),  # B below the common ray
        ((0, 1, 2), (0, 3, 6), True),   # B above it, over A
        ((0, 1, 2), (0, 4, 5), False),
        ((0, 1, 2), (0, 4, 7), True),
    ])


def test_shared_vertex_with_edges_on_opposite_rays():
    # A's edge runs along +x from the shared vertex, B's along -x.
    verts = [(0, 0), (2, 0), (0, 2), (-2, 0), (0, -2), (-1, 2), (2, 1), (1, -1)]
    check_pairs_against_oracle(2, verts, [
        ((0, 1, 2), (0, 3, 4), False),  # B in the lower left quadrant
        ((0, 1, 2), (0, 3, 5), False),  # B upper left: touches A along x = 0
        ((0, 1, 2), (0, 3, 6), True),   # B's wedge reaches past +y into A
        ((0, 1, 2), (0, 4, 7), False),  # B below the x-axis
        ((0, 1, 2), (0, 1, 4), False),  # glued along +x, for contrast
    ])


def test_t_junction():
    # A vertex of one triangle lies inside an edge of the other: with the
    # shared vertex (0,0), on A's edge along +x or on its far edge, and
    # with no shared vertex at all.
    verts = [(0, 0), (4, 0), (2, 4), (2, 0), (3, -2), (3, 2), (-1, -3), (5, -3),
             (1, 2), (0, 4), (-2, 0)]
    check_pairs_against_oracle(2, verts, [
        ((0, 1, 2), (0, 3, 4), False),  # (2,0) inside A's edge, B below it
        ((0, 1, 2), (0, 3, 5), True),
        ((0, 1, 2), (3, 6, 7), False),  # no shared vertex, B below the edge
        ((0, 1, 2), (3, 4, 5), True),
        ((0, 1, 2), (0, 8, 9), False),  # (1,2) inside A's edge to (2,4)
        ((0, 1, 2), (8, 9, 10), False),
        ((0, 1, 2), (0, 5, 9), True),   # (3,2) inside A's far edge
    ])


def test_shared_edge_with_coplanar_apexes():
    # Tetrahedra sharing the edge (0,0,0)-(0,0,2); one apex of each lies in
    # the plane y = 0 through that edge, on one side of it or on opposite
    # sides.
    verts = [(0, 0, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (2, 0, 1), (0, -1, 1),
             (1, 1, 1), (-1, 0, 1), (0, 1, 0), (-1, -1, 1)]
    check_pairs_against_oracle(3, verts, [
        ((0, 1, 2, 3), (0, 1, 4, 5), False),  # one side; B below y = 0
        ((0, 1, 2, 3), (0, 1, 4, 6), True),   # one side; B over A
        ((0, 1, 2, 3), (0, 1, 5, 7), False),  # opposite sides, B in y < 0
        ((0, 1, 2, 3), (0, 1, 7, 8), False),  # opposite sides, touching A
        ((0, 1, 2, 3), (0, 1, 6, 7), True),   # opposite sides, B reaches A
        ((0, 1, 2, 3), (0, 1, 7, 9), False),
    ])


@pytest.fixture
def cone_calls(monkeypatch):
    """The size m of every `_cone_point` call that strict validation makes."""
    calls = []
    cone = model_module._cone_point
    monkeypatch.setattr(model_module, "_cone_point",
                        lambda zs, m: calls.append(m) or cone(zs, m))
    return calls


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_strict_validation_of_a_duplicate_simplex(d, cone_calls):
    # Simplices 0 and 2 are one simplex twice: all d + 1 ids shared, so no
    # facet plane leaves out a vertex outside the other simplex, and the
    # pair overlaps with no cone call.
    verts = [(0,) * d] + [tuple(int(k == axis) for k in range(d)) for axis in range(d)]
    verts.append((1,) * d if d > 1 else (2,))
    first = tuple(range(d + 1))
    c = Complex(d, verts,
                (Simplex(first), Simplex(tuple(range(1, d + 2))), Simplex(first)))
    facet = tuple(range(1, d + 1))
    assert validate(c, GEOMETRIC_STRICT) == ValidationReport(GEOMETRIC_STRICT, (
        Issue("duplicate-simplex", "simplices 0 and 2 are identical", (0, 2)),
        Issue("overglued-facet", f"facet {facet} shared by 3 simplices", (0, 1, 2)),
        Issue("interior-overlap", "simplices 0 and 2 have overlapping interiors", (0, 2)),
    ))
    assert cone_calls == []


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("rational", [False, True])
def test_ridge_pairs_match_fraction_sat_oracle(d, rational):
    """Random simplex pairs sharing exactly d - 1 vertex ids, the pairs the
    shared-ridge hyperplanes decide, on small coordinates that make
    touching and coplanar configurations common."""
    rng = random.Random(300 + 10 * d + rational)
    verdicts = [0, 0]
    for _ in range(400):
        verts = [tuple(random_coord(rng, rational) for _ in range(d)) for _ in range(d + 3)]
        ids_a = list(range(d + 1))
        ids_b = sorted(rng.sample(ids_a, d - 1) + [d + 1, d + 2])
        pts_a = [verts[v] for v in ids_a]
        pts_b = [verts[v] for v in ids_b]
        if is_degenerate(pts_a) or is_degenerate(pts_b):
            continue
        c = Complex(d, verts, (Simplex(tuple(ids_a)), Simplex(tuple(ids_b))))
        expected = oracle_interiors_overlap(pts_a, pts_b, d)
        assert bool(overlap_pairs(validate(c, GEOMETRIC_STRICT))) == expected, (pts_a, pts_b)
        verdicts[expected] += 1
    assert min(verdicts) >= 20, verdicts


# ---------------------------------------------------------------------------
# Strict validation in every dimension against a brute-force exact oracle


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row, closed form
    at 2×2; exact on any ring."""
    if len(rows) <= 2:
        if len(rows) == 2:
            (a, b), (c, e) = rows
            return a * e - b * c
        return rows[0][0] if rows else 1
    return sum((-1) ** j * rows[0][j] * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def normal_of(vectors, d):
    """A vector orthogonal to d - 1 vectors in Z^d: entry j is (-1)^j times
    the minor that leaves out column j, all zero when the vectors are
    dependent.  For d = 1 it is (1,)."""
    return tuple((-1) ** j * laplace_det([v[:j] + v[j + 1:] for v in vectors]) for j in range(d))


def brute_force_interiors_overlap(pts_a, pts_b, d):
    """Brute-force oracle in any d, for rational points.  A facet of A - B is
    spanned by d - 1 edge directions of A or of B, so the normals of every
    d - 1 of both simplices' edge directions include every facet normal of
    A - B, and the interiors are disjoint iff one of them separates A and B
    in the closed sense.  The points are first scaled by the LCM of all
    their denominators, a positive factor that changes no answer, so the
    search runs on integers."""
    scale = lcm(*(Fraction(x).denominator for p in pts_a + pts_b for x in p))
    pts_a, pts_b = ([tuple(int(x * scale) for x in p) for p in pts] for pts in (pts_a, pts_b))
    edges = sorted({tuple(q[k] - p[k] for k in range(d))
                    for pts in (pts_a, pts_b) for p, q in combinations(pts, 2)})
    for vectors in combinations(edges, d - 1):
        axis = normal_of(vectors, d)
        if not any(axis):
            continue
        proj_a = [sum(map(mul, axis, p)) for p in pts_a]
        proj_b = [sum(map(mul, axis, p)) for p in pts_b]
        if max(proj_a) <= min(proj_b) or max(proj_b) <= min(proj_a):
            return False
    return True


PRIME = 10 ** 9 + 7
CASES_BY_DIMENSION = {1: 300, 2: 300, 3: 300, 4: 200}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("rational", [False, True])
def test_strict_overlap_matches_brute_force_oracle_in_every_dimension(d, rational, cone_calls):
    """Random simplex pairs sharing 0..d vertex ids: the strict report flags
    exactly the pairs the oracle does.  Rational coordinates sit within
    2/(10^9+7) of small integers, so pairs that touch at the integer points
    are pushed into tiny overlaps or tiny gaps.  Only d >= 3 reaches the
    cone kernel, and only for pairs sharing s vertex ids with
    max(s, 1) < d - 1; for the others the facet hyperplanes through the
    shared vertices decide alone."""
    rng = random.Random(700 + 10 * d + rational)
    cone_shared = []  # the shared count of the pair behind each cone call

    def coord():
        x = Fraction(rng.randint(-3, 3))
        return x + Fraction(rng.randint(-2, 2), PRIME) if rational else x

    by_shared = {k: [0, 0] for k in range(d + 1)}  # [disjoint, overlapping]
    for _ in range(CASES_BY_DIMENSION[d]):
        shared = rng.randint(0, d)
        verts = [tuple(coord() for _ in range(d)) for _ in range(2 * (d + 1) - shared)]
        ids_a = list(range(d + 1))
        ids_b = sorted(rng.sample(ids_a, shared) + list(range(d + 1, len(verts))))
        pts_a = [verts[v] for v in ids_a]
        pts_b = [verts[v] for v in ids_b]
        if is_degenerate(pts_a) or is_degenerate(pts_b):
            continue
        c = Complex(d, verts, (Simplex(tuple(ids_a)), Simplex(tuple(ids_b))))
        expected = brute_force_interiors_overlap(pts_a, pts_b, d)
        calls_before = len(cone_calls)
        assert bool(overlap_pairs(validate(c, GEOMETRIC_STRICT))) == expected, (pts_a, pts_b)
        cone_shared += [shared] * (len(cone_calls) - calls_before)
        by_shared[shared][expected] += 1
    for k, (disjoint, overlapping) in by_shared.items():
        assert disjoint >= 3 and overlapping >= 3, (k, by_shared)
    if d <= 2:
        assert not cone_calls
    else:
        assert len(cone_calls) >= 10 and set(cone_calls) == {d + 1}, len(cone_calls)
    assert all(max(s, 1) < d - 1 for s in cone_shared), sorted(set(cone_shared))


@pytest.mark.parametrize("kind,size", [("fan", 30), ("freudenthal", 2)])
def test_valid_4d_instances_need_no_cone_call(kind, size, cone_calls):
    assert validate(generate(GeneratorSpec(kind, 4, size)), GEOMETRIC_STRICT).ok
    assert cone_calls == []


# ---------------------------------------------------------------------------
# Hostile geometry: many random simplices, most pairs of them overlapping,
# so most of strict validation's work is in the cone kernel


def random_simplices(d, n, seed=7):
    """n random simplices with integer vertices on [-100, 100]^d and
    disjoint vertex ids, seeded."""
    rng = random.Random(seed)
    verts = [tuple(rng.randint(-100, 100) for _ in range(d)) for _ in range(n * (d + 1))]
    simplices = tuple(Simplex(tuple(range(k * (d + 1), (k + 1) * (d + 1)))) for k in range(n))
    return Complex(d, verts, simplices)


def slice_cone_nonzero(zs, m):
    """The slice method the cone kernel replaced: one feasibility problem
    per slice {y_i = +-1}, up to 2m of them."""
    zs = [z for z in zs if any(z)]
    if not zs:
        return (1,) + (0,) * (m - 1)
    perp = _nullspace(zs, m)
    if perp:
        return perp[0]
    for i in range(m):
        rows = [z[:i] + z[i + 1:] for z in zs]
        for s in (1, -1):
            sol = _feasible_point(rows, [-s * z[i] for z in zs], m - 1)
            if sol is not None:
                sub_y, den = sol
                return tuple(sub_y[:i]) + (s * den,) + tuple(sub_y[i:])
    return None


def test_random_tetrahedra_overlaps_match_fraction_sat_oracle():
    c = random_simplices(3, 40)
    pairs = overlap_pairs(validate(c, GEOMETRIC_STRICT))
    assert len(pairs) > 100 and set(pairs) == oracle_pairs(c)


@pytest.mark.parametrize("d,n", [(3, 40), (4, 25)])
def test_random_simplices_report_matches_slice_kernel(d, n, monkeypatch):
    c = random_simplices(d, n)
    report = validate(c, GEOMETRIC_STRICT)
    assert len(overlap_pairs(report)) > 50
    calls = []
    monkeypatch.setattr(model_module, "_cone_point",
                        lambda zs, m: calls.append(m) or slice_cone_nonzero(zs, m))
    assert validate(Complex(d, c.vertices, c.simplices), GEOMETRIC_STRICT) == report
    assert len(calls) > 200


def test_200_random_tetrahedra_validate_in_budget():
    c = random_simplices(3, 200)
    t0 = time.perf_counter()
    report = validate(c, GEOMETRIC_STRICT)
    elapsed = time.perf_counter() - t0
    assert len(overlap_pairs(report)) > 5000
    assert elapsed < 8, elapsed
    print(f"\nPASS 200 random tetrahedra: {len(report.issues)} issues in {elapsed:.2f}s")


def test_100_random_4_simplices_validate_in_budget():
    c = random_simplices(4, 100)
    t0 = time.perf_counter()
    report = validate(c, GEOMETRIC_STRICT)
    elapsed = time.perf_counter() - t0
    assert len(report.issues) == 3022
    assert elapsed < 8, elapsed
    print(f"\nPASS 100 random 4-simplices: {len(report.issues)} issues in {elapsed:.2f}s")


def test_strict_validation_checks_no_rank(monkeypatch):
    # The rows of a pair of non-degenerate simplices have full rank, so
    # strict validation asks the cone's LP alone, with no nullspace.
    calls = []
    nullspace = geometry_module._nullspace
    monkeypatch.setattr(geometry_module, "_nullspace",
                        lambda rows, width: calls.append(width) or nullspace(rows, width))
    report = validate(random_simplices(3, 40), GEOMETRIC_STRICT)
    assert len(overlap_pairs(report)) > 100
    assert len(calls) == 0, len(calls)


def sweep_order(c):
    """Every pair of non-degenerate simplices whose bounding boxes' interiors
    meet, in the order of an x-sweep over the boxes sorted by lower corner
    (ties by simplex index): the order of the strict report."""
    d = c.dimension
    boxes = []
    for i in range(len(c.simplices)):
        pts = simplex_coords(c, i)
        if not is_degenerate(pts):
            boxes.append((tuple(min(p[k] for p in pts) for k in range(d)),
                          tuple(max(p[k] for p in pts) for k in range(d)), i))
    boxes.sort(key=lambda box: box[0])
    order = []
    for a, (lo_i, hi_i, i) in enumerate(boxes):
        for lo_j, hi_j, j in boxes[a + 1:]:
            if lo_j[0] >= hi_i[0]:
                break
            if all(x < y for x, y in zip(lo_j, hi_i)) and all(x < y for x, y in zip(lo_i, hi_j)):
                order.append((min(i, j), max(i, j)))
    return order


@pytest.mark.parametrize("kind,d,size", [
    ("delaunay2d", 2, 300), ("closed-fan", 2, 60), ("fan", 3, 40), ("freudenthal", 3, 2),
])
def test_overlap_report_order_is_the_sweep_order(kind, d, size):
    # freudenthal m = 2, not 3: moving the vertex leaves the m = 3 lattice
    # valid, so its report would pin no order.
    c = moved_vertex(generate(GeneratorSpec(kind, d, size)))
    pairs = overlap_pairs(validate(c, GEOMETRIC_STRICT))
    expected = oracle_pairs(c)
    assert pairs and set(pairs) == expected
    assert pairs == [pair for pair in sweep_order(c) if pair in expected]


def test_one_huge_simplex_among_small_ones():
    """A tetrahedron around a diagonal chain of 300 small ones: the report
    lists exactly its 300 pairs, in sweep order, and the grid behind the
    broad phase stays linear in size although the huge box crosses every
    cell the small boxes would ask for."""
    verts = [(-1, -1, -1), (9000, -1, -1), (-1, 9000, -1), (-1, -1, 9000)]
    simplices = [Simplex((0, 1, 2, 3))]
    for k in range(300):
        base = len(verts)
        verts += [(10 * k + dx, 10 * k + dy, 10 * k + dz)
                  for dx, dy, dz in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
        simplices.append(Simplex(tuple(range(base, base + 4))))
    c = Complex(3, verts, tuple(simplices))
    pairs = overlap_pairs(validate(c, GEOMETRIC_STRICT))
    assert set(pairs) == {(0, k) for k in range(1, 301)} == oracle_pairs(c)
    assert pairs == [pair for pair in sweep_order(c) if pair in set(pairs)]

    small = [((2 * k,) * 3, (2 * k + 1,) * 3, k + 1) for k in range(300)]
    boxes = [((0, 0, 0), (600, 600, 600), 0)] + small
    cells = _box_cells(boxes, 3)
    assert sum(map(len, cells.values())) <= 8 * len(boxes)


# ---------------------------------------------------------------------------
# Hub stars: the angular sweep per heavy ridge against every pair


def brute_force_report(c):
    """The geometric-strict report rebuilt from the combinatorial one plus
    `_interiors_overlap` over every pair of live simplices, listed in the
    order of their boxes' lower corners (ties by simplex index)."""
    d = c.dimension
    issues = validate(c, COMBINATORIAL).issues
    degenerate = {issue.where[0] for issue in issues if issue.code == "degenerate-simplex"}
    live = sorted((i for i in range(len(c.simplices)) if i not in degenerate),
                  key=lambda i: tuple(min(p[k] for p in simplex_coords(c, i)) for k in range(d)))
    entries = {}
    for i in live:
        pts = simplex_coords(c, i)
        q = lcm(*(Fraction(x).denominator for p in pts for x in p))
        entries[i] = (c.simplices[i].vertex_ids,
                      [tuple(int(x * q) for x in p) + (q,) for p in pts], [None] * (d + 1))
    for a, i in enumerate(live):
        for j in live[a + 1:]:
            if model_module._interiors_overlap(entries[i], entries[j], d):
                i_, j_ = min(i, j), max(i, j)
                issues += (Issue("interior-overlap",
                                 f"simplices {i_} and {j_} have overlapping interiors", (i_, j_)),)
    return ValidationReport(GEOMETRIC_STRICT, issues)


def double_winding_fan(k):
    """k triangles around the origin whose boundary walk winds twice: for odd
    k each steps two of k ring directions; for even k the walk visits the
    even directions, then the odd ones."""
    ring = generate(GeneratorSpec("closed-fan", 2, k)).vertices[1:]
    walk = list(range(0, k, 2)) + list(range(1, k, 2)) if k % 2 == 0 else \
        [(2 * t) % k for t in range(k)]
    simplices = tuple(Simplex(tuple(sorted((0, 1 + walk[t], 1 + walk[(t + 1) % k]))))
                      for t in range(k))
    return Complex(2, ((0, 0),) + tuple(ring), simplices)


def with_moved(c, v, delta):
    """c with vertex v shifted by delta."""
    verts = list(c.vertices)
    verts[v] = tuple(x + y for x, y in zip(verts[v], delta))
    return Complex(c.dimension, tuple(verts), c.simplices)


def with_ring_vertex_folded(c, v):
    """A ring fan with ring vertex v moved from (.., y, z) to (.., 0, -z),
    across the hub: its triangles or tetrahedra fold over their neighbours."""
    y, z = c.vertices[v][-2:]
    return with_moved(c, v, (0,) * (c.dimension - 2) + (-y, -2 * z))


def adjacent_hubs(k):
    """Two planar fans of k triangles on integer rings of radius 1000 whose
    hubs, vertices 0 and 1, are each a ring vertex of the other: their
    overlapping triangles through the edge (0, 1) share both hubs."""
    ring_a = [(round(1000 * cos(2 * pi * t / k)), round(1000 * sin(2 * pi * t / k))) for t in range(k)]
    ring_b = [(1000 + round(1000 * cos(pi + 2 * pi * t / k)), round(1000 * sin(pi + 2 * pi * t / k)))
              for t in range(k)]
    assert ring_a[0] == (1000, 0) and ring_b[0] == (0, 0)
    verts = [(0, 0)] + ring_a + ring_b[1:]
    id_b = [0] + list(range(k + 1, 2 * k))
    simplices = [tuple(sorted((0, 1 + t, 1 + (t + 1) % k))) for t in range(k)]
    simplices += [tuple(sorted((1, id_b[t], id_b[(t + 1) % k]))) for t in range(k)]
    return Complex(2, verts, tuple(map(Simplex, simplices)))


def hub_cases():
    hub = model_module.HUB
    cases = {f"double-winding-{k}": double_winding_fan(k) for k in (hub + 5, hub + 6)}
    for d in (3, 4):
        fan = generate(GeneratorSpec("fan", d, 40))
        ring = d - 1  # the first ring vertex: the hinge is vertices 0..d-2
        cases[f"fan-d{d}-moved-ring"] = with_ring_vertex_folded(fan, ring + 7)
        # The hinge's first vertex leaves the ring's plane outside the ring.
        cases[f"fan-d{d}-moved-hinge"] = with_moved(fan, 0, (0,) * (d - 1) + (5,))
        cases[f"fan-d{d}-duplicates"] = Complex(d, fan.vertices, fan.simplices + fan.simplices[5:8] * 2)
    closed = generate(GeneratorSpec("closed-fan", 2, 40))
    cases["closed-fan-duplicates"] = Complex(2, closed.vertices,
                                             closed.simplices + (closed.simplices[0],) * 3)
    cases["adjacent-hubs"] = adjacent_hubs(2 * hub)
    for k in (hub, hub + 1):
        for kind, d in (("closed-fan", 2), ("fan", 3)):
            c = generate(GeneratorSpec(kind, d, k))
            cases[f"{kind}-d{d}-{k}-moved"] = with_ring_vertex_folded(c, d + 1)
    return cases


HUB_CASES = hub_cases()


@pytest.mark.parametrize("label", HUB_CASES)
def test_hub_star_sweep_matches_every_pair(label):
    """The full strict report (codes, messages, where and order) equals a
    report built from `_interiors_overlap` over every pair of live
    simplices.  Every case holds overlaps inside a heavy ridge's star; in
    the adjacent hubs some overlapping pairs pass through both hubs, so
    both stars' sweeps report them."""
    c = HUB_CASES[label]
    report = validate(c, GEOMETRIC_STRICT)
    assert report == brute_force_report(c), label
    assert overlap_pairs(report), label


def test_hub_threshold():
    """A ridge in HUB live simplices is left to the box test; one in HUB + 1
    is heavy, in 2D (a vertex) and in 3D (an edge)."""
    hub = model_module.HUB
    for kind, d in (("closed-fan", 2), ("fan", 3)):
        for k in (hub, hub + 1):
            c = generate(GeneratorSpec(kind, d, k))
            live = list(range(k))
            ids = [s.vertex_ids for s in c.simplices]
            stars = model_module._hub_stars(live, ids, list(zip(*ids)))
            assert stars == ({} if k == hub else {tuple(range(d - 1)): live}), (kind, k)
