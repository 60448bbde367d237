import re
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from simplexcolor.errors import InputError
from simplexcolor.geometry import Hyperplane, side_of
from simplexcolor.dual import (
    CliqueReport,
    analyze_max_clique_configuration,
    build_dual,
    find_all_cliques,
    find_clique,
    stats,
)
from simplexcolor.coloring import color, peel, verify_coloring
from simplexcolor.model import Coloring, Complex, Simplex, GEOMETRIC_STRICT, validate
from simplexcolor.render import RenderOptions, render_svg


def unit_triangle():
    return Complex(2, ((0, 0), (1, 0), (0, 1)), (Simplex((0, 1, 2)),))


def fan_k3():
    verts = ((0, 0), (2, 0), (-1, 2), (-1, -2))
    return Complex(2, verts, (Simplex((0, 1, 2)), Simplex((0, 2, 3)), Simplex((0, 1, 3))))


def tetra_boundary_in_plane():
    verts = ((0, 0), (4, 0), (0, 4), (1, 1))
    return Complex(
        2, verts,
        tuple(Simplex(ids) for ids in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
    )


def four_simplex_boundary_in_space():
    # All five 4-subsets of five points: abstract, dual K_5, degree 4.
    verts = (
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
    )
    return Complex(
        3, verts,
        tuple(Simplex(ids) for ids in combinations(range(5), 4)),
    )


def freudenthal_unit_cube():
    # The six path tetrahedra of the unit cube, one per coordinate order.
    corners = sorted({(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)})
    index = {c: i for i, c in enumerate(corners)}
    simplices = []
    for perm in permutations(range(3)):
        walk = [(0, 0, 0)]
        for axis in perm:
            prev = list(walk[-1])
            prev[axis] += 1
            walk.append(tuple(prev))
        simplices.append(Simplex(tuple(sorted(index[c] for c in walk))))
    verts = corners
    return Complex(3, verts, tuple(simplices))


def four_tetrahedra_k4(fifth_z=2):
    """Four tetrahedra whose dual is K_4: base tet plus three around the
    segment from the apex to a fifth point, by default above it."""
    verts = (
        (Fraction(1, 4), Fraction(1, 4), 1),   # apex
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (Fraction(1, 4), Fraction(1, 4), fifth_z),
    )
    simplices = tuple(
        Simplex(ids) for ids in ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4))
    )
    return Complex(3, verts, simplices)


class TestBuildDual:
    def test_single_simplex(self):
        g = build_dual(unit_triangle())
        assert len(g) == 1
        assert g == ((),)

    def test_fan_is_k3(self):
        g = build_dual(fan_k3())
        assert len(g) == 3
        assert all(len(g[i]) == 2 for i in range(3))
        assert find_clique(g, 3) == [0, 1, 2]

    def test_freudenthal_cube_matches_brute_force(self):
        c = freudenthal_unit_cube()
        g = build_dual(c)
        expected = set()
        for i, j in combinations(range(6), 2):
            shared = set(c.simplices[i].vertex_ids) & set(c.simplices[j].vertex_ids)
            if len(shared) == 3:
                expected.add((i, j))
        got = set(_edges(g))
        assert got == expected
        assert len(got) == 6  # a 6-cycle around the main diagonal
        assert all(len(g[i]) == 2 for i in range(6))

    def test_edges_join_simplices_sharing_a_facet(self):
        for c in (fan_k3(), freudenthal_unit_cube(), four_tetrahedra_k4()):
            g = build_dual(c)
            assert _edges(g)
            for i, j in _edges(g):
                a = set(c.simplices[i].vertex_ids)
                b = set(c.simplices[j].vertex_ids)
                assert i < j and len(a & b) == c.dimension

    def test_graph_holds_neighbor_ids_only(self):
        g = build_dual(freudenthal_unit_cube())
        assert type(g) is tuple and len(g) == 6
        for nbrs in g:
            assert type(nbrs) is tuple and list(nbrs) == sorted(nbrs)
            assert all(type(j) is int for j in nbrs)

    def test_overglued_rejected(self):
        verts = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, -1))
        c = Complex(
            2, verts,
            (Simplex((0, 1, 2)), Simplex((1, 2, 3)), Simplex((1, 2, 4))),
        )
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(InputError, match="shared by 3 simplices"):
                build_dual(c)
        assert "dual" not in vars(c)

    def test_one_cached_graph_per_complex(self):
        c = fan_k3()
        g = build_dual(c)
        assert build_dual(c) is g and c.dual is g
        # An equal complex builds its own, equal graph.
        twin = Complex(2, c.vertices, c.simplices)
        assert build_dual(twin) is not g and build_dual(twin) == g

    @pytest.mark.parametrize("reader", ["color", "verify_coloring", "render_svg"])
    def test_pipeline_stages_share_the_graph(self, reader):
        c, col = fan_k3(), Coloring((0, 1, 2))
        call = {
            "color": lambda: color(c, peel(c)),
            "verify_coloring": lambda: verify_coloring(c, col),
            "render_svg": lambda: render_svg(c, col, RenderOptions(show_dual=True)),
        }[reader]
        call()
        g = vars(c)["dual"]
        call()
        assert build_dual(c) is g

    def test_input_order_invariance(self):
        c = fan_k3()
        g1 = build_dual(c)
        for perm in permutations(range(3)):
            c2 = Complex(2, c.vertices, tuple(c.simplices[p] for p in perm))
            g2 = build_dual(c2)
            # relabel g2's edges back through the permutation
            back = {new: old for new, old in enumerate(perm)}
            remapped = {
                tuple(sorted((back[i], back[j]))) for i, j in _edges(g2)
            }
            original = set(_edges(g1))
            assert remapped == original


class TestStats:
    def test_triangle_complex_full_degree(self):
        g = build_dual(tetra_boundary_in_plane())
        st = stats(g, 2)
        assert st.max_degree == 3
        assert st.clique_exclusion_bound == 3  # floor(3/4 * 5)
        assert st.chromatic_upper_bound == 3
        assert st.component_count == 1

    def test_tetra_complex_full_degree(self):
        g = build_dual(four_simplex_boundary_in_space())
        st = stats(g, 3)
        assert st.max_degree == 4
        assert st.clique_exclusion_bound == 4  # floor(4/5 * 6)

    def test_single_simplex_bound_not_applied(self):
        g = build_dual(unit_triangle())
        st = stats(g, 2)
        assert st.max_degree == 0
        assert st.clique_exclusion_bound is None
        assert st.chromatic_upper_bound == 1

    def test_component_count(self):
        verts = (
            (0, 0), (1, 0), (0, 1),
            (5, 5), (6, 5), (5, 6),
        )
        c = Complex(2, verts, (Simplex((0, 1, 2)), Simplex((3, 4, 5))))
        assert stats(build_dual(c), 2).component_count == 2


class TestFindClique:
    def test_fan_has_k3(self):
        g = build_dual(fan_k3())
        assert find_clique(g, 3) == [0, 1, 2]

    def test_valid_complexes_have_no_kd2(self):
        for c, d in ((fan_k3(), 2), (freudenthal_unit_cube(), 3)):
            assert find_clique(build_dual(c), d + 2) is None

    def test_abstract_boundary_has_kd2(self):
        g = build_dual(tetra_boundary_in_plane())
        assert find_clique(g, 4) == [0, 1, 2, 3]
        g5 = build_dual(four_simplex_boundary_in_space())
        assert find_clique(g5, 5) == [0, 1, 2, 3, 4]

    def test_r_below_two_rejected(self):
        with pytest.raises(InputError):
            find_clique(build_dual(unit_triangle()), 1)

    def test_find_all_k3_in_k4(self):
        g = build_dual(tetra_boundary_in_plane())
        assert len(find_all_cliques(g, 3)) == 4


class TestAnalyzeKd1:
    def test_fan_k3_configuration(self):
        c = fan_k3()
        rep = analyze_max_clique_configuration(c, [0, 1, 2])
        assert rep.vertex_count_ok
        assert rep.distinct_vertex_ids == frozenset({0, 1, 2, 3})
        assert rep.halfspace_condition_ok

    def test_four_tetrahedra_k4(self):
        c = four_tetrahedra_k4()
        assert validate(c, GEOMETRIC_STRICT).ok
        g = build_dual(c)
        clique = find_clique(g, 4)
        assert clique == [0, 1, 2, 3]
        rep = analyze_max_clique_configuration(c, clique)
        assert rep.vertex_count_ok
        assert len(rep.distinct_vertex_ids) == 5
        assert rep.halfspace_condition_ok
        # The fifth point sits on the same side of the base plane z=0 as
        # the apex: both strictly above.
        base = Hyperplane((0, 0, 1), 0)
        assert side_of(base, c.vertices[0]) == 1
        assert side_of(base, c.vertices[4]) == 1

    @pytest.mark.parametrize("fifth_z", [-1, 0])
    def test_four_tetrahedra_fifth_point_below_or_on_base(self, fifth_z):
        # The same K_4 labels with the fifth point moved below the base
        # plane z = 0, or onto it: the side condition fails either way.
        rep = analyze_max_clique_configuration(four_tetrahedra_k4(fifth_z), [0, 1, 2, 3])
        assert rep.vertex_count_ok
        assert not rep.halfspace_condition_ok

    def test_halfspace_flag_false_for_folded_fan(self):
        # Same labels as the K_3 fan but the third outer point pulled inside
        # the wedge: combinatorially a clique, geometrically overlapping,
        # and the side condition fails.
        verts = ((0, 0), (2, 0), (-1, 2), (1, 1))
        c = Complex(
            2, verts,
            (Simplex((0, 1, 2)), Simplex((0, 2, 3)), Simplex((0, 1, 3))),
        )
        rep = analyze_max_clique_configuration(c, [0, 1, 2])
        assert rep.vertex_count_ok
        assert not rep.halfspace_condition_ok

    def test_not_a_clique_rejected(self):
        # The cube's six tetrahedra form a ring in the dual graph, so no
        # four of them are pairwise glued.
        c = freudenthal_unit_cube()
        g = build_dual(c)
        non_adjacent = [0, 1, 2, 3]
        assert not _pairwise_adjacent(g, non_adjacent)
        with pytest.raises(InputError, match=r"^simplices 0 and 3 do not share a facet; "
                                             r"input is not a clique$"):
            analyze_max_clique_configuration(c, non_adjacent)

    def test_wrong_size_rejected(self):
        with pytest.raises(InputError):
            analyze_max_clique_configuration(fan_k3(), [0, 1])

    @pytest.mark.parametrize("verts, clique, message", [
        (None, [0, 0, 1], "expected 3 distinct simplex indices, got [0, 0, 1]"),
        (None, [0, 1, 3], "simplex index 3 out of range"),
        (None, [-1, 0, 1], "simplex index -1 out of range"),
        # Vertices 1 and 2 coincide, so the base facet (1, 2) spans no line.
        (((0, 0), (2, 0), (2, 0), (-1, -2)), [0, 1, 2], "vertices [1, 2] do not span a hyperplane"),
    ], ids=["repeated-index", "index-past-end", "negative-index", "flat-base"])
    def test_refusal_messages(self, verts, clique, message):
        c = fan_k3() if verts is None else Complex(2, verts, fan_k3().simplices)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            analyze_max_clique_configuration(c, clique)

    def test_clique_on_one_edge_fails_the_vertex_count(self):
        # Three triangles on the edge (0, 1) are pairwise glued, so they form
        # a K_3, but they span five vertices; the side test is not reached.
        verts = ((0, 0), (1, 0), (0, 1), (1, 1), (0, -1))
        c = Complex(2, verts, ((0, 1, 2), (0, 1, 3), (0, 1, 4)))
        rep = analyze_max_clique_configuration(c, [2, 0, 1])
        assert rep == CliqueReport((0, 1, 2), frozenset(range(5)), False, False)


def _edges(g):
    """Each edge of a dual graph once, as (i, j) with i < j."""
    return [(i, j) for i, nbrs in enumerate(g) for j in nbrs if i < j]


def _pairwise_adjacent(g, nodes):
    return all(b in g[a] for a in nodes for b in nodes if a != b)
