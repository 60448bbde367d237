import json
import random
import re
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from simplexcolor import coloring
from simplexcolor.coloring import (
    COMBINATORIAL,
    OracleResult,
    _find_exposed_geometric,
    _try_k_coloring,
    GEOMETRIC,
    PeelCertificate,
    certificate_from_dict,
    certificate_to_dict,
    color,
    load_certificate,
    exact_chromatic,
    peel,
    verify_coloring,
)
from simplexcolor.dual import build_dual
from simplexcolor.errors import InputError, UnrealizableComplexError
from simplexcolor.generators import GeneratorSpec, generate
from simplexcolor.model import (
    GEOMETRIC_STRICT,
    Coloring,
    Complex,
    Facet,
    Simplex,
    validate,
)


def unit_triangle():
    return Complex(2, ((0, 0), (1, 0), (0, 1)), (Simplex((0, 1, 2)),))


def two_glued():
    verts = ((0, 0), (1, 0), (0, 1), (1, 1))
    return Complex(2, verts, (Simplex((0, 1, 2)), Simplex((1, 2, 3))))


def fan_k3():
    verts = ((0, 0), (2, 0), (-1, 2), (-1, -2))
    return Complex(2, verts, (Simplex((0, 1, 2)), Simplex((0, 2, 3)), Simplex((0, 1, 3))))


def closed_fan(ring):
    """Triangles fully surrounding the origin; ring = star-shaped points."""
    n = len(ring)
    verts = ((0, 0),) + tuple((x, y) for x, y in ring)
    simplices = tuple(
        Simplex(tuple(sorted((0, 1 + i, 1 + (i + 1) % n)))) for i in range(n)
    )
    return Complex(2, verts, simplices)


RING6 = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
RING5 = [(3, 0), (1, 3), (-3, 1), (-2, -2), (2, -3)]


def triangle_strip(n):
    """Staircase strip of n triangles; dual graph is a path."""
    verts = []
    x = [0, 0]
    for j in range(n + 2):
        verts.append(tuple(x))
        x = list(x)
        x[j % 2] += 1
    simplices = tuple(Simplex((j, j + 1, j + 2)) for j in range(n))
    return Complex(2, tuple(verts), simplices)


def tetra_boundary_in_plane():
    verts = ((0, 0), (4, 0), (0, 4), (1, 1))
    return Complex(
        2, verts,
        tuple(Simplex(ids) for ids in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
    )


def four_tetrahedra_k4():
    verts = (
        (Fraction(1, 4), Fraction(1, 4), 1),
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (Fraction(1, 4), Fraction(1, 4), 2),
    )
    return Complex(
        3, verts,
        tuple(Simplex(ids) for ids in ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4))),
    )


def pinwheel():
    """Five tetrahedra around the x axis with no facet at the apex on the
    hull of its star: forces the nested-hull descent to recurse."""
    blade = [(1, 1, 0), (1, 2, 2), (1, -1, 5)]  # a, b, c (hook)
    rot = lambda p: (p[0], -p[2], p[1])  # quarter turn in the (y, z) plane
    a0, b0, c0 = blade
    m = (1, 1, 1)
    pts = [(0, 0, 0), a0, b0, c0, m]
    for k in range(1, 4):
        a0, b0, c0 = rot(a0), rot(b0), rot(c0)
        pts += [a0, b0, c0]
    # ids: v=0 a0=1 b0=2 c0=3 m=4, then (a,b,c) per blade
    simplices = (
        Simplex((0, 1, 3, 4)),        # v a0 c0 m
        Simplex((0, 2, 3, 4)),        # v b0 c0 m
        Simplex((0, 5, 6, 7)),
        Simplex((0, 8, 9, 10)),
        Simplex((0, 11, 12, 13)),
    )
    return Complex(3, pts, simplices)


def brute_chromatic(g, max_k=6):
    """Exhaustive chromatic number for tiny graphs: try every assignment."""
    n = len(g)
    if n == 0:
        return 0
    edges = [(i, j) for i, nbrs in enumerate(g) for j in nbrs if i < j]
    for k in range(1, max_k + 1):
        for assignment in product(range(k), repeat=n):
            if all(assignment[i] != assignment[j] for i, j in edges):
                return k
    raise AssertionError("no coloring found within max_k")


def replay_check(c, cert):
    """Peel-soundness oracle: every witness facet has multiplicity 1 in the
    residual complex at its step, recomputed from scratch."""
    remaining = set(range(len(c.simplices)))
    for i, witness in cert.steps:
        assert i in remaining
        owners = [
            j for j in remaining
            if set(witness.vertex_ids) <= set(c.simplices[j].vertex_ids)
        ]
        assert owners == [i], (i, witness)
        remaining.discard(i)
    assert not remaining


class TestFindExposedCombinatorial:
    """The combinatorial peel's first step: the lowest-index simplex with
    an exposed facet, and its lexicographically smallest exposed facet."""

    def test_single_simplex(self):
        i, f = peel(unit_triangle()).steps[0]
        assert i == 0
        assert f == Facet((0, 1))  # lexicographically smallest facet

    def test_fan_tie_break(self):
        c = fan_k3()
        i, f = peel(c).steps[0]
        assert i == 0
        assert len(c.facet_owners[f.vertex_ids]) == 1

    def test_abstract_boundary_errors(self):
        with pytest.raises(UnrealizableComplexError) as err:
            peel(tetra_boundary_in_plane())
        assert err.value.residual_size == 4

    def test_all_facets_glued_by_enumeration(self):
        # independent confirmation that the abstract boundary has no exposed
        # facet: every edge of every triangle owned twice
        owners = tetra_boundary_in_plane().facet_owners
        assert all(len(own) == 2 for own in owners.values())
        assert len(owners) == 6


class TestFindExposedGeometric:
    def test_single_simplex_trace(self):
        c = unit_triangle()
        i, f, trace = _find_exposed_geometric(c, list(range(len(c.simplices))))
        assert i == 0
        assert len(trace) == 1
        assert trace[0].subset_size == 1

    def test_fan(self):
        c = fan_k3()
        i, f, trace = _find_exposed_geometric(c, list(range(len(c.simplices))))
        assert len(c.facet_owners[f.vertex_ids]) == 1
        assert trace[0].anchor_ids == (3,)  # lex-min vertex is (-1, -2)

    def test_partial_fan_extreme_triangle(self):
        # Hull vertex whose star edges are not on the global hull; the
        # returned simplex is an angular extreme of the star.
        verts = (
            (0, 0), (1, -1), (3, 0), (1, 1),
            (1, -10), (10, -10), (10, 10),
        )
        c = Complex(
            2, verts,
            (Simplex((0, 1, 2)), Simplex((0, 2, 3)), Simplex((4, 5, 6))),
        )
        assert validate(c, GEOMETRIC_STRICT).ok
        i, f, trace = _find_exposed_geometric(c, list(range(len(c.simplices))))
        assert i in (0, 1)
        assert 0 in f.vertex_ids
        assert len(c.facet_owners[f.vertex_ids]) == 1

    def test_pinwheel_recurses(self):
        c = pinwheel()
        assert validate(c, GEOMETRIC_STRICT).ok
        i, f, trace = _find_exposed_geometric(c, list(range(len(c.simplices))))
        assert len(trace) >= 2
        sizes = [t.subset_size for t in trace]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert len(c.facet_owners[f.vertex_ids]) == 1
        # the descent anchors on a hook edge shared by the split blade
        assert trace[0].anchor_ids == (0,)
        assert trace[1].anchor_ids == (0, 3)
        assert trace[1].subset_size == 2

    def test_abstract_boundary_unrealizable(self):
        c = tetra_boundary_in_plane()
        with pytest.raises(UnrealizableComplexError):
            _find_exposed_geometric(c, list(range(len(c.simplices))))

    def test_nothing_alive(self):
        with pytest.raises(InputError, match="^empty complex has no exposed simplex$"):
            _find_exposed_geometric(unit_triangle(), [])


class TestPeel:
    @pytest.mark.parametrize("method", [COMBINATORIAL, GEOMETRIC])
    def test_strip_peels_fully(self, method):
        c = triangle_strip(7)
        cert = peel(c, method)
        assert len(cert.steps) == 7
        assert cert.method == method
        replay_check(c, cert)

    @pytest.mark.parametrize("method", [COMBINATORIAL, GEOMETRIC])
    def test_fan_peels(self, method):
        cert = peel(fan_k3(), method)
        assert len(cert.steps) == 3
        replay_check(fan_k3(), cert)

    @pytest.mark.parametrize("method", [COMBINATORIAL, GEOMETRIC])
    def test_closed_fans(self, method):
        for ring in (RING5, RING6):
            c = closed_fan(ring)
            assert validate(c, GEOMETRIC_STRICT).ok
            cert = peel(c, method)
            replay_check(c, cert)

    @pytest.mark.parametrize("method", [COMBINATORIAL, GEOMETRIC])
    def test_pinwheel_peels(self, method):
        c = pinwheel()
        cert = peel(c, method)
        replay_check(c, cert)

    @pytest.mark.parametrize("method", [COMBINATORIAL, GEOMETRIC])
    def test_abstract_boundary_raises(self, method):
        with pytest.raises(UnrealizableComplexError):
            peel(tetra_boundary_in_plane(), method)

    @pytest.mark.parametrize("method", [COMBINATORIAL, GEOMETRIC])
    def test_overglued_facet_rejected(self, method):
        # The edge (1, 2) is in three triangles.  The geometric descent
        # alone would peel this complex; peel rejects it before any finder.
        verts = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, -1))
        c = Complex(2, verts, (Simplex((0, 1, 2)), Simplex((1, 2, 3)), Simplex((1, 2, 4))))
        with pytest.raises(InputError, match=r"^invalid complex: facet \(1, 2\) shared by 3 simplices$"):
            peel(c, method)

    def test_determinism(self):
        c = closed_fan(RING6)
        assert peel(c) == peel(c)
        assert peel(c, GEOMETRIC) == peel(c, GEOMETRIC)

    def test_unknown_method(self):
        with pytest.raises(InputError):
            peel(unit_triangle(), "magic")

    def test_certificate_json_round_trip(self):
        cert = peel(fan_k3())
        assert certificate_from_dict(certificate_to_dict(cert)) == cert

    def test_certificate_json_syntax_error_positioned(self, tmp_path):
        p = tmp_path / "cert.json"
        p.write_text('{"method": "combinatorial",\n  "steps": [,]}')
        with pytest.raises(InputError, match=r"cert\.json: invalid JSON at line 2 column 13: "):
            load_certificate(str(p))


def test_long_certificate_facet_is_not_echoed(tmp_path):
    p = tmp_path / "cert.json"
    p.write_text(json.dumps({"method": "combinatorial", "steps": [[0, list(range(30000, 0, -1))]]}))
    with pytest.raises(InputError, match="facet ids must be strictly increasing") as info:
        load_certificate(str(p))
    message = str(info.value)
    assert message.startswith(f"{p}: ") and message.count(str(p)) == 1 and len(message) < 1000


@pytest.mark.parametrize("data, field", [
    ({"steps": []}, "method"), ({"method": "combinatorial"}, "steps"), ([], "method"),
])
def test_certificate_missing_field_named(tmp_path, data, field):
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(data))
    message = f"{p}: certificate JSON is missing the {field!r} field"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_certificate(str(p))


@pytest.mark.parametrize("method", [[1, {"x": None}], 7, "bogus"])
def test_certificate_method_refused(tmp_path, method):
    # A real peel's steps under any method but the two peels' names.
    c = generate(GeneratorSpec("fan", 3, 12))
    data = certificate_to_dict(peel(c))
    data["method"] = method
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(data))
    message = (f"{p}: certificate 'method' must be 'combinatorial' or 'geometric', "
               f"got {method!r}")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_certificate(str(p))


@pytest.mark.parametrize("steps", [
    "xx", [[0]], [[0, [1, 2], 3]], [[0.5, [1, 2]]], [[True, [1, 2]]],
    [[0, [1, 2.0]]], [[0, [False, 1]]], [[0, "12"]], [[0, [2, 1]]], 7,
])
def test_malformed_certificate_steps_rejected(tmp_path, steps):
    p = tmp_path / "cert.json"
    p.write_text(json.dumps({"method": "combinatorial", "steps": steps}))
    with pytest.raises(InputError):
        load_certificate(str(p))


class TestColor:
    def test_single_simplex(self):
        c = unit_triangle()
        assert color(c, peel(c)).colors == (0,)

    def test_two_glued(self):
        c = two_glued()
        col = color(c, peel(c))
        assert sorted(col.colors) == [0, 1]

    def test_fan_uses_three(self):
        c = fan_k3()
        col = color(c, peel(c))
        assert sorted(set(col.colors)) == [0, 1, 2]
        ok, violations = verify_coloring(c, col)
        assert ok and not violations

    @pytest.mark.parametrize("method", [COMBINATORIAL, GEOMETRIC])
    def test_method_agreement(self, method):
        for c in (unit_triangle(), two_glued(), fan_k3(), triangle_strip(9),
                  closed_fan(RING5), closed_fan(RING6), four_tetrahedra_k4(),
                  pinwheel()):
            col = color(c, peel(c, method))
            ok, violations = verify_coloring(c, col)
            assert ok, violations
            assert max(col.colors) <= c.dimension

    def test_incomplete_certificate_rejected(self):
        c = two_glued()
        cert = PeelCertificate(((0, Facet((0, 1))),), COMBINATORIAL)
        with pytest.raises(InputError):
            color(c, cert)

    @pytest.mark.parametrize("method", [COMBINATORIAL, GEOMETRIC])
    def test_forged_certificates_refused(self, method):
        # Every witness set to the first step's facet, and the peel order
        # reversed.  The reverse pass names the last bad step in peel order.
        c = closed_fan(RING6)
        cert = peel(c, method)
        assert verify_coloring(c, color(c, cert))[0]
        first = cert.steps[0][1]
        same_witness = PeelCertificate(tuple((i, first) for i, _ in cert.steps), method)
        with pytest.raises(InputError, match=rf"^certificate step 5 does not remove simplex "
                                             rf"{cert.steps[5][0]} through an exposed facet "
                                             rf"{re.escape(str(first.vertex_ids))}$"):
            color(c, same_witness)
        with pytest.raises(InputError, match=r"^certificate step 4 does not remove simplex "):
            color(c, PeelCertificate(cert.steps[::-1], method))

    @pytest.mark.parametrize("steps, bad", [
        (((0, (0, 1)), (1, (0, 3))), 1),    # a facet no simplex owns
        (((0, (0, 1)), (1, (0, 1))), 1),    # simplex 0's facet
        (((0, (0, 1)), (-1, (1, 2))), 1),   # simplex 1 by negative indexing
        (((0, (0, 1)), (2, (1, 2))), 1),    # past the end
        (((0, (0, 2)), (0, (0, 2))), 0),    # simplex 0 twice
        (((1, (1, 2)), (0, (0, 1))), 0),    # shared with simplex 0, removed later
    ], ids=["unowned-facet", "other-simplex-facet", "negative-index", "index-past-end",
            "repeated-simplex", "facet-shared-with-a-later-step"])
    def test_bad_step_refused(self, steps, bad):
        # two_glued is removed through (0, 1), then through any facet; the
        # two triangles share (1, 2).
        c = two_glued()
        valid = PeelCertificate(((0, Facet((0, 1))), (1, Facet((1, 2)))), COMBINATORIAL)
        assert color(c, valid).colors == (1, 0)
        cert = PeelCertificate(tuple((i, Facet(f)) for i, f in steps), COMBINATORIAL)
        i, f = steps[bad]
        message = f"certificate step {bad} does not remove simplex {i} through an exposed facet {f}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            color(c, cert)


class TestVerify:
    def test_valid_single(self):
        ok, v = verify_coloring(unit_triangle(), Coloring((0,)))
        assert ok and not v

    def test_conflict_names_facet(self):
        ok, violations = verify_coloring(two_glued(), Coloring((0, 0)))
        assert not ok
        assert violations == [("conflict", 0, 1, (1, 2))]
        # One color everywhere: every glued pair conflicts, and each
        # conflict names the ids the pair shares, found here by brute force.
        for spec in (GeneratorSpec("delaunay2d", 2, 60, 3), GeneratorSpec("freudenthal", 3, 2),
                     GeneratorSpec("path", 4, 12)):
            c = generate(spec)
            ok, violations = verify_coloring(c, Coloring((0,) * len(c.simplices)))
            expected = []
            for i, j in combinations(range(len(c.simplices)), 2):
                shared = set(c.simplices[i].vertex_ids) & set(c.simplices[j].vertex_ids)
                if len(shared) == c.dimension:
                    expected.append(("conflict", i, j, tuple(sorted(shared))))
            assert not ok and violations == expected, spec

    def test_identical_simplices_conflict_once_per_facet(self):
        # verify_coloring does not validate: two copies of one triangle
        # share all three of its facets.
        c = Complex(2, unit_triangle().vertices, (Simplex((0, 1, 2)),) * 2)
        ok, violations = verify_coloring(c, Coloring((1, 1)))
        assert not ok
        assert violations == [("conflict", 0, 1, (0, 1)), ("conflict", 0, 1, (0, 2)),
                              ("conflict", 0, 1, (1, 2))]

    def test_out_of_range_color(self):
        ok, violations = verify_coloring(unit_triangle(), Coloring((5,)))
        assert not ok
        assert violations[0][0] == "color-range"

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            verify_coloring(two_glued(), Coloring((0,)))


class TestExactChromatic:
    def test_k3_fan_needs_three(self):
        g = build_dual(fan_k3())
        res = exact_chromatic(g)
        assert res.chromatic_number == 3
        assert res.chromatic_number == brute_chromatic(g)

    def test_even_closed_fan_two(self):
        g = build_dual(closed_fan(RING6))
        res = exact_chromatic(g)
        assert res.chromatic_number == 2
        assert res.chromatic_number == brute_chromatic(g)

    def test_odd_closed_fan_three(self):
        g = build_dual(closed_fan(RING5))
        assert exact_chromatic(g).chromatic_number == 3

    def test_abstract_k4_needs_four(self):
        g = build_dual(tetra_boundary_in_plane())
        res = exact_chromatic(g)
        assert res.chromatic_number == 4
        assert res.chromatic_number == brute_chromatic(g)

    def test_strip_needs_two(self):
        g = build_dual(triangle_strip(5))
        assert exact_chromatic(g).chromatic_number == 2

    def test_optimal_coloring_is_proper(self):
        g = build_dual(closed_fan(RING5))
        res = exact_chromatic(g)
        for i, nbrs in enumerate(g):
            for j in nbrs:
                assert res.optimal_coloring.colors[i] != res.optimal_coloring.colors[j]
        assert len(set(res.optimal_coloring.colors)) == res.chromatic_number

    def test_node_limit_refusal(self):
        g = build_dual(triangle_strip(45))
        with pytest.raises(InputError):
            exact_chromatic(g)
        assert exact_chromatic(g, node_limit=45).chromatic_number == 2

    def test_empty_graph(self):
        g = build_dual(Complex(2, (), ()))
        assert exact_chromatic(g).chromatic_number == 0

    def test_four_tetrahedra_chi_four(self):
        c = four_tetrahedra_k4()
        res = exact_chromatic(build_dual(c))
        assert res.chromatic_number == 4
        col = color(c, peel(c))
        assert len(set(col.colors)) == 4


# The scan-based DSATUR selection as it was before the heap: the reference
# the heap-backed picks are compared against.


def _ref_dsatur_pick(g, colors, neighbor_colors):
    return max(
        (v for v in range(len(g)) if colors[v] < 0),
        key=lambda v: (len(neighbor_colors[v]), len(g[v]), -v),
    )


def _ref_greedy_dsatur(g):
    n = len(g)
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    for _ in range(n):
        best = _ref_dsatur_pick(g, colors, neighbor_colors)
        chosen = next(k for k in range(n + 1) if k not in neighbor_colors[best])
        colors[best] = chosen
        for w in g[best]:
            neighbor_colors[w].add(chosen)
    return colors


def _ref_try_k_coloring(g, k):
    n = len(g)
    if n == 0:
        return []
    if k <= 0:
        return None
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    stack = []
    v, used, start = _ref_dsatur_pick(g, colors, neighbor_colors), 0, 0
    while True:
        limit = min(k, used + 1)
        col = next((x for x in range(start, limit) if x not in neighbor_colors[v]), None)
        if col is not None:
            colors[v] = col
            delta = []
            for w in g[v]:
                if col not in neighbor_colors[w]:
                    neighbor_colors[w].add(col)
                    delta.append(w)
            stack.append((v, used, col, delta))
            if len(stack) == n:
                return list(colors)
            v, used, start = _ref_dsatur_pick(g, colors, neighbor_colors), max(used, col + 1), 0
            continue
        if not stack:
            return None
        v, used, col, delta = stack.pop()
        colors[v] = -1
        for w in delta:
            neighbor_colors[w].discard(col)
        start = col + 1


def _ref_max_clique_size(g):
    """The maximum clique size by branch and bound: the lower bound the
    reference oracle starts its k-loop from."""
    n = len(g)
    best = 1 if n else 0
    nbrs = list(map(set, g))

    def grow(current: int, candidates: set[int]):
        nonlocal best
        if current + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, current)
            return
        for v in sorted(candidates):
            candidates = candidates - {v}
            grow(current + 1, candidates & nbrs[v])
            if current + len(candidates) <= best:
                return

    grow(0, set(range(n)))
    return best


def _ref_exact_chromatic(g):
    """The reference oracle: the greedy DSATUR coloring as the upper bound,
    the clique bound as the lower, and the least k in between that the
    search can color, else the greedy coloring."""
    n = len(g)
    if n == 0:
        return OracleResult(0, Coloring(()))
    best = _ref_greedy_dsatur(g)
    chi = max(best) + 1
    for k in range(_ref_max_clique_size(g), chi):
        sol = _ref_try_k_coloring(g, k)
        if sol is not None:
            best, chi = sol, k
            break
    return OracleResult(chi, Coloring(tuple(best)))


def random_graph(rng):
    """A random simple graph: sparse, dense, mid-sized with density 1/2
    (whose exhaustive searches backtrack far enough to make the heap
    rebuild itself), or a long ring with chords."""
    shape = rng.choice(("sparse", "dense", "mid", "ring"))
    n = {"sparse": rng.randint(0, 12), "dense": rng.randint(0, 12),
         "mid": rng.randint(12, 18), "ring": rng.randint(0, 30)}[shape]
    if shape == "ring":
        edges = {(i, (i + 1) % n) for i in range(n)} if n > 2 else set()
        edges |= {tuple(rng.sample(range(n), 2)) for _ in range(n // 6)} if n > 1 else set()
    else:
        p = {"sparse": 0.25, "dense": 0.7, "mid": 0.5}[shape]
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    adjacency = [[] for _ in range(n)]
    for i, j in {(min(e), max(e)) for e in edges}:
        adjacency[i].append(j)
        adjacency[j].append(i)
    return tuple(tuple(sorted(nbrs)) for nbrs in adjacency)


def cubes_and_triangle(m):
    """m disjoint cube graphs (the duals of closed octahedra) followed by a
    triangle: chromatic number 3, which only the last component needs."""
    cubes = [tuple(8 * t + (v ^ bit) for bit in (1, 2, 4)) for t in range(m) for v in range(8)]
    base = 8 * m
    triangle = [tuple(base + u for u in range(3) if u != v) for v in range(3)]
    return tuple(tuple(sorted(nbrs)) for nbrs in cubes + triangle)


def test_dsatur_heap_matches_scan_reference(monkeypatch, build_corpus):
    """Greedy DSATUR, every k-coloring search (k = 0..5) and the exact
    chromatic number agree exactly with the node-scan selection, also
    after the heap has rebuilt itself mid-search.  The exact chromatic
    number and its coloring also agree with the reference on every
    acceptance-corpus dual of at most 48 nodes."""
    counts = {"states": 0, "rebuilds": 0}
    init, rebuild = coloring._Dsatur.__init__, coloring._Dsatur._rebuild

    def counted_init(self, g):
        counts["states"] += 1
        init(self, g)

    def counted_rebuild(self):
        counts["rebuilds"] += 1
        rebuild(self)

    monkeypatch.setattr(coloring._Dsatur, "__init__", counted_init)
    monkeypatch.setattr(coloring._Dsatur, "_rebuild", counted_rebuild)
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(450):
        g = random_graph(rng)
        assert _try_k_coloring(g, len(g)) == _ref_greedy_dsatur(g), g
        for k in range(6):
            got = _try_k_coloring(g, k)
            assert got == _ref_try_k_coloring(g, k), (g, k)
            outcomes.add(got is None)
        assert exact_chromatic(g) == _ref_exact_chromatic(g), g
    assert outcomes == {True, False}
    assert counts["rebuilds"] > counts["states"]
    duals = [build_dual(c) for _, _, _, c in build_corpus() if len(c.simplices) <= 48]
    assert len(duals) == 24 and max(map(len, duals)) == 48
    for g in duals:
        assert exact_chromatic(g, node_limit=48) == _ref_exact_chromatic(g), g
    g = cubes_and_triangle(8)
    assert exact_chromatic(g, node_limit=len(g)) == _ref_exact_chromatic(g)


def test_exact_chromatic_searches_components_apart():
    """A failing search does not backtrack through other components: on 18
    cube graphs and a triangle (147 nodes) the 2-coloring search fails
    only on the triangle, well within a 2 s budget."""
    g = cubes_and_triangle(18)
    t0 = time.perf_counter()
    res = exact_chromatic(g, node_limit=len(g))
    elapsed = time.perf_counter() - t0
    assert res.chromatic_number == 3 and elapsed < 2.0, elapsed
    assert all(res.optimal_coloring.colors[v] != res.optimal_coloring.colors[w]
               for v, nbrs in enumerate(g) for w in nbrs)


def test_dsatur_pick_matches_scan_under_undo():
    """After any sequence of colorings and last-in-first-out undos, the
    heap's pick equals the scan's."""
    rng = random.Random(77)
    for _ in range(300):
        g = random_graph(rng)
        state = coloring._Dsatur(g)
        stack = []
        for _ in range(120):
            uncolored = [v for v, k in enumerate(state.colors) if k < 0]
            if uncolored:
                assert state.pick() == _ref_dsatur_pick(g, state.colors, state.neighbor_colors)
            if uncolored and (not stack or rng.random() < 0.6):
                v = state.pick() if rng.random() < 0.7 else rng.choice(uncolored)
                col = rng.randrange(4)
                stack.append((v, col, state.assign(v, col)))
            elif stack:
                state.unassign(*stack.pop())
