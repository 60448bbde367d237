import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcolor.errors import InputError
from simplexcolor.geometry import (
    MAX_DECIMAL_EXPONENT,
    Hyperplane,
    _bareiss,
    _cone_nonzero,
    extreme_point,
    homogeneous_orientation,
    homogeneous_row,
    hull_normal,
    orientation,
    rational,
    side_of,
    supporting_hyperplane,
)


def brute_hull_edges_2d(pts):
    """All segments (i, j) on the hull boundary, by trying every candidate line.

    Independent of supporting_hyperplane: enumerates point pairs and checks
    the signs of cross products directly.
    """
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
                c = pts[k]
                cross = dx * (c[1] - a[1]) - dy * (c[0] - a[0])
                signs.add((cross > 0) - (cross < 0))
            if 1 not in signs or -1 not in signs:
                edges.add((i, j))
    return edges


def brute_hull_vertices_2d(pts):
    verts = set()
    for i, j in brute_hull_edges_2d(pts):
        verts.add(i)
        verts.add(j)
    if len(pts) == 1:
        verts.add(0)
    return verts


class TestRational:
    @pytest.mark.parametrize("text, value", [
        ("3/7", Fraction(3, 7)), ("-0.25", Fraction(-1, 4)), (" 2.5E-3 ", Fraction(1, 400)),
        (f"1e{MAX_DECIMAL_EXPONENT}", Fraction(10**MAX_DECIMAL_EXPONENT)),
        (f"7e-{MAX_DECIMAL_EXPONENT}", Fraction(7, 10**MAX_DECIMAL_EXPONENT)),
        (f"1e+000{MAX_DECIMAL_EXPONENT}", Fraction(10**MAX_DECIMAL_EXPONENT)),
    ])
    def test_decimal_strings_parse_exactly(self, text, value):
        assert rational(text) == value

    @pytest.mark.parametrize("text", [
        f"1e{MAX_DECIMAL_EXPONENT + 1}", f"1E-{MAX_DECIMAL_EXPONENT + 1}",
        "1e99999999", "0.5e-99999999", "1e" + "9" * 100000,
    ])
    def test_oversized_exponent_rejected(self, text):
        with pytest.raises(InputError, match="decimal exponent"):
            rational(text)


class TestOrientation:
    def test_positive_triangle(self):
        assert orientation([(0, 0), (1, 0), (0, 1)], 2) == 1

    def test_collinear(self):
        assert orientation([(0, 0), (1, 0), (2, 0)], 2) == 0

    def test_unit_tetrahedron(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert orientation(pts, 3) == 1

    def test_swap_flips_sign(self):
        pts = [(0, 0), (1, 0), (0, 1)]
        assert orientation([pts[1], pts[0], pts[2]], 2) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            orientation([(0, 0), (1, 0)], 2)
        with pytest.raises(InputError):
            orientation([(0, 0, 0), (1, 0, 0), (0, 1, 0)], 2)

    @given(st.permutations(range(3)))
    def test_antisymmetry_under_transposition(self, perm):
        pts = [(0, 0), (3, 1), (1, 4)]
        # parity of the permutation decides the sign
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
        )
        expect = 1 if inversions % 2 == 0 else -1
        assert orientation([pts[k] for k in perm], 2) == expect


def cofactor_det(rows):
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * rows[0][j] * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


class TestDet:
    def test_matches_cofactor_expansion(self):
        """_bareiss on rational matrices scaled to integers here, n = 0..6:
        the closed forms up to 4×4 and the elimination, with its row swaps,
        above that.  Scaling every entry by L scales the determinant by L^n."""
        rng = random.Random(11)
        singular = 0
        sizes = Counter()
        for _ in range(300):
            n = rng.randint(0, 6)
            rows = [
                # many zeros force Bareiss to swap rows; some rows repeat
                [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7, 10 ** 9 + 7)))
                 if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
                for _ in range(n)
            ]
            if n >= 2 and rng.random() < 0.2:
                rows[-1] = [x * Fraction(-2, 3) for x in rows[0]]
            scale = math.lcm(*(x.denominator for r in rows for x in r))
            ints = [tuple(x.numerator * (scale // x.denominator) for x in r) for r in rows]
            expected = cofactor_det(rows)
            got = _bareiss(ints)
            assert type(got) is int
            assert got == expected * scale ** n, rows
            singular += expected == 0
            sizes[n] += 1
        assert singular >= 20
        assert sizes[5] and sizes[6]

    def test_integer_rows(self):
        assert _bareiss([(2, 1), (1, 3)]) == 5
        assert _bareiss([]) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_forms_match_cofactor_expansion(self, n):
        """_bareiss's closed forms for n <= 4, on entries up to 10^40 in
        magnitude, singular matrices (one row an integer combination of
        the others) and row-swapped ones (the sign flips); tuples and lists
        both, left unchanged."""
        rng = random.Random(40 + n)
        singular = 0
        for _ in range(300):
            big = rng.choice((5, 10 ** 9, 10 ** 40))
            rows = [[rng.randint(-big, big) if rng.random() < 0.8 else 0 for _ in range(n)]
                    for _ in range(n)]
            if rng.random() < 0.25:
                b = rng.randrange(n)
                others = [(rng.randint(-3, 3), rows[k]) for k in range(n) if k != b]
                rows[b] = [sum(w * row[col] for w, row in others) for col in range(n)]
            expected = cofactor_det(rows)
            singular += expected == 0
            frozen = tuple(map(tuple, rows))
            assert _bareiss(frozen) == expected, rows
            assert _bareiss(rows) == expected and rows == [list(r) for r in frozen]
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
            assert _bareiss(rows) == -expected, rows
        assert singular >= 20

    def test_orientation_of_rational_points(self):
        third = Fraction(1, 3)
        pts = [(third, 0), (1, Fraction(1, 7)), (0, Fraction(5, 11))]
        rows = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
        expected = cofactor_det([list(r) for r in rows])
        assert orientation(pts, 2) == (expected > 0) - (expected < 0) != 0


class TestSideOf:
    def test_above(self):
        h = Hyperplane((0, 0, 1), 0)
        assert side_of(h, (0, 0, 1)) == 1

    def test_on_plane(self):
        h = Hyperplane((0, 0, 1), 0)
        assert side_of(h, (5, -3, 0)) == 0

    def test_below(self):
        h = Hyperplane((1, 1), 1)
        assert side_of(h, (0, 0)) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            side_of(Hyperplane((1, 0), 0), (1, 2, 3))

    def test_zero_normal_rejected(self):
        with pytest.raises(InputError):
            Hyperplane((0, 0), 1)


class TestExtremePoint:
    def test_lexicographic_minimum(self):
        cloud = [(1, 1), (0, 2), (0, 0)]
        assert extreme_point(cloud) == 2

    def test_single_point(self):
        assert extreme_point([(7, 7)]) == 0

    def test_empty_errors(self):
        with pytest.raises(InputError):
            extreme_point([])

    def test_grid_corner(self):
        # Integer grid vertex set: the all-zeros corner wins and is a hull
        # vertex of the brute-force hull.
        cloud = [(x, y) for x in range(3) for y in range(3)]
        idx = extreme_point(cloud)
        assert cloud[idx] == (0, 0)
        raw = [(p[0], p[1]) for p in cloud]
        assert idx in brute_hull_vertices_2d(raw)


def square_corners():
    return [(0, 0), (1, 0), (1, 1), (0, 1)]


class TestSupportingHyperplane:
    def test_hull_vertex_is_supported(self):
        cloud = square_corners()
        h = supporting_hyperplane([cloud[0]], cloud)
        assert h is not None
        assert side_of(h, cloud[0]) == 0
        assert all(side_of(h, q) <= 0 for q in cloud)

    def test_interior_point_is_not(self):
        cloud = square_corners() + [(Fraction(1, 2), Fraction(1, 2))]
        assert supporting_hyperplane([cloud[-1]], cloud) is None

    def test_face_vertex_must_be_in_cloud(self):
        with pytest.raises(InputError):
            supporting_hyperplane([(9, 9)], square_corners())

    def test_empty_cloud(self):
        with pytest.raises(InputError):
            supporting_hyperplane([(0, 0)], [])

    @pytest.mark.parametrize("face, cloud, message", [
        ([], square_corners(), "supporting_hyperplane needs at least one face vertex"),
        ([(0, 0)], [(0, 0), (1, 0, 0)], "mixed dimensions in supporting_hyperplane input"),
        ([(0, 0, 0)], square_corners(), "mixed dimensions in supporting_hyperplane input"),
    ], ids=["empty-face", "mixed-cloud", "mixed-face"])
    def test_refusal_messages(self, face, cloud, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            supporting_hyperplane(face, cloud)

    def test_face_spanning_the_space_is_not_on_the_boundary(self):
        # d + 1 affinely independent face points span the whole space, so no
        # hyperplane passes through all of them.
        assert supporting_hyperplane(square_corners()[:3], square_corners()) is None
        cloud = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert supporting_hyperplane(cloud, cloud) is None

    def test_edges_of_point_set_match_brute_force(self):
        # Convex position plus interior points; every candidate pair checked
        # against the brute-force hull-edge enumeration.
        raw = [(0, 0), (4, 0), (5, 3), (2, 5), (0, 3), (2, 2), (3, 1), (1, 1)]
        cloud = [(x, y) for x, y in raw]
        expected = brute_hull_edges_2d(raw)
        for i in range(len(raw)):
            for j in range(i + 1, len(raw)):
                h = supporting_hyperplane([cloud[i], cloud[j]], cloud)
                if (i, j) in expected:
                    assert h is not None, (i, j)
                else:
                    assert h is None, (i, j)

    def test_degenerate_cloud_whole_flat(self):
        # Collinear cloud in R^2: hull has empty interior, so every face is
        # on the boundary and the supporting plane contains the whole flat.
        cloud = [(i, 2 * i) for i in range(4)]
        h = supporting_hyperplane([cloud[1], cloud[2]], cloud)
        assert h is not None
        assert all(side_of(h, q) == 0 for q in cloud)

    def test_3d_facet_of_tetrahedron(self):
        cloud = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        h = supporting_hyperplane(cloud[:3], cloud)
        assert h is not None
        assert all(side_of(h, q) == 0 for q in cloud[:3])
        assert side_of(h, cloud[3]) < 0

    def test_3d_interior_face_absent(self):
        # Two tetrahedra glued at a facet: the shared facet is interior.
        cloud = [
            (0, 0, 0), (1, 0, 0), (0, 1, 0),
            (0, 0, 1), (0, 0, -1),
        ]
        shared = [cloud[0], cloud[1], cloud[2]]
        assert supporting_hyperplane(shared, cloud) is None

    def test_3d_edge_on_hull(self):
        cloud = [
            (0, 0, 0), (1, 0, 0), (0, 1, 0),
            (0, 0, 1), (0, 0, -1),
        ]
        h = supporting_hyperplane([cloud[0], cloud[1]], cloud)
        assert h is not None
        signs = {side_of(h, q) for q in cloud}
        assert signs <= {0, -1}

    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            min_size=1,
            max_size=9,
        ),
        st.integers(0, 8),
    )
    @settings(max_examples=120, deadline=None)
    def test_one_closed_side_property(self, raw, pick):
        cloud = [(x, y) for x, y in dict.fromkeys(raw)]
        face = [cloud[pick % len(cloud)]]
        h = supporting_hyperplane(face, cloud)
        if h is None:
            return
        assert side_of(h, face[0]) == 0
        signs = {side_of(h, q) for q in cloud}
        assert 1 not in signs

    def test_scaling_invariance(self):
        # Exactness check: scaling all coordinates by 3/7 flips nothing.
        raw = [(0, 0), (4, 0), (5, 3), (2, 5), (0, 3), (2, 2)]
        s = Fraction(3, 7)
        cloud = [(x, y) for x, y in raw]
        scaled = [(x * s, y * s) for x, y in raw]
        for i in range(len(raw)):
            for j in range(i + 1, len(raw)):
                a = supporting_hyperplane([cloud[i], cloud[j]], cloud)
                b = supporting_hyperplane([scaled[i], scaled[j]], scaled)
                assert (a is None) == (b is None)
        assert orientation([cloud[0], cloud[1], cloud[2]], 2) == orientation(
            [scaled[0], scaled[1], scaled[2]], 2
        )

    def test_extreme_point_always_supported(self):
        clouds = [
            [(1, 1), (0, 2), (0, 0), (3, 1)],
            [(x, y, (x * y) % 3) for x in range(3) for y in range(2)],
        ]
        for cloud in clouds:
            v = cloud[extreme_point(cloud)]
            assert supporting_hyperplane([v], cloud) is not None


# ---------------------------------------------------------------------------
# The integer hull kernel against an eager Fraction reference: the
# rational-arithmetic supporting_hyperplane the kernel replaced, kept here
# as the oracle.


def _ref_dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _ref_feasible_point(rows, rhs, m):
    if m == 0:
        return () if all(b >= 0 for b in rhs) else None
    x = [Fraction(0)] * m
    for i, (a, b) in enumerate(zip(rows, rhs)):
        if _ref_dot(a, x) <= b:
            continue
        piv = next((j for j in range(m) if a[j] != 0), None)
        if piv is None:
            return None
        sub_rows, sub_rhs = [], []
        for aa, bb in zip(rows[:i], rhs[:i]):
            factor = aa[piv] / a[piv]
            sub_rows.append(tuple(aa[j] - factor * a[j] for j in range(m) if j != piv))
            sub_rhs.append(bb - factor * b)
        sol = _ref_feasible_point(sub_rows, sub_rhs, m - 1)
        if sol is None:
            return None
        x = list(sol[:piv]) + [Fraction(0)] + list(sol[piv:])
        x[piv] = (b - sum(a[j] * x[j] for j in range(m) if j != piv)) / a[piv]
    return tuple(x)


def _ref_nullspace(rows, width):
    echelon, pivots = [], []
    for row in rows:
        r = list(row)
        for p, er in zip(pivots, echelon):
            if r[p] != 0:
                factor = r[p] / er[p]
                r = [x - factor * y for x, y in zip(r, er)]
        piv = next((c for c in range(width) if r[c] != 0), None)
        if piv is not None:
            pivots.append(piv)
            echelon.append(r)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    pivots, echelon = [pivots[k] for k in order], [echelon[k] for k in order]
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for p, er in zip(reversed(pivots), reversed(echelon)):
            vec[p] = -sum(er[c] * vec[c] for c in range(p + 1, width)) / er[p]
        basis.append(tuple(vec))
    return basis


def _slice_cone_nonzero(zs, m):
    """Existence oracle for the cone kernel: the slice method it replaced,
    one feasibility problem per slice {y_i = +-1}, 2m of them."""
    zs = [z for z in zs if any(z)]
    if not zs:
        return tuple([Fraction(1)] + [Fraction(0)] * (m - 1))
    perp = _ref_nullspace(zs, m)
    if perp:
        return perp[0]
    for i in range(m):
        for s in (Fraction(1), Fraction(-1)):
            rows = [tuple(z[j] for j in range(m) if j != i) for z in zs]
            sol = _ref_feasible_point(rows, [-s * z[i] for z in zs], m - 1)
            if sol is not None:
                return sol[:i] + (s,) + sol[i:]
    return None


def _ref_cone_nonzero(zs, m):
    """The kernel's method in Fraction arithmetic: the cone normalised by
    the one extra row (sum of the zs) . y <= -1, placed last."""
    zs = [z for z in zs if any(z)]
    if not zs:
        return tuple([Fraction(1)] + [Fraction(0)] * (m - 1))
    perp = _ref_nullspace(zs, m)
    if perp:
        return perp[0]
    sum_row = tuple(sum(col, Fraction(0)) for col in zip(*zs))
    return _ref_feasible_point(zs + [sum_row], [Fraction(0)] * len(zs) + [Fraction(-1)], m)


def _ref_primitive(v):
    """The primitive integer vector, as Fractions, on the ray of a nonzero
    rational vector: the one scaling of it that the kernel works with."""
    scale = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (scale // x.denominator) for x in v]
    g = math.gcd(*ints)
    return tuple(Fraction(x // g) for x in ints)


def reference_supporting_hyperplane(face, cloud, cone=_ref_cone_nonzero):
    """Canonical supporting hyperplane of coordinate tuples, in Fraction
    arithmetic throughout, or None.  The one-row cone's answer depends on
    the scale of each row, so the complement basis and the projected rows
    are taken at the kernel's scale: primitive integer vectors."""
    d = len(cloud[0])
    base = face[0]
    directions = [tuple(a - b for a, b in zip(p, base)) for p in face[1:]]
    complement = [_ref_primitive(v) for v in _ref_nullspace(directions, d)]
    m = len(complement)
    if m == 0:
        return None
    projected = []
    for p in cloud:
        w = tuple(a - b for a, b in zip(p, base))
        z = tuple(_ref_dot(col, w) for col in complement)
        z = _ref_primitive(z) if any(z) else z
        if z not in projected:
            projected.append(z)
    y = cone(projected, m)
    if y is None:
        return None
    normal = [sum(complement[k][j] * y[k] for k in range(m)) for j in range(d)]
    values = normal + [_ref_dot(normal, base)]
    scale = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = math.gcd(*ints)
    return Hyperplane(tuple(v // g for v in ints[:-1]), ints[-1] // g)


COPRIME_DENOMINATORS = (1, 2, 3, 7, 10**9 + 7)


def _random_case(rng, d):
    """A random cloud and face in R^d, with the degeneracies the kernel has
    to handle: integer or rational coordinates, clouds flattened onto a
    line or hyperplane, and faces that are affinely dependent."""
    rational = rng.random() < 0.5

    def coord():
        if rational:
            return Fraction(rng.randint(-9, 9), rng.choice(COPRIME_DENOMINATORS))
        return Fraction(rng.randint(-3, 3))

    flat = rng.choice(("full", "full", "line", "hyperplane")) if d > 1 else "full"
    anchor = [coord() for _ in range(d)]
    spans = [[coord() for _ in range(d)] for _ in range(1 if flat == "line" else d - 1)]
    pts = []
    for _ in range(rng.randint(1, d + 5)):
        if flat == "full":
            pts.append(tuple(coord() for _ in range(d)))
        else:
            ts = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in spans]
            pts.append(tuple(a + sum(t * s[k] for t, s in zip(ts, spans))
                             for k, a in enumerate(anchor)))
    size = rng.randint(1, d)
    face = rng.sample(pts, min(size, len(pts)))
    if len(face) >= 2 and rng.random() < 0.25:
        # The last face point moved onto the line through the first two:
        # dependent when the face has three points or t = 0 repeats one.
        t = Fraction(rng.randint(-2, 3), 2)
        extra = tuple(a + t * (b - a) for a, b in zip(face[0], face[1]))
        face[-1] = extra
        pts.append(extra)
    cloud = list(dict.fromkeys(pts))
    rng.shuffle(cloud)
    return face, cloud, flat


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hull_kernel_matches_fraction_reference(d):
    """hull_normal decides exactly what the Fraction reference decides, with
    both the slice method and the one-row cone, and supporting_hyperplane
    returns the one-row reference's canonical hyperplane, on faces of every
    size 1..d, dependent faces and flat clouds."""
    rng = random.Random(600 + d)
    seen = Counter()
    for _ in range(400):
        face, cloud, flat = _random_case(rng, d)
        expected = reference_supporting_hyperplane(face, cloud)
        rows = [homogeneous_row(p) for p in cloud]
        face_rows = [homogeneous_row(p) for p in face]
        found = hull_normal(face_rows, rows)
        assert (found is not None) == (expected is not None), (face, cloud)
        sliced = reference_supporting_hyperplane(face, cloud, _slice_cone_nonzero)
        assert (found is not None) == (sliced is not None), (face, cloud)
        got = supporting_hyperplane(face, cloud)
        assert got == expected, (face, cloud)
        if found is not None:
            assert all(sum(map(operator.mul, found, r)) <= 0 for r in rows)
            assert all(sum(map(operator.mul, found, r)) == 0 for r in face_rows)
        directions = [tuple(a - b for a, b in zip(p, face[0])) for p in face[1:]]
        dependent = len(_ref_nullspace(directions, d)) > d + 1 - len(face)
        seen[(len(face), flat, expected is None, dependent)] += 1
    sizes = {size for size, _, _, _ in seen}
    assert sizes == set(range(1, d + 1))
    assert any(none for _, _, none, _ in seen) and any(not none for _, _, none, _ in seen)
    if d > 1:
        assert {flat for _, flat, _, _ in seen} == {"full", "line", "hyperplane"}
        assert any(dep for *_, dep in seen)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_cone_kernel_matches_slice_oracle(m):
    """`_cone_nonzero` finds a nonzero point of {y : z . y <= 0} exactly
    when the slice method does, and every point it returns is one: random
    sets of up to 9 rows with entries in -3..3, zero rows and rank-deficient
    sets among them."""
    rng = random.Random(900 + m)
    seen = Counter()
    for _ in range(600):
        rank = m if m == 1 or rng.random() < 0.6 else rng.randint(1, m - 1)
        basis = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(rank)]
        zs = []
        for _ in range(rng.randint(0, 9) if rank < m else rng.randint(m, 9)):
            if rng.random() < 0.1:
                zs.append((0,) * m)
            elif rank < m:
                # Rows in the span of fewer than m vectors.
                a, b = rng.choice(basis), rng.choice(basis)
                sa, sb = rng.choice((1, -1)), rng.choice((1, 0, -1))
                zs.append(tuple(sa * x + sb * y for x, y in zip(a, b)))
            else:
                zs.append(tuple(rng.randint(-3, 3) for _ in range(m)))
        y = _cone_nonzero(zs, m)
        expected = _slice_cone_nonzero([tuple(map(Fraction, z)) for z in zs], m)
        assert (y is None) == (expected is None), zs
        if y is not None:
            assert len(y) == m and any(y), (zs, y)
            assert all(sum(map(operator.mul, z, y)) <= 0 for z in zs), (zs, y)
        nonzero = [z for z in zs if any(z)]
        seen[(y is None, bool(nonzero) and not _ref_nullspace(nonzero, m))] += 1
    assert min(seen[(True, True)], seen[(False, True)], seen[(False, False)]) >= 15, seen


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_homogeneous_orientation_matches_orientation(d):
    """The integer degeneracy check reads homogeneous rows, and it and
    `orientation` agree in sign with the cofactor determinant of the rows
    p_i - p_0 in Fraction arithmetic, on integer and rational simplices,
    including affinely dependent ones (a point repeated, or moved onto the
    affine span of the others), and on simplices whose every denominator
    is about 10^9, so each row's weight is a product of such primes."""
    rng = random.Random(900 + d)
    signs = Counter()
    for _ in range(600):
        kind = rng.choice(("int", "rational", "huge"))

        def coord():
            if kind == "rational":
                return Fraction(rng.randint(-9, 9), rng.choice(COPRIME_DENOMINATORS))
            if kind == "huge":
                return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.choice((10 ** 9 + 7, 10 ** 9 + 9)))
            return Fraction(rng.randint(-3, 3))

        pts = [tuple(coord() for _ in range(d)) for _ in range(d + 1)]
        if rng.random() < 0.3:
            # The last point as an affine combination of the others.
            ts = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(d)]
            pts[-1] = tuple(pts[0][k] + sum(t * (p[k] - pts[0][k]) for t, p in zip(ts, pts[1:-1]))
                            for k in range(d))
        value = cofactor_det([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])
        expected = (value > 0) - (value < 0)
        assert homogeneous_orientation([homogeneous_row(p) for p in pts]) == expected, pts
        assert orientation(pts, d) == expected, pts
        signs[expected] += 1
    assert set(signs) == {-1, 0, 1}
