"""Exact geometric predicates over rational coordinates.

Coordinates are arbitrary-precision rationals (`fractions.Fraction`), and
every predicate returns an exact answer: there are no epsilons and no
floats, and results are invariant under uniform positive rational scaling
of the input coordinates.  The determinant kernel behind `det` and
`orientation` runs on Python `int`: it scales the few points or rows it is
given by the LCM of their own denominators (never one LCM over a whole
vertex table) and then runs Bareiss's fraction-free elimination, whose
divisions are all exact.

The hull-membership test (`supporting_hyperplane`) never builds a convex
hull.  It decides, by exact linear feasibility, whether a hyperplane exists
that contains a given face and keeps the whole point cloud on one closed
side; such a hyperplane exists exactly when the face lies on the boundary
of the cloud's convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError

# Exact rational scalar used throughout the library.  Fraction already
# guarantees the reduced-form invariants (positive denominator, gcd 1).
Rational = Fraction

Vec = tuple[Fraction, ...]


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/7' or '0.25', and floats to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)  # exact binary value
    raise InputError(f"cannot interpret {value!r} as a rational number")


@dataclass(frozen=True)
class Point:
    """A point in R^d with exact rational coordinates."""

    coords: Vec

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(rational(c) for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


def point(*coords) -> Point:
    return Point(tuple(rational(c) for c in coords))


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : normal . x = offset}; normal must be nonzero."""

    normal: Vec
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(rational(c) for c in self.normal))
        object.__setattr__(self, "offset", rational(self.offset))
        if not any(self.normal):
            raise InputError("hyperplane normal must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.normal)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _dot(a, b) -> Fraction:
    return sum((ai * bi for ai, bi in zip(a, b)), Fraction(0))


def _sub(p: Point, q: Point) -> Vec:
    return tuple(a - b for a, b in zip(p.coords, q.coords))


def clear_denominators(rows) -> tuple[int, list[list[int]]]:
    """Scale rows of rationals by the LCM of their denominators.

    Returns (scale, int_rows) with int_rows[i][k] == rows[i][k] * scale
    exactly; scale >= 1, so signs and order are preserved.
    """
    rows = list(rows)
    scale = lcm(*(x.denominator for r in rows for x in r))
    return scale, [[x.numerator * (scale // x.denominator) for x in r] for r in rows]


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of a square int matrix (consumed) by Bareiss's
    fraction-free elimination: every division below is exact."""
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        row_k = m[k]
        pivot = row_k[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def det(rows: list[Vec]) -> Fraction:
    """Exact determinant: clear the denominators with one LCM, then run
    Bareiss elimination over int."""
    scale, m = clear_denominators(rows)
    return Fraction(_bareiss(m), scale ** len(m))


def orientation(points: list[Point], dim: int) -> int:
    """Sign of the determinant of the affine configuration of dim+1 points.

    Returns 0 exactly when the points are affinely dependent.
    """
    if len(points) != dim + 1:
        raise InputError(f"orientation in dimension {dim} needs {dim + 1} points, got {len(points)}")
    for p in points:
        if p.dim != dim:
            raise InputError(f"point of dimension {p.dim} in orientation of dimension {dim}")
    return int_orientation(clear_denominators(p.coords for p in points)[1])


def int_orientation(pts: list[list[int]]) -> int:
    """`orientation` for points already given in integer coordinates."""
    base = pts[0]
    return _sign(_bareiss([[a - b for a, b in zip(p, base)] for p in pts[1:]]))


def side_of(h: Hyperplane, p: Point) -> int:
    """Sign of normal . p - offset: +1, 0 (on the plane) or -1."""
    if p.dim != h.dim:
        raise InputError(f"point dimension {p.dim} does not match hyperplane dimension {h.dim}")
    return _sign(_dot(h.normal, p.coords) - h.offset)


def extreme_point(cloud: list[Point]) -> int:
    """Index of the lexicographically minimal point.

    The lexicographic minimum is always a vertex of the convex hull, which
    is all the peeling procedure needs from this selector.
    """
    if not cloud:
        raise InputError("extreme_point of an empty cloud")
    best = 0
    for i in range(1, len(cloud)):
        if cloud[i].coords < cloud[best].coords:
            best = i
    return best


# ---------------------------------------------------------------------------
# Exact linear feasibility, used only through supporting_hyperplane.
# Dimensions here are at most the ambient dimension d, so the worst-case
# O(n^m) behaviour of the incremental method is irrelevant at desk scale.


def _feasible_point(rows: list[Vec], rhs: list[Fraction], m: int):
    """Some x in Q^m with rows[i] . x <= rhs[i] for all i, else None.

    Deterministic incremental method: keep a point satisfying the prefix of
    constraints; when constraint i is violated, any solution of the full
    prefix must touch its boundary, so recurse with the boundary equation
    substituted in.
    """
    if m == 0:
        return () if all(b >= 0 for b in rhs) else None
    x = [Fraction(0)] * m
    for i, (a, b) in enumerate(zip(rows, rhs)):
        if _dot(a, x) <= b:
            continue
        piv = next((j for j in range(m) if a[j] != 0), None)
        if piv is None:
            return None  # 0 <= b is false
        # substitute x[piv] = (b - sum a[l] x[l]) / a[piv] into the prefix
        sub_rows, sub_rhs = [], []
        for aa, bb in zip(rows[:i], rhs[:i]):
            factor = aa[piv] / a[piv]
            sub_rows.append(tuple(aa[j] - factor * a[j] for j in range(m) if j != piv))
            sub_rhs.append(bb - factor * b)
        sol = _feasible_point(sub_rows, sub_rhs, m - 1)
        if sol is None:
            return None
        x = list(sol[:piv]) + [Fraction(0)] + list(sol[piv:])
        x[piv] = (b - sum(a[j] * x[j] for j in range(m) if j != piv)) / a[piv]
    return tuple(x)


def _row_reduce(rows: list[Vec], width: int):
    """Row-echelon basis of the row space; returns (pivot_cols, echelon_rows)."""
    echelon: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in rows:
        r = list(row)
        for p, er in zip(pivots, echelon):
            if r[p] != 0:
                factor = r[p] / er[p]
                for c in range(width):
                    r[c] -= factor * er[c]
        piv = next((c for c in range(width) if r[c] != 0), None)
        if piv is not None:
            pivots.append(piv)
            echelon.append(r)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [pivots[k] for k in order], [echelon[k] for k in order]


def _nullspace(rows: list[Vec], width: int) -> list[Vec]:
    """Basis of {x : row . x = 0 for every row}, deterministic."""
    pivots, echelon = _row_reduce(rows, width)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for p, er in zip(reversed(pivots), reversed(echelon)):
            vec[p] = -sum(er[c] * vec[c] for c in range(p + 1, width)) / er[p]
        basis.append(tuple(vec))
    return basis


def _cone_nonzero(zs: list[Vec], m: int):
    """Nonzero y with z . y <= 0 for every z in zs, or None.

    The feasible set is a polyhedral cone, so y can be scaled; a nonzero
    solution exists iff one of the 2m slices {y_i = +-1} is feasible.
    A rank drop gives an immediate orthogonal witness.
    """
    zs = [z for z in zs if any(z)]
    if not zs:
        return tuple([Fraction(1)] + [Fraction(0)] * (m - 1))
    perp = _nullspace(zs, m)
    if perp:
        return perp[0]
    for i in range(m):
        for s in (Fraction(1), Fraction(-1)):
            rows = [tuple(z[j] for j in range(m) if j != i) for z in zs]
            rhs = [-s * z[i] for z in zs]
            sol = _feasible_point(rows, rhs, m - 1)
            if sol is not None:
                return sol[:i] + (s,) + sol[i:]
    return None


def _canonical(normal: list[Fraction], offset: Fraction) -> Hyperplane:
    """Scale to a primitive integer normal, preserving orientation."""
    ints = clear_denominators([list(normal) + [offset]])[1][0]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    return Hyperplane(tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1]))


def supporting_hyperplane(face_vertices: list[Point], cloud: list[Point]):
    """Hyperplane through all face vertices with the cloud on one closed side.

    Returns None when no such hyperplane exists.  Existence is equivalent to
    the face (the convex hull of `face_vertices`) lying on the boundary of
    the convex hull of `cloud`; for clouds that are not full-dimensional the
    boundary is the whole hull, and the flat containing the cloud is a valid
    answer.

    The returned hyperplane is canonical (primitive integer normal) and
    oriented so the cloud satisfies normal . x <= offset.
    """
    if not cloud:
        raise InputError("supporting_hyperplane of an empty cloud")
    if not face_vertices:
        raise InputError("supporting_hyperplane needs at least one face vertex")
    d = cloud[0].dim
    for p in list(face_vertices) + list(cloud):
        if p.dim != d:
            raise InputError("mixed dimensions in supporting_hyperplane input")
    cloud_set = {p.coords for p in cloud}
    for p in face_vertices:
        if p.coords not in cloud_set:
            raise InputError("face vertex not present in cloud")

    base = face_vertices[0]
    directions = [_sub(p, base) for p in face_vertices[1:]]
    complement = _nullspace(directions, d)  # identity basis when face is a point
    m = len(complement)
    if m == 0:
        return None  # face affinely spans the whole space

    projected = []
    seen = set()
    for p in cloud:
        w = _sub(p, base)
        z = tuple(_dot(col, w) for col in complement)
        if z not in seen:
            seen.add(z)
            projected.append(z)
    y = _cone_nonzero(projected, m)
    if y is None:
        return None
    normal = [sum(complement[k][j] * y[k] for k in range(m)) for j in range(d)]
    return _canonical(normal, _dot(normal, base.coords))
