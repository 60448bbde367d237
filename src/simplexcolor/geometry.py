"""Exact geometric predicates over rational coordinates.

Coordinates are arbitrary-precision rationals: a point is a tuple of its
coordinates, each integral one a plain `int` and every other one a
`fractions.Fraction`, as `Complex.vertices` holds them.  Every predicate
returns an exact answer: there are no epsilons and no floats, and results
are invariant under uniform positive rational scaling of the input
coordinates.

All predicate arithmetic is on `int`, over homogeneous rows: a point p
becomes (p·q, q), q > 0 the LCM of p's own denominators, and
`Complex.homogeneous` keeps these rows once per complex.  Each row keeps
its own weight, since a positive weight changes no sign a predicate reads.
Determinants are closed-form up to 4×4 and fraction-free (Bareiss) above.

The hull-membership test never builds a convex hull.  It decides whether
a hyperplane exists that contains a given face and keeps the whole point
cloud on one closed side; such a hyperplane exists exactly when the face
lies on the boundary of the cloud's convex hull.  For a face of d points
the normal comes from d+1 cofactor minors, and one signed dot product per
cloud row decides.  Smaller or affinely dependent faces are projected off
their own directions (`_quotient`) into fraction-free linear feasibility,
`_cone_nonzero`: a nonzero point of a cone {y : z·y <= 0}.  Its rows can
lose rank, which is its own answer; otherwise `_cone_point` solves one
feasibility problem, the cone normalised by the row (sum of the z)·y <= -1.
Strict validation (`model._interiors_overlap`), whose rows have full rank,
calls `_cone_point` directly for hyperplanes that separate two simplices.
`orientation`, `side_of`, `extreme_point` and `supporting_hyperplane` are
thin wrappers that check and take points as coordinate sequences, in any
form `rational` reads, and normalise them as `Complex` does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InputError, shorten

Vec = tuple[Fraction, ...]

# The largest decimal exponent a coordinate string may carry.  Fraction
# builds 10**|e| exactly, so '1e99999999' would run for minutes; the bound
# is the interpreter's default limit on the digits of an int string.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _is_int(x) -> bool:
    """An integer as JSON decodes one: bool is an int subclass but not one."""
    return isinstance(x, int) and type(x) is not bool


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/7', '0.25' or '1e-3', and floats to
    Fraction; a boolean is refused.  A string's decimal exponent is bounded
    by MAX_DECIMAL_EXPONENT in magnitude."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
        # The length comes first: int() of a long digit string is slow too.
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise InputError(f"coordinate {shorten(repr(value))} has a decimal exponent "
                             f"beyond {MAX_DECIMAL_EXPONENT}")
        return Fraction(value)
    if isinstance(value, float) or _is_int(value):
        return Fraction(value)  # a float's exact binary value
    raise InputError(f"cannot interpret {shorten(repr(value))} as a rational number")


def _exact(row) -> tuple:
    """A point's coordinates as a tuple, each integral one a plain `int` and
    every other one a reduced `Fraction`, whatever form each was given in."""
    if type(row) is not tuple:
        row = tuple(row)
    if {int}.issuperset(map(type, row)):
        return row
    return tuple(x.numerator if x.denominator == 1 else x for x in map(rational, row))


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


def _bareiss(m) -> int:
    """Determinant of a square int matrix, given as a sequence of rows and
    left unchanged: in closed form up to 4×4, by Bareiss's fraction-free
    elimination (every division exact) above that."""
    n = len(m)
    if n <= 2:
        if n == 2:
            (a, b), (c, d) = m
            return a * d - b * c
        return m[0][0] if n else 1
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        # Laplace along the first two rows: their 2×2 minors against the
        # complementary minors of the last two.
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
        return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    m = [list(row) for row in m]
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
    return sign * m[-1][-1]


def orientation(points: list[Vec], dim: int) -> int:
    """Sign of the determinant of the affine configuration of dim+1 points,
    from their homogeneous rows.

    Returns 0 exactly when the points are affinely dependent.
    """
    if len(points) != dim + 1:
        raise InputError(f"orientation in dimension {dim} needs {dim + 1} points, got {len(points)}")
    for p in points:
        if len(p) != dim:
            raise InputError(f"point of dimension {len(p)} in orientation of dimension {dim}")
    return homogeneous_orientation([homogeneous_row(_exact(p)) for p in points])


def homogeneous_orientation(rows) -> int:
    """`orientation` for d+1 points given as homogeneous integer rows
    (p·q, q), q > 0.

    Row i times q_0, less row 0 times q_i, is q_0·q_i·(p_i - p_0) with a
    zero weight, and the scaling is by q_0 > 0 only, so the sign of one
    d×d determinant of these rows decides, with no per-call LCM.
    """
    base, q = rows[0][:-1], rows[0][-1]
    return _sign(_bareiss([[x * q - b * r[-1] for x, b in zip(r, base)] for r in rows[1:]]))


def side_of(h: Hyperplane, p: Vec) -> int:
    """Sign of normal . p - offset: +1, 0 (on the plane) or -1."""
    if len(p) != h.dim:
        raise InputError(f"point dimension {len(p)} does not match hyperplane dimension {h.dim}")
    return _sign(sum(map(mul, h.normal, _exact(p))) - h.offset)


def extreme_point(cloud: list[Vec]) -> int:
    """Index of the lexicographically minimal point, the first on ties.

    The lexicographic minimum is always a vertex of the convex hull, which
    is all the peeling procedure needs from this selector.
    """
    if not cloud:
        raise InputError("extreme_point of an empty cloud")
    return min(range(len(cloud)), key=lambda i: _exact(cloud[i]))


# ---------------------------------------------------------------------------
# The integer hull kernel.  Points come as homogeneous integer rows
# (p·q, q) with q > 0, so the sign of h · (p·q, q) is the side of p with
# respect to the hyperplane h, scaled by q.  Every step below scales rows,
# columns and solutions by positive integers only, so each one picks the
# same rational solution that the same method run over rationals would.
# Linear systems here have at most d+1 unknowns, so the worst-case O(n^m)
# behaviour of the incremental feasibility method is irrelevant.


def homogeneous_row(coords) -> tuple[int, ...]:
    """The integer row (p·q, q) of a rational point p, where q > 0 is the
    LCM of p's own denominators: (*p, 1) when every coordinate is an int."""
    if {int}.issuperset(map(type, coords)):
        return (*coords, 1)
    q = lcm(*(x.denominator for x in coords))
    return tuple(x.numerator * (q // x.denominator) for x in coords) + (q,)


def _primitive(v) -> list[int]:
    """v divided by the gcd of its entries (a positive factor)."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else list(v)


def facet_normal(face) -> list[int]:
    """The homogeneous normal h orthogonal to d homogeneous rows of length
    d+1, from its d+1 cofactor minors: h · row is q times the side of the
    row's point.  All zero exactly when the d points are affinely
    dependent."""
    width = len(face[0])
    return [
        (-1) ** j * _bareiss([r[:j] + r[j + 1:] for r in face])
        for j in range(width)
    ]


def hull_normal(face, cloud):
    """The hull predicate: None exactly when the face does not lie on the
    boundary of the cloud's convex hull.

    `face` and `cloud` are homogeneous integer rows, every face row also
    in the cloud.  Returns None when no hyperplane through the face keeps
    the cloud on one closed side; otherwise a homogeneous normal h of such
    a hyperplane with h · row <= 0 for every cloud row.  For clouds that
    are not full-dimensional the boundary is the whole hull, and the flat
    containing the cloud is an answer.
    """
    d = len(face[0]) - 1
    if len(face) == d:
        h = facet_normal(face)
        side = 0
        for row in cloud:
            s = sum(map(mul, h, row))
            if s:
                if not side:
                    side = s
                elif (s > 0) != (side > 0):
                    return None
        # A zero normal (an affinely dependent face) or a cloud inside the
        # hyperplane leaves the answer to the general method.
        if side:
            return h if side < 0 else [-x for x in h]
    return _hull_normal_general(face, cloud, d)


def _hull_normal_general(face, cloud, d: int):
    """hull_normal for any face: project the cloud onto the complement of
    the face's directions and look for a nonzero cone direction there."""
    complement, project = _quotient(face)
    if not complement:
        return None  # the face affinely spans the whole space
    projected = dict.fromkeys(tuple(_primitive(project(row))) for row in cloud)
    y = _cone_nonzero(list(projected), len(complement))
    if y is None:
        return None
    base, q = face[0][:d], face[0][d]
    normal = [sum(col[j] * yk for col, yk in zip(complement, y)) for j in range(d)]
    return [x * q for x in normal] + [-sum(map(mul, normal, base))]


def _quotient(face):
    """A basis of the directions that the face's homogeneous rows do not
    span (`_nullspace` of their offsets from the first row), and the map
    taking a homogeneous row to its coordinates on that basis: those of
    (p - base) scaled by base's weight times the row's, both positive."""
    d = len(face[0]) - 1
    base, q = face[0][:d], face[0][d]

    def offset(row):
        return [x * q - b * row[d] for x, b in zip(row, base)]

    basis = _nullspace([offset(r) for r in face[1:]], d)

    def project(row):
        w = offset(row)
        return [sum(map(mul, col, w)) for col in basis]

    return basis, project


def _nullspace(rows, width: int) -> list[tuple[int, ...]]:
    """Basis of {x : row . x = 0 for every row}, deterministic: one vector
    per free column, positive there and zero at the other free columns."""
    echelon: dict[int, list[int]] = {}  # pivot column -> row, zero before it
    for row in rows:
        r = list(row)
        for p, er in echelon.items():
            if r[p]:
                f = r[p]
                r = [x * er[p] - f * y for x, y in zip(r, er)]
        piv = next((c for c in range(width) if r[c]), None)
        if piv is not None:
            echelon[piv] = _primitive(r)
    basis = []
    for free in range(width):
        if free in echelon:
            continue
        vec = [0] * width
        vec[free] = 1
        for p in sorted(echelon, reverse=True):
            num, den = -sum(map(mul, echelon[p], vec)), echelon[p][p]
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            vec = [x * (den // g) for x in vec]
            vec[p] = num // g
        basis.append(tuple(_primitive(vec)))
    return basis


def _feasible_point(rows, rhs, m: int):
    """Some x in Q^m with rows[i] . x <= rhs[i] for all i, as (X, D) with
    x = X / D and D > 0, else None.

    Deterministic incremental method: keep a point satisfying the prefix of
    constraints; when constraint i is violated, any solution of the full
    prefix must touch its boundary, so recurse with the boundary equation
    substituted in.
    """
    if m == 0:
        return ((), 1) if all(b >= 0 for b in rhs) else None
    x, den = [0] * m, 1
    for i, (a, b) in enumerate(zip(rows, rhs)):
        if sum(map(mul, a, x)) <= b * den:
            continue
        piv = next((j for j in range(m) if a[j]), None)
        if piv is None:
            return None  # 0 <= b is false
        # substitute x[piv] = (b - sum a[l] x[l]) / a[piv] into the prefix,
        # each row scaled by |a[piv]|
        mag, sgn = abs(a[piv]), 1 if a[piv] > 0 else -1
        sub_rows, sub_rhs = [], []
        for aa, bb in zip(rows[:i], rhs[:i]):
            f = aa[piv] * sgn
            row = [aa[j] * mag - f * a[j] for j in range(m) if j != piv]
            row = _primitive(row + [bb * mag - f * b])
            sub_rows.append(row[:-1])
            sub_rhs.append(row[-1])
        sol = _feasible_point(sub_rows, sub_rhs, m - 1)
        if sol is None:
            return None
        sub_x, sub_den = sol
        x = list(sub_x[:piv]) + [0] + list(sub_x[piv:])
        rest = b * sub_den - sum(map(mul, a, x))
        x = [v * mag for v in x]
        x[piv] = sgn * rest
        *x, den = _primitive(x + [sub_den * mag])
    return tuple(x), den


def _cone_nonzero(zs, m: int):
    """Nonzero y with z . y <= 0 for every z in zs, or None: a vector
    orthogonal to every z when there is one, else `_cone_point`."""
    perp = _nullspace(zs, m)
    return perp[0] if perp else _cone_point(zs, m)


def _cone_point(zs, m: int):
    """`_cone_nonzero` for zs of full column rank m.  A nonzero y in the
    cone then has some z . y < 0, so (sum of zs) . y < 0 and a multiple of
    y meets the extra row sum . y <= -1, placed last, which no zero y does."""
    sol = _feasible_point(zs + [list(map(sum, zip(*zs)))], [0] * len(zs) + [-1], m)
    return None if sol is None else sol[0]


def supporting_hyperplane(face_vertices: list[Vec], cloud: list[Vec]):
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
    face_vertices, cloud = list(map(_exact, face_vertices)), list(map(_exact, cloud))
    d = len(cloud[0])
    for p in face_vertices + cloud:
        if len(p) != d:
            raise InputError("mixed dimensions in supporting_hyperplane input")
    cloud_set = set(cloud)
    for p in face_vertices:
        if p not in cloud_set:
            raise InputError("face vertex not present in cloud")

    h = hull_normal([homogeneous_row(p) for p in face_vertices],
                    [homogeneous_row(p) for p in cloud])
    if h is None:
        return None
    h = _primitive(h)
    return Hyperplane(tuple(h[:d]), -h[d])
