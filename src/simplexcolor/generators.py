"""Deterministic, seedable generators of test complexes.

Kinds:
  fan               k simplices forming a closed ring around a (d-2)-face
                    (for d=2, k triangles surrounding a central vertex)
  closed-fan        the d=2 ring under its usual name
  tri-tiling        m x m window of the planar triangular lattice
  delaunay2d        Delaunay triangulation of n seeded random grid points,
                    built with exact integer predicates
  freudenthal       vertex-ordering triangulation of an m^d grid,
                    d! simplices per cell
  path              staircase chain of n simplices, dual graph a path
  boundary-abstract the d+2 facets of a (d+1)-simplex, forced into R^d:
                    combinatorially fine, geometrically overlapping, and
                    deliberately unpeelable
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Callable, NamedTuple

from .errors import InputError, InvariantError
from .geometry import _is_int
from .model import Complex

FAN = "fan"
CLOSED_FAN = "closed-fan"
TRI_TILING = "tri-tiling"
DELAUNAY2D = "delaunay2d"
FREUDENTHAL = "freudenthal"
PATH = "path"
BOUNDARY_ABSTRACT = "boundary-abstract"

# Most simplices, and most vertex coordinates plus simplex ids, one spec may
# ask for; checked before anything is built.  The second bounds high d: a
# fan in dimension d has about d^2 coordinates however few simplices it has.
MAX_SIMPLICES = 10**6
MAX_ENTRIES = 10**7


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    dimension: int
    size: int = 1
    seed: int = 0


def _freudenthal_count(d: int, m: int) -> int:
    """m^d cells of d! simplices: the product of m*k, k = 1..d, multiplied
    out only as far as needed to exceed MAX_SIMPLICES."""
    count = 1
    for k in range(1, d + 1):
        count *= m * k
        if not count or count > MAX_SIMPLICES:
            break
    return count


class _Kind(NamedTuple):
    """A generator kind: the least dimension and size `generate` accepts
    (None: any size), what the size counts, the builder (dimension, size,
    seed), and the simplices and vertices a (dimension, size) asks for."""

    least_dimension: int
    least_size: int | None
    counts: str
    build: Callable[[int, int, int], Complex]
    simplices: Callable[[int, int], int]
    vertices: Callable[[int, int], int]


_TABLE = {
    FAN: _Kind(2, 3, "simplices", lambda d, n, _: _ring(d, n), lambda d, n: n, lambda d, n: n + d - 1),
    CLOSED_FAN: _Kind(2, 3, "triangles", lambda d, n, _: _ring(2, n), lambda d, n: n,
                      lambda d, n: n + d - 1),
    TRI_TILING: _Kind(2, 1, "row", lambda d, n, _: _tri_tiling(n), lambda d, n: 2 * n * n,
                      lambda d, n: (n + 1) ** 2),
    DELAUNAY2D: _Kind(2, 3, "points", lambda d, n, seed: _delaunay2d(n, seed), lambda d, n: 2 * n - 5,
                      lambda d, n: n),
    FREUDENTHAL: _Kind(1, 1, "cell per side", lambda d, n, _: _freudenthal(d, n), _freudenthal_count,
                       lambda d, n: (n + 1) ** min(d, 64)),
    PATH: _Kind(1, 1, "simplex", lambda d, n, _: _path(d, n), lambda d, n: n, lambda d, n: n + d),
    BOUNDARY_ABSTRACT: _Kind(1, None, "", lambda d, n, _: _boundary_abstract(d), lambda d, n: d + 2,
                             lambda d, n: d + 2),
}

KINDS = tuple(_TABLE)


def _simplex_count(spec: GeneratorSpec) -> int:
    """Simplices the spec asks for (for delaunay2d Euler's bound 2n - 5),
    counted only as far as needed to exceed MAX_SIMPLICES."""
    return _TABLE[spec.kind].simplices(spec.dimension, max(spec.size, 0))


def _vertex_count(spec: GeneratorSpec) -> int:
    """Vertices the spec asks for (at most, for delaunay2d); for freudenthal
    only as far as needed to exceed MAX_ENTRIES: for m >= 1, 2^64 does."""
    return _TABLE[spec.kind].vertices(max(spec.dimension, 0), max(spec.size, 0))


def generate(spec: GeneratorSpec) -> Complex:
    for field in ("dimension", "size", "seed"):
        if not _is_int(getattr(spec, field)):
            raise InputError(f"{field!r} must be an integer")
    kind, d, size = _TABLE.get(spec.kind), spec.dimension, spec.size
    if kind is None:
        raise InputError(f"unknown generator kind {spec.kind!r}")
    if spec.kind in (CLOSED_FAN, TRI_TILING, DELAUNAY2D) and d != 2:
        # Checked before the cap, which counts coordinates in dimension d.
        raise InputError(f"{spec.kind} is a planar kind (dimension 2)")
    simplices = _simplex_count(spec)
    if simplices > MAX_SIMPLICES or _vertex_count(spec) * d + simplices * (d + 1) > MAX_ENTRIES:
        raise InputError(
            f"{spec.kind} of size {size} in dimension {d} would build more than "
            f"{MAX_SIMPLICES} simplices or {MAX_ENTRIES} vertex coordinates and ids "
            f"(the generator cap)"
        )
    if d < kind.least_dimension:
        raise InputError(f"{spec.kind} requires dimension >= {kind.least_dimension}")
    if kind.least_size is not None and size < kind.least_size:
        raise InputError(f"{spec.kind} requires at least {kind.least_size} {kind.counts}")
    return kind.build(d, size, spec.seed)


# ---------------------------------------------------------------------------
# Ring (fan) around a (d-2)-dimensional hinge


def _ring_directions(k: int) -> list[tuple[Fraction, Fraction]]:
    """k rational directions in strict ccw order around the full circle,
    with consecutive angular gaps below pi."""
    denom = 1 << max(13, (8 * k).bit_length())
    dirs = []
    for i in range(k):
        theta = -math.pi + 2.0 * math.pi * (i + 0.5) / k
        t = Fraction(round(math.tan(theta / 2.0) * denom), denom)
        dirs.append((1 - t * t, 2 * t))  # same direction as (cos, sin)
    for i in range(k):
        a, b = dirs[i], dirs[(i + 1) % k]
        if a[0] * b[1] - a[1] * b[0] <= 0:
            raise InvariantError("ring directions out of ccw order")
    return dirs


def _ring(d: int, k: int) -> Complex:
    """k d-simplices glued in a cycle around a common (d-2)-face."""
    hinge = [(0,) * d]
    for j in range(d - 2):
        hinge.append(tuple(1 if i == j else 0 for i in range(d)))
    ring = [
        tuple([0] * (d - 2) + [cx, sx])
        for cx, sx in _ring_directions(k)
    ]
    vertices = hinge + ring
    nh = len(hinge)
    hinge_ids = tuple(range(nh))
    simplices = tuple(
        tuple(sorted(hinge_ids + (nh + i, nh + (i + 1) % k)))
        for i in range(k)
    )
    return Complex(d, vertices, simplices)


# ---------------------------------------------------------------------------
# Triangular lattice window


def _tri_tiling(m: int) -> Complex:
    def vid(i, j):
        return j * (m + 1) + i

    vertices = tuple(
        (i + Fraction(j, 2), j)
        for j in range(m + 1)
        for i in range(m + 1)
    )
    simplices = []
    for j in range(m):
        for i in range(m):
            up = (vid(i, j), vid(i + 1, j), vid(i, j + 1))
            down = (vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1))
            simplices.append(tuple(sorted(up)))
            simplices.append(tuple(sorted(down)))
    return Complex(2, vertices, tuple(simplices))


# ---------------------------------------------------------------------------
# Freudenthal (vertex-ordering) triangulation of a grid


def _freudenthal(d: int, m: int) -> Complex:
    side = m + 1
    def vid(coords):
        acc = 0
        for c in coords:
            acc = acc * side + c
        return acc

    vertices = tuple(product(range(side), repeat=d))
    simplices = []
    for corner in product(range(m), repeat=d):
        for perm in permutations(range(d)):
            walk = [corner]
            for axis in perm:
                step = list(walk[-1])
                step[axis] += 1
                walk.append(tuple(step))
            simplices.append(tuple(sorted(vid(c) for c in walk)))
    return Complex(d, vertices, tuple(simplices))


# ---------------------------------------------------------------------------
# Staircase path


def _path(d: int, n: int) -> Complex:
    walk = [tuple(0 for _ in range(d))]
    for j in range(n + d - 1):
        step = list(walk[-1])
        step[j % d] += 1
        walk.append(tuple(step))
    simplices = tuple(
        tuple(range(j, j + d + 1)) for j in range(n)
    )
    return Complex(d, walk, simplices)


# ---------------------------------------------------------------------------
# Abstract boundary of a (d+1)-simplex


def _boundary_abstract(d: int) -> Complex:
    pts = [(0,) * d]
    for j in range(d):
        pts.append(tuple(1 if i == j else 0 for i in range(d)))
    pts.append(tuple(Fraction(1, d + 1) for _ in range(d)))
    simplices = tuple(combinations(range(d + 2), d + 1))
    return Complex(d, pts, simplices)


# ---------------------------------------------------------------------------
# Exact incremental Delaunay triangulation

_GRID = 1 << 20
# Far corners, outside the circumcircle of any non-degenerate triple of grid
# points (circumradius is bounded by (sqrt(2) * 2^20)^3 / (4 * 1/2) < 2^63).
_FAR = 1 << 80


def _orient2(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _incircle_strict(a, b, c, p) -> bool:
    """p strictly inside the circumcircle of ccw triangle (a, b, c)."""
    ax, ay = a[0] - p[0], a[1] - p[1]
    bx, by = b[0] - p[0], b[1] - p[1]
    cx, cy = c[0] - p[0], c[1] - p[1]
    det = (
        (ax * ax + ay * ay) * (bx * cy - by * cx)
        - (bx * bx + by * by) * (ax * cy - ay * cx)
        + (cx * cx + cy * cy) * (ax * by - ay * bx)
    )
    return det > 0


class _Triangulation:
    def __init__(self, points):
        self.points = [(-_FAR, -_FAR), (3 * _FAR, -_FAR), (-_FAR, 3 * _FAR)]
        self.points.extend(points)
        self.tris: dict[int, tuple[int, int, int]] = {}
        self.edge_owner: dict[tuple[int, int], int] = {}
        self.next_id = 0
        self.hint = self._add(0, 1, 2)

    def _add(self, a, b, c) -> int:
        tid = self.next_id
        self.next_id += 1
        self.tris[tid] = (a, b, c)
        self.edge_owner[(a, b)] = tid
        self.edge_owner[(b, c)] = tid
        self.edge_owner[(c, a)] = tid
        return tid

    def _remove(self, tid):
        a, b, c = self.tris.pop(tid)
        for e in ((a, b), (b, c), (c, a)):
            del self.edge_owner[e]

    def _locate(self, p) -> int:
        tid = self.hint if self.hint in self.tris else next(iter(self.tris))
        pts = self.points
        while True:
            a, b, c = self.tris[tid]
            moved = False
            for u, v in ((a, b), (b, c), (c, a)):
                if _orient2(pts[u], pts[v], p) < 0:
                    tid = self.edge_owner[(v, u)]
                    moved = True
                    break
            if not moved:
                return tid

    def insert(self, pid) -> bool:
        """Bowyer-Watson insertion; returns False when the point would
        create a degenerate triangle (exactly on an existing edge line
        through two cavity-boundary vertices) and is skipped."""
        pts = self.points
        p = pts[pid]
        start = self._locate(p)
        cavity = {start}
        stack = [start]
        while stack:
            tid = stack.pop()
            a, b, c = self.tris[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                nb = self.edge_owner.get((v, u))
                if nb is None or nb in cavity:
                    continue
                na, nbv, nc = self.tris[nb]
                if _incircle_strict(pts[na], pts[nbv], pts[nc], p):
                    cavity.add(nb)
                    stack.append(nb)
        boundary = []
        for tid in cavity:
            a, b, c = self.tris[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                if self.edge_owner.get((v, u)) not in cavity:
                    boundary.append((u, v))
        if any(_orient2(pts[u], pts[v], p) <= 0 for u, v in boundary):
            return False
        for tid in sorted(cavity):
            self._remove(tid)
        for u, v in boundary:
            self.hint = self._add(pid, u, v)
        return True


def _hilbert_index(p) -> int:
    """Position of a grid point's top 10 bits per coordinate along a Hilbert
    curve: inserting in this order keeps each point-location walk short."""
    x, y = p[0] >> 10, p[1] >> 10
    d, s = 0, 1 << 9
    while s:
        rx, ry = x & s > 0, y & s > 0
        d += s * s * ((3 * rx) ^ ry)
        if not ry:
            if rx:
                x, y = 1023 - x, 1023 - y
            x, y = y, x
        s >>= 1
    return d


def _delaunay2d(n: int, seed: int) -> Complex:
    rng = random.Random(seed)
    raw: list[tuple[int, int]] = []
    seen = set()
    attempts = 0
    while len(raw) < n:
        attempts += 1
        if attempts > 20 * n + 100:
            raise InputError("could not draw enough distinct points")
        p = (rng.randrange(_GRID), rng.randrange(_GRID))
        if p not in seen:
            seen.add(p)
            raw.append(p)
    raw.sort()

    tri = _Triangulation(raw)
    for i in sorted(range(len(raw)), key=lambda i: _hilbert_index(raw[i])):
        tri.insert(3 + i)

    # Each triangle starts at its largest id, the tuple that inserting in
    # id order would have left: the newest point is the first of each
    # triangle it makes.
    real = []
    for ids in tri.tris.values():
        if min(ids) >= 3:
            k = ids.index(max(ids))
            real.append(ids[k:] + ids[:k])
    if not real:
        raise InputError("degenerate point set: no triangle survives")
    used = sorted({v for ids in real for v in ids})
    remap = {v: i for i, v in enumerate(used)}
    vertices = tuple(tri.points[v] for v in used)
    simplices = tuple(
        tuple(sorted(remap[v] for v in ids)) for ids in sorted(real)
    )
    return Complex(2, vertices, simplices)
