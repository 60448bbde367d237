"""Data model, validation and serialization for pure d-simplex complexes.

A complex stores only its top-dimensional simplices; vertex identity is by
index, and two simplices share a facet exactly when they share d vertex
indices.  Coordinates are exact rationals, each integral one stored as a
plain `int` and every other one as a `Fraction`; the JSON form is
bit-exact (integers, and "p/q" strings for the rest), so load(save(c)) == c.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import combinations, product
from math import prod
from operator import ge, lt, mul

from .errors import ColoringError, InputError, shorten
from .geometry import (_cone_point, _exact, _is_int, _quotient, facet_normal,
                       homogeneous_orientation, homogeneous_row, rational)

COMBINATORIAL = "combinatorial"
GEOMETRIC_STRICT = "geometric-strict"

# A ridge, a (d-2)-face, in more than HUB live simplices is heavy: strict
# validation sorts its star by angle instead of pairing it box by box.  The
# sweep already wins on fans of 8 simplices; 16 keeps ordinary meshes, whose
# vertices lie in at most about a dozen triangles, on the box path.
HUB = 16


def _all_ints(values) -> bool:
    """Whether every entry passes `_is_int`: decided at C speed when all are
    plain ints, entry by entry only when something else is present."""
    return {int}.issuperset(map(type, values)) or all(map(_is_int, values))


@dataclass(frozen=True, order=True)
class Simplex:
    """A d-simplex: d+1 strictly increasing vertex indices."""

    vertex_ids: tuple[int, ...]

    def __post_init__(self):
        ids = self.vertex_ids
        if type(ids) is not tuple:
            ids = tuple(ids)
            object.__setattr__(self, "vertex_ids", ids)
        if not _all_ints(ids):
            raise InputError(f"{type(self).__name__.lower()} ids must be integers: {shorten(str(ids))}")
        if any(map(ge, ids, ids[1:])):
            raise InputError(f"{type(self).__name__.lower()} ids must be strictly increasing: "
                             f"{shorten(str(ids))}")

    def facet_ids(self) -> tuple[tuple[int, ...], ...]:
        """The facets' vertex ids, leaving out vertex k = 0..d in turn: the
        d-subsets in decreasing lexicographic order."""
        ids = self.vertex_ids
        return tuple(combinations(ids, len(ids) - 1))[::-1]


class Facet(Simplex):
    """A (d-1)-face: d strictly increasing vertex indices."""

    @classmethod
    def _sliced(cls, ids: tuple[int, ...]) -> Facet:
        """The facet with ids taken from an already checked Simplex, which
        are integers in increasing order: built without checking again."""
        facet = object.__new__(cls)
        object.__setattr__(facet, "vertex_ids", ids)
        return facet


@dataclass(frozen=True)
class Complex:
    """A pure d-simplex complex: vertex table plus top-dimensional simplices.

    Each vertex is the tuple of its coordinates, normalised on the way in:
    an integral coordinate is a plain `int` and every other one a reduced
    `Fraction`, so equal points compare and hash alike whatever form their
    coordinates were given in.  A simplex given as a sequence of ids becomes
    a `Simplex`."""

    dimension: int
    vertices: tuple[tuple, ...]
    simplices: tuple[Simplex, ...]

    def __post_init__(self):
        if not _is_int(self.dimension):
            raise InputError("'dimension' must be an integer")
        object.__setattr__(self, "vertices", tuple(map(_exact, self.vertices)))
        simplices = []
        for i, s in enumerate(self.simplices):
            if not isinstance(s, Simplex):
                try:
                    s = Simplex(tuple(s))
                except InputError as exc:
                    raise InputError(f"simplex {i}: {exc}") from exc
            simplices.append(s)
        object.__setattr__(self, "simplices", tuple(simplices))
        d = self.dimension
        if d < 1:
            raise InputError(f"dimension must be >= 1, got {d}")
        for i, p in enumerate(self.vertices):
            if len(p) != d:
                raise InputError(f"vertex {i} has dimension {len(p)}, expected {d}")
        n = len(self.vertices)
        for i, s in enumerate(self.simplices):
            if len(s.vertex_ids) != d + 1:
                raise InputError(
                    f"simplex {i} has {len(s.vertex_ids)} vertices, expected {d + 1}"
                )
            if s.vertex_ids[0] < 0 or s.vertex_ids[-1] >= n:
                raise InputError(f"simplex {i} references a missing vertex")

    @cached_property
    def _facet_index(self):
        """facet_owners and facet_numbers.  Each facet is numbered when
        first seen; its owners are then collected by number, and the
        numbering dict, its values replaced by them, is facet_owners."""
        index: dict = {}
        numbers = tuple(tuple([index.setdefault(f, len(index)) for f in s.facet_ids()])
                        for s in self.simplices)
        owners: list[list[int]] = [[] for _ in index]
        for i, row in enumerate(numbers):
            for k in row:
                owners[k].append(i)
        for f, own in zip(index, owners):
            index[f] = tuple(own)
        return index, numbers

    @property
    def facet_owners(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Facet vertex ids -> indices of the simplices owning that facet,
        increasing.  Keys come in first-seen order (simplex order, then
        Simplex.facet_ids order).  Built on first use and shared by every
        caller, so it must never be mutated."""
        return self._facet_index[0]

    @property
    def facet_numbers(self) -> tuple[tuple[int, ...], ...]:
        """Each simplex's facets as numbers, in Simplex.facet_ids order: a
        facet's number is its position in facet_owners.  Built with
        facet_owners and shared like it."""
        return self._facet_index[1]

    @cached_property
    def homogeneous(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex as the integer row (p·q, q), q > 0 the LCM of that
        vertex's own denominators: the rows validation's degeneracy check,
        the geometric peel's hull test and the halfspace check read.  Built
        on first use and shared like facet_owners."""
        return tuple(map(homogeneous_row, self.vertices))

    @cached_property
    def dual(self) -> tuple[tuple[int, ...], ...]:
        """The facet-adjacency dual graph that `dual.build_dual` returns:
        entry i holds simplex i's neighbors in increasing order, and the
        facet two neighbors share is the intersection of their vertex ids.
        Built from facet_owners on first use and shared like it.  An
        overglued facet raises InputError on every access: a failed build
        is not cached."""
        adjacency: list[list[int]] = [[] for _ in self.simplices]
        for f, own in self.facet_owners.items():
            if len(own) == 2:
                i, j = own
                adjacency[i].append(j)
                adjacency[j].append(i)
            elif len(own) > 2:
                raise InputError(f"invalid complex: facet {f} shared by {len(own)} simplices")
        return tuple(tuple(sorted(nbrs)) for nbrs in adjacency)


@dataclass(frozen=True)
class Coloring:
    """One color in {0..d} per simplex; witnesses a (d+1)-coloring."""

    colors: tuple[int, ...]

    def __post_init__(self):
        if type(self.colors) is not tuple:
            object.__setattr__(self, "colors", tuple(self.colors))
        if not _all_ints(self.colors):
            raise InputError("colors must be integers")


def _check_length(c: Complex, col: Coloring) -> None:
    """Refuse a coloring without exactly one entry per simplex: the one rule
    for verification and rendering."""
    if len(col.colors) != len(c.simplices):
        raise ColoringError(
            f"coloring has {len(col.colors)} entries for {len(c.simplices)} simplices"
        )


@dataclass(frozen=True)
class Issue:
    code: str
    message: str
    where: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    level: str
    issues: tuple[Issue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        head = f"{self.level}: {'ok' if self.ok else f'{len(self.issues)} issue(s)'}"
        lines = [head] + [f"  [{i.code}] {i.message}" for i in self.issues]
        return "\n".join(lines)


def _axis_ranks(c: Complex) -> list[list[int]]:
    """Per axis, each vertex's coordinate replaced by its rank among the
    distinct values on that axis.  The map is order-preserving per axis, so
    box comparisons on ranks decide exactly as they would on the rationals."""
    columns = []
    for values in zip(*c.vertices):
        rank = {v: r for r, v in enumerate(sorted(set(values)))}
        columns.append(list(map(rank.__getitem__, values)))
    return columns


def _interiors_overlap(a, b, d: int) -> bool:
    """Exact overlap test of two non-degenerate simplices, each given as
    (vertex ids, homogeneous integer rows (p·q, q), each over its own
    vertex's weight q, a slot per facet for its plane, filled on first use).

    A hyperplane that separates the pair contains every shared vertex, so
    of the facet hyperplanes only those through all s shared vertices can:
    the facet opposite each vertex of A outside B, then each of B outside
    A.  One separates when the other simplex lies on its closed side away
    from the opposite vertex.  If none does and max(s, 1) >= d - 1, the
    pair overlaps: seen along the flat of the shared vertices it is two
    cones in at most 2 dimensions, or for s = 0 two polygons (d <= 2), and
    for those the facet hyperplanes are complete.  Otherwise
    `geometry._cone_point` decides: a nonzero y with a·y <= 0 for A's rows
    and b·y >= 0 for B's is a separating hyperplane (the weights are
    positive, so its normal is not zero), and convex simplices have
    disjoint interiors iff one exists (touching allowed).  A is
    non-degenerate, so its d+1 rows alone have full rank: no rank check.
    """
    for (ids, rows, planes), (other_ids, other, _) in ((a, b), (b, a)):
        for k, v in enumerate(ids):
            if v in other_ids:
                continue
            h = planes[k]
            if h is None:
                h = facet_normal(rows[:k] + rows[k + 1:])
                if sum(map(mul, h, rows[k])) > 0:
                    h = [-x for x in h]
                planes[k] = h
            if all(sum(map(mul, h, row)) >= 0 for row in other):
                return False
    if max(len(set(a[0]).intersection(b[0])), 1) >= d - 1:
        return True
    return _cone_point(a[1] + [[-x for x in row] for row in b[1]], d + 1) is None


def _box_cells(boxes, d: int):
    """A uniform grid over axes 1..d-1 of sorted rank boxes (lo, hi, i):
    cell -> the entries (position, lo, hi, i, home) of the boxes whose
    interiors reach into it, by position, where home is the cell of lo.  A
    cell is twice the median box extent wide on each axis.  While that would
    store more than 2^d entries per box (a few huge boxes among small ones),
    the cells double on every axis, and a fill that runs past that many
    starts over.  For d = 1 the grid is one cell."""
    widths = [2 * sorted(hi[k] - lo[k] for lo, hi, _ in boxes)[len(boxes) // 2]
              for k in range(1, d)]
    while True:
        cells: dict[tuple[int, ...], list] = {}
        room = 2 ** d * len(boxes)
        for pos, (lo, hi, i) in enumerate(boxes):
            ranges = [range(lo[k] // w, (hi[k] - 1) // w + 1) for k, w in zip(range(1, d), widths)]
            room -= prod(map(len, ranges))
            if room < 0:
                break
            entry = (pos, lo, hi, i, tuple(r.start for r in ranges))
            for cell in product(*ranges):
                cells.setdefault(cell, []).append(entry)
        else:
            return cells
        widths = [2 * w for w in widths]


def _hub_stars(live: list[int], ids: list[tuple[int, ...]], columns) -> dict[tuple[int, ...], list[int]]:
    """Each heavy ridge, a (d-2)-face in more than HUB live simplices, as
    its vertex ids -> those simplices, increasing, given the live simplices'
    vertex ids also column by column.  Ridges are counted only when some
    vertex lies in more than HUB live simplices; for d = 2 the ridges are
    the vertices (1-tuples), and for d = 1 there are none."""
    d = len(columns) - 1
    if d < 2:
        return {}
    counts = Counter()
    for column in columns:
        counts.update(column)
    if max(counts.values()) <= HUB:
        return {}
    stars: dict[tuple[int, ...], list[int]] = {}
    for i, s in zip(live, ids):
        for r in combinations(s, d - 1):
            stars.setdefault(r, []).append(i)
    return {r: star for r, star in stars.items() if len(star) > HUB}


def _by_first_ray(u, v) -> int:
    """Compare two wedges (first ray, last ray, ...) by the angle of their
    first rays in [0, 2π) from the positive x-axis, exactly: a half-plane
    split, then a cross product."""
    (ux, uy), (vx, vy) = u[0], v[0]
    lower_u, lower_v = uy < 0 or (uy == 0 and ux < 0), vy < 0 or (vy == 0 and vx < 0)
    if lower_u != lower_v:
        return lower_u - lower_v
    cross = ux * vy - uy * vx
    return (cross < 0) - (cross > 0)


def _star_overlaps(c: Complex, ridge: tuple[int, ...], star: list[int]):
    """The pairs (i, j), i < j, of a ridge's star with overlapping interiors.

    Two simplices through a ridge R overlap exactly when their wedges at R
    do.  `geometry._quotient` of R's rows maps R's flat to a point of the
    plane, and each simplex to the cone over its two vertices off R, of
    angle below π.  The wedges, turned counterclockwise, are sorted by
    their first ray in exact angular order; from each wedge a cyclic scan
    reports every later one whose first ray lies in the half-open
    [first, last) of the wedge and stops at the first that does not.  A
    pair whose first rays coincide can be reported from both sides.
    """
    rows, simplices = c.homogeneous, c.simplices
    project = _quotient([rows[r] for r in ridge])[1]
    projected = {}
    wedges = []
    for i in star:
        rays = []
        for v in simplices[i].vertex_ids:
            if v not in ridge:
                if v not in projected:
                    projected[v] = project(rows[v])
                rays.append(projected[v])
        (ax, ay), (bx, by) = rays
        wedges.append((*rays, i) if ax * by - ay * bx > 0 else (rays[1], rays[0], i))
    wedges.sort(key=cmp_to_key(_by_first_ray))
    k = len(wedges)
    for p, ((sx, sy), (ex, ey), i) in enumerate(wedges):
        for t in range(p + 1, p + k):
            (x, y), _, j = wedges[t % k]
            if sx * y - sy * x < 0 or x * ey - y * ex <= 0:
                break
            yield (i, j) if i < j else (j, i)


def _hub_skipper(members, hubs):
    """For a cell holding hub-star members: a function m -> the positions
    t > m of members sharing no heavy ridge with member m, increasing.  A
    run of consecutive members with member m's ridges is passed in one
    step, so a star's own pairs cost nothing here."""
    keys = [hubs.get(entry[3]) for entry in members]
    ends = list(range(1, len(members) + 1))  # one past each run of equal keys
    for t in range(len(members) - 2, -1, -1):
        if keys[t] is not None and keys[t] == keys[t + 1]:
            ends[t] = ends[t + 1]

    def later(m):
        key, t = keys[m], m + 1
        while t < len(keys):
            other = keys[t]
            if key and other and not key.isdisjoint(other):
                t = ends[t] if other == key else t + 1
            else:
                yield t
                t += 1
    return later


def _overlapping_pairs(c: Complex, live: list[int]):
    """Pairs (i, j), i < j, of live simplices with overlapping interiors,
    ordered by the positions of their boxes in the lower-corner order.

    Pairs that share a heavy ridge (`_hub_stars`) come from one angular
    sweep per star (`_star_overlaps`), so a hub star costs O(k log k) plus
    its overlaps instead of O(k^2).  Every other pair goes through the
    broad phase: bounding boxes in axis ranks, bucketed by `_box_cells`,
    with an x-sweep inside each cell that steps over a member's fellow
    star members in runs.  Two boxes whose interiors meet both reach the
    per-axis maximum of their lower corners, and the pair is tested only
    in the cell holding that point.  Narrow phase: each simplex gets its
    rows once, the cached homogeneous rows of its vertices as they are,
    each over its own vertex's weight, and a slot per facet plane, for
    `_interiors_overlap`.
    """
    if len(live) < 2:
        return
    d = c.dimension
    ids = [c.simplices[i].vertex_ids for i in live]
    columns = list(zip(*ids))  # column k: vertex k of every live simplex
    lows, highs = [], []
    for rank in _axis_ranks(c):
        at = [list(map(rank.__getitem__, column)) for column in columns]
        lows.append(map(min, *at))
        highs.append(map(max, *at))
    boxes = sorted(zip(zip(*lows), zip(*highs), live), key=lambda entry: entry[0])
    rows = c.homogeneous
    narrow = {i: (s, [rows[v] for v in s], [None] * (d + 1)) for i, s in zip(live, ids)}
    found = []
    hubs: dict[int, frozenset] = {}  # a hub-star simplex -> its heavy ridges
    stars = _hub_stars(live, ids, columns)
    if stars:
        position = {i: pos for pos, (_lo, _hi, i) in enumerate(boxes)}
        swept = set()  # a pair through two heavy ridges is found by both sweeps
        for ridge, star in stars.items():
            swept.update(_star_overlaps(c, ridge, star))
            for i in star:
                hubs[i] = hubs.get(i, frozenset()) | {ridge}
        found = [tuple(sorted((position[i], position[j]))) for i, j in swept]
    for cell, members in _box_cells(boxes, d).items():
        later = _hub_skipper(members, hubs) if hubs and any(e[3] in hubs for e in members) else None
        for m, (a, lo_i, hi_i, i, home_i) in enumerate(members):
            x_end = hi_i[0]
            for t in range(m + 1, len(members)) if later is None else later(m):
                b, lo_j, hi_j, j, home_j = members[t]
                if lo_j[0] >= x_end:
                    break
                if not (all(map(lt, lo_j, hi_i)) and all(map(lt, lo_i, hi_j))):
                    continue
                if tuple(map(max, home_i, home_j)) != cell:
                    continue  # this pair is tested in another cell
                if _interiors_overlap(narrow[i], narrow[j], d):
                    found.append((a, b))
    found.sort()
    for a, b in found:
        i, j = boxes[a][2], boxes[b][2]
        yield min(i, j), max(i, j)


def validate(c: Complex, level: str = COMBINATORIAL) -> ValidationReport:
    """Check the complex invariants; never raises, returns a report.

    combinatorial: non-degenerate simplices, facet multiplicity <= 2, no
    duplicate simplices, distinct coordinates for distinct vertex ids.
    geometric-strict: additionally pairwise interior-disjointness, in every
    dimension, reported pair by pair in the order of the simplices'
    bounding boxes.  The star of a heavy ridge, a (d-2)-face in more than
    HUB live simplices, is sorted once in exact angular order around it,
    and one circular sweep reports its overlapping pairs, so a hub fan of k
    simplices costs O(k log k) plus its overlaps.  Every other pair of
    boxes is compared in a grid over axes 1..d-1 with an x-sweep in each
    cell.  A pair sharing s vertex ids tries as separating witnesses the
    facet hyperplanes of both simplices that contain all s shared
    vertices.  If none separates, the pair overlaps when max(s, 1) >= d - 1,
    and otherwise one feasibility problem, `geometry._cone_point`, looks
    for any separating hyperplane.  All of it runs in exact integer arithmetic.
    """
    if level not in (COMBINATORIAL, GEOMETRIC_STRICT):
        raise InputError(f"unknown validation level {level!r}")
    issues: list[Issue] = []

    seen: dict[tuple[int, ...], int] = {}
    for i, s in enumerate(c.simplices):
        if s.vertex_ids in seen:
            issues.append(
                Issue("duplicate-simplex", f"simplices {seen[s.vertex_ids]} and {i} are identical",
                      (seen[s.vertex_ids], i))
            )
        else:
            seen[s.vertex_ids] = i

    # A vertex's homogeneous row is a function of its coordinates and
    # determines them, so equal rows mean coincident vertices.
    rows = c.homogeneous
    first_at: dict[tuple[int, ...], int] = {}
    for i, row in enumerate(rows):
        first = first_at.setdefault(row, i)
        if first != i:
            issues.append(
                Issue("coincident-vertices", f"vertices {first} and {i} share coordinates",
                      (first, i))
            )

    degenerate = set()
    for i, s in enumerate(c.simplices):
        if not homogeneous_orientation([rows[v] for v in s.vertex_ids]):
            degenerate.add(i)
            issues.append(Issue("degenerate-simplex", f"simplex {i} is affinely degenerate", (i,)))

    owners = c.facet_owners
    if max(map(len, owners.values()), default=0) > 2:
        for f, own in owners.items():
            if len(own) > 2:
                issues.append(
                    Issue("overglued-facet", f"facet {f} shared by {len(own)} simplices", own)
                )

    if level == GEOMETRIC_STRICT:
        live = [i for i in range(len(c.simplices)) if i not in degenerate]
        for pair in _overlapping_pairs(c, live):
            issues.append(
                Issue("interior-overlap",
                      f"simplices {pair[0]} and {pair[1]} have overlapping interiors", pair)
            )

    return ValidationReport(level, tuple(issues))


# ---------------------------------------------------------------------------
# Serialization


def _coord_to_json(x):
    """A vertex coordinate as JSON: an int as itself, a Fraction as "p/q"."""
    return x if type(x) is int else f"{x.numerator}/{x.denominator}"


def complex_to_dict(c: Complex) -> dict:
    return {
        "dimension": c.dimension,
        "vertices": [list(map(_coord_to_json, p)) for p in c.vertices],
        "simplices": [list(s.vertex_ids) for s in c.simplices],
    }


def _rows(data: dict, key: str) -> list[list]:
    rows = data[key]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError(f"{key!r} must be a list of lists")
    return rows


def complex_from_dict(data: dict) -> Complex:
    for key in ("dimension", "vertices", "simplices"):
        if not isinstance(data, dict) or key not in data:
            raise InputError(f"complex JSON is missing the {key!r} field")
    try:
        return Complex(data["dimension"], _rows(data, "vertices"), _rows(data, "simplices"))
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"bad complex JSON: {shorten(str(exc))}") from exc


def coloring_to_dict(col: Coloring) -> dict:
    return {"colors": list(col.colors)}


def coloring_from_dict(data: dict) -> Coloring:
    if not isinstance(data, dict) or "colors" not in data:
        raise InputError("coloring JSON is missing the 'colors' field")
    colors = data["colors"]
    if not isinstance(colors, list) or not _all_ints(colors):
        raise InputError("'colors' must be a list of integers")
    return Coloring(tuple(colors))


def _read_text(path: str) -> str:
    """A UTF-8 file's text; any other bytes raise InputError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


@contextmanager
def _naming(path: str):
    """Prefix the InputError raised inside with `path`, unless its message
    already starts with it (the reader's own positioned errors)."""
    try:
        yield
    except InputError as exc:
        if str(exc).startswith(f"{path}:"):
            raise
        raise InputError(f"{path}: {exc}") from exc


def _read_json(path: str):
    """Parse a JSON file; bad bytes or syntax raise InputError naming it."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8: the one writer of every output.  An
    OSError that names no file (a full disk, seen only at close) is given
    `path`, so the message blames the file it failed to write."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise


def _write_json(path: str, data) -> None:
    """Compact JSON plus a newline: the format of complexes, colorings and
    certificates."""
    _write_text(path, json.dumps(data, separators=(",", ":")) + "\n")


def _parse_off_number(token: str, path: str, lineno: int) -> Fraction:
    try:
        return rational(token)
    except InputError as exc:
        raise InputError(f"{path}:{lineno}: {exc}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{path}:{lineno}: bad coordinate {shorten(repr(token))}") from exc


def _load_off(path: str) -> Complex:
    """OFF import, restricted to planar triangle meshes (dimension 2).

    Vertex lines may carry 2 or 3 coordinates; a third coordinate must be
    exactly zero.  Faces must all be triangles.
    """
    text = _read_text(path)
    lines = [(n + 1, ln.split("#", 1)[0].strip()) for n, ln in enumerate(text.split("\n"))]
    lines = [(n, ln) for n, ln in lines if ln]
    if not lines or lines[0][1].upper() != "OFF":
        raise InputError(f"{path}: not an OFF file (missing OFF header)")
    if len(lines) < 2:
        raise InputError(f"{path}: truncated OFF file")
    counts = lines[1][1].split()
    if len(counts) < 2:
        raise InputError(f"{path}:{lines[1][0]}: expected vertex and face counts")
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except ValueError as exc:
        raise InputError(f"{path}:{lines[1][0]}: bad counts line") from exc
    if nv < 0 or nf < 0:
        raise InputError(f"{path}:{lines[1][0]}: negative vertex or face count")
    body = lines[2:]
    if len(body) < nv + nf:
        raise InputError(f"{path}: expected {nv} vertex and {nf} face lines")
    vertices = []
    for lineno, ln in body[:nv]:
        tokens = ln.split()
        if len(tokens) not in (2, 3):
            raise InputError(f"{path}:{lineno}: expected 2 or 3 coordinates")
        coords = [_parse_off_number(t, path, lineno) for t in tokens]
        if len(coords) == 3:
            if coords[2] != 0:
                raise InputError(f"{path}:{lineno}: nonplanar vertex (z != 0); only planar triangle meshes are supported")
            coords = coords[:2]
        vertices.append(coords)
    simplices = []
    for lineno, ln in body[nv:nv + nf]:
        tokens = ln.split()
        try:
            k = int(tokens[0])
            ids = [int(t) for t in tokens[1:1 + k]]
        except (ValueError, IndexError) as exc:
            raise InputError(f"{path}:{lineno}: bad face line") from exc
        if k != 3:
            raise InputError(f"{path}:{lineno}: face with {k} vertices; only triangles are accepted")
        if len(ids) < k:
            raise InputError(f"{path}:{lineno}: face lists {len(ids)} of its {k} vertex ids")
        if len(set(ids)) != 3:
            raise InputError(f"{path}:{lineno}: face repeats a vertex")
        simplices.append(tuple(sorted(ids)))
    return Complex(2, vertices, simplices)


def _save_off(c: Complex, path: str) -> None:
    if c.dimension != 2:
        raise InputError("OFF export supports only dimension-2 complexes")
    lines = ["OFF", f"{len(c.vertices)} {len(c.simplices)} 0"]
    lines += [f"{_coord_to_json(p[0])} {_coord_to_json(p[1])} 0" for p in c.vertices]
    lines += ["3 " + " ".join(map(str, s.vertex_ids)) for s in c.simplices]
    _write_text(path, "\n".join(lines) + "\n")


def load(path: str) -> Complex:
    """Read a complex: OFF when the path ends in .off (any case), JSON otherwise."""
    with _naming(path):
        return _load_off(path) if path.lower().endswith(".off") else complex_from_dict(_read_json(path))


def save(c: Complex, path: str) -> None:
    """Write a complex: OFF when the path ends in .off (any case), JSON otherwise."""
    if path.lower().endswith(".off"):
        _save_off(c, path)
    else:
        _write_json(path, complex_to_dict(c))


def save_coloring(col: Coloring, path: str) -> None:
    _write_json(path, coloring_to_dict(col))


def load_coloring(path: str) -> Coloring:
    with _naming(path):
        return coloring_from_dict(_read_json(path))
