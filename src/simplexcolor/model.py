"""Data model, validation and serialization for pure d-simplex complexes.

A complex stores only its top-dimensional simplices; vertex identity is by
index, and two simplices share a facet exactly when they share d vertex
indices.  Coordinates are exact rationals, each integral one stored as a
plain `int` and every other one as a `Fraction`; the JSON form is
bit-exact (integers, and "p/q" strings for the rest), so load(save(c)) == c.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import lcm, prod
from operator import ge, lt, mul
from typing import TYPE_CHECKING

from .errors import InputError, shorten
from .geometry import (Point, _cone_nonzero, facet_normal, homogeneous_orientation,
                       homogeneous_row, rational)

if TYPE_CHECKING:
    from .dual import DualGraph

JSON_FORMAT = "json"
OFF_FORMAT = "off"

COMBINATORIAL = "combinatorial"
GEOMETRIC_STRICT = "geometric-strict"


def _is_int(x) -> bool:
    """An integer as JSON decodes one: bool is an int subclass but not one."""
    return isinstance(x, int) and not isinstance(x, bool)


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

    def facets(self) -> tuple[Facet, ...]:
        return tuple(map(Facet._sliced, self.facet_ids()))


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
    """A pure d-simplex complex: vertex table plus top-dimensional simplices."""

    dimension: int
    vertices: tuple[Point, ...]
    simplices: tuple[Simplex, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self,
            "simplices",
            tuple(s if isinstance(s, Simplex) else Simplex(tuple(s)) for s in self.simplices),
        )
        d = self.dimension
        if d < 1:
            raise InputError(f"dimension must be >= 1, got {d}")
        for i, p in enumerate(self.vertices):
            if p.dim != d:
                raise InputError(f"vertex {i} has dimension {p.dim}, expected {d}")
        n = len(self.vertices)
        for i, s in enumerate(self.simplices):
            if len(s.vertex_ids) != d + 1:
                raise InputError(
                    f"simplex {i} has {len(s.vertex_ids)} vertices, expected {d + 1}"
                )
            if s.vertex_ids[0] < 0 or s.vertex_ids[-1] >= n:
                raise InputError(f"simplex {i} references a missing vertex")

    def simplex_points(self, i: int) -> list[Point]:
        return [self.vertices[v] for v in self.simplices[i].vertex_ids]

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
        return tuple(homogeneous_row(p.coords) for p in self.vertices)

    @cached_property
    def dual(self) -> DualGraph:
        """The facet-adjacency graph that `dual.build_dual` returns, built
        on first use and shared like facet_owners.  An overglued facet
        raises InputError on every access: a failed build is not cached."""
        from .dual import _facet_adjacency  # dual imports this module
        return _facet_adjacency(self)


@dataclass(frozen=True)
class Coloring:
    """One color in {0..d} per simplex; witnesses a (d+1)-coloring."""

    colors: tuple[int, ...]

    def __post_init__(self):
        if type(self.colors) is not tuple:
            object.__setattr__(self, "colors", tuple(self.colors))
        if not _all_ints(self.colors):
            raise InputError("colors must be integers")


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


def facet_multiplicity(c: Complex) -> dict[Facet, int]:
    """How many simplices own each facet: 1 = exposed, 2 = glued."""
    return {Facet._sliced(f): len(own) for f, own in c.facet_owners.items()}


def _axis_ranks(c: Complex) -> list[tuple[int, ...]]:
    """Each vertex's coordinates replaced by their rank among the distinct
    values on that axis.  The map is order-preserving per axis, so box
    comparisons on ranks decide exactly as they would on the rationals."""
    columns = []
    for k in range(c.dimension):
        values = [p.coords[k] for p in c.vertices]
        rank = {v: r for r, v in enumerate(sorted(set(values)))}
        columns.append([rank[v] for v in values])
    return list(zip(*columns))


def _interiors_overlap(a, b, d: int) -> bool:
    """Exact overlap test of two non-degenerate simplices, each given as
    (vertex ids, homogeneous integer rows (p·q, q) over one weight q of its
    own, a slot per facet for its plane, filled on first use).

    A hyperplane that separates the pair contains every shared vertex, so
    of the facet hyperplanes only those through all s shared vertices can:
    the facet opposite each vertex of A outside B, then each of B outside
    A.  One separates when the other simplex lies on its closed side away
    from the opposite vertex.  If none does and max(s, 1) >= d - 1, the
    pair overlaps: seen along the flat of the shared vertices it is two
    cones in at most 2 dimensions, or for s = 0 two polygons (d <= 2), and
    for those the facet hyperplanes are complete.  Otherwise
    `geometry._cone_nonzero` decides: a nonzero y with a·y <= 0 for A's rows
    and b·y >= 0 for B's is a separating hyperplane (the weights are
    positive, so its normal is not zero), and convex simplices have
    disjoint interiors iff one exists (touching allowed).
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
    return _cone_nonzero(a[1] + [[-x for x in row] for row in b[1]], d + 1) is None


def _box_cells(boxes, d: int):
    """A uniform grid over axes 1..d-1 of sorted rank boxes (lo, hi, i):
    cell -> the entries (position, lo, hi, i, home) of the boxes whose
    interiors reach into it, by position, where home is the cell of lo.  A
    cell is twice the median box extent wide on each axis.  While that would
    store more than 2^d entries per box (a few huge boxes among small ones),
    the cells double on every axis.  For d = 1 the grid is one cell."""
    widths = [2 * sorted(hi[k] - lo[k] for lo, hi, _ in boxes)[len(boxes) // 2]
              for k in range(1, d)]

    def spans(lo, hi):
        return [range(lo[k] // w, (hi[k] - 1) // w + 1) for k, w in zip(range(1, d), widths)]

    while sum(prod(map(len, spans(lo, hi))) for lo, hi, _ in boxes) > 2 ** d * len(boxes):
        widths = [2 * w for w in widths]
    cells: dict[tuple[int, ...], list] = {}
    for pos, (lo, hi, i) in enumerate(boxes):
        ranges = spans(lo, hi)
        entry = (pos, lo, hi, i, tuple(r.start for r in ranges))
        for cell in product(*ranges):
            cells.setdefault(cell, []).append(entry)
    return cells


def _overlapping_pairs(c: Complex, live: list[int]):
    """Pairs (i, j), i < j, of live simplices with overlapping interiors,
    ordered by the positions of their boxes in the lower-corner order.

    Broad phase: bounding boxes in axis ranks, bucketed by `_box_cells`,
    with an x-sweep inside each cell.  Two boxes whose interiors meet both
    reach the per-axis maximum of their lower corners, and the pair is
    tested only in the cell holding that point.  Narrow phase: each simplex
    gets its rows once, the cached homogeneous rows of its vertices over
    the LCM of their weights, and a slot per facet plane, for
    `_interiors_overlap`.
    """
    d = c.dimension
    ranks = _axis_ranks(c)
    boxes = []
    for i in live:
        corners = [ranks[v] for v in c.simplices[i].vertex_ids]
        boxes.append((tuple(map(min, *corners)), tuple(map(max, *corners)), i))
    if len(boxes) < 2:
        return
    boxes.sort(key=lambda entry: entry[0])
    rows, simplices = c.homogeneous, c.simplices
    scaled = {}
    for i in live:
        ids = simplices[i].vertex_ids
        corners = [rows[v] for v in ids]
        q = lcm(*(row[d] for row in corners))
        scaled[i] = (ids, [row if row[d] == q else tuple(x * (q // row[d]) for x in row)
                           for row in corners], [None] * (d + 1))
    found = []
    for cell, members in _box_cells(boxes, d).items():
        for m, (a, lo_i, hi_i, i, home_i) in enumerate(members):
            x_end = hi_i[0]
            for t in range(m + 1, len(members)):
                b, lo_j, hi_j, j, home_j = members[t]
                if lo_j[0] >= x_end:
                    break
                if not (all(map(lt, lo_j, hi_i)) and all(map(lt, lo_i, hi_j))):
                    continue
                if tuple(map(max, home_i, home_j)) != cell:
                    continue  # this pair is tested in another cell
                if _interiors_overlap(scaled[i], scaled[j], d):
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
    bounding boxes.  Boxes are compared in a grid over axes 1..d-1 with an
    x-sweep in each cell.  A pair sharing s vertex ids tries as separating
    witnesses the facet hyperplanes of both simplices that contain all s
    shared vertices.  If none separates, the pair overlaps when
    max(s, 1) >= d - 1, and otherwise the cone kernel
    `geometry._cone_nonzero` looks for any separating hyperplane.  All of
    it runs in exact integer arithmetic.
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
    """A `Point` coordinate as JSON: an int as itself, a Fraction as "p/q"."""
    return x if type(x) is int else f"{x.numerator}/{x.denominator}"


def complex_to_dict(c: Complex) -> dict:
    return {
        "dimension": c.dimension,
        "vertices": [list(map(_coord_to_json, p.coords)) for p in c.vertices],
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
    d = data["dimension"]
    if not _is_int(d):
        raise InputError("'dimension' must be an integer")
    vertex_rows, simplex_rows = _rows(data, "vertices"), _rows(data, "simplices")
    if any(isinstance(x, bool) for row in vertex_rows for x in row):
        raise InputError("a vertex coordinate is a boolean, not a number")
    try:
        vertices = tuple(Point(row) for row in vertex_rows)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"bad complex JSON: {shorten(str(exc))}") from exc
    simplices = []
    for k, row in enumerate(simplex_rows):
        try:
            simplices.append(Simplex(tuple(row)))
        except InputError as exc:
            raise InputError(f"simplex {k}: {exc}") from exc
    return Complex(d, vertices, tuple(simplices))


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
def _naming(path: str, kind: type[InputError] = InputError):
    """Prefix the `kind` error raised inside with `path`, unless its message
    already starts with it (the reader's own positioned errors)."""
    try:
        yield
    except kind as exc:
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


def _load_json(path: str) -> Complex:
    return complex_from_dict(_read_json(path))


def _write_json(path: str, data) -> None:
    """Compact JSON plus a newline: the one writer for complexes, colorings
    and certificates."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, separators=(",", ":")) + "\n")


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
        vertices.append(Point(tuple(coords)))
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
        simplices.append(Simplex(tuple(sorted(ids))))
    return Complex(2, tuple(vertices), tuple(simplices))


def _save_off(c: Complex, path: str) -> None:
    if c.dimension != 2:
        raise InputError("OFF export supports only dimension-2 complexes")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(c.vertices)} {len(c.simplices)} 0\n")
        for p in c.vertices:
            fh.write(f"{_coord_to_json(p[0])} {_coord_to_json(p[1])} 0\n")
        for s in c.simplices:
            fh.write("3 " + " ".join(str(i) for i in s.vertex_ids) + "\n")


def load(path: str, format: str = JSON_FORMAT) -> Complex:
    readers = {JSON_FORMAT: _load_json, OFF_FORMAT: _load_off}
    if format not in readers:
        raise InputError(f"unknown format {format!r}")
    with _naming(path):
        return readers[format](path)


def save(c: Complex, path: str, format: str = JSON_FORMAT) -> None:
    if format == JSON_FORMAT:
        _write_json(path, complex_to_dict(c))
    elif format == OFF_FORMAT:
        _save_off(c, path)
    else:
        raise InputError(f"unknown format {format!r}")


def save_coloring(col: Coloring, path: str) -> None:
    _write_json(path, coloring_to_dict(col))


def load_coloring(path: str) -> Coloring:
    with _naming(path):
        return coloring_from_dict(_read_json(path))
