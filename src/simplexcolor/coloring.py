"""Peeling, greedy (d+1)-coloring, verification and an exact chromatic oracle.

Coloring works by induction made explicit: repeatedly remove a simplex that
has an exposed facet (multiplicity 1), record the order, then replay it in
reverse giving each simplex the smallest color unused by its already-colored
neighbors.  A simplex with an exposed facet has at most d neighbors, so d+1
colors always suffice.

Two independent ways to find an exposed simplex are provided.  The
combinatorial finder just reads facet multiplicities.  The geometric finder
proves exposure from coordinates alone: starting from a hull vertex it
descends through a strictly shrinking chain of simplex subsets, each pinned
by a face lying on the subset's convex hull, until some facet containing the
current face sits on the hull, which forces that facet to be unglued.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

from .dual import _components, build_dual
from .errors import InputError, InvariantError, UnrealizableComplexError, shorten
from .geometry import _is_int, extreme_point, hull_normal
from .model import (Coloring, Complex, Facet, _all_ints, _check_length, _naming, _read_json,
                    _write_json)

COMBINATORIAL = "combinatorial"
GEOMETRIC = "geometric"


@dataclass(frozen=True)
class TraceStep:
    """One level of the nested-hull descent: the pinning face and the size
    of the simplex subset sharing it."""

    anchor_ids: tuple[int, ...]
    subset_size: int


@dataclass(frozen=True)
class PeelCertificate:
    """Removal order with one exposed-facet witness per step."""

    steps: tuple[tuple[int, Facet], ...]
    method: str


@dataclass(frozen=True)
class OracleResult:
    chromatic_number: int
    optimal_coloring: Coloring


def certificate_to_dict(cert: PeelCertificate) -> dict:
    return {
        "method": cert.method,
        "steps": [[i, list(f.vertex_ids)] for i, f in cert.steps],
    }


def certificate_from_dict(data: dict) -> PeelCertificate:
    for key in ("method", "steps"):
        if not isinstance(data, dict) or key not in data:
            raise InputError(f"certificate JSON is missing the {key!r} field")
    steps = data["steps"]
    if not isinstance(steps, list) or not all(
        isinstance(step, list) and len(step) == 2 and _is_int(step[0])
        and isinstance(step[1], list) and _all_ints(step[1])
        for step in steps
    ):
        raise InputError("certificate 'steps' must be [simplex, [facet vertex ids]] integer pairs")
    method = data["method"]
    if method not in (COMBINATORIAL, GEOMETRIC):
        raise InputError(f"certificate 'method' must be {COMBINATORIAL!r} or {GEOMETRIC!r}, "
                         f"got {shorten(repr(method))}")
    return PeelCertificate(tuple((i, Facet(tuple(ids))) for i, ids in steps), method)


def save_certificate(cert: PeelCertificate, path: str) -> None:
    _write_json(path, certificate_to_dict(cert))


def load_certificate(path: str) -> PeelCertificate:
    with _naming(path):
        return certificate_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# Exposed-simplex finders


def _find_exposed_geometric(c: Complex, alive: list[int]):
    """Exposed simplex among `alive`, found by nested-hull descent.

    The per-call reference for the geometric finder: it recomputes
    everything from `alive` (the used vertices, their lexicographic minimum
    through `extreme_point`, that vertex's star) and then runs the one
    descent, `_descend`, that the incremental `_peel_geometric` also runs.
    """
    if not alive:
        raise InputError("empty complex has no exposed simplex")
    used_ids = sorted({v for i in alive for v in c.simplices[i].vertex_ids})
    used_points = [c.vertices[v] for v in used_ids]
    v = used_ids[extreme_point(used_points)]
    work = [i for i in alive if v in c.simplices[i].vertex_ids]
    trace: list[TraceStep] = []
    i, witness = _descend(c, v, work, set(alive), trace)
    return i, witness, tuple(trace)


def _descend(c: Complex, v: int, work: list[int], live: set[int],
             trace: list[TraceStep] | None = None) -> tuple[int, Facet]:
    """Nested-hull descent from the hull vertex `v` of the live complex.

    `work` lists the live simplices containing `v`; `live` holds every live
    simplex index.  The anchor face starts as `v` and grows strictly at each
    level; the working set is every live simplex containing the anchor.  A
    facet containing the anchor that lies on the working set's hull must be
    exposed: any simplex glued to it would contain the anchor, hence belong
    to the working set, hence sit on the wrong side of its own supporting
    hyperplane.  A `trace` list, when given, receives one TraceStep per
    level.
    """
    d = c.dimension
    rows = c.homogeneous
    anchor = (v,)

    while True:
        if trace is not None:
            trace.append(TraceStep(anchor, len(work)))
        cloud = [rows[u] for u in {u for i in work for u in c.simplices[i].vertex_ids}]
        anchor_set = set(anchor)

        def on_hull(face_ids: tuple[int, ...]) -> bool:
            return hull_normal([rows[u] for u in face_ids], cloud) is not None

        # A facet containing the anchor on the hull of the working set is
        # exposed in the whole residual complex.  For inputs that are not
        # geometrically consistent (overlapping simplices) the exposure
        # argument breaks down, so the witness is verified before returning.
        for i in work:
            for f in combinations(c.simplices[i].vertex_ids, d):
                if anchor_set <= set(f) and on_hull(f):
                    if sum(j in live for j in c.facet_owners[f]) != 1:
                        raise UnrealizableComplexError(len(live))
                    return i, Facet._sliced(f)

        # Otherwise grow the anchor: the largest face strictly containing it
        # (below facet dimension) that lies on the hull.
        grown = None
        for size in range(d - 1, len(anchor), -1):
            candidates = set()
            for i in work:
                others = [u for u in c.simplices[i].vertex_ids if u not in anchor_set]
                for extra in combinations(others, size - len(anchor)):
                    candidates.add(tuple(sorted(anchor + extra)))
            for face_ids in sorted(candidates):
                if on_hull(face_ids):
                    grown = face_ids
                    break
            if grown:
                break
        if grown is None:
            raise InvariantError(
                "nested-hull descent found no hull face above the anchor; "
                "the complex is not geometrically consistent"
            )
        new_work = [
            i for i in work if set(grown) <= set(c.simplices[i].vertex_ids)
        ]
        if len(new_work) >= len(work):
            raise InvariantError(
                "nested-hull descent failed to shrink the working set"
            )
        anchor = grown
        work = new_work


# ---------------------------------------------------------------------------
# Peeling


def _peel_combinatorial(c: Complex) -> PeelCertificate:
    """Lowest-index exposed simplex first, on facet numbers: mult[k] counts
    the live owners of facet k, so when it falls to 1 the other simplex of
    k's owner pair is the live one (`peel` has rejected any facet with more
    owners).  The witness is the lexicographically smallest exposed facet,
    the last exposed one in facet_ids order."""
    n = len(c.simplices)
    owners = list(c.facet_owners.values())
    mult = list(map(len, owners))

    numbers, simplices, last = c.facet_numbers, c.simplices, c.dimension
    alive = [True] * n
    heap = sorted({own[0] for own in owners if len(own) == 1})  # sorted is a heap
    steps: list[tuple[int, Facet]] = []

    while heap:
        i = heapq.heappop(heap)
        if not alive[i]:
            continue
        alive[i] = False
        facets = numbers[i]
        p = last
        while mult[facets[p]] != 1:
            p -= 1
        ids = simplices[i].vertex_ids
        steps.append((i, Facet._sliced(ids[:p] + ids[p + 1:])))
        for k in facets:
            mult[k] -= 1
            if mult[k] == 1:
                a, b = owners[k]
                heapq.heappush(heap, b if a == i else a)

    if len(steps) != n:
        raise UnrealizableComplexError(n - len(steps))
    return PeelCertificate(tuple(steps), COMBINATORIAL)


def _peel_geometric(c: Complex) -> PeelCertificate:
    """Geometric peel that keeps its state incrementally: each vertex's
    star (simplex indices, increasing), filtered in place to its live
    simplices, and one lexicographic vertex order.  The lexicographically
    minimal used vertex can only move forward as simplices die, so a
    forward-only cursor, passing each vertex whose live star is empty,
    finds each step's hull vertex, and a step touches only that vertex's
    star."""
    star: list[list[int]] = [[] for _ in c.vertices]
    for i, s in enumerate(c.simplices):
        for v in s.vertex_ids:
            star[v].append(i)
    # A stable sort keeps extreme_point's first-minimum tie-break.
    order = sorted(range(len(c.vertices)), key=c.vertices.__getitem__)
    cursor = 0
    live = set(range(len(c.simplices)))
    steps: list[tuple[int, Facet]] = []
    while live:
        v = order[cursor]
        # Written back, so each star only shrinks; _descend never mutates it.
        star[v] = [j for j in star[v] if j in live]
        if not star[v]:
            cursor += 1
            continue
        i, witness = _descend(c, v, star[v], live)
        steps.append((i, witness))
        live.remove(i)
    return PeelCertificate(tuple(steps), GEOMETRIC)


def peel(c: Complex, method: str = COMBINATORIAL) -> PeelCertificate:
    """Remove exposed simplices until the complex is empty.

    Raises InputError for a facet of more than two simplices, under
    either method, and UnrealizableComplexError if some residual complex
    has no exposed facet (impossible for geometrically valid complexes).
    """
    if method not in (COMBINATORIAL, GEOMETRIC):
        raise InputError(f"unknown peel method {method!r}")
    build_dual(c)
    return _peel_combinatorial(c) if method == COMBINATORIAL else _peel_geometric(c)


# ---------------------------------------------------------------------------
# Coloring


def color(c: Complex, cert: PeelCertificate) -> Coloring:
    """Replay the certificate backwards, giving each simplex the smallest
    color its colored neighbors leave free.  A step must remove an uncolored
    simplex through a facet of it that no simplex removed later shares, else
    InputError; so at most d neighbors are colored and a color in {0..d} is free."""
    n = len(c.simplices)
    if len(cert.steps) != n:
        raise InputError("certificate does not cover the complex exactly once")
    adjacency = build_dual(c)
    owners = c.facet_owners
    free = set(range(c.dimension + 1))
    colors = [-1] * n
    for t, (i, witness) in enumerate(reversed(cert.steps)):
        # One or two owners, in 0..n-1, so an index outside it owns none.
        own = owners.get(witness.vertex_ids, ())
        if i not in own or colors[own[0]] >= 0 or colors[own[-1]] >= 0:
            raise InputError(f"certificate step {n - 1 - t} does not remove simplex {i} "
                             f"through an exposed facet {witness.vertex_ids}")
        colors[i] = min(free - {colors[j] for j in adjacency[i]})
    return Coloring(tuple(colors))


def verify_coloring(c: Complex, col: Coloring):
    """True plus empty list iff all colors lie in {0..d} and every pair of
    facet-sharing simplices differs; otherwise False plus violations."""
    _check_length(c, col)
    violations = []
    d = c.dimension
    colors = col.colors
    for i, k in enumerate(colors):
        if not 0 <= k <= d:
            violations.append(("color-range", i, k))
    build_dual(c)  # refuses an overglued facet
    # One conflict per glued facet whose owners i < j share a color, by i,
    # then j, then facet: identical simplices conflict once per facet.
    violations += [("conflict", i, j, f) for (i, j), f in sorted(
        (own, f) for f, own in c.facet_owners.items()
        if len(own) == 2 and colors[own[0]] == colors[own[1]])]
    return not violations, violations


# ---------------------------------------------------------------------------
# Exact chromatic number


class _Dsatur:
    """A partial coloring and DSATUR's selection order: `pick` returns the
    uncolored node of largest (saturation, degree), ties going to the
    lowest index, where a node's saturation is the number of distinct
    colors among its neighbors.

    A heap of (-saturation, -degree, node) entries replaces a scan of every
    node per pick.  Each change to an uncolored node's saturation, and each
    uncoloring, pushes a fresh entry; `pick` drops entries that no longer
    match their node.  The heap is rebuilt from the uncolored nodes once
    stale entries pile up, so backtracking keeps it O(n + edges).
    """

    def __init__(self, g: tuple[tuple[int, ...], ...]):
        n = len(g)
        self.neighbors = g
        self.colors = [-1] * n
        self.neighbor_colors: list[set[int]] = [set() for _ in range(n)]
        self._rebuild()

    def _entry(self, v: int) -> tuple[int, int, int]:
        return -len(self.neighbor_colors[v]), -len(self.neighbors[v]), v

    def _rebuild(self) -> None:
        self._heap = [self._entry(v) for v, k in enumerate(self.colors) if k < 0]
        heapq.heapify(self._heap)

    def _push(self, v: int) -> None:
        if self.colors[v] < 0:
            heapq.heappush(self._heap, self._entry(v))

    def pick(self) -> int:
        heap = self._heap
        if len(heap) > 4 * len(self.colors) + 16:
            self._rebuild()
            heap = self._heap
        while True:
            sat, _, v = heap[0]
            if self.colors[v] < 0 and -sat == len(self.neighbor_colors[v]):
                return v
            heapq.heappop(heap)

    def assign(self, v: int, col: int) -> list[int]:
        """Color v; returns the neighbors that gained `col`, for `unassign`."""
        self.colors[v] = col
        delta = []
        for w in self.neighbors[v]:
            if col not in self.neighbor_colors[w]:
                self.neighbor_colors[w].add(col)
                delta.append(w)
                self._push(w)
        return delta

    def unassign(self, v: int, col: int, delta: list[int]) -> None:
        """Undo `assign(v, col)`, which returned `delta`."""
        self.colors[v] = -1
        self._push(v)
        for w in delta:
            self.neighbor_colors[w].discard(col)
            self._push(w)


def _try_k_coloring(g: tuple[tuple[int, ...], ...], k: int):
    """A proper k-coloring, or None after exhausting the search tree.

    Depth-first over DSATUR picks with an explicit stack, so the depth is
    not bounded by the interpreter's recursion limit.  Colors are tried in
    increasing order, and a new color only right after those in use."""
    n = len(g)
    if n == 0:
        return []
    if k <= 0:
        return None
    state = _Dsatur(g)
    # One frame per colored node: (node, colors in use before it, its
    # color, the neighbors that gained that color).
    stack: list[tuple[int, int, int, list[int]]] = []
    v, used, start = state.pick(), 0, 0
    while True:
        limit = min(k, used + 1)
        col = next((x for x in range(start, limit) if x not in state.neighbor_colors[v]), None)
        if col is not None:
            stack.append((v, used, col, state.assign(v, col)))
            if len(stack) == n:
                return list(state.colors)
            v, used, start = state.pick(), max(used, col + 1), 0
            continue
        if not stack:
            return None
        v, used, col, delta = stack.pop()
        state.unassign(v, col, delta)
        start = col + 1


def exact_chromatic(g: tuple[tuple[int, ...], ...], node_limit: int = 40) -> OracleResult:
    """Exact chromatic number: the least k for which the exhaustive DSATUR
    search finds a k-coloring, tried upward from k = 0, with that search's
    coloring.  Every search below it has failed, which proves the optimum.

    On a disconnected graph k is first raised one component at a time, each
    searched on its own from the running k, so a failing search never
    backtracks through the other components; the whole graph is then
    searched once, at that k.
    """
    n = len(g)
    if n > node_limit:
        raise InputError(
            f"graph has {n} nodes, above the oracle limit {node_limit}"
        )
    k = 0
    components = _components(g)
    if len(components) > 1:
        for nodes in components:
            label = {v: t for t, v in enumerate(nodes)}
            sub = tuple(tuple(label[w] for w in g[v]) for v in nodes)
            while _try_k_coloring(sub, k) is None:
                k += 1
    while (sol := _try_k_coloring(g, k)) is None:
        k += 1
    return OracleResult(k, Coloring(tuple(sol)))
