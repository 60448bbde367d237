"""Output checks that do not rely on the code under test.

Everything here works on plain data: the simplex lists read straight from
the complex JSON files, color lists, and certificate steps as
``(simplex, facet ids)`` pairs.  Nothing is imported from ``simplexcolor``,
so a defect in its finders, colorer or verifier cannot hide itself.  Each
function returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
from itertools import combinations


class Instance:
    """A complex as the checks see it: dimension and sorted simplex tuples."""

    def __init__(self, dimension: int, simplices):
        self.dimension = dimension
        self.simplices = [tuple(sorted(s)) for s in simplices]
        owners: dict[tuple[int, ...], list[int]] = {}
        for i, s in enumerate(self.simplices):
            for f in _facets(s):
                owners.setdefault(f, []).append(i)
        self.owners = owners
        self.neighbors = [set() for _ in self.simplices]
        for own in owners.values():
            for a, b in combinations(own, 2):
                self.neighbors[a].add(b)
                self.neighbors[b].add(a)

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        return cls(data["dimension"], data["simplices"])

    def count_cliques(self, r: int) -> int:
        """Number of r-cliques in the facet-adjacency graph."""
        total = 0
        for v, nbrs in enumerate(self.neighbors):
            above = sorted(u for u in nbrs if u > v)
            for rest in combinations(above, r - 1):
                if all(b in self.neighbors[a] for a, b in combinations(rest, 2)):
                    total += 1
        return total


def _facets(s: tuple[int, ...]):
    return [s[:k] + s[k + 1:] for k in range(len(s))]


def coloring_problems(inst: Instance, colors) -> list[str]:
    """Every color in 0..d (so at most d+1 colors) and facet-sharing
    simplices differ."""
    n, d = len(inst.simplices), inst.dimension
    if len(colors) != n:
        return [f"coloring has {len(colors)} entries for {n} simplices"]
    out = []
    for i, k in enumerate(colors):
        if type(k) is not int or not 0 <= k <= d:
            out.append(f"simplex {i} has color {k!r} outside 0..{d}")
    for f, own in inst.owners.items():
        if len(own) > 2:
            out.append(f"facet {f} is shared by {len(own)} simplices")
        elif len(own) == 2 and colors[own[0]] == colors[own[1]]:
            out.append(f"simplices {own[0]} and {own[1]} share facet {f} and color {colors[own[0]]}")
    return out


def certificate_problems(inst: Instance, steps) -> list[str]:
    """Replay facet multiplicities along the peel order.

    Every simplex is removed exactly once, and each step's witness is a
    facet of the removed simplex with multiplicity 1 in the residual complex.
    """
    n = len(inst.simplices)
    mult = {f: len(own) for f, own in inst.owners.items()}
    removed = [False] * n
    out = []
    for k, (i, witness) in enumerate(steps):
        if type(i) is not int or not 0 <= i < n:
            out.append(f"step {k}: simplex {i!r} out of range")
            continue
        if removed[i]:
            out.append(f"step {k}: simplex {i} removed twice")
            continue
        w = tuple(witness)
        facets = _facets(inst.simplices[i])
        if w not in facets:
            out.append(f"step {k}: witness {w} is not a facet of simplex {i}")
        elif mult[w] != 1:
            out.append(f"step {k}: witness {w} has multiplicity {mult[w]} in the residual complex")
        removed[i] = True
        for f in facets:
            mult[f] -= 1
    missing = removed.count(False)
    if missing:
        out.append(f"{missing} simplices never removed")
    return out


def analysis_problems(inst: Instance, max_degree, forbidden, reports) -> list[str]:
    """No K_{d+2}; every K_{d+1} found, each a real clique with both facts true.

    ``reports`` holds ``(clique nodes, vertex_count_ok, halfspace_ok)``.
    """
    d = inst.dimension
    out = []
    true_max = max((len(nb) for nb in inst.neighbors), default=0)
    if max_degree != true_max or max_degree > d + 1:
        out.append(f"max degree reported {max_degree}, actual {true_max}, bound {d + 1}")
    if forbidden is not None:
        out.append(f"K_{d + 2} reported at {forbidden}")
    seen = set()
    for nodes, count_ok, halfspace_ok in reports:
        nodes = tuple(sorted(nodes))
        if len(nodes) != d + 1 or not all(
            b in inst.neighbors[a] for a, b in combinations(nodes, 2)
        ):
            out.append(f"reported K_{d + 1} {nodes} is not a clique")
        if not (count_ok and halfspace_ok):
            out.append(f"K_{d + 1} {nodes}: vertex count ok {count_ok}, halfspace ok {halfspace_ok}")
        seen.add(nodes)
    expected = inst.count_cliques(d + 1)
    if len(seen) != expected or len(reports) != expected:
        out.append(f"{len(reports)} K_{d + 1} reports, {expected} cliques exist")
    return out


def chromatic_problems(inst: Instance, kind: str, size: int, answer) -> list[str]:
    """Closed fans of n triangles need 2 colors for even n, 3 for odd n;
    any other valid complex needs at most d+1."""
    d = inst.dimension
    if kind == "closed-fan" or (kind == "fan" and d == 2):
        expected = 2 if size % 2 == 0 else 3
        if answer != expected:
            return [f"chromatic number {answer} for a closed fan of {size}, expected {expected}"]
        return []
    if type(answer) is not int or not 1 <= answer <= d + 1:
        return [f"chromatic number {answer!r} outside 1..{d + 1}"]
    return []


def svg_problems(inst: Instance, svg: bytes, show_dual: bool) -> list[str]:
    """One polygon per simplex and, with the dual overlay, one line per glued facet."""
    out = []
    polygons = svg.count(b"<polygon ")
    if polygons != len(inst.simplices):
        out.append(f"SVG has {polygons} polygons for {len(inst.simplices)} simplices")
    if show_dual:
        glued = sum(1 for own in inst.owners.values() if len(own) == 2)
        lines = svg.count(b"<line ")
        if lines != glued:
            out.append(f"SVG has {lines} dual edges for {glued} glued facets")
    return out


class Digests:
    """Byte-identity of repeated outputs: the first digest seen under a key
    is the reference for every later one."""

    def __init__(self):
        self.seen: dict[str, str] = {}

    def problems(self, key: str, data: bytes) -> list[str]:
        h = hashlib.sha256(data).hexdigest()
        ref = self.seen.setdefault(key, h)
        return [] if ref == h else [f"{key}: output differs from the first repetition"]
