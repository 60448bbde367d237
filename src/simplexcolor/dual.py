"""Facet-adjacency dual graph of a complex, degree statistics and cliques.

Nodes are simplices; an edge joins two simplices exactly when they share d
vertex indices (a whole facet).  The graph is plain data: a tuple whose
entry i holds node i's neighbors in increasing order (`Complex.dual`).
Every node has degree at most d+1, which keeps clique search linear: a
clique of size r must sit inside a closed neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul

from .errors import InputError
from .geometry import facet_normal
from .model import Complex


@dataclass(frozen=True)
class GraphStats:
    max_degree: int
    component_count: int
    chromatic_upper_bound: int
    clique_exclusion_bound: int | None  # None when the K_r bound's precondition fails


@dataclass(frozen=True)
class CliqueReport:
    clique_nodes: tuple[int, ...]
    distinct_vertex_ids: frozenset[int]
    vertex_count_ok: bool
    halfspace_condition_ok: bool


def build_dual(c: Complex) -> tuple[tuple[int, ...], ...]:
    """Adjacency over shared facets; rejects facets owned by > 2 simplices.

    The graph is built once per complex and cached on it (Complex.dual), so
    coloring, verification, rendering and analysis all read the same one.
    """
    return c.dual


def stats(g: tuple[tuple[int, ...], ...], d: int) -> GraphStats:
    """Degree and component counts plus the no-K_{d+2} chromatic bound.

    The bound floor((r-1)/r * (max_degree+2)) with r = d+2 applies only when
    4 <= r <= max_degree+1; outside that range the greedy bound
    max_degree+1 is reported instead.
    """
    max_degree = max(map(len, g), default=0)
    components = len(_components(g))
    r = d + 2
    exclusion_bound = None
    if 4 <= r <= max_degree + 1:
        exclusion_bound = (r - 1) * (max_degree + 2) // r
    upper = exclusion_bound if exclusion_bound is not None else max_degree + 1
    return GraphStats(max_degree, components, upper, exclusion_bound)


def _components(g: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """The node lists of the connected components, in order of their least
    node; each list in search order."""
    seen = [False] * len(g)
    components = []
    for start in range(len(g)):
        if seen[start]:
            continue
        seen[start] = True
        component, stack = [start], [start]
        while stack:
            for w in g[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
                    stack.append(w)
        components.append(component)
    return components


def _is_clique(g: tuple[tuple[int, ...], ...], nodes: tuple[int, ...]) -> bool:
    return all(b in g[a] for a, b in combinations(nodes, 2))


def _cliques(g: tuple[tuple[int, ...], ...], r: int):
    """Every r-clique as a sorted node list, in increasing order.

    Degrees are bounded by d+1, so every r-clique lies inside the closed
    neighborhood of its minimal node; the scan is linear in nodes.
    """
    if r < 2:
        raise InputError(f"clique size must be >= 2, got {r}")
    for v, nbrs in enumerate(g):
        above = [u for u in nbrs if u > v]
        for rest in combinations(above, r - 1):
            if _is_clique(g, rest):
                yield [v] + list(rest)


def find_clique(g: tuple[tuple[int, ...], ...], r: int):
    """Some r-clique as a sorted node list, or None."""
    return next(_cliques(g, r), None)


def find_all_cliques(g: tuple[tuple[int, ...], ...], r: int) -> list[list[int]]:
    """Every r-clique, each reported once (sorted by its node list)."""
    return list(_cliques(g, r))


def analyze_max_clique_configuration(c: Complex, clique: list[int]) -> CliqueReport:
    """Check the two structural facts about a K_{d+1} of glued simplices.

    vertex_count_ok: the d+1 simplices use exactly d+2 distinct vertices.
    halfspace_condition_ok: with the common vertex as the apex and the base
    facet of the lowest-index clique simplex as reference hyperplane, the
    one vertex outside that simplex lies strictly on the same side as the
    apex.
    """
    d = c.dimension
    if len(clique) != d + 1 or len(set(clique)) != d + 1:
        raise InputError(f"expected {d + 1} distinct simplex indices, got {clique}")
    for i in clique:
        if not 0 <= i < len(c.simplices):
            raise InputError(f"simplex index {i} out of range")
    id_sets = {i: set(c.simplices[i].vertex_ids) for i in clique}
    for a, b in combinations(clique, 2):
        if len(id_sets[a] & id_sets[b]) != d:
            raise InputError(
                f"simplices {a} and {b} do not share a facet; input is not a clique"
            )

    union: set[int] = set()
    for i in clique:
        union |= id_sets[i]
    vertex_count_ok = len(union) == d + 2
    if not vertex_count_ok:
        return CliqueReport(tuple(sorted(clique)), frozenset(union), False, False)

    # The apex is the one vertex every clique simplex contains: each simplex
    # leaves out one of the d + 2 vertices, no two the same one (they share
    # exactly d), so exactly one vertex is left out by none.
    (apex,) = set.intersection(*id_sets.values())

    first = min(clique)
    base_ids = sorted(id_sets[first] - {apex})
    outside = next(iter(union - id_sets[first]))
    rows = c.homogeneous
    h = facet_normal([rows[i] for i in base_ids])
    if not any(h):
        raise InputError(f"vertices {base_ids} do not span a hyperplane")
    # h · (p·q, q) is q > 0 times p's side: a positive product means one strict side.
    side_apex, side_outside = (sum(map(mul, h, rows[v])) for v in (apex, outside))
    halfspace_ok = side_apex * side_outside > 0
    return CliqueReport(tuple(sorted(clique)), frozenset(union), True, halfspace_ok)
