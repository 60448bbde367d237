"""Shared test helpers."""

import heapq
from itertools import combinations

import pytest


def _tuple_keyed_peel(c):
    """The combinatorial peel as a reference, on facet tuples: a
    multiplicity dict keyed by each facet's vertex ids, the lowest-index
    simplex with an exposed facet first, and the smallest exposed facet as
    its witness.  Returns the (simplex, witness ids) steps it reaches; a
    stalled peel returns fewer steps than simplices."""
    d = c.dimension
    owners = {}
    for i, s in enumerate(c.simplices):
        for f in combinations(s.vertex_ids, d):
            owners.setdefault(f, []).append(i)
    mult = {f: len(own) for f, own in owners.items()}
    alive = [True] * len(c.simplices)
    heap = sorted({own[0] for own in owners.values() if len(own) == 1})
    steps = []
    while heap:
        i = heapq.heappop(heap)
        if not alive[i]:
            continue
        facets = list(combinations(c.simplices[i].vertex_ids, d))
        steps.append((i, min(f for f in facets if mult[f] == 1)))
        alive[i] = False
        for f in facets:
            mult[f] -= 1
            if mult[f] == 1:
                heapq.heappush(heap, next(j for j in owners[f] if alive[j]))
    return steps


@pytest.fixture(scope="session")
def tuple_keyed_peel():
    return _tuple_keyed_peel
