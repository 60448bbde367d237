"""Shared test helpers."""

import heapq
from itertools import combinations

import pytest

from simplexcolor.generators import (CLOSED_FAN, DELAUNAY2D, FAN, FREUDENTHAL, PATH, TRI_TILING,
                                     GeneratorSpec, generate)


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


def _build_corpus():
    """The acceptance corpus as (label, kind, d, complex): every generator
    kind except boundary-abstract, d in {2,3,4}, sizes up to the
    10^4-simplex scale, with 50 distinct delaunay seeds."""
    corpus = []

    def add(kind, d, size, seed=0):
        c = generate(GeneratorSpec(kind, d, size, seed))
        corpus.append((f"{kind}-d{d}-s{size}-seed{seed}", kind, d, c))

    for d, sizes in ((2, (3, 4, 7, 50, 10000)), (3, (3, 6, 40)), (4, (5, 30))):
        for k in sizes:
            add(FAN, d, k)
    for n in (3, 4, 5, 6, 12, 1000, 10000):
        add(CLOSED_FAN, 2, n)
    for m in (1, 2, 5, 71):
        add(TRI_TILING, 2, m)
    for seed in range(50):
        npts = {48: 1000, 49: 5100}.get(seed, 60)
        add(DELAUNAY2D, 2, npts, seed)
    for d, ms in ((2, (1, 3, 71)), (3, (1, 2, 12)), (4, (1, 2, 4))):
        for m in ms:
            add(FREUDENTHAL, d, m)
    for d, ns in ((2, (1, 5, 10000)), (3, (6,)), (4, (5, 10000))):
        for n in ns:
            add(PATH, d, n)
    return corpus


@pytest.fixture(scope="session")
def build_corpus():
    """Builds a fresh acceptance corpus on each call, so no caller holds
    another's cached facet indices and dual graphs."""
    return _build_corpus
