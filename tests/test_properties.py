"""Cross-module invariants checked over a corpus of generated complexes."""

from itertools import combinations

import pytest

from simplexcolor.coloring import COMBINATORIAL, GEOMETRIC, color, exact_chromatic, peel, verify_coloring
from simplexcolor.dual import build_dual, stats
from simplexcolor.errors import UnrealizableComplexError
from simplexcolor.generators import (
    BOUNDARY_ABSTRACT,
    CLOSED_FAN,
    DELAUNAY2D,
    FAN,
    FREUDENTHAL,
    PATH,
    TRI_TILING,
    GeneratorSpec,
    generate,
)
from simplexcolor.model import COMBINATORIAL as LEVEL_COMBINATORIAL
from simplexcolor.model import GEOMETRIC_STRICT, validate

CORPUS_SPECS = [
    GeneratorSpec(FAN, 2, 3),
    GeneratorSpec(FAN, 2, 9),
    GeneratorSpec(FAN, 3, 4),
    GeneratorSpec(FAN, 4, 5),
    GeneratorSpec(CLOSED_FAN, 2, 8),
    GeneratorSpec(TRI_TILING, 2, 4),
    GeneratorSpec(DELAUNAY2D, 2, 40, seed=1),
    GeneratorSpec(DELAUNAY2D, 2, 70, seed=2),
    GeneratorSpec(FREUDENTHAL, 2, 2),
    GeneratorSpec(FREUDENTHAL, 3, 2),
    GeneratorSpec(FREUDENTHAL, 4, 1),
    GeneratorSpec(PATH, 1, 6),
    GeneratorSpec(PATH, 2, 7),
    GeneratorSpec(PATH, 3, 5),
]


@pytest.fixture(scope="module")
def corpus():
    return [(spec, generate(spec)) for spec in CORPUS_SPECS]


def test_all_kinds_validate(corpus):
    for spec, c in corpus:
        assert validate(c, LEVEL_COMBINATORIAL).ok, spec
        if spec.dimension <= 3:
            assert validate(c, GEOMETRIC_STRICT).ok, spec


def test_facet_multiplicity_at_most_two(corpus):
    for spec, c in corpus:
        assert set(map(len, c.facet_owners.values())) <= {1, 2}, spec


def test_max_dual_degree_at_most_d_plus_1(corpus):
    for spec, c in corpus:
        g = build_dual(c)
        st = stats(g, spec.dimension)
        assert st.max_degree <= spec.dimension + 1, spec


def test_oracle_never_exceeds_d_plus_1(corpus):
    for spec, c in corpus:
        g = build_dual(c)
        if len(g) > 40:
            continue
        res = exact_chromatic(g)
        assert res.chromatic_number <= spec.dimension + 1, spec
        ok, _ = verify_coloring(c, res.optimal_coloring)
        assert ok or max(res.optimal_coloring.colors) > spec.dimension


def test_both_methods_color_within_budget(corpus):
    for spec, c in corpus:
        for method in (COMBINATORIAL, GEOMETRIC):
            col = color(c, peel(c, method))
            ok, violations = verify_coloring(c, col)
            assert ok, (spec, method, violations)
            assert max(col.colors) <= spec.dimension


def test_boundary_abstract_is_the_negative_control():
    # combinatorially valid for every dimension, never geometrically valid
    for d in (1, 2, 3):
        c = generate(GeneratorSpec(BOUNDARY_ABSTRACT, d))
        assert validate(c, LEVEL_COMBINATORIAL).ok
        rep = validate(c, GEOMETRIC_STRICT)
        assert not rep.ok


def brute_force_owners(c):
    # combinations() yields the d-subsets leaving out the last vertex first,
    # so reversed() gives the index's order: leave out vertex 0, 1, ..., d.
    owners = {}
    for i, s in enumerate(c.simplices):
        for f in reversed(list(combinations(s.vertex_ids, c.dimension))):
            owners.setdefault(f, []).append(i)
    return [(f, tuple(own)) for f, own in owners.items()]


def test_facet_owners_match_brute_force(corpus):
    for spec, c in corpus:
        assert list(c.facet_owners.items()) == brute_force_owners(c), spec
        assert all(type(f) is tuple for f in c.facet_owners), spec
        keys = list(c.facet_owners)
        assert type(c.facet_numbers) is tuple and len(c.facet_numbers) == len(c.simplices), spec
        for s, numbers in zip(c.simplices, c.facet_numbers):
            assert type(numbers) is tuple, spec
            assert tuple(keys[k] for k in numbers) == s.facet_ids(), spec
            ids = s.vertex_ids
            assert s.facet_ids() == tuple(ids[:k] + ids[k + 1:] for k in range(len(ids)))


def test_peel_matches_tuple_keyed_reference(corpus, tuple_keyed_peel):
    """The facet-number peel gives the reference's certificate on every
    corpus complex, and stalls where it stalls on boundary-abstract."""
    for spec, c in corpus:
        cert = peel(c, COMBINATORIAL)
        assert [(i, f.vertex_ids) for i, f in cert.steps] == tuple_keyed_peel(c), spec
    for d in (1, 2, 3, 4):
        c = generate(GeneratorSpec(BOUNDARY_ABSTRACT, d))
        with pytest.raises(UnrealizableComplexError) as stall:
            peel(c, COMBINATORIAL)
        assert stall.value.residual_size == len(c.simplices) - len(tuple_keyed_peel(c))


def test_facet_owners_never_mutated(corpus):
    for spec, c in corpus:
        index = c.facet_owners
        before = list(index.items())
        for method in (COMBINATORIAL, GEOMETRIC):
            cert = peel(c, method)
        validate(c, LEVEL_COMBINATORIAL)
        if spec.dimension <= 3:
            validate(c, GEOMETRIC_STRICT)
        verify_coloring(c, color(c, cert))
        build_dual(c)
        assert c.facet_owners is index, spec
        assert list(index.items()) == before, spec
