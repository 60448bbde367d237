"""Acceptance suite.

One test per acceptance criterion, plus strict validation of the larger
planar, 3D and 4D instances and the geometric peel at scale, each
printing a PASS line with the measured numbers (run with `pytest -s
tests/test_acceptance.py` to see them).  Tolerances are exact wherever
rational arithmetic decides, and the only timing budget is 10 seconds per
big instance, for the color pipeline, for the geometric peel and for
strict validation.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby, product

import pytest

from simplexcolor.coloring import (
    COMBINATORIAL,
    GEOMETRIC,
    PeelCertificate,
    _find_exposed_geometric,
    color,
    exact_chromatic,
    peel,
    certificate_to_dict,
)
from simplexcolor.dual import (
    analyze_max_clique_configuration,
    build_dual,
    find_all_cliques,
    find_clique,
    stats,
)
from simplexcolor.errors import InputError
from simplexcolor.generators import (
    BOUNDARY_ABSTRACT,
    CLOSED_FAN,
    DELAUNAY2D,
    FAN,
    TRI_TILING,
    GeneratorSpec,
    generate,
)
from simplexcolor.model import (
    GEOMETRIC_STRICT,
    Coloring,
    Complex,
    Facet,
    Simplex,
    complex_to_dict,
    load,
    save,
    validate,
)
from simplexcolor.render import RenderOptions, render_svg
from simplexcolor.coloring import verify_coloring

BIG = 9000          # instances at the 10^4 scale
TIME_BUDGET = 10.0  # seconds per big instance and timed stage (see above)
DELAUNAY_SEEDS = 50


def four_tetrahedra_k4():
    verts = (
        (Fraction(1, 4), Fraction(1, 4), 1),
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (Fraction(1, 4), Fraction(1, 4), 2),
    )
    return Complex(
        3, verts,
        tuple(Simplex(ids) for ids in ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4))),
    )


def pinwheel():
    blade = [(1, 1, 0), (1, 2, 2), (1, -1, 5)]
    rot = lambda p: (p[0], -p[2], p[1])
    a, b, c = blade
    pts = [(0, 0, 0), a, b, c, (1, 1, 1)]
    for _ in range(3):
        a, b, c = rot(a), rot(b), rot(c)
        pts += [a, b, c]
    simplices = (
        Simplex((0, 1, 3, 4)), Simplex((0, 2, 3, 4)),
        Simplex((0, 5, 6, 7)), Simplex((0, 8, 9, 10)), Simplex((0, 11, 12, 13)),
    )
    return Complex(3, pts, simplices)


@pytest.fixture(scope="module")
def corpus(build_corpus):
    return build_corpus()


def test_criterion_1_every_valid_complex_gets_d_plus_1_colors(corpus):
    """Every generated complex is peeled and colored with at most d+1
    colors, verified independently; 10^4-scale instances stay under the
    time budget."""
    big_seen = 0
    worst = 0.0
    assert sum(1 for _, kind, _, _ in corpus if kind == DELAUNAY2D) == DELAUNAY_SEEDS
    for label, kind, d, c in corpus:
        t0 = time.perf_counter()
        cert = peel(c, COMBINATORIAL)
        col = color(c, cert)
        ok, violations = verify_coloring(c, col)
        elapsed = time.perf_counter() - t0
        assert ok, (label, violations)
        assert max(col.colors) <= d, label
        if len(c.simplices) >= BIG:
            big_seen += 1
            assert elapsed < TIME_BUDGET, (label, elapsed)
            worst = max(worst, elapsed)
    assert big_seen >= 5
    print(f"\nPASS criterion 1: {len(corpus)} instances colored with <= d+1 colors; "
          f"{big_seen} instances at the 10^4 scale, worst pipeline {worst:.2f}s")


def test_criterion_2_geometric_finder_agreement(corpus):
    """On every valid geometric instance with <= 500 simplices (d in {2,3})
    the nested-hull finder's trace strictly decreases, each witness facet
    has multiplicity 1 in its residual complex (recomputed independently),
    and the full geometric peel succeeds with exactly the steps of the
    per-call finder.  Zero failures allowed."""
    small = [
        (label, d, c) for label, kind, d, c in corpus
        if d <= 3 and len(c.simplices) <= 500
    ]
    small.append(("delaunay2d-medium", 2, generate(GeneratorSpec(DELAUNAY2D, 2, 250, 5))))
    small.append(("tri-tiling-15", 2, generate(GeneratorSpec(TRI_TILING, 2, 15))))
    small.append(("four-tet-k4", 3, four_tetrahedra_k4()))
    small.append(("pinwheel", 3, pinwheel()))

    steps_checked = 0
    deep_traces = 0
    for label, d, c in small:
        alive = list(range(len(c.simplices)))
        order = []
        while alive:
            i, witness, trace = _find_exposed_geometric(c, alive)
            sizes = [t.subset_size for t in trace]
            assert sizes[0] <= len(alive), label
            assert all(a > b for a, b in zip(sizes, sizes[1:])), (label, sizes)
            owners = [
                j for j in alive
                if set(witness.vertex_ids) <= set(c.simplices[j].vertex_ids)
            ]
            assert owners == [i], (label, i, witness)
            if len(trace) > 1:
                deep_traces += 1
            order.append((i, witness))
            alive.remove(i)
            steps_checked += 1
        assert sorted(i for i, _ in order) == list(range(len(c.simplices))), label
        cert = peel(c, GEOMETRIC)
        assert cert.steps == tuple(order), label
        col = color(c, cert)
        ok, violations = verify_coloring(c, col)
        assert ok and max(col.colors) <= d, (label, violations)
    assert deep_traces >= 1  # the pinwheel forces at least one descent
    print(f"PASS criterion 2: {len(small)} instances, {steps_checked} geometric "
          f"peel steps, all traces strictly decreasing, all witnesses exposed "
          f"({deep_traces} steps required hull descent)")


def _replay_certificate(c, cert):
    """Facet multiplicities replayed from scratch: every simplex is removed
    exactly once, and each witness is a facet of its simplex owned by no
    other simplex still present."""
    d = c.dimension
    mult = Counter(f for s in c.simplices for f in combinations(s.vertex_ids, d))
    removed = set()
    for i, witness in cert.steps:
        assert 0 <= i < len(c.simplices) and i not in removed, i
        ids = c.simplices[i].vertex_ids
        assert len(witness.vertex_ids) == d and set(witness.vertex_ids) <= set(ids), (i, witness)
        assert mult[witness.vertex_ids] == 1, (i, witness)
        removed.add(i)
        mult.subtract(combinations(ids, d))
    assert len(removed) == len(c.simplices)


def test_combinatorial_peel_at_scale_matches_tuple_keyed_reference(corpus, tuple_keyed_peel):
    """On the corpus's 10^4-scale instances the facet-number peel returns
    the same certificate as the tuple-keyed reference peel."""
    big = [(label, c) for label, _kind, _d, c in corpus if len(c.simplices) >= BIG]
    assert len(big) >= 8
    for label, c in big:
        cert = peel(c, COMBINATORIAL)
        assert [(i, f.vertex_ids) for i, f in cert.steps] == tuple_keyed_peel(c), label
    print(f"PASS combinatorial peel at scale: {len(big)} instances match the reference")


def test_geometric_peel_at_scale(corpus):
    """Every corpus instance above criterion 2's 500-simplex cap, the 10^4
    scale included, is peeled geometrically within the time budget; the
    certificate replays and colors the complex with d+1 colors.  The two
    10^4 hub fans are left out: once the hub is the anchor its star is the
    whole residual complex, so each step still scans every live simplex and
    the peel stays quadratic.  Hub fans of 3000 simplices, in d = 2 and
    d = 3, are peeled in their place."""
    cases = [
        (label, d, c) for label, kind, d, c in corpus
        if len(c.simplices) > 500 and kind not in (FAN, CLOSED_FAN)
    ]
    for kind, d in ((CLOSED_FAN, 2), (FAN, 3)):
        cases.append((f"{kind}-d{d}-s3000-seed0", d, generate(GeneratorSpec(kind, d, 3000))))
    labels = {label for label, _d, _c in cases}
    assert {"delaunay2d-d2-s5100-seed49", "freudenthal-d3-s12-seed0"} <= labels
    times = []
    for label, d, c in cases:
        t0 = time.perf_counter()
        cert = peel(c, GEOMETRIC)
        elapsed = time.perf_counter() - t0
        assert elapsed < TIME_BUDGET, (label, elapsed)
        times.append(f"{label} ({len(c.simplices)}) {elapsed:.2f}s")
        _replay_certificate(c, cert)
        col = color(c, cert)
        ok, violations = verify_coloring(c, col)
        assert ok and max(col.colors) <= d, (label, violations)
    print("PASS geometric peel at scale: " + ", ".join(times))


def _replays(c, cert):
    try:
        _replay_certificate(c, cert)
    except AssertionError:
        return False
    return True


def _mutated(c, steps, kind, rng):
    """One mutation of a certificate of at least two steps, at a random
    position."""
    steps = list(steps)
    n = len(steps)
    t = rng.randrange(n)
    i, witness = steps[t]
    if kind == "swap":
        t = min(t, n - 2)
        steps[t], steps[t + 1] = steps[t + 1], steps[t]
    elif kind == "witness":
        # Another facet, most often of the same simplex.
        owner = i if rng.random() < 0.7 else rng.randrange(len(c.simplices))
        steps[t] = (i, Facet(rng.choice(c.simplices[owner].facet_ids())))
    elif kind == "drop":
        del steps[t]
    elif kind == "repeat":
        steps.insert(t, steps[t])
    elif kind == "repeat-over":
        steps[rng.choice([u for u in range(n) if u != t])] = steps[t]
    elif kind == "negative":
        steps[t] = (i - n, witness)
    elif kind == "past-end":
        steps[t] = (i + n, witness)
    return tuple(steps)


MUTATIONS = ("swap", "witness", "drop", "repeat", "repeat-over", "negative", "past-end")


def test_color_accepts_exactly_the_replayed_certificates(corpus):
    """`color` checks each step through the facet index; the test-local
    replay recounts facet multiplicities from scratch.  On both peels'
    certificates of every corpus instance of 2 to 200 simplices, and on
    mutations of them (adjacent steps swapped, a witness replaced, a step
    dropped or repeated, a negative or out-of-range index), `color`
    accepts exactly what the replay accepts, and every accepted coloring
    verifies with at most d + 1 colors."""
    rng = random.Random(28)
    tally = Counter()
    for label, _kind, d, c in corpus:
        if not 2 <= len(c.simplices) <= 200:
            continue
        for method in (COMBINATORIAL, GEOMETRIC):
            cert = peel(c, method)
            cases = [("peel", cert.steps)] + [
                (kind, _mutated(c, cert.steps, kind, rng)) for kind in MUTATIONS for _ in range(3)]
            for kind, steps in cases:
                forged = PeelCertificate(steps, method)
                replayed = _replays(c, forged)
                try:
                    col = color(c, forged)
                except InputError:
                    col = None
                assert (col is not None) == replayed, (label, method, kind, steps)
                if col is not None:
                    ok, violations = verify_coloring(c, col)
                    assert ok and max(col.colors) <= d, (label, violations)
                tally[kind, replayed] += 1
    assert tally["peel", True] >= 80 and not tally["peel", False], tally
    # Swaps and witness changes can keep a certificate valid, so both
    # answers occur; the other mutations never do.
    for kind in ("swap", "witness"):
        assert tally[kind, True] and tally[kind, False], (kind, tally)
    for kind in ("drop", "repeat", "repeat-over", "negative", "past-end"):
        assert tally[kind, False] and not tally[kind, True], (kind, tally)
    print(f"PASS certificate check: {sum(tally.values())} certificates, "
          f"{sum(v for (_, ok), v in tally.items() if ok)} accepted")


def _conflicts_by_dual_edges(c, colors):
    """verify_coloring's conflict list as it was built before it read the
    facet index: each dual edge i < j once, then the facets of i that j
    contains, in increasing order."""
    conflicts = [(i, j) for i, nbrs in enumerate(build_dual(c))
                 for j in nbrs if i < j and colors[j] == colors[i]]
    out = []
    for (i, j), _ in groupby(conflicts):
        ids = set(c.simplices[j].vertex_ids)
        out += [("conflict", i, j, f) for f in sorted(c.simplices[i].facet_ids())
                if ids.issuperset(f)]
    return out


def test_verify_conflicts_match_the_dual_edge_enumeration(corpus):
    """On random colorings of corpus instances up to 1000 simplices, and of
    two identical simplices, verify_coloring lists the same violations, in
    the same order, as the enumeration over dual edges."""
    rng = random.Random(2028)
    instances = [c for _label, _kind, _d, c in corpus if len(c.simplices) <= 1000]
    instances.append(Complex(2, ((0, 0), (1, 0), (0, 1)), ((0, 1, 2), (0, 1, 2))))
    checked = 0
    for c in instances:
        d = c.dimension
        for top in (2, d + 1, d + 3):
            colors = [rng.randrange(top) for _ in c.simplices]
            expected = [("color-range", i, k) for i, k in enumerate(colors) if k > d]
            expected += _conflicts_by_dual_edges(c, colors)
            ok, violations = verify_coloring(c, Coloring(tuple(colors)))
            assert violations == expected and ok == (not expected)
            checked += bool(expected)
    assert checked > len(instances)


def test_strict_validation_of_large_planar_instances(corpus):
    """The corpus's larger planar instances, the 10^4-triangle closed fan
    around one hub vertex included, pass geometric-strict validation within
    the time budget: no degenerate simplex and no interior overlap."""
    labels = (
        "tri-tiling-d2-s71-seed0",
        "freudenthal-d2-s71-seed0",
        "path-d2-s10000-seed0",
        "delaunay2d-d2-s1000-seed48",
        "closed-fan-d2-s1000-seed0",
        "closed-fan-d2-s10000-seed0",
    )
    by_label = {label: c for label, _kind, _d, c in corpus}
    times = []
    for label in labels:
        c = by_label[label]
        t0 = time.perf_counter()
        report = validate(c, GEOMETRIC_STRICT)
        elapsed = time.perf_counter() - t0
        assert report.ok, (label, report.summary())
        assert elapsed < TIME_BUDGET, (label, elapsed)
        times.append(f"{label} ({len(c.simplices)}) {elapsed:.2f}s")
    print("PASS strict validation: " + ", ".join(times))


def test_strict_validation_of_large_3d_instances(corpus):
    """Freudenthal d3 m12 (10368 simplices) and the fans of 1000 and 10^4
    tetrahedra, all of which share the hub edge, pass geometric-strict
    validation within the time budget."""
    by_label = {label: c for label, _kind, _d, c in corpus}
    cases = [
        ("freudenthal-d3-s12-seed0", by_label["freudenthal-d3-s12-seed0"]),
        ("fan-d3-s1000-seed0", generate(GeneratorSpec(FAN, 3, 1000))),
        ("fan-d3-s10000-seed0", generate(GeneratorSpec(FAN, 3, 10000))),
    ]
    times = []
    for label, c in cases:
        t0 = time.perf_counter()
        report = validate(c, GEOMETRIC_STRICT)
        elapsed = time.perf_counter() - t0
        assert report.ok, (label, report.summary())
        assert elapsed < TIME_BUDGET, (label, elapsed)
        times.append(f"{label} ({len(c.simplices)}) {elapsed:.2f}s")
    print("PASS strict validation in 3D: " + ", ".join(times))


def test_strict_validation_in_4d(corpus):
    """Every d = 4 corpus instance, and the fan of 10^4 4-simplices around
    one hub triangle, passes geometric-strict validation within the time
    budget: the overlap check runs in every dimension, so criteria 3 and 4
    do not take these instances on trust."""
    cases = [(label, c) for label, _kind, d, c in corpus if d == 4]
    assert {label for label, _c in cases} == {
        "fan-d4-s5-seed0", "fan-d4-s30-seed0", "freudenthal-d4-s1-seed0",
        "freudenthal-d4-s2-seed0", "freudenthal-d4-s4-seed0", "path-d4-s5-seed0",
        "path-d4-s10000-seed0",
    }
    cases.append(("fan-d4-s10000-seed0", generate(GeneratorSpec(FAN, 4, 10000))))
    times = []
    for label, c in cases:
        t0 = time.perf_counter()
        report = validate(c, GEOMETRIC_STRICT)
        elapsed = time.perf_counter() - t0
        assert report.ok, (label, report.summary())
        assert elapsed < TIME_BUDGET, (label, elapsed)
        times.append(f"{label} ({len(c.simplices)}) {elapsed:.2f}s")
    print("PASS strict validation in 4D: " + ", ".join(times))


def test_criterion_3_no_forbidden_clique(corpus):
    """Exhaustive K_{d+2} search over all generated valid complexes finds
    none; the abstract boundary control yields K_{d+2} and exact chromatic
    number d+2 for d in {2,3}."""
    for label, _kind, d, c in corpus:
        g = build_dual(c)
        assert find_clique(g, d + 2) is None, label
    for d in (2, 3):
        control = generate(GeneratorSpec(BOUNDARY_ABSTRACT, d))
        g = build_dual(control)
        assert find_clique(g, d + 2) == list(range(d + 2))
        assert exact_chromatic(g).chromatic_number == d + 2
    print(f"PASS criterion 3: K_(d+2) absent in all {len(corpus)} valid instances; "
          f"abstract boundary controls reach chi = d+2 for d in (2, 3)")


def test_criterion_4_max_clique_configuration(corpus):
    """Every K_{d+1} found in fan, closed-fan and delaunay instances
    (d in {2,3}) spans exactly d+2 vertices with the halfspace condition
    holding; zero failures."""
    instances = [
        (label, d, c) for label, kind, d, c in corpus
        if kind in (FAN, CLOSED_FAN, DELAUNAY2D) and d <= 3
    ]
    instances.append(("four-tet-k4", 3, four_tetrahedra_k4()))
    cliques_checked = 0
    for label, d, c in instances:
        g = build_dual(c)
        for clique in find_all_cliques(g, d + 1):
            rep = analyze_max_clique_configuration(c, clique)
            assert rep.vertex_count_ok, (label, clique)
            assert len(rep.distinct_vertex_ids) == d + 2, (label, clique)
            assert rep.halfspace_condition_ok, (label, clique)
            cliques_checked += 1
    assert cliques_checked > 50
    print(f"PASS criterion 4: {cliques_checked} maximal-clique configurations "
          f"checked, all with d+2 vertices and the halfspace condition")


def test_criterion_5_tightness():
    """The 3-triangle fan needs exactly 3 colors and the four-tetrahedra
    configuration exactly 4; the greedy colorer matches both optima."""
    fan3 = generate(GeneratorSpec(FAN, 2, 3))
    res = exact_chromatic(build_dual(fan3))
    assert res.chromatic_number == 3
    col = color(fan3, peel(fan3))
    assert len(set(col.colors)) == 3

    tetra = four_tetrahedra_k4()
    res = exact_chromatic(build_dual(tetra))
    assert res.chromatic_number == 4
    col = color(tetra, peel(tetra))
    assert len(set(col.colors)) == 4
    print("PASS criterion 5: chi(fan of 3) = 3 and chi(four tetrahedra) = 4, "
          "greedy coloring matches both")


def test_criterion_6_degree_bound_consistency(corpus):
    """For K_{d+2}-free instances within oracle limits whose max degree
    reaches d+1, the exact chromatic number respects
    floor((d+1)/(d+2) * (max_degree+2)); for d=2 that bound evaluates to 3."""
    applied = 0
    full_degree_d2 = 0
    cases = [(label, d, c) for label, _k, d, c in corpus if len(c.simplices) <= 48]
    for label, d, c in cases:
        g = build_dual(c)
        if find_clique(g, d + 2) is not None:
            continue
        st = stats(g, d)
        if st.clique_exclusion_bound is None:
            continue  # precondition 4 <= d+2 <= max_degree+1 fails
        bound = (d + 1) * (st.max_degree + 2) // (d + 2)
        assert st.clique_exclusion_bound == bound, label
        chi = exact_chromatic(g, node_limit=48).chromatic_number
        assert chi <= bound, (label, chi, bound)
        applied += 1
        if d == 2:
            assert st.max_degree == 3 and bound == 3, label
            full_degree_d2 += 1
    assert applied >= 2 and full_degree_d2 >= 1
    print(f"PASS criterion 6: bound floor((d+1)/(d+2)*(max_degree+2)) verified "
          f"against exact chi on {applied} full-degree instances "
          f"({full_degree_d2} planar ones at bound 3)")


def test_criterion_7_closed_fan_parity():
    """Closed fans of n triangles: exact chi is 2 for even n, 3 for odd n
    (checked against exhaustive 2-coloring search); the colorer never
    exceeds 3 colors."""
    for n in range(3, 15):
        c = generate(GeneratorSpec(CLOSED_FAN, 2, n))
        g = build_dual(c)
        edges = [(i, j) for i, nbrs in enumerate(g) for j in nbrs if i < j]
        two_colorable = any(
            all(a[i] != a[j] for i, j in edges)
            for a in product((0, 1), repeat=n)
        )
        expected = 2 if n % 2 == 0 else 3
        assert two_colorable == (expected == 2), n
        assert exact_chromatic(g).chromatic_number == expected, n
        col = color(c, peel(c))
        ok, _ = verify_coloring(c, col)
        assert ok and len(set(col.colors)) <= 3, n
    print("PASS criterion 7: closed fans n=3..14 have chi = 2 (even) / 3 (odd) "
          "by exhaustive 2-coloring; colorer stays within 3 colors")


def test_criterion_8_round_trip_and_determinism(corpus, tmp_path):
    """load(save(c)) == c for every instance; certificates, colorings and
    rendered SVG are byte-identical across repeated runs."""
    for label, _kind, _d, c in corpus:
        path = str(tmp_path / "c.json")
        save(c, path)
        assert load(path) == c, label

    import json

    for spec in (GeneratorSpec(FAN, 2, 7), GeneratorSpec(DELAUNAY2D, 2, 60, 3),
                 GeneratorSpec(TRI_TILING, 2, 5)):
        c1, c2 = generate(spec), generate(spec)
        assert json.dumps(complex_to_dict(c1)) == json.dumps(complex_to_dict(c2))
        cert1, cert2 = peel(c1), peel(c2)
        assert json.dumps(certificate_to_dict(cert1)) == json.dumps(certificate_to_dict(cert2))
        assert color(c1, cert1) == color(c2, cert2)
        svg1 = render_svg(c1, color(c1, cert1), RenderOptions(show_dual=True))
        svg2 = render_svg(c2, color(c2, cert2), RenderOptions(show_dual=True))
        assert svg1 == svg2
        gcert1, gcert2 = peel(c1, GEOMETRIC), peel(c2, GEOMETRIC)
        assert gcert1 == gcert2
    print(f"PASS criterion 8: round-trip identity on {len(corpus)} instances; "
          f"certificates, colorings and SVG byte-stable across runs")
