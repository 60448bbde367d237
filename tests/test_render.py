"""render_svg against the per-simplex Fraction renderer it replaced.

`reference_svg` maps every simplex's vertices and every centroid through
the screen transform one by one, as the renderer did before it mapped and
formatted each vertex once; the outputs must agree byte for byte.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcolor.coloring import color, peel
from simplexcolor.dual import build_dual
from simplexcolor.errors import InputError
from simplexcolor.generators import GeneratorSpec, generate
from simplexcolor.model import Complex, Simplex
from simplexcolor.render import RenderOptions, _fixed3, render_svg


def _ref_fmt(x: Fraction) -> str:
    n = round(x * 1000)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 1000}.{n % 1000:03d}"


def reference_svg(c, coloring, options):
    xs = [p[0] for p in c.vertices]
    ys = [p[1] for p in c.vertices]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span_x = hi_x - lo_x or Fraction(1)
    span_y = hi_y - lo_y or Fraction(1)
    margin = Fraction(1, 20)
    usable_w = Fraction(options.width) * (1 - 2 * margin)
    usable_h = Fraction(options.height) * (1 - 2 * margin)
    scale = min(usable_w / span_x, usable_h / span_y)
    off_x = (Fraction(options.width) - scale * (lo_x + hi_x)) / 2
    off_y = (Fraction(options.height) + scale * (lo_y + hi_y)) / 2

    def xy(p):
        return off_x + scale * p[0], off_y - scale * p[1]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{options.width}" '
        f'height="{options.height}" viewBox="0 0 {options.width} {options.height}">',
    ]
    for i, s in enumerate(c.simplices):
        pts = [xy(c.vertices[v]) for v in s.vertex_ids]
        coords = " ".join(f"{_ref_fmt(x)},{_ref_fmt(y)}" for x, y in pts)
        fill = options.palette[coloring.colors[i]] if coloring else "#d8d8d8"
        lines.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="#222222" stroke-width="1"/>'
        )
    if options.show_dual:
        centroids = []
        for s in c.simplices:
            cx = sum(c.vertices[v][0] for v in s.vertex_ids) / 3
            cy = sum(c.vertices[v][1] for v in s.vertex_ids) / 3
            centroids.append(xy((cx, cy)))
        for i, nbrs in enumerate(build_dual(c)):
            for j in nbrs:
                if i < j:
                    (x1, y1), (x2, y2) = centroids[i], centroids[j]
                    lines.append(
                        f'<line x1="{_ref_fmt(x1)}" y1="{_ref_fmt(y1)}" x2="{_ref_fmt(x2)}" '
                        f'y2="{_ref_fmt(y2)}" stroke="#000000" stroke-width="1.5"/>'
                    )
        for x, y in centroids:
            lines.append(
                f'<circle cx="{_ref_fmt(x)}" cy="{_ref_fmt(y)}" r="3.5" fill="#000000"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def tie_complex():
    """On the default 640 canvas the bounding box [0, 576]^2 maps with
    scale 1 and offsets (32, 608).  Vertex 4 lands at screen x 320.0005
    and the centroid of (0, 1, 5) at screen x 322.0005: both ties with an
    even last digit, where round-half-even and round-half-up differ."""
    verts = (
        (0, 0), (576, 0), (0, 576), (576, 576),
        (Fraction(576001, 2000), 288),
        (Fraction(588003, 2000), 100),
    )
    return Complex(2, verts, tuple(
        Simplex(ids) for ids in ((0, 1, 4), (0, 1, 5), (2, 3, 4), (1, 3, 4))))


def moved(c, ax, bx, ay, by):
    """c under the affine map (x, y) -> (ax x + bx, ay y + by)."""
    verts = tuple((ax * p[0] + bx, ay * p[1] + by) for p in c.vertices)
    return Complex(2, verts, c.simplices)


BIG = 10**9 + 7
INSTANCES = {
    "ties": tie_complex,
    "fan": lambda: generate(GeneratorSpec("fan", 2, 4)),
    "tri-tiling": lambda: generate(GeneratorSpec("tri-tiling", 2, 3)),
    # Negative and large-denominator rational coordinates.
    "delaunay-moved": lambda: moved(generate(GeneratorSpec("delaunay2d", 2, 40, 3)),
                                    Fraction(-7, BIG), Fraction(-123456, 999983),
                                    Fraction(BIG, 3), Fraction(-5, 11)),
    "closed-fan-moved": lambda: moved(generate(GeneratorSpec("closed-fan", 2, 9)),
                                      Fraction(-3, BIG), Fraction(5, 7),
                                      Fraction(11, 13), Fraction(-10**12, 3)),
    # Per-vertex denominators that differ within one simplex.
    "delaunay-300-moved": lambda: moved(generate(GeneratorSpec("delaunay2d", 2, 300, 5)),
                                        Fraction(5, 3), Fraction(1, 7),
                                        Fraction(-2, 9), Fraction(13, 11)),
    "closed-fan-301": lambda: generate(GeneratorSpec("closed-fan", 2, 301)),
}
OPTIONS = {
    "default": RenderOptions(),
    "dual": RenderOptions(show_dual=True),
    "custom": RenderOptions(width=333, height=517,
                            palette=("#010203", "#a0b0c0", "#fedcba", "#123456"),
                            show_dual=True),
}


@pytest.mark.parametrize("colored", [False, True], ids=["uncolored", "colored"])
@pytest.mark.parametrize("options", OPTIONS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_render_matches_per_simplex_reference(instance, options, colored):
    c = INSTANCES[instance]()
    col = color(c, peel(c)) if colored else None
    svg = render_svg(c, col, OPTIONS[options])
    assert svg == reference_svg(c, col, OPTIONS[options])


def test_ties_round_half_even():
    svg = render_svg(tie_complex(), None, RenderOptions(show_dual=True))
    assert 'points="32.000,608.000 608.000,608.000 320.000,320.000"' in svg
    assert '<circle cx="322.000" cy="' in svg


HUGE = st.integers(-(10**60), 10**60) | st.integers()


@settings(max_examples=400, deadline=None)
@given(HUGE, st.integers(1, 10**60) | st.integers(1, 2000))
def test_fixed3_matches_fraction_rounding(num, den):
    assert _fixed3(num, den) == _ref_fmt(Fraction(num, den))


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_fixed3_ties_round_half_even(k, scale):
    # (2k + 1) / 2000 is an exact tie at the third decimal, given here
    # unreduced by a common factor.
    num, den = (2 * k + 1) * scale, 2000 * scale
    assert _fixed3(num, den) == _ref_fmt(Fraction(num, den))


@pytest.mark.parametrize("entry", ['red" onload="alert(1)', 'a"b', "", "<b>", "a&b", "a>b"])
def test_palette_entry_that_breaks_svg_rejected(entry):
    with pytest.raises(InputError, match="palette entry"):
        RenderOptions(palette=("#111111", entry, "#333333"))
