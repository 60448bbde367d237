"""Static SVG rendering of planar (d=2) complexes and their colorings.

Output is a pure function of (complex, coloring, options), so repeated
runs give byte-identical files.  The scale and offsets are a few exact
rationals; every vertex and centroid is then mapped from the integer rows
of `Complex.homogeneous` to integer numerators over its own denominator and
formatted to three decimals by integer half-to-even rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .dual import build_dual
from .errors import ColoringError, InputError, shorten
from .model import Coloring, Complex, _check_length

DEFAULT_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2",
    "#59a14f", "#edc949", "#b07aa1", "#9c755f",
)


@dataclass(frozen=True)
class RenderOptions:
    width: int = 640
    height: int = 640
    palette: tuple[str, ...] = DEFAULT_PALETTE
    show_dual: bool = False

    def __post_init__(self):
        for name, size in (("width", self.width), ("height", self.height)):
            if size <= 0:
                raise InputError(f"render {name} must be positive, got {size}")
        # Each entry is written into a quoted SVG attribute as it stands.
        for fill in self.palette:
            if not fill or any(ch in fill for ch in '"<>&'):
                raise InputError(f"palette entry {shorten(repr(fill))} must be non-empty "
                                 'and free of " < > &')


def _fixed3(num: int, den: int) -> str:
    """num/den, den > 0, to three decimals: the digits of
    round(Fraction(num, den) * 1000), half to even, in integer arithmetic."""
    n, r = divmod(num * 1000, den)
    if 2 * r > den or (2 * r == den and n & 1):
        n += 1
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 1000)
    return f"{sign}{whole}.{frac:03d}"


def render_svg(c: Complex, coloring: Coloring | None = None,
               options: RenderOptions = RenderOptions()) -> str:
    if c.dimension != 2:
        raise InputError(
            f"rendering supports dimension 2 only, got dimension {c.dimension}"
        )
    if not c.simplices:
        raise InputError("nothing to render: complex has no simplices")
    dual = build_dual(c)  # rejects an overglued facet, as every command does
    if coloring is not None:
        _check_length(c, coloring)
        n = len(options.palette)
        for i, k in enumerate(coloring.colors):
            if not 0 <= k < n:
                raise ColoringError(
                    f"palette has {n} colors (indices 0..{n - 1}) but simplex {i} "
                    f"has color index {k}"
                )

    xs, ys = [p[0] for p in c.vertices], [p[1] for p in c.vertices]
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

    # Over den, the LCM of the map's three denominators, scale and offsets
    # have the numerators m, u and w, so the vertex with row (x, y, q) lands
    # at ((u q + m x) / (den q), (w q - m y) / (den q)).  The map is affine,
    # so each vertex is mapped and formatted once, and a centroid's screen
    # point is the exact mean of its three screen points.
    den = lcm(scale.denominator, off_x.denominator, off_y.denominator)
    m, u, w = (r.numerator * (den // r.denominator) for r in (scale, off_x, off_y))
    screen = [(u * q + m * x, w * q - m * y, q) for x, y, q in c.homogeneous]
    labels = [f"{_fixed3(x, den * q)},{_fixed3(y, den * q)}" for x, y, q in screen]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{options.width}" '
        f'height="{options.height}" viewBox="0 0 {options.width} {options.height}">',
    ]
    for i, s in enumerate(c.simplices):
        coords = " ".join(labels[v] for v in s.vertex_ids)
        fill = options.palette[coloring.colors[i]] if coloring else "#d8d8d8"
        lines.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="#222222" stroke-width="1"/>'
        )
    if options.show_dual:
        centroids = []
        for s in c.simplices:
            (xa, ya, qa), (xb, yb, qb), (xc, yc, qc) = (screen[v] for v in s.vertex_ids)
            q = lcm(qa, qb, qc)
            ka, kb, kc = q // qa, q // qb, q // qc
            cden = 3 * den * q
            centroids.append((_fixed3(xa * ka + xb * kb + xc * kc, cden),
                              _fixed3(ya * ka + yb * kb + yc * kc, cden)))
        for i, nbrs in enumerate(dual):
            for j in nbrs:
                if i < j:
                    (x1, y1), (x2, y2) = centroids[i], centroids[j]
                    lines.append(
                        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                        f'stroke="#000000" stroke-width="1.5"/>'
                    )
        for x, y in centroids:
            lines.append(f'<circle cx="{x}" cy="{y}" r="3.5" fill="#000000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
