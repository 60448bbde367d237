"""Exact construction, validation and (d+1)-coloring of pure d-simplex
complexes in R^d.

Simplices glued facet-to-facet always admit a coloring with d+1 colors in
which facet-sharing simplices differ.  The library makes the underlying
induction executable: find a simplex with an exposed facet (combinatorially
or from coordinates via nested convex hulls), peel it, and color greedily in
reverse order.  An exact chromatic oracle and clique-configuration analysis
cross-check the structural facts that make this work.
"""

from .coloring import (
    COMBINATORIAL,
    GEOMETRIC,
    OracleResult,
    PeelCertificate,
    TraceStep,
    color,
    exact_chromatic,
    load_certificate,
    peel,
    save_certificate,
    verify_coloring,
)
from .dual import (
    CliqueReport,
    GraphStats,
    analyze_max_clique_configuration,
    build_dual,
    find_all_cliques,
    find_clique,
    stats,
)
from .errors import (
    ColoringError,
    InputError,
    InvariantError,
    SimplexColorError,
    UnrealizableComplexError,
)
from .generators import GeneratorSpec, KINDS, generate
from .model import (
    Coloring,
    Complex,
    Facet,
    Simplex,
    ValidationReport,
    load,
    load_coloring,
    save,
    save_coloring,
    validate,
)
from .render import RenderOptions, render_svg

__version__ = "0.1.0"

__all__ = [
    "COMBINATORIAL",
    "GEOMETRIC",
    "CliqueReport",
    "Coloring",
    "ColoringError",
    "Complex",
    "Facet",
    "GeneratorSpec",
    "GraphStats",
    "InputError",
    "InvariantError",
    "KINDS",
    "OracleResult",
    "PeelCertificate",
    "RenderOptions",
    "Simplex",
    "SimplexColorError",
    "TraceStep",
    "UnrealizableComplexError",
    "ValidationReport",
    "analyze_max_clique_configuration",
    "build_dual",
    "color",
    "exact_chromatic",
    "find_all_cliques",
    "find_clique",
    "generate",
    "load",
    "load_certificate",
    "load_coloring",
    "peel",
    "render_svg",
    "save",
    "save_certificate",
    "save_coloring",
    "stats",
    "validate",
    "verify_coloring",
]
