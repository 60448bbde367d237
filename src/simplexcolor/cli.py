"""Command-line interface.

Exit codes: 0 success, 2 input error, 3 unrealizable complex (peeling
stalled), 4 invalid coloring.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress

from . import coloring as coloring_mod
from .coloring import color, exact_chromatic, peel, save_certificate, verify_coloring
from .dual import analyze_max_clique_configuration, build_dual, find_all_cliques, find_clique, stats
from .errors import ColoringError, InputError, SimplexColorError, UnrealizableComplexError
from .generators import KINDS, GeneratorSpec, generate
from .model import _write_text, load, load_coloring, save, save_coloring
from .render import DEFAULT_PALETTE, RenderOptions, render_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNREALIZABLE = 3
EXIT_INVALID_COLORING = 4


def _refuse_collisions(reads, writes) -> None:
    """Raise InputError, before anything is written, when an output path
    resolves to a file the command reads or to another of its outputs.
    Both are (role, path) pairs, a read path None when not given; the
    message names the earlier path."""
    seen = {os.path.realpath(path): (role, path) for role, path in reads if path}
    for role, path in writes:
        real = os.path.realpath(path)
        if real in seen:
            first_role, first_path = seen[real]
            raise InputError(f"{first_path}: the {first_role} and the {role} "
                             f"must be different files")
        seen[real] = role, path


def cmd_generate(args) -> int:
    spec = GeneratorSpec(args.kind, args.dim, args.size, args.seed)
    c = generate(spec)
    save(c, args.output)
    print(f"wrote {args.output}: dimension {c.dimension}, "
          f"{len(c.vertices)} vertices, {len(c.simplices)} simplices")
    return EXIT_OK


def cmd_color(args) -> int:
    cert_path = args.certificate or args.output + ".cert.json"
    _refuse_collisions([("input", args.input)],
                       [("coloring", args.output), ("certificate", cert_path)])
    c = load(args.input)
    cert = peel(c, args.method)
    col = color(c, cert)
    fresh = [path for path in (args.output, cert_path) if not os.path.lexists(path)]
    try:
        save_coloring(col, args.output)
        save_certificate(cert, cert_path)
    except OSError:
        for path in fresh:  # a failed command leaves no new file behind
            with suppress(OSError):
                os.remove(path)
        raise
    used = len(set(col.colors)) if col.colors else 0
    print(f"colored {len(c.simplices)} simplices with {used} colors "
          f"(method {cert.method}); coloring {args.output}, certificate {cert_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    c = load(args.input)
    col = load_coloring(args.coloring)
    ok, violations = verify_coloring(c, col)
    if ok:
        print("coloring is valid")
        return EXIT_OK
    for v in violations:
        if v[0] == "conflict":
            _, i, j, facet = v
            print(f"conflict: simplices {i} and {j} share facet {facet} "
                  f"and color {col.colors[i]}", file=sys.stderr)
        else:
            _, i, value = v
            print(f"color out of range: simplex {i} has color {value}", file=sys.stderr)
    return EXIT_INVALID_COLORING


def _analysis(c) -> dict:
    d = c.dimension
    g = build_dual(c)
    st = stats(g, d)
    big = find_clique(g, d + 2)
    reports = []
    for clique in find_all_cliques(g, d + 1):
        rep = analyze_max_clique_configuration(c, clique)
        reports.append({
            "clique": list(rep.clique_nodes),
            "distinct_vertices": sorted(rep.distinct_vertex_ids),
            "vertex_count_ok": rep.vertex_count_ok,
            "halfspace_condition_ok": rep.halfspace_condition_ok,
        })
    return {
        "dimension": d,
        "simplices": len(c.simplices),
        "max_degree": st.max_degree,
        "components": st.component_count,
        "chromatic_upper_bound": st.chromatic_upper_bound,
        "clique_exclusion_bound": st.clique_exclusion_bound,
        "forbidden_clique_size": d + 2,
        "forbidden_clique": big,
        "max_clique_reports": reports,
    }


def cmd_analyze(args) -> int:
    c = load(args.input)
    info = _analysis(c)
    if args.json:
        print(json.dumps(info, indent=2))
        return EXIT_OK
    d = info["dimension"]
    print(f"dimension {d}, {info['simplices']} simplices")
    print(f"max dual degree: {info['max_degree']} (at most {d + 1})")
    print(f"components: {info['components']}")
    if info["clique_exclusion_bound"] is not None:
        print(f"chromatic upper bound (no K_{d + 2}): {info['clique_exclusion_bound']}")
    else:
        print(f"chromatic upper bound (greedy): {info['chromatic_upper_bound']}")
    if info["forbidden_clique"] is None:
        print(f"K_{d + 2}: absent")
    else:
        print(f"K_{d + 2}: PRESENT at simplices {info['forbidden_clique']} "
              f"(complex is not geometrically realizable)")
    reports = info["max_clique_reports"]
    print(f"K_{d + 1} cliques: {len(reports)}")
    for rep in reports:
        print(f"  {rep['clique']}: vertices {rep['distinct_vertices']} "
              f"(count ok: {rep['vertex_count_ok']}, "
              f"halfspace ok: {rep['halfspace_condition_ok']})")
    return EXIT_OK


def cmd_chromatic(args) -> int:
    if args.limit < 0:
        raise InputError(f"--limit: oracle limit must be non-negative, got {args.limit}")
    c = load(args.input)
    g = build_dual(c)
    res = exact_chromatic(g, node_limit=args.limit)
    print(f"exact chromatic number: {res.chromatic_number}")
    return EXIT_OK


def cmd_render(args) -> int:
    _refuse_collisions([("input", args.input), ("coloring", args.coloring)],
                       [("SVG", args.output)])
    palette = tuple(args.palette.split(",")) if args.palette is not None else DEFAULT_PALETTE
    # Each option is checked on its own, so that a refusal names it.
    for field, value in (("width", args.width), ("height", args.height), ("palette", palette)):
        try:
            RenderOptions(**{field: value})
        except InputError as exc:
            raise InputError(f"--{field}: {exc}") from exc
    c = load(args.input)
    col = load_coloring(args.coloring) if args.coloring else None
    options = RenderOptions(args.width, args.height, palette, args.show_dual)
    _write_text(args.output, render_svg(c, col, options))
    print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexcolor",
        description="Construct, validate and (d+1)-color pure d-simplex complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a test complex")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--dim", type=int, required=True)
    # --size must come first: its default is the one argparse keeps.
    size = p.add_mutually_exclusive_group()
    size.add_argument("--size", type=int, default=1,
                      help="size parameter (simplices, rows, points or cells per kind)")
    size.add_argument("--cells", dest="size", type=int,
                      help="alias for --size (freudenthal cells per side)")
    size.add_argument("--points", dest="size", type=int,
                      help="alias for --size (delaunay2d point count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("color", help="peel and greedily color a complex")
    p.add_argument("input")
    p.add_argument("--method", default=coloring_mod.COMBINATORIAL,
                   choices=[coloring_mod.COMBINATORIAL, coloring_mod.GEOMETRIC])
    p.add_argument("-o", "--output", required=True, help="coloring JSON path")
    p.add_argument("--certificate", default=None,
                   help="peel certificate path (default: OUTPUT.cert.json)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring against a complex")
    p.add_argument("input")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="dual-graph statistics and clique analysis")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("chromatic", help="exact chromatic number (small complexes)")
    p.add_argument("input")
    p.add_argument("--limit", type=int, default=40)
    p.set_defaults(func=cmd_chromatic)

    p = sub.add_parser("render", help="render a planar complex to SVG")
    p.add_argument("input")
    p.add_argument("--coloring", default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=640)
    p.add_argument("--palette", default=None, help="comma-separated fill colors")
    p.add_argument("--show-dual", action="store_true")
    p.set_defaults(func=cmd_render)

    return parser


def _named(exc: Exception, args) -> str:
    """The message of an error a command raised, naming its file or option
    once.  An OSError names the file the system refused; a message that
    starts with a path from the command line (a reader's own, or a refused
    output) or with an option (a refused --width) keeps it; any other is
    about the coloring file for a ColoringError and the input otherwise."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"{exc.filename}: {exc.strerror}"
    input_path, coloring, message = vars(args).get("input"), vars(args).get("coloring"), str(exc)
    output = vars(args).get("output")
    if message.startswith("--") or any(p and message.startswith(f"{p}:")
                                       for p in (input_path, coloring, output)):
        return message
    path = coloring if isinstance(exc, ColoringError) and coloring else input_path
    return f"{path}: {message}" if path else message


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnrealizableComplexError as exc:
        print(f"error: {_named(exc, args)}", file=sys.stderr)
        return EXIT_UNREALIZABLE
    except (InputError, OSError) as exc:
        print(f"error: {_named(exc, args)}", file=sys.stderr)
        return EXIT_INPUT
    except SimplexColorError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
