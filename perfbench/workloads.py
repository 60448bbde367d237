"""The three workloads' instance lists, derived from the workload seed.

Only the Delaunay point seeds (and, for cli-small, the instance sizes and
the command order) depend on the seed; every other instance is fixed, so
runs with different seeds do the same amount of work to within a few
simplices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("color-big", "certify-mid", "cli-small")


@dataclass(frozen=True)
class Spec:
    """One generated input complex."""

    kind: str
    dim: int
    size: int
    seed: int = 0
    render: bool = False

    @property
    def name(self) -> str:
        base = f"{self.kind}-d{self.dim}-{self.size}"
        return f"{base}-seed{self.seed}" if self.kind == "delaunay2d" else base

    def generate_args(self) -> list[str]:
        return ["--kind", self.kind, "--dim", str(self.dim),
                "--size", str(self.size), "--seed", str(self.seed)]


def instances(workload: str, seed: int) -> list[Spec]:
    if workload == "color-big":
        # The acceptance corpus's 10^4 scale; seed 49 gives 10176 simplices.
        return [
            Spec("delaunay2d", 2, 5100, seed, render=True),
            Spec("freudenthal", 3, 12),
            Spec("path", 4, 10000),
            Spec("closed-fan", 2, 10000),
        ]
    if workload == "certify-mid":
        # The closed fan's shared hub defeats the x-only sweep of strict
        # validation; seed 48 gives 1978 Delaunay simplices.
        return [
            Spec("delaunay2d", 2, 1000, seed),
            Spec("freudenthal", 3, 6),
            Spec("closed-fan", 2, 300),
        ]
    if workload == "cli-small":
        # The seed splits fixed totals (90 Delaunay points, 43 fan
        # triangles), so every seed carries about the same simplices.
        rng = random.Random(seed)
        points = rng.randint(30, 60)
        even = 2 * rng.randint(2, 20)
        return [
            Spec("delaunay2d", 2, points, rng.randrange(1 << 30)),
            Spec("delaunay2d", 2, 90 - points, rng.randrange(1 << 30)),
            Spec("closed-fan", 2, even),
            Spec("closed-fan", 2, 43 - even),
            Spec("tri-tiling", 2, 4),
            Spec("freudenthal", 3, 2),
            Spec("fan", 3, 6),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_inputs(specs: list[Spec], directory) -> dict[str, int]:
    """Generate every instance and save it as ``<name>.json``; returns the
    simplex count of each instance."""
    # Imported here: run.py loads this module before it puts src/ on the path.
    from simplexcolor.generators import GeneratorSpec, generate
    from simplexcolor.model import save

    counts = {}
    for spec in specs:
        c = generate(GeneratorSpec(spec.kind, spec.dim, spec.size, spec.seed))
        save(c, str(directory / f"{spec.name}.json"))
        counts[spec.name] = len(c.simplices)
    return counts
