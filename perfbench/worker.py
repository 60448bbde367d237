"""The measured process: runs one workload's operations for a set time.

``run.py`` generates the inputs and then starts this script, so the peak
resident memory reported is that of the process doing the work (for
cli-small, of the largest ``python -m simplexcolor.cli`` child).  Load is
a closed loop with one client: each operation starts when the previous one
has finished and its outputs have been checked.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import workloads
from spans import Tracer

from simplexcolor import cli, coloring, dual, generators, model, render

MAX_PROBLEMS = 20
CLI_TIMEOUT_S = 60
MIN_P90_SAMPLES = 110
# What reading back a missing or malformed output file can raise.
UNREADABLE = (OSError, ValueError, KeyError, TypeError)


class Tally:
    """Operations attempted and failed, and the timings of one phase.

    An operation may be timed in parts (the stages of a pipeline).  Each
    part's median over the passes is its time; summing the medians gives a
    pass time that a burst of load on a shared machine moves less than the
    plain sum does.
    """

    def __init__(self, problems: list[str]):
        self.problems = problems
        self.attempted = 0
        self.failed = 0
        self.samples: list[float] = []
        self.parts: dict[str, dict[str, list[float]]] = {}
        self.simplices: dict[str, int] = {}

    def record(self, op: str, problems: list[str], parts: dict[str, float] | None = None,
               simplices: int = 0) -> None:
        self.attempted += 1
        if parts:
            elapsed = sum(parts.values())
            self.samples.append(elapsed)
            self.simplices[op] = simplices
            for part, seconds in parts.items():
                self.parts.setdefault(op, {}).setdefault(part, []).append(seconds)
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(f"{op}: {p}" for p in problems[:max(room, 0)])

    def op_seconds(self) -> dict[str, float]:
        """Each operation's time: the sum over its parts of their medians."""
        return {op: sum(statistics.median(v) for v in parts.values())
                for op, parts in self.parts.items()}

    def simplices_per_s(self) -> float:
        seconds = self.op_seconds()
        return sum(self.simplices[op] for op in seconds) / sum(seconds.values())


class Stages:
    """Wall time of each named stage of one operation."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + perf_counter() - start


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Bench:
    """One workload's inputs, operations and output checks.

    ``specs`` replaces the seeded instance list; the self-test passes small
    instances.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, specs=None):
        self.workload = workload
        self.specs = specs if specs is not None else workloads.instances(workload, seed)
        self.inputs = {s.name: workdir / "inputs" / f"{s.name}.json" for s in self.specs}
        self.out = workdir / "out"
        self.out.mkdir(exist_ok=True)
        self.raw = {}
        self.inst = {}
        self.digests = checks.Digests()
        for s in self.specs:
            data = self.inputs[s.name].read_bytes()
            self.raw[s.name] = json.loads(data)
            self.inst[s.name] = checks.Instance.from_json(self.raw[s.name])
            self.digests.problems(f"{s.name}/input", data)
        self.order_rng = random.Random(seed)
        self.problems: list[str] = []

    def size(self, spec) -> int:
        return len(self.inst[spec.name].simplices)

    # -- color-big and certify-mid: the library pipeline, in process -------

    def pipeline(self, spec, stage: Stages):
        """One instance through load, validation, peel, color, verify and
        analyze (plus save and render on color-big); returns what the
        checks need."""
        strict = self.workload == "certify-mid"
        with stage("load"):
            c = model.load(str(self.inputs[spec.name]))
        with stage("validate"):
            report = model.validate(c, "geometric-strict" if strict else "combinatorial")
        with stage("peel"):
            cert = coloring.peel(c, "geometric" if strict else "combinatorial")
        with stage("color"):
            col = coloring.color(c, cert)
        with stage("verify"):
            verified, _ = coloring.verify_coloring(c, col)
        with stage("analyze"):
            d = c.dimension
            g = dual.build_dual(c)
            st = dual.stats(g, d)
            forbidden = dual.find_clique(g, d + 2)
            reports = [dual.analyze_max_clique_configuration(c, q)
                       for q in dual.find_all_cliques(g, d + 1)]
        out = {"report": report, "verified": verified, "stats": st,
               "forbidden": forbidden, "reports": reports}
        if strict:
            out["coloring"] = json.dumps(list(col.colors)).encode()
            out["certificate"] = json.dumps([[i, list(f.vertex_ids)] for i, f in cert.steps]).encode()
            return out
        base = self.out / spec.name
        with stage("save"):
            model.save_coloring(col, f"{base}.colors.json")
            coloring.save_certificate(cert, f"{base}.cert.json")
        if spec.render:
            with stage("render"):
                svg = render.render_svg(c, col, render.RenderOptions(show_dual=True))
                with open(f"{base}.svg", "w", encoding="utf-8") as fh:
                    fh.write(svg)
        return out

    def check_pipeline(self, spec, out) -> list[str]:
        inst, name = self.inst[spec.name], spec.name
        problems = []
        if not out["report"].ok:
            problems.append(out["report"].summary())
        if not out["verified"]:
            problems.append("verify_coloring rejected the coloring")
        if "coloring" in out:
            col_bytes, cert_bytes = out["coloring"], out["certificate"]
            colors, steps = json.loads(col_bytes), json.loads(cert_bytes)
        else:
            base = self.out / name
            col_bytes = Path(f"{base}.colors.json").read_bytes()
            cert_bytes = Path(f"{base}.cert.json").read_bytes()
            colors, steps = json.loads(col_bytes)["colors"], json.loads(cert_bytes)["steps"]
        problems += checks.coloring_problems(inst, colors)
        problems += checks.certificate_problems(inst, steps)
        problems += checks.analysis_problems(
            inst, out["stats"].max_degree, out["forbidden"],
            [(r.clique_nodes, r.vertex_count_ok, r.halfspace_condition_ok) for r in out["reports"]])
        problems += self.digests.problems(f"{name}/coloring", col_bytes)
        problems += self.digests.problems(f"{name}/certificate", cert_bytes)
        if spec.render:
            svg = Path(f"{self.out / name}.svg").read_bytes()
            problems += checks.svg_problems(inst, svg, show_dual=True)
            problems += self.digests.problems(f"{name}/svg", svg)
        return problems

    def pipeline_pass(self, tally: Tally, tracer: Tracer | None = None) -> None:
        for spec in self.specs:
            if tracer is not None:
                tracer.op = spec.name
            stage = Stages()
            try:
                out = self.pipeline(spec, stage)
            except Exception:
                tally.record(spec.name, [traceback.format_exc(limit=3)])
                continue
            try:
                problems = self.check_pipeline(spec, out)
            except UNREADABLE as exc:
                problems = [f"unreadable output: {exc!r}"]
            tally.record(spec.name, problems, stage.seconds, self.size(spec))

    def generate_pass(self, tally: Tally, tracer: Tracer) -> None:
        """Regenerate every input in process (traced) and compare it with
        the file the set-up wrote."""
        for spec in self.specs:
            tracer.op = spec.name
            c = generators.generate(generators.GeneratorSpec(spec.kind, spec.dim, spec.size, spec.seed))
            raw = self.raw[spec.name]
            same = (c.dimension == raw["dimension"]
                    and [list(s.vertex_ids) for s in c.simplices] == raw["simplices"])
            tally.record(f"{spec.name}/generate",
                         [] if same else ["regenerated complex differs from the input file"])

    # -- cli-small: one command per operation ----------------------------

    def commands(self, spec) -> list[tuple[str, list[str]]]:
        """``generate`` and ``color`` first, the rest in seeded order."""
        path = str(self.inputs[spec.name])
        base = str(self.out / spec.name)
        rest = [
            ("color-geometric", ["color", path, "--method", "geometric",
                                 "-o", f"{base}.gcolors.json", "--certificate", f"{base}.gcert.json"]),
            ("verify", ["verify", path, f"{base}.colors.json"]),
            ("analyze", ["analyze", path, "--json"]),
            ("chromatic", ["chromatic", path, "--limit", "200"]),
        ]
        if spec.dim == 2:
            rest.append(("render", ["render", path, "--coloring", f"{base}.colors.json",
                                    "--show-dual", "-o", f"{base}.svg"]))
        self.order_rng.shuffle(rest)
        return [
            ("generate", ["generate", *spec.generate_args(), "-o", f"{base}.gen.json"]),
            ("color", ["color", path, "-o", f"{base}.colors.json",
                       "--certificate", f"{base}.cert.json"]),
        ] + rest

    def check_command(self, spec, command: str, code: int, stdout: bytes) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        inst, name = self.inst[spec.name], spec.name
        base = str(self.out / name)
        if command == "generate":
            return self.digests.problems(f"{name}/input", Path(f"{base}.gen.json").read_bytes())
        if command in ("color", "color-geometric"):
            prefix = "g" if command == "color-geometric" else ""
            col_bytes = Path(f"{base}.{prefix}colors.json").read_bytes()
            cert_bytes = Path(f"{base}.{prefix}cert.json").read_bytes()
            return (checks.coloring_problems(inst, json.loads(col_bytes)["colors"])
                    + checks.certificate_problems(inst, json.loads(cert_bytes)["steps"])
                    + self.digests.problems(f"{name}/{command}/coloring", col_bytes)
                    + self.digests.problems(f"{name}/{command}/certificate", cert_bytes))
        if command == "verify":
            return [] if stdout.strip() == b"coloring is valid" else [f"verify printed {stdout!r}"]
        if command == "analyze":
            info = json.loads(stdout)
            reports = [(r["clique"], r["vertex_count_ok"], r["halfspace_condition_ok"])
                       for r in info["max_clique_reports"]]
            return (checks.analysis_problems(inst, info["max_degree"], info["forbidden_clique"], reports)
                    + self.digests.problems(f"{name}/analyze", stdout))
        if command == "chromatic":
            head, _, value = stdout.decode().strip().partition(": ")
            if head != "exact chromatic number" or not value.isdigit():
                return [f"chromatic printed {stdout!r}"]
            return (checks.chromatic_problems(inst, spec.kind, spec.size, int(value))
                    + self.digests.problems(f"{name}/chromatic", stdout))
        svg = Path(f"{base}.svg").read_bytes()
        return checks.svg_problems(inst, svg, show_dual=True) + self.digests.problems(f"{name}/svg", svg)

    def cli_pass(self, tally: Tally, execute, tracer: Tracer | None = None) -> None:
        for spec in self.order_rng.sample(self.specs, len(self.specs)):
            if tracer is not None:
                tracer.op = spec.name
            for command, argv in self.commands(spec):
                op = f"{spec.name}/{command}"
                start = perf_counter()
                try:
                    code, stdout = execute(argv)
                except (Exception, SystemExit):
                    tally.record(op, [traceback.format_exc(limit=3)])
                    continue
                elapsed = perf_counter() - start
                try:
                    problems = self.check_command(spec, command, code, stdout)
                except UNREADABLE as exc:
                    problems = [f"unreadable output: {exc!r}"]
                tally.record(op, problems, {command: elapsed}, self.size(spec))


def run_subprocess(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "simplexcolor.cli", *argv],
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_in_process(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def repeat(seconds: float, one_pass, tally: Tally | None = None) -> list[float]:
    """Whole passes until ``seconds`` have gone by, at least one; returns
    the wall time of each.  With a tally, also until it holds enough
    samples that at least 10 lie beyond the 90th percentile."""
    start = perf_counter()
    walls: list[float] = []
    while (not walls or perf_counter() - start < seconds
           or (tally is not None and len(tally.samples) < MIN_P90_SAMPLES)):
        t0 = perf_counter()
        one_pass()
        walls.append(perf_counter() - t0)
    return walls


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Tally], dict]:
    tally = Tally(bench.problems)
    cli_small = bench.workload == "cli-small"
    if cli_small:
        walls = repeat(seconds, lambda: bench.cli_pass(tally, run_subprocess), tally)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        walls = repeat(seconds, lambda: bench.pipeline_pass(tally))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # A cli-small operation is one command, with many samples per run; a
    # pipeline operation is one instance, timed as its stages' medians.
    latencies = tally.samples if cli_small else list(tally.op_seconds().values())
    metrics = {
        "simplices_per_s": tally.simplices_per_s(),
        "op_ms.p50": 1000 * percentile(latencies, 50),
        "op_ms.p90": 1000 * percentile(latencies, 90),
        "peak_rss_mb": rss_kb / 1024,
    }
    return metrics, [tally], {"pass_s": walls, "op_ms_samples": len(latencies)}


def traced(bench: Bench, seconds: float, trace_path: str) -> tuple[dict, list[Tally], dict]:
    """Untraced passes for half the time, then as many passes again, traced.

    Per-layer values are per pass, so counts do not depend on how many
    passes fit in the time.
    """
    plain = Tally(bench.problems)
    inproc = Tally(bench.problems)
    spanned = Tally(bench.problems)
    tracer = Tracer()
    cli_small = bench.workload == "cli-small"
    if cli_small:
        walls = repeat(seconds / 2, lambda: bench.cli_pass(plain, run_subprocess))
        passes = len(walls)
        for _ in range(passes):
            bench.cli_pass(inproc, run_in_process)
        baseline = inproc
        with tracer.installed():
            for _ in range(passes):
                bench.cli_pass(spanned, run_in_process, tracer)
    else:
        walls = repeat(seconds / 2, lambda: bench.pipeline_pass(plain))
        passes = len(walls)
        baseline = plain
        with tracer.installed():
            for _ in range(passes):
                bench.generate_pass(spanned, tracer)
                bench.pipeline_pass(spanned, tracer)
    tracer.write(trace_path)

    metrics = tracer.layer_metrics(passes)
    per_pass_instances = len(bench.specs)
    metrics["dual.build_dual.calls_per_instance"] = metrics["dual.build_dual.calls"] / per_pass_instances
    main_ms = [1000 * (end - start) for name, start, end, *_ in tracer.spans if name == "cli.main"]
    metrics["cli.startup_ms"] = (
        1000 * percentile(plain.samples, 50) - statistics.median(main_ms) if cli_small else 0.0)
    metrics["trace.overhead_frac"] = (
        sum(spanned.op_seconds().values()) / sum(baseline.op_seconds().values()) - 1)
    info = {"pass_s": walls, "op_ms_samples": len(plain.samples), "spans": len(tracer.spans),
            "trace_file": trace_path, "breakdown": tracer.by_op(passes)}
    return metrics, [plain, inproc, spanned], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file", required=True)
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed, args.workdir)
    if args.trace:
        metrics, tallies, info = traced(bench, args.seconds, args.trace_file)
    else:
        metrics, tallies, info = end_to_end(bench, args.seconds)
    result = {
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "problems": bench.problems,
        "metrics": metrics,
        **info,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
