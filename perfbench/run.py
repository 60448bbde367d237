"""simplexcolor benchmark: entry point.

    python3 perfbench/run.py --workload color-big --seed 49 --seconds 20 --trace 0

Run from the root of a source checkout.  It generates the
workload's inputs from the seed and writes them as files (timed as
``setup_s``), then starts ``worker.py``, which runs the workload for
``--seconds`` and checks every output.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DEADLINE_S = 170
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 200, 2.0



def setup(specs, inputs: Path) -> tuple[float, int, dict[str, int]]:
    """Median time to generate and write the inputs, over several repetitions."""
    times = []
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        start = perf_counter()
        counts = workloads.write_inputs(specs, inputs)
        times.append(perf_counter() - start)
    return statistics.median(times), len(times), counts


def breakdown_table(breakdown: dict[str, dict[str, float]]) -> list[str]:
    """Seconds per pass of each directly called layer function, per instance."""
    columns = list(dict.fromkeys(name for row in breakdown.values() for name in row))
    lines = ["| instance | " + " | ".join(columns) + " |",
             "|---" * (len(columns) + 1) + "|"]
    for op, row in breakdown.items():
        cells = [f"{row[c]:.3f}" if c in row else "" for c in columns]
        lines.append(f"| {op} | " + " | ".join(cells) + " |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simplexcolor benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()

    if not (SRC / "simplexcolor" / "__init__.py").is_file():
        print(f"error: no simplexcolor sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    rundir = WORK / f"run-{tag}-{os.getpid()}"
    inputs = rundir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        specs = workloads.instances(args.workload, args.seed)
        setup_s, setup_reps, counts = setup(specs, inputs)
        result_path = rundir / "result.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(rundir), "--result", str(result_path),
               "--trace-file", str(WORK / f"trace-{args.workload}-s{args.seed}.jsonl")]
        proc = subprocess.Popen(cmd, env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, DEADLINE_S - (monotonic() - started)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print("error: the workload did not finish in time", file=sys.stderr)
            return 3
        if code != 0 or not result_path.is_file():
            print(f"error: worker exited with code {code}", file=sys.stderr)
            return 3
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    values = result["metrics"]
    if args.trace:
        for line in breakdown_table(result["breakdown"]):
            print(line)
    else:
        values["setup_s"] = setup_s
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "instances": counts, "setup_reps": setup_reps,
        **{k: v for k, v in result.items() if k not in ("metrics", "breakdown")},
    }
    (WORK / f"result-{tag}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1), encoding="utf-8")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
