"""Tests of the benchmark itself (stdlib unittest, about three minutes).

    python3 perfbench/selftest.py

The output checks must catch a forged certificate and a conflicting
coloring, both on plain data and when injected into the library during a
workload pass; the traced run's exact counts must repeat across two runs of
one seed; and run.py must honour its output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from simplexcolor import cli, coloring  # noqa: E402
from simplexcolor.model import Coloring  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = (
    "coloring.peel.steps",
    "dual.build_dual.calls_per_instance",
    "geometry.supporting_hyperplane.calls",
    "geometry.supporting_hyperplane.found_ratio",
)

# Three triangles in a row: 0-1 share (1, 2), 1-2 share (2, 3).
STRIP = checks.Instance(2, [[0, 1, 2], [1, 2, 3], [2, 3, 4]])
STRIP_PEEL = [(0, (0, 1)), (1, (1, 2)), (2, (2, 3))]


def scratch_dir() -> Path:
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=base))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=200)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CheckerTest(unittest.TestCase):
    def test_valid_outputs_pass(self):
        self.assertEqual(checks.coloring_problems(STRIP, [0, 1, 0]), [])
        self.assertEqual(checks.certificate_problems(STRIP, STRIP_PEEL), [])
        self.assertEqual(checks.analysis_problems(STRIP, 2, None, []), [])

    def test_conflicting_coloring_is_caught(self):
        self.assertTrue(checks.coloring_problems(STRIP, [0, 0, 1]))
        self.assertTrue(checks.coloring_problems(STRIP, [0, 1, 3]))
        self.assertTrue(checks.coloring_problems(STRIP, [0, 1, True]))

    def test_forged_certificate_is_caught(self):
        not_a_facet = [(0, (0, 3))] + STRIP_PEEL[1:]
        glued_witness = [(1, (1, 2)), (0, (0, 1)), (2, (2, 3))]
        missing_step = STRIP_PEEL[:2]
        repeated_step = STRIP_PEEL + [(2, (2, 3))]
        for steps in (not_a_facet, glued_witness, missing_step, repeated_step):
            self.assertTrue(checks.certificate_problems(STRIP, steps), steps)

    def test_wrong_analysis_is_caught(self):
        self.assertTrue(checks.analysis_problems(STRIP, 3, None, []))
        self.assertTrue(checks.analysis_problems(STRIP, 2, [0, 1, 2, 3], []))
        self.assertTrue(checks.analysis_problems(STRIP, 2, None, [((0, 1, 2), True, True)]))

    def test_closed_fan_parity(self):
        fan = checks.Instance(2, [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4]])
        self.assertEqual(checks.chromatic_problems(fan, "closed-fan", 4, 2), [])
        self.assertTrue(checks.chromatic_problems(fan, "closed-fan", 4, 3))
        self.assertTrue(checks.chromatic_problems(STRIP, "tri-tiling", 1, 4))

    def test_changed_repetition_is_caught(self):
        digests = checks.Digests()
        self.assertEqual(digests.problems("k", b"a"), [])
        self.assertEqual(digests.problems("k", b"a"), [])
        self.assertTrue(digests.problems("k", b"b"))


def forged_peel(original):
    """Peel, then replace the first witness with a face that is not a facet
    of its simplex (the vertex ids of another simplex's facet)."""
    def peel(c, method="combinatorial"):
        cert = original(c, method)
        (first, _), (_, other) = cert.steps[0], cert.steps[-1]
        steps = ((first, other),) + cert.steps[1:]
        return coloring.PeelCertificate(steps, cert.method)
    return peel


def single_color(c, cert):
    return Coloring((0,) * len(c.simplices))


class FaultInjectionTest(unittest.TestCase):
    """Faults injected into the library must show up as failed operations."""

    SPECS = [workloads.Spec("delaunay2d", 2, 40, 7, render=True), workloads.Spec("fan", 3, 5)]

    def setUp(self):
        self.dir = scratch_dir()
        (self.dir / "inputs").mkdir()
        workloads.write_inputs(self.SPECS, self.dir / "inputs")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def pipeline_failures(self, workload: str) -> tuple[int, int]:
        bench = worker.Bench(workload, 0, self.dir, specs=self.SPECS)
        tally = worker.Tally(bench.problems)
        bench.pipeline_pass(tally)
        return tally.failed, tally.attempted

    def cli_failures(self) -> tuple[int, int]:
        bench = worker.Bench("cli-small", 0, self.dir, specs=self.SPECS)
        tally = worker.Tally(bench.problems)
        bench.cli_pass(tally, worker.run_in_process)
        return tally.failed, tally.attempted

    def test_clean_library_passes(self):
        self.assertEqual(self.pipeline_failures("color-big")[0], 0)
        self.assertEqual(self.pipeline_failures("certify-mid")[0], 0)
        self.assertEqual(self.cli_failures()[0], 0)

    def test_forged_certificate_fails_operations(self):
        with mock.patch.object(coloring, "peel", forged_peel(coloring.peel)), \
                mock.patch.object(cli, "peel", forged_peel(cli.peel)):
            for workload in ("color-big", "certify-mid"):
                failed, attempted = self.pipeline_failures(workload)
                self.assertEqual(failed, attempted, workload)
            self.assertGreater(self.cli_failures()[0], 0)

    def test_conflicting_coloring_fails_operations(self):
        # The library's own verifier is made to agree, so only the
        # independent checks can notice.
        approve = mock.Mock(return_value=(True, []))
        with mock.patch.object(coloring, "color", single_color), \
                mock.patch.object(cli, "color", single_color), \
                mock.patch.object(coloring, "verify_coloring", approve), \
                mock.patch.object(cli, "verify_coloring", approve):
            for workload in ("color-big", "certify-mid"):
                failed, attempted = self.pipeline_failures(workload)
                self.assertEqual(failed, attempted, workload)
            self.assertGreater(self.cli_failures()[0], 0)


class RunTest(unittest.TestCase):
    def test_end_to_end_output(self):
        proc = run_bench("--workload", "cli-small", "--seed", "3", "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_counts_repeat(self):
        expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for workload in workloads.WORKLOADS:
            runs = []
            for _ in range(2):
                proc = run_bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = last_json(proc)
                self.assertTrue(result["correct"], proc.stdout[-2000:])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                runs.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
            self.assertEqual(runs[0], runs[1], workload)
            self.assertGreater(runs[0]["coloring.peel.steps"], 0, workload)

    def test_fails_without_sources(self):
        bare = scratch_dir()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCHMARK["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "cli-small", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(any(line.startswith("{") for line in proc.stdout.splitlines()))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
