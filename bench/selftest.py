"""Self-tests of the benchmark: generator determinism, a tiny-size smoke run
of every workload, and the layer call counts predicted from the generator.

    python3 bench/selftest.py

Kept out of the repository's pytest suite on purpose: the call-count
predictions hold for the code this benchmark was written against, and a
later change that removes per-record calls is expected to move them.
"""

from __future__ import annotations

import shutil
import tempfile
import unittest
from pathlib import Path

import run
import tracing
import workloads

SEED = 7


def setUpModule():
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)


def generate_bytes(name: str, seed: int) -> dict[str, bytes]:
    out = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    try:
        workloads.generate(workloads.WORKLOADS[name], seed, out, workloads.TINY_SHAPES[name])
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    finally:
        shutil.rmtree(out)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_new_seed_new_bytes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = generate_bytes(name, SEED)
                self.assertEqual(first, generate_bytes(name, SEED))
                self.assertNotEqual(first["cycles.csv"], generate_bytes(name, SEED + 1)["cycles.csv"])

    def test_dirty_file_records_every_bad_kind(self):
        workload = workloads.WORKLOADS["validate_dirty"]
        out = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
        try:
            inputs = workloads.generate(workload, SEED, out)
        finally:
            shutil.rmtree(out)
        self.assertEqual(set(inputs.bad_rows), set(workloads.BAD_KINDS))
        self.assertTrue(all(inputs.bad_rows.values()))
        share = sum(inputs.bad_rows.values()) / inputs.rows
        self.assertAlmostEqual(share, workloads.BAD_SHARE, delta=0.005)


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for name, workload in workloads.WORKLOADS.items():
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    # Two seconds give several child processes, each with its
                    # own hash seed, for the byte-identity check to compare.
                    result = run.run_workload(workload, SEED, 0.0 if trace else 2.0, trace,
                                              workloads.TINY_SHAPES[name])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    expected = tracing.METRICS if trace else run.END_TO_END
                    self.assertEqual(list(result["metrics"]), list(expected))
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))


class CallCountTest(unittest.TestCase):
    """Exact counts at the layer boundaries, derived from the generated shape."""

    def layers(self, name: str) -> dict[str, float]:
        result = run.run_workload(workloads.WORKLOADS[name], SEED, 0.0, True,
                                  workloads.TINY_SHAPES[name])
        self.assertTrue(result["correct"])
        return {metric: m["value"] for metric, m in result["metrics"].items()}

    def test_report_wide_vehicles(self):
        shape = workloads.TINY_SHAPES["report_wide_vehicles"]
        layers = self.layers("report_wide_vehicles")
        self.assertEqual(layers["pcu.to_pcu_calls"], shape.rows)
        # three standards per approach; two delay standards for the all and
        # the major-only mean of every intersection
        self.assertEqual(layers["los.classify_calls"],
                         3 * shape.approaches + 4 * shape.intersections)
        self.assertEqual(layers["ingest.rows_valid"], shape.rows)

    def test_report_long(self):
        shape = workloads.TINY_SHAPES["report_long"]
        layers = self.layers("report_long")
        self.assertEqual(layers["pcu.to_pcu_calls"], 0)
        self.assertEqual(layers["los.classify_calls"],
                         3 * shape.approaches + 4 * shape.intersections)

    def test_variability_long(self):
        shape = workloads.TINY_SHAPES["variability_long"]
        intersections = shape.intersections
        layers = self.layers("variability_long")
        # 4 approaches give 6 pairs per intersection, plus one pooled test per
        # pair of intersections
        self.assertEqual(layers["stats.ztest_calls"],
                         6 * intersections + intersections * (intersections - 1) // 2)

    def test_validate_dirty(self):
        layers = self.layers("validate_dirty")
        shape = workloads.TINY_SHAPES["validate_dirty"]
        self.assertEqual(layers["ingest.rows_valid"] + layers["ingest.rows_invalid"], shape.rows)
        self.assertGreater(layers["ingest.rows_invalid"], 0)


class MissingHookTest(unittest.TestCase):
    def test_missing_target_is_reported_absent(self):
        cli = run.import_cli()
        original = cli.window_cycle_lengths
        del cli.window_cycle_lengths
        try:
            tracer = tracing.Tracer(run.PACKAGE)
            tracer.install()
            tracer.uninstall()
        finally:
            cli.window_cycle_lengths = original
        self.assertEqual(tracer.absent, ["stats.window"])


if __name__ == "__main__":
    unittest.main()
