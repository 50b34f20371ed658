"""In-process span tracing of the analyzer's layers.

Timing wrappers are installed at the names each caller looks up (for
example ``cli.ingest_cycles``, ``pipeline.to_pcu``, ``stats.z_test`` and
``los.LosBandTable.classify``) and removed again afterwards.  Each call
records a span ``[name, start_ns, end_ns, parent_index]`` in memory; the
per-layer metrics are folded from the spans when the run ends.

A hook whose target no longer exists is skipped, and a layer none of whose
hooks could be installed is reported as absent (its metrics read 0), so a
refactor that deletes or renames a function does not fail the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (layer, module, attribute); "Class.method" attributes patch the class, and
# "*suffix" matches every public callable of the module ending in the suffix.
HOOKS = (
    ("config.load", "cli", "load_config"),
    ("ingest.approaches", "cli", "ingest_approaches"),
    ("ingest.cycles", "cli", "ingest_cycles"),
    ("ingest.cycles", "cli", "scan_cycles"),
    ("pipeline.analyze", "cli", "analyze_records"),
    ("pcu.to_pcu", "pipeline", "to_pcu"),
    ("pcu.composition", "pipeline", "composition_shares"),
    ("flow", "pipeline", "hourly_volume"),
    ("flow", "pipeline", "vc_ratio"),
    ("flow", "pipeline", "saturation_flow_width"),
    ("flow", "pipeline", "saturation_flow_discharge"),
    ("flow", "pipeline", "green_splits"),
    ("delay.control_delay", "pipeline", "control_delay"),
    ("los.classify", "los", "LosBandTable.classify"),
    ("emissions", "pipeline", "idle_fuel"),
    ("emissions", "pipeline", "co2_from_fuel"),
    ("emissions", "pipeline", "scale_emissions"),
    ("report.build", "report", "*_csv"),
    ("report.summary_text", "report", "summary_text"),
    ("report.commit", "report", "ArtifactWriter.commit"),
    ("stats.window", "cli", "window_cycle_lengths"),
    ("stats.ztest", "cli", "z_test"),
    ("stats.ztest", "stats", "z_test"),
    ("stats.five_number", "cli", "five_number"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS))
ROOT = "cli"

# Per-layer metric name -> unit, in report order.
METRICS = {
    "ingest.cycles_s": "s", "ingest.rows_per_s": "rows/s",
    "ingest.rows_valid": "count", "ingest.rows_invalid": "count",
    "pipeline.self_s": "s", "pipeline.analyze_s": "s",
    "pcu.to_pcu_s": "s", "pcu.to_pcu_calls": "count",
    "pcu.composition_s": "s", "pcu.composition_calls": "count",
    "flow.s": "s", "flow.calls": "count",
    "delay.control_delay_s": "s", "delay.control_delay_calls": "count",
    "los.classify_s": "s", "los.classify_calls": "count",
    "emissions.s": "s", "emissions.calls": "count",
    "report.build_s": "s", "report.summary_text_s": "s",
    "report.commit_s": "s", "report.bytes_written": "bytes",
    "stats.window_s": "s", "stats.five_number_s": "s",
    "stats.ztest_s": "s", "stats.ztest_calls": "count",
    "config.load_s": "s", "ingest.approaches_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans and row/byte counters while its hooks are installed."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        present = set()
        for layer, module_name, attribute in HOOKS:
            for owner, name in self._targets(module_name, attribute):
                original = getattr(owner, name)
                self._installed.append((owner, name, original))
                setattr(owner, name, self.span(layer, original, self._counter_for(layer)))
                present.add(layer)
        self.absent = [layer for layer in LAYERS if layer not in present]

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _targets(self, module_name: str, attribute: str):
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return []
        if attribute.startswith("*"):
            return [(module, name) for name, value in sorted(vars(module).items())
                    if name.endswith(attribute[1:]) and not name.startswith("_")
                    and callable(value)]
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not callable(getattr(owner, name, None)):
            return []
        return [(owner, name)]

    def _counter_for(self, layer: str):
        counters = self.counters
        if layer == "ingest.cycles":
            def count_rows(result):
                # scan_cycles returns (records, errors); ingest_cycles returns records.
                if isinstance(result, tuple) and len(result) == 2:
                    records, errors = result
                    counters["rows_invalid"] += len(errors)
                else:
                    records = result
                if hasattr(records, "__len__"):
                    counters["rows_valid"] += len(records)
            return count_rows
        if layer == "report.commit":
            def count_bytes(paths):
                counters["bytes_written"] += sum(os.path.getsize(p) for p in paths or ())
            return count_bytes
        return None

    def metrics(self, untraced_wall_s: float) -> dict[str, float]:
        """Fold the spans into the per-layer metrics of ``METRICS``."""
        total_ns: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
            if not self._inside_same_layer(parent, name):
                total_ns[name] += end - start

        def seconds(table, name):
            return table[name] / 1e9

        rows = self.counters["rows_valid"] + self.counters["rows_invalid"]
        ingest_s = seconds(total_ns, "ingest.cycles")
        root_s = seconds(total_ns, ROOT)
        return {
            "ingest.cycles_s": ingest_s,
            "ingest.rows_per_s": rows / ingest_s if ingest_s > 0 else 0.0,
            "ingest.rows_valid": self.counters["rows_valid"],
            "ingest.rows_invalid": self.counters["rows_invalid"],
            "pipeline.self_s": seconds(self_ns, "pipeline.analyze"),
            "pipeline.analyze_s": seconds(total_ns, "pipeline.analyze"),
            "pcu.to_pcu_s": seconds(total_ns, "pcu.to_pcu"),
            "pcu.to_pcu_calls": calls["pcu.to_pcu"],
            "pcu.composition_s": seconds(total_ns, "pcu.composition"),
            "pcu.composition_calls": calls["pcu.composition"],
            "flow.s": seconds(total_ns, "flow"),
            "flow.calls": calls["flow"],
            "delay.control_delay_s": seconds(total_ns, "delay.control_delay"),
            "delay.control_delay_calls": calls["delay.control_delay"],
            "los.classify_s": seconds(total_ns, "los.classify"),
            "los.classify_calls": calls["los.classify"],
            "emissions.s": seconds(total_ns, "emissions"),
            "emissions.calls": calls["emissions"],
            "report.build_s": seconds(total_ns, "report.build"),
            "report.summary_text_s": seconds(total_ns, "report.summary_text"),
            "report.commit_s": seconds(total_ns, "report.commit"),
            "report.bytes_written": self.counters["bytes_written"],
            "stats.window_s": seconds(total_ns, "stats.window"),
            "stats.five_number_s": seconds(total_ns, "stats.five_number"),
            "stats.ztest_s": seconds(total_ns, "stats.ztest"),
            "stats.ztest_calls": calls["stats.ztest"],
            "config.load_s": seconds(total_ns, "config.load"),
            "ingest.approaches_s": seconds(total_ns, "ingest.approaches"),
            "cli.self_s": seconds(self_ns, ROOT),
            "trace.overhead_s": root_s - untraced_wall_s,
        }

    def _inside_same_layer(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path) -> None:
        """Write the spans as JSON: one [name, start_ns, end_ns, parent] per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"absent_layers": self.absent, "spans": self.spans}, handle,
                      separators=(",", ":"))
