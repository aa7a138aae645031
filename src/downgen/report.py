"""Metric result collection and CSV serialization (RFC-4180 quoting)."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class MetricEntry:
    metric: str
    variable: str
    method: str
    value: float


@dataclass
class MetricReport:
    period: str = ""
    entries: list = field(default_factory=list)

    def add_scalar(self, metric, variable, method, value):
        self.entries.append(MetricEntry(metric, variable, method, value=float(value)))

    def write(self, out_dir):
        """metrics.csv with one row per entry."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.csv", "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(["metric", "variable", "method", "value", "period"])
            for e in self.entries:
                writer.writerow([e.metric, e.variable, e.method, repr(e.value),
                                 self.period])

    def write_comparison(self, path, method_order):
        """Pivoted CSV: one row per (metric, variable), one column per method of
        `method_order`."""
        cells = {(e.metric, e.variable, e.method): repr(e.value) for e in self.entries}
        rows = dict.fromkeys((e.metric, e.variable) for e in self.entries)
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(["metric", "variable"] + list(method_order))
            for metric, variable in rows:
                writer.writerow([metric, variable] + [cells.get((metric, variable, m), "")
                                                      for m in method_order])
