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

    def lookup(self, metric, variable, method):
        for e in self.entries:
            if (e.metric, e.variable, e.method) == (metric, variable, method):
                return e.value
        raise KeyError(f"no entry ({metric}, {variable}, {method})")

    def methods(self):
        seen = []
        for e in self.entries:
            if e.method not in seen:
                seen.append(e.method)
        return seen

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
        """Pivoted CSV: one row per (metric, variable), one column per method."""
        methods = [m for m in method_order if m in self.methods()]
        keys = []
        for e in self.entries:
            k = (e.metric, e.variable)
            if k not in keys:
                keys.append(k)
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(["metric", "variable"] + methods)
            for metric, variable in keys:
                row = [metric, variable]
                for m in methods:
                    try:
                        row.append(repr(self.lookup(metric, variable, m)))
                    except KeyError:
                        row.append("")
                writer.writerow(row)

