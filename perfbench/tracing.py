"""Spans recorded around the benchmark's calls into the program.

A span is (id, name, parent, unit, start, end, counts). ``unit`` names the
op or set-up pass the span belongs to, so spans of one op share it. Spans
stay in memory and are written out once, when the run ends. A disabled
tracer records nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.unit = ""
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block; yields the span's count mapping."""
        if not self.enabled:
            yield {}
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "unit": self.unit, "start_ns": time.perf_counter_ns(),
                  "end_ns": None, "counts": {}}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def unit_totals(self, name: str, units: list[str]) -> list[float]:
        """Summed duration in ms of spans called ``name`` in each unit."""
        totals = {u: 0.0 for u in units}
        for rec in self.spans:
            if rec["name"] == name and rec["unit"] in totals:
                totals[rec["unit"]] += (rec["end_ns"] - rec["start_ns"]) / 1e6
        return [totals[u] for u in units]

    def has(self, name: str, units: list[str]) -> bool:
        wanted = set(units)
        return any(rec["name"] == name and rec["unit"] in wanted
                   for rec in self.spans)

    def median_time(self, name: str, op_units: list[str],
                    setup_units: list[str]) -> float:
        """Median per-op time of a span; per set-up pass if it never runs
        inside an op; 0.0 if it never runs."""
        for units in (op_units, setup_units):
            if units and self.has(name, units):
                return statistics.median(self.unit_totals(name, units))
        return 0.0

    def median_count(self, key: str, units: list[str]) -> float:
        """Median over ``units`` of the per-unit sum of count ``key``."""
        totals = {u: 0 for u in units}
        seen = False
        for rec in self.spans:
            if key in rec["counts"] and rec["unit"] in totals:
                totals[rec["unit"]] += rec["counts"][key]
                seen = True
        return float(statistics.median(totals.values())) if seen else 0.0

    def write(self, path: Path, meta: dict) -> None:
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}) + "\n")
