"""Report emission: one CSV of per-trial records plus one JSON aggregate.

Both artifacts carry a schema version so downstream tooling can detect
incompatible changes. Reports are deterministic functions of (config, seed):
record order is trial order and JSON keys are written sorted.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["SCHEMA_VERSION", "TrialReport", "write_report", "render_text"]

SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class TrialReport:
    """Self-contained outcome of one scenario run.

    ``records`` holds one flat dict per trial (or per exhaustive sub-check);
    ``aggregate`` the summary statistics; ``verdicts`` the boolean outcome of
    each acceptance-style check, computable from the records alone.
    """

    scenario: str
    config: dict
    records: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return _jsonable(
            {
                "schema_version": SCHEMA_VERSION,
                "scenario": self.scenario,
                "config": self.config,
                "n_records": len(self.records),
                "aggregate": self.aggregate,
                "verdicts": self.verdicts,
            }
        )


def write_report(report: TrialReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``<scenario>_trials.csv`` and ``<scenario>_aggregate.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{report.scenario}_trials.csv"
    json_path = out / f"{report.scenario}_aggregate.json"

    fieldnames: list[str] = ["schema_version"]
    for rec in report.records:
        for k in rec:
            if k not in fieldnames:
                fieldnames.append(k)
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for rec in report.records:
            writer.writerow({"schema_version": SCHEMA_VERSION, **_jsonable(rec)})

    with json_path.open("w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return csv_path, json_path


def render_text(json_path: str | Path) -> str:
    """Human-readable rendering of a JSON aggregate report."""
    with Path(json_path).open() as fh:
        data = json.load(fh)
    has_keys = isinstance(data, dict) and {"scenario", "schema_version", "n_records"} <= data.keys()
    if not has_keys or not all(isinstance(data.get(k, {}), dict) for k in ("aggregate", "verdicts")):
        raise ValueError(f"{json_path} is not a report aggregate: expected a JSON object "
                         "with 'scenario', 'schema_version' and 'n_records' keys")
    lines = [
        f"scenario: {data['scenario']} (schema v{data['schema_version']})",
        f"records:  {data['n_records']}",
        "aggregate:",
    ]
    for key in sorted(data.get("aggregate", {})):
        lines.append(f"  {key}: {data['aggregate'][key]}")
    lines.append("verdicts:")
    for key in sorted(data.get("verdicts", {})):
        ok = data["verdicts"][key]
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {key}")
    return "\n".join(lines)
