"""Output check for one scenario run.

Every run is checked against invariants that hold for any seed. For the
reference seed the run's ``summary.json`` and ``pass_access.csv`` are also
compared with the copies stored under ``reference/<workload>/``: integers,
strings and interval rows must match exactly, floats within
:data:`REL_TOL` relative. Whether the bytes are identical is recorded but
does not fail the check.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

REFERENCE_SEED = 0
REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CHECKED_FILES = ("summary.json", "pass_access.csv")


@dataclass
class CheckResult:
    problems: list[str] = field(default_factory=list)
    bytes_identical: bool | None = None  # None: no reference for this run

    @property
    def ok(self) -> bool:
        return not self.problems


def _parse_iso(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


def invariants(summary: dict, rows: list[list[str]], epoch: datetime, n_steps: int, step_s: float) -> list[str]:
    """Seed-independent properties of a finished run."""
    out: list[str] = []
    for name, cov in summary.get("aggregate", {}).get("overall_coverage", {}).items():
        if not 0.0 <= cov <= 1.0:
            out.append(f"aggregate coverage {name} = {cov} outside [0, 1]")
    pass_rows = Counter()
    access_rows = Counter()
    window_end = epoch + timedelta(seconds=(n_steps - 1) * step_s)
    for row in rows:
        uid, kind, _, start, end, dur = row
        s, e = _parse_iso(start), _parse_iso(end)
        if not epoch <= s <= e <= window_end:
            out.append(f"interval {row} outside the window [{epoch}, {window_end}]")
        expect_min = ((e - s).total_seconds() + step_s) / 60.0
        if abs(float(dur) - expect_min) > 1e-4:
            out.append(f"interval {row}: duration {dur} min, expected {expect_min:.4f}")
        (pass_rows if kind == "pass" else access_rows)[int(uid)] += 1
    for user in summary["users"]:
        uid = user["user_id"]
        sums = user["summaries"]
        for name, s in sums.items():
            where = f"user {uid} {name}"
            if not 0.0 <= s["coverage_probability"] <= 1.0:
                out.append(f"{where}: coverage {s['coverage_probability']} outside [0, 1]")
            if s["covered_steps"] and not s["visible_min"] <= s["visible_avg"] <= s["visible_max"]:
                out.append(f"{where}: visible min/avg/max out of order")
            if s["covered_steps"] > sums["combined"]["covered_steps"]:
                out.append(f"{where}: covered_steps exceeds the combined value")
        usage = sums["combined"]["usage_fractions"]
        if usage and not math.isclose(sum(usage.values()), 1.0, rel_tol=0.0, abs_tol=1e-9):
            out.append(f"user {uid}: usage fractions sum to {sum(usage.values())}")
        if sums["combined"]["pass_count"] != pass_rows[uid]:
            out.append(f"user {uid}: pass_count {sums['combined']['pass_count']} "
                       f"but {pass_rows[uid]} pass rows")
        if sums["combined"]["access_count"] != access_rows[uid]:
            out.append(f"user {uid}: access_count {sums['combined']['access_count']} "
                       f"but {access_rows[uid]} access rows")
    return out


def compare_json(ref, got, path: str = "summary") -> list[str]:
    """Exact match except floats, which agree within REL_TOL relative."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(ref.keys() ^ got.keys())} differ"]
        return [p for k in ref for p in compare_json(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != reference {len(ref)}"]
        return [p for i, (a, b) in enumerate(zip(ref, got)) for p in compare_json(a, b, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, float):
        if math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != reference {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []


def compare_rows(ref: list[list[str]], got: list[list[str]]) -> list[str]:
    if ref == got:
        return []
    if len(ref) != len(got):
        return [f"pass_access.csv: {len(got)} rows != reference {len(ref)}"]
    bad = [i for i, (a, b) in enumerate(zip(ref, got)) if a != b]
    return [f"pass_access.csv row {i}: {got[i]} != reference {ref[i]}" for i in bad[:5]]


def _read_rows(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))


def write_reference(out_dir: Path, ref_dir: Path) -> None:
    """Store a run's checked outputs (gzip) and their sha256 as the reference."""
    ref_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name in CHECKED_FILES:
        data = (out_dir / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        with gzip.GzipFile(ref_dir / f"{name}.gz", "wb", mtime=0) as fh:
            fh.write(data)
    (ref_dir / "sha256.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def check_outputs(
    out_dir: Path,
    epoch: datetime,
    n_steps: int,
    step_s: float,
    ref_dir: Path | None = None,
    expect_files: tuple[str, ...] = (),
) -> CheckResult:
    """Invariants always; the stored reference when ``ref_dir`` is given."""
    result = CheckResult()
    missing = [f for f in CHECKED_FILES + expect_files if not (out_dir / f).is_file()]
    if missing:
        result.problems.append(f"missing outputs: {missing}")
        return result
    raw = {name: (out_dir / name).read_bytes() for name in CHECKED_FILES}
    summary = json.loads(raw["summary.json"])
    rows = _read_rows(raw["pass_access.csv"].decode())
    if rows[:1] != [["user_id", "kind", "sat_id", "start_iso", "end_iso", "duration_min"]]:
        result.problems.append(f"pass_access.csv header {rows[:1]}")
        return result
    result.problems += invariants(summary, rows[1:], epoch, n_steps, step_s)
    if ref_dir is not None:
        ref = {name: gzip.decompress((ref_dir / f"{name}.gz").read_bytes()) for name in CHECKED_FILES}
        result.problems += compare_json(json.loads(ref["summary.json"]), summary)
        result.problems += compare_rows(_read_rows(ref["pass_access.csv"].decode()), rows)
        digests = json.loads((ref_dir / "sha256.json").read_text())
        result.bytes_identical = all(
            hashlib.sha256(raw[name]).hexdigest() == digests[name] for name in CHECKED_FILES
        )
    return result
