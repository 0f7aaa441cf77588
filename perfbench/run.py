#!/usr/bin/env python3
"""leolink benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload iss_leo --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; ``leolink`` is imported from ``src/``
there and nowhere else. Each scenario run goes through the public API
(``config_from_dict`` then ``engine.run``), writes its outputs under
``.perfbench_out/<workload>/run`` and is checked (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics (medians over the runs made in
``--seconds``); ``--trace 1`` alternates untraced and traced runs and
prints the per-layer metrics of the traced ones (see ``tracing.py``). The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a run that raises
or fails its output check counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

from checks import REFERENCE_DIR, REFERENCE_SEED, CheckResult, check_outputs  # noqa: E402
from tracing import LAYER_UNITS, TRACED_UNITS, Tracer, instrument, layer_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "pair_steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Before each scenario run, set up alone until that takes SETUP_BUDGET_S
# (one set-up for the LEO workloads), so set-up samples span the whole
# measured window as the runs do.
MAX_SETUPS, SETUP_BUDGET_S = 50, 0.1


def import_leolink(root: Path = ROOT):
    """Import the checkout's own ``src/leolink``; exit if it is not there."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import leolink
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import leolink from {src}: {exc}")
    if not Path(leolink.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: leolink came from {leolink.__file__}, not {src}")
    return leolink


@dataclass
class Attempt:
    wall_s: float
    cpu_s: float
    traced: bool
    check: CheckResult
    echo: dict | None = None
    work: int = 0  # users x satellites x steps
    threads: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.check.ok


def run_once(name: str, seed: int, out_dir: Path, small: bool = False, tracer=None) -> Attempt:
    """One scenario from its raw config to checked outputs on disk."""
    from leolink import config_from_dict, engine

    raw = WORKLOADS[name](seed, str(out_dir), small)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            cfg = config_from_dict(raw)
            engine.run(cfg)
        else:
            with instrument(tracer), tracer.root():
                cfg = tracer.record("config.resolve", config_from_dict, (raw,), {})
                engine.run(cfg)
    except Exception:
        return Attempt(time.perf_counter() - t0, time.process_time() - c0, tracer is not None,
                       CheckResult(), error=traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    expect = ()
    if raw["users"].get("population"):
        names = [c.name for c in cfg.constellations] + ["combined"]
        expect = ("population.csv",) + tuple(
            f"grid_{n}_{m}.csv" for n in names for m in cfg.grid.metrics
        )
    ref = REFERENCE_DIR / name if seed == REFERENCE_SEED and not small else None
    try:
        check = check_outputs(out_dir, cfg.epoch, cfg.n_steps, cfg.step_s, ref, expect)
    except Exception:
        check = CheckResult([f"output check raised: {traceback.format_exc()}"])
    n_sats = sum(c.count for c in cfg.constellations)
    return Attempt(wall, cpu, tracer is not None, check, cfg.echo(),
                   len(cfg.users) * n_sats * cfg.n_steps, cfg.threads)


def measure_setup(name: str, seed: int, out_dir: Path) -> list[float]:
    """Config resolution plus fleet and user SGP4 initialisation, one timer
    pair each, repeated until they take SETUP_BUDGET_S."""
    from leolink import config_from_dict, engine
    from leolink.sgp4batch import SatBatch

    raw = WORKLOADS[name](seed, str(out_dir))
    times: list[float] = []
    while sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS:
        t0 = time.perf_counter()
        cfg = config_from_dict(raw)
        engine._Fleet(cfg)
        SatBatch(engine._user_records(cfg))
        times.append(time.perf_counter() - t0)
    return times


def provenance(leolink, seed: int, attempts: list[Attempt]) -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = Path(leolink.__file__).resolve().parent
    digest = hashlib.sha256()
    for p in sorted(src.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            digest.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    echo = next((a.echo for a in attempts if a.echo is not None), None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": next((a.threads for a in attempts if a.echo is not None), None),
        "config": echo,
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout's own .git, read directly: a checkout without
    one must not report the sha of a repository that happens to contain it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values),
           "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[Attempt], dict]:
    """Runs until the next would overrun ``seconds``; returns attempts and metrics."""
    out_dir = OUT / name / "run"
    setups: list[float] = []
    attempts: list[Attempt] = []
    layers: list[dict] = []
    last_tracer = None
    start = time.perf_counter()
    while True:
        # in trace mode the first run only warms up; traced and untraced
        # runs then alternate, so the overhead compares like with like
        tracer = Tracer() if trace and len(attempts) % 2 == 1 else None
        if not trace:
            setups += measure_setup(name, seed, out_dir)
        a = run_once(name, seed, out_dir, tracer=tracer)
        attempts.append(a)
        if len(attempts) == 1:
            # a user's process runs one scenario; later runs in this process
            # can only add allocator fragmentation to the peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not a.ok:
            print(f"run {len(attempts)} failed: {a.error or a.check.problems[:5]}", file=sys.stderr)
        if tracer is not None and a.error is None:
            layers.append(layer_metrics(tracer))
            last_tracer = tracer
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(attempts) > seconds and (not trace or len(attempts) >= 3):
            break

    def med(values):
        return statistics.median(values) if values else 0.0

    timed = attempts[1:] if trace else attempts
    good = [a for a in timed if a.ok] or timed
    untraced = [a for a in good if not a.traced]
    traced = [a for a in good if a.traced]
    raw = {
        "wall_s": [a.wall_s for a in untraced],
        "cpu_s": [a.cpu_s for a in untraced],
        "setup_s": setups,
        "traced_wall_s": [a.wall_s for a in traced],
    }
    if not trace:
        wall = med(raw["wall_s"])
        work = max(a.work for a in attempts)
        metrics = {
            "wall_s": wall,
            "setup_s": med(setups),
            "pair_steps_per_s": work / wall if wall else 0.0,
            "cpu_s": med(raw["cpu_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = {k: med([m[k] for m in layers]) for k in TRACED_UNITS}
        metrics["engine.cpu_util"] = med(raw["cpu_s"]) / med(raw["wall_s"]) if raw["wall_s"] else 0.0
        metrics["trace.overhead_s"] = med(raw["traced_wall_s"]) - med(raw["wall_s"])
        if last_tracer is not None:
            write_spans(last_tracer, OUT / name / "spans.csv.gz")
    return attempts, {"metrics": metrics, "samples": {k: spread(v) for k, v in raw.items() if v}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    leolink = import_leolink()
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)
    attempts, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(not a.ok for a in attempts)
    metrics = result["metrics"]
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(leolink, args.seed, attempts),
        "runs_failed": failed,
        "runs_attempted": len(attempts),
        "bytes_identical": [a.check.bytes_identical for a in attempts],
        "problems": sorted(
            {p for a in attempts for p in a.check.problems}
            | {a.error.strip().splitlines()[-1] for a in attempts if a.error}
        )[:20],
        "samples": result["samples"],
        "metrics": metrics,
    }
    (OUT / args.workload / f"result_trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: runs_failed {failed} of {len(attempts)} attempted")
    for k, v in metrics.items():
        print(f"  {k:28s} {v:>16.6g} {units[k]}")
    for k, s in result["samples"].items():
        print(f"  ({k}: median of {s['n']}, min {s['min']:.6g}, max {s['max']:.6g})")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
