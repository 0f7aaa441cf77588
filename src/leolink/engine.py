"""End-to-end scenario execution.

Propagates every constellation satellite and user over the configured
window in time blocks. Per block, one conservative cull for all users
(satellite at or above the user's geometric horizon) gives each user a
candidate list of (satellite row, step) pairs in (row, step) order;
``cull=False`` makes every pair a candidate instead. Per user, the
two-sided visibility predicate, the selection policy and the streaming
metric accumulators run on that list only. Users are independent units of
parallelism inside each block, so results are identical for any thread
count.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import timedelta
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, validate
from .constants import VERSION
from .geometry import (
    beam_cos_half_arrays,
    horizon_candidates,
    pair_geometry_arrays,
    visible_mask_arrays,
)
from .metrics import BinGrid, CoverageSummary, StepRecord, UserAccumulator, bin_grid
from .policy import serving_rows
from .population import UserSpec
from .propagation import PropagationError, satrec_from_tle
from .sgp4batch import SatBatch
from .timebase import format_utc, julian_date
from .tle import elements_to_tle
from .walker import build_walker


@dataclass
class UserResult:
    spec: UserSpec
    summaries: dict[str, CoverageSummary]
    passes: list[tuple[int, int, int]]  # (sat_id, start_step, end_step)
    accesses: list[tuple[int, int]]
    records: list[StepRecord] | None = None


@dataclass
class RunManifest:
    config: dict
    constellation_counts: dict[str, int]
    n_steps: int
    wallclock_s: float
    version: str
    seed: int
    output_dir: str | None
    aggregate: dict
    users: list[UserResult]

    threads: int = 1

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "constellation_counts": self.constellation_counts,
            "n_steps": self.n_steps,
            "wallclock_s": self.wallclock_s,
            "threads": self.threads,
            "version": self.version,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }


class _Fleet:
    """Flattened satellite set across all configured constellations, with
    each row's constellation index and beam cone parameters."""

    def __init__(self, cfg: ScenarioConfig):
        records = []
        const_of_sat = []
        cone_params = []  # each row's beam in beam_cos_half_arrays
        self.names = [c.name for c in cfg.constellations]
        self.counts: dict[str, int] = {}
        for ci, cc in enumerate(cfg.constellations):
            n0 = len(records)
            if cc.shells is not None:
                for si, shell in enumerate(cc.shells):
                    for el in build_walker(shell, cfg.epoch):
                        if cc.raan_offset_deg or cc.anomaly_offset_deg:
                            el = replace(
                                el,
                                raan=(el.raan + cc.raan_offset_deg) % 360.0,
                                mean_anomaly=(el.mean_anomaly + cc.anomaly_offset_deg) % 360.0,
                            )
                        k = len(records)
                        tle = elements_to_tle(el, catalog_id=k + 1, name=f"{cc.name}-{k - n0}")
                        records.append(satrec_from_tle(tle))
                    cone_params += [cc.beam_for_shell(si).cone_params] * shell.total
            else:
                for tle in cc.tles:
                    records.append(satrec_from_tle(tle))
                cone_params += [cc.beam.cone_params] * len(cc.tles)
            n_added = len(records) - n0
            self.counts[cc.name] = n_added
            const_of_sat.extend([ci] * n_added)

        self.n = len(records)
        self.const_of_sat = np.array(const_of_sat, dtype=np.int64)
        self.beam_nadir = np.array([nadir for nadir, _ in cone_params], dtype=bool)
        self.beam_param = np.array([param for _, param in cone_params], dtype=float)
        self.batch = SatBatch(records)

    def propagate_block(self, jd: float, fr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions and velocities (S, B, 3) for a block."""
        return self.batch.propagate_jd(jd, fr)


def _user_records(cfg: ScenarioConfig):
    recs = []
    for u in cfg.users:
        el = u.elements if u.elements.epoch is not None else replace(u.elements, epoch=cfg.epoch)
        tle = elements_to_tle(el, catalog_id=90000 + u.user_id, name=f"user-{u.user_id}")
        recs.append(satrec_from_tle(tle))
    return recs


def run(cfg: ScenarioConfig) -> RunManifest:
    """Execute a scenario and (when configured) persist its outputs."""
    t_start = time.perf_counter()
    problems = validate(cfg)
    errors = [m for lvl, m in problems if lvl == "error"]
    if errors:
        raise ConfigError("; ".join(errors))

    out_dir = cfg.output_dir
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        try:
            probe.write_text("")
        finally:
            if probe.exists():
                probe.unlink()

    fleet = _Fleet(cfg)
    user_batch = SatBatch(_user_records(cfg))
    n_users = len(cfg.users)
    n_steps = cfg.n_steps
    jd0, fr0 = julian_date(cfg.epoch)

    accs = [UserAccumulator(fleet.names, fleet.const_of_sat, cfg.step_s) for _ in range(n_users)]
    records_cap = [[] for _ in range(n_users)] if cfg.capture_records else None

    block = max(8, min(512, int(4e6 / max(fleet.n, 1))))

    def process_user(ui: int, t0: int, idx: np.ndarray, sat_pos, sat_vel, u_pos, u_vel, cand):
        row, step = cand[ui]
        rng, rr, sin_el, cos_off, sat_r = pair_geometry_arrays(
            sat_pos[row, step], sat_vel[row, step], u_pos[ui][step], u_vel[ui][step]
        )
        cos_half = beam_cos_half_arrays(fleet.beam_nadir[row], fleet.beam_param[row], sat_r)
        vis = visible_mask_arrays(sin_el, cos_off, cfg.min_elevation_deg, cos_half)
        srv = serving_rows(vis, step, rng, cfg.policy, ui, idx)
        accs[ui].update_block(t0, vis, row, step, rng, rr, srv)
        if records_cap is not None:
            elev = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
            visible = [[] for _ in idx]
            for s, k, *link in zip(*(a[vis].tolist() for a in (row, step, rng, rr, elev))):
                visible[k].append((s, *link))  # rows ascend within each step
            records_cap[ui].extend(
                StepRecord(int(t0 + k), visible[k], int(row[srv[k]]) if srv[k] >= 0 else None)
                for k in range(len(idx))
            )

    pool = ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1 else None
    try:
        for t0 in range(0, n_steps, block):
            idx = np.arange(t0, min(t0 + block, n_steps))
            fr = fr0 + idx * (cfg.step_s / 86400.0)
            try:
                sat_pos, sat_vel = fleet.propagate_block(jd0, fr)
                u_pos, u_vel = user_batch.propagate_jd(jd0, fr)
            except PropagationError as exc:
                if exc.step is not None:
                    exc.step += t0  # the propagators count from the block start
                raise
            if cfg.cull:
                cand = horizon_candidates(sat_pos, u_pos)
            else:
                cand = [np.divmod(np.arange(fleet.n * len(idx)), len(idx))] * n_users
            args = (t0, idx, sat_pos, sat_vel, u_pos, u_vel, cand)
            if pool is None:
                for ui in range(n_users):
                    process_user(ui, *args)
            else:
                futures = [pool.submit(process_user, ui, *args) for ui in range(n_users)]
                for f in futures:
                    f.result()
    finally:
        if pool is not None:
            pool.shutdown()

    users: list[UserResult] = []
    for ui, u in enumerate(cfg.users):
        summaries = accs[ui].finalize(n_steps, cfg.carrier_frequency_hz)
        users.append(
            UserResult(
                spec=u,
                summaries=summaries,
                passes=accs[ui].combined.passes.intervals,
                accesses=accs[ui].combined.access_intervals(),
                records=records_cap[ui] if records_cap is not None else None,
            )
        )

    aggregate = _aggregate(cfg, users, fleet)
    manifest = RunManifest(
        config=cfg.echo(),
        constellation_counts=dict(fleet.counts),
        n_steps=n_steps,
        wallclock_s=time.perf_counter() - t_start,
        version=VERSION,
        seed=cfg.seed,
        output_dir=str(out_dir) if out_dir is not None else None,
        aggregate=aggregate,
        users=users,
        threads=cfg.threads,
    )
    if out_dir is not None:
        _write_outputs(cfg, manifest, out_dir)
    return manifest


def _aggregate(cfg: ScenarioConfig, users: list[UserResult], fleet: _Fleet) -> dict:
    """Scenario-level scalars. The headline per-constellation coverage
    averages the Monte Carlo stratum only; near-shell refinement bands feed
    the grids but not this scalar."""
    mc = [u for u in users if u.spec.tag == "montecarlo"]
    out: dict = {"montecarlo_users": len(mc)}
    if mc:
        names = list(fleet.names) + ["combined"]
        overall = {}
        for name in names:
            vals = [u.summaries[name].coverage_probability for u in mc]
            overall[name] = float(np.mean(vals))
        out["overall_coverage"] = overall
    return out


def _step_iso(cfg: ScenarioConfig, step: int) -> str:
    return format_utc(cfg.epoch + timedelta(seconds=step * cfg.step_s))


def user_json(u: UserResult) -> dict:
    """One user's entry in ``summary.json``."""
    return {
        "user_id": u.spec.user_id,
        "tag": u.spec.tag,
        "alt_km": u.spec.altitude_km,
        "inc_deg": u.spec.inclination_deg,
        "raan_deg": u.spec.elements.raan,
        "ma_deg": u.spec.elements.mean_anomaly,
        "summaries": {k: s.to_dict() for k, s in u.summaries.items()},
    }


@contextmanager
def _replacing(path: Path, newline: str | None = None):
    """A text file that takes the place of ``path`` only once it is fully
    written: it is written under a temporary name in the same directory and
    renamed over ``path``, or removed if writing fails. A failed or killed
    run therefore never leaves a truncated output; a power loss is not
    covered (nothing is fsynced)."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _write_outputs(cfg: ScenarioConfig, manifest: RunManifest, out_dir: Path) -> None:
    """Write every output file, each one atomically; ``manifest.json`` goes
    last, so a run's manifest is only replaced once its outputs are."""
    summary = {
        "config": manifest.config,
        "reporting_mode": cfg.reporting_mode,
        "aggregate": manifest.aggregate,
        "users": [user_json(u) for u in manifest.users],
    }
    with _replacing(out_dir / "summary.json") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")

    with _replacing(out_dir / "pass_access.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "kind", "sat_id", "start_iso", "end_iso", "duration_min"])
        for u in manifest.users:
            uid = u.spec.user_id
            for sat, s, e in u.passes:
                w.writerow(
                    [uid, "pass", sat, _step_iso(cfg, s), _step_iso(cfg, e),
                     f"{(e - s + 1) * cfg.step_s / 60.0:.4f}"]
                )
            for s, e in u.accesses:
                w.writerow(
                    [uid, "access", "", _step_iso(cfg, s), _step_iso(cfg, e),
                     f"{(e - s + 1) * cfg.step_s / 60.0:.4f}"]
                )

    mc = [u for u in manifest.users if u.spec.tag in ("montecarlo", "shell_band")]
    if mc:
        with _replacing(out_dir / "population.csv", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user_id", "alt_km", "inc_deg", "raan_deg", "ma_deg", "tag"])
            for u in manifest.users:
                w.writerow(
                    [u.spec.user_id, f"{u.spec.altitude_km:.3f}",
                     f"{u.spec.inclination_deg:.3f}", f"{u.spec.elements.raan:.3f}",
                     f"{u.spec.elements.mean_anomaly:.3f}", u.spec.tag]
                )
        names = [c.name for c in cfg.constellations] + ["combined"]
        for name in names:
            for metric in cfg.grid.metrics:
                grid = bin_grid(
                    [u.spec.altitude_km for u in manifest.users],
                    [u.spec.inclination_deg for u in manifest.users],
                    [u.summaries[name] for u in manifest.users],
                    cfg.grid.altitude_bin_km,
                    cfg.grid.inclination_bin_deg,
                    metric,
                )
                _write_grid(grid, out_dir / f"grid_{name}_{metric}.csv")

    with _replacing(out_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest.to_dict(), indent=2) + "\n")


def _write_grid(grid: BinGrid, path: Path) -> None:
    with _replacing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(BinGrid.HEADER)
        for row in grid.to_rows():
            w.writerow(row)
