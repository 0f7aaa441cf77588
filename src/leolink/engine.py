"""End-to-end scenario execution.

Propagates every constellation satellite and user over the configured
window in time blocks. Per block, users are propagated at every step and
the fleet exactly only at knots, about every ``_KNOT_S`` seconds: every
row at the first knot, in one :meth:`_Fleet.propagate_block` call, then,
after the users' call, each later knot's rows in one
:meth:`SatBatch.propagate_pairs` call, a row only where some user may see
it before its next knot; once a knot skips no row, every later knot is
taken in one :meth:`SatBatch.propagate_jd` call (:func:`_lazy_knots`).
One elevation screen for all users (:func:`geometry.horizon_screen`) bounds
each (user, satellite) pair's height above the user's horizon plane
between knots, against the least height at which the satellite can clear
the elevation mask, and keeps, per user, the (satellite row, step) pairs
that may be at or above the mask, in (row, step) order; a skipped knot,
and an interval it ends, keeps none. Between knots the fleet is then
propagated only at the pairs any user keeps, in one more
:meth:`SatBatch.propagate_pairs` call. Rows whose propagation can fail
are taken at every knot, and at every step between knots in a call of
their own, so a failure is raised as a block without the screen raises
it; the screen leaves them out and gives them the same test at every
step once they are propagated, and a fleet whose rows all can fail (a
GEO fleet) has a knot at every step, all taken in the first call.
``cull=False`` makes every step a knot and every pair a candidate
instead. Per user, the two-sided visibility predicate, whose elevation
test is the one exact test of the mask, the selection policy and the
streaming metric accumulators run on the kept pairs only. Users are
independent units of parallelism inside each block, so results are
identical for any thread count, and satellite states are bit-identical
whether taken at knots or as gathered pairs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import timedelta
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, validate
from .constants import VERSION
from .geometry import (
    beam_cos_half_arrays,
    horizon_screen,
    mask_reach,
    mask_wait,
    pair_geometry_arrays,
    visible_mask_arrays,
)
from .metrics import BinGrid, CoverageSummary, StepRecord, UserAccumulator, bin_grid
from .policy import serving_rows
from .population import UserSpec
from .propagation import PropagationError, satrec_from_tle
from .sgp4batch import SatBatch, Slots
from .timebase import format_utc, julian_date
from .tle import elements_to_tle
from .walker import build_walker, shell_angles


# Knot spacing of the elevation screen [s]: a knot every round(_KNOT_S /
# step) steps, where each row is propagated only if some user may see it
# before its next knot. At seed 0 (10 s steps, 25 deg mask), knots every
# 60, 120 and 240 s took 96K, 93K and 87K knot states on iss_leo and 105K,
# 57K and 31K on population_mc (which skips none), and whole runs took a
# median of 353, 234 and 237 ms (iss_leo) and 763, 563 and 715 ms
# (population_mc), 7 runs each on a 2-vCPU host in October 2026.
_KNOT_S = 120.0


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
    each row's constellation index and beam cone parameters.

    A near-earth Walker shell gets one SGP4 record, its first slot's, and
    the batch fills every slot's row from it (:class:`Slots`): the slots
    differ only in node and mean anomaly. A deep-space shell (period >= 225
    min) and every TLE catalog row get a record each. Scalar init checks
    each record at its epoch; the filled slots get the same check as one
    batch call (:func:`_check_slots`), so set-up fails at the row a
    record per slot would fail at, with that record's error.
    """

    def __init__(self, cfg: ScenarioConfig):
        rows = []  # SatRecords and Slots, in fleet order
        filled = []  # per Slots entry, (first row, slot count, its slots' TLEs)
        const_of_sat = []
        cone_params = []  # each row's beam in beam_cos_half_arrays
        self.names = [c.name for c in cfg.constellations]
        self.counts: dict[str, int] = {}
        n = 0
        try:
            for ci, cc in enumerate(cfg.constellations):
                n0 = n
                if cc.shells is not None:
                    for si, shell in enumerate(cc.shells):
                        tles = partial(_shell_tles, cc, shell, cfg.epoch, n, n0)
                        first = satrec_from_tle(tles(1)[0])
                        if first.method == "n":
                            rows.append(_slots(cc, shell, first, n - n0))
                            filled.append((n, shell.total, tles))
                        else:
                            rows += [first] + [satrec_from_tle(t) for t in tles()[1:]]
                        n += shell.total
                        cone_params += [cc.beam_for_shell(si).cone_params] * shell.total
                else:
                    rows += [satrec_from_tle(_offset(cc, tle)) for tle in cc.tles]
                    n += len(cc.tles)
                    cone_params += [cc.beam.cone_params] * len(cc.tles)
                self.counts[cc.name] = n - n0
                const_of_sat.extend([ci] * (n - n0))
        except PropagationError:
            if filled:  # a filled slot before the failing record may fail first
                _check_slots(SatBatch(rows), filled)
            raise

        self.n = n
        self.const_of_sat = np.array(const_of_sat, dtype=np.int64)
        self.beam_nadir = np.array([nadir for nadir, _ in cone_params], dtype=bool)
        self.beam_param = np.array([param for _, param in cone_params], dtype=float)
        self.batch = SatBatch(rows)
        if filled:
            _check_slots(self.batch, filled)
        self.bounds = self.batch.orbit_bounds()
        self.may_fail = self.batch.may_fail

    def propagate_block(self, jd: float, fr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions and velocities (S, B, 3) at the instants (jd, fr[b])."""
        return self.batch.propagate_jd(jd, fr)


def _shell_tles(cc, shell, epoch, k0: int, n0: int, slots: int | None = None):
    """The TLEs of a Walker shell's slots, or of its first ``slots`` slots,
    whose first row is ``k0`` in the fleet and ``k0 - n0`` in constellation
    ``cc``."""
    return [
        elements_to_tle(_offset(cc, el), catalog_id=k + 1, name=f"{cc.name}-{k - n0}")
        for k, el in enumerate(build_walker(shell, epoch, slots), k0)
    ]


def _slots(cc, shell, first, i0: int) -> Slots:
    """The rows of a near-earth Walker shell of constellation ``cc`` whose
    first slot, the constellation's ``i0``-th satellite, has the record
    ``first``. Each slot's angles go through the operations of
    :func:`_offset`, :func:`elements_to_tle` and :func:`satrec_from_tle`,
    so its node and mean anomaly [rad] are bit for bit its record's."""
    raan, mean_anomaly = _offset_angles(cc, *shell_angles(shell))
    deg = math.pi / 180.0
    return Slots(
        first,
        [f"{cc.name}-{i}" for i in range(i0, i0 + shell.total)],
        (raan % 360.0) * deg,
        (mean_anomaly % 360.0) * deg,
    )


def _check_slots(batch: SatBatch, filled) -> None:
    """Scalar init's check at epoch (tsince 0) on the batch rows filled
    from slots, as one batch call. If a row fails it, every filled slot is
    initialised by scalar init instead, in row order, so the error raised
    is the one a record per slot raises, or none if no record fails."""
    try:
        batch.check_epoch(np.concatenate([np.arange(a, a + m) for a, m, _ in filled]))
    except PropagationError:
        for _, _, tles in filled:
            for tle in tles():
                satrec_from_tle(tle)


def _offset_angles(cc, raan, mean_anomaly):
    """A RAAN and a mean anomaly [deg], numbers or arrays, shifted by
    constellation ``cc``'s offsets."""
    if not (cc.raan_offset_deg or cc.anomaly_offset_deg):
        return raan, mean_anomaly
    return (raan + cc.raan_offset_deg) % 360.0, (mean_anomaly + cc.anomaly_offset_deg) % 360.0


def _offset(cc, el):
    """Walker elements or a TLE of constellation ``cc``, with its RAAN and
    mean anomaly shifted by the constellation's offsets."""
    if not (cc.raan_offset_deg or cc.anomaly_offset_deg):
        return el
    raan, mean_anomaly = _offset_angles(cc, el.raan, el.mean_anomaly)
    return replace(el, raan=raan, mean_anomaly=mean_anomaly)


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
    user_bounds = user_batch.orbit_bounds()
    n_users = len(cfg.users)
    n_steps = cfg.n_steps
    jd0, fr0 = julian_date(cfg.epoch)

    accs = [UserAccumulator(fleet.names, fleet.const_of_sat, cfg.step_s) for _ in range(n_users)]
    records_cap = [[] for _ in range(n_users)] if cfg.capture_records else None

    block = max(8, min(512, int(4e6 / max(fleet.n, 1))))
    # Every step is a knot without the cull, which makes every pair a
    # candidate, and when every row may fail and so is propagated at every
    # step anyway. Else a block's first fleet call takes its first knot
    # only, and _block_states each later knot for the rows some user may
    # see before the one after.
    lazy = cfg.cull and not fleet.may_fail.all()
    knot_every = max(1, round(_KNOT_S / cfg.step_s)) if lazy else 1

    def process_user(ui: int, t0: int, idx: np.ndarray, sat_pos, sat_vel, u_pos, u_vel, cand):
        row, step, at = cand[ui]
        rng, rr, sin_el, cos_off, sat_r = pair_geometry_arrays(
            sat_pos[at], sat_vel[at], u_pos[ui][step], u_vel[ui][step]
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
            knots = np.unique(np.r_[np.arange(0, len(idx), knot_every), len(idx) - 1])
            try:
                k_pos, k_vel = fleet.propagate_block(jd0, fr[knots[:1] if lazy else knots])
                u_pos, u_vel = user_batch.propagate_jd(jd0, fr)
                states = _block_states(
                    cfg, fleet, user_bounds, jd0, fr, knots, k_pos, k_vel, u_pos, u_vel
                )
            except PropagationError as exc:
                raise _block_failure(fleet, jd0, fr, t0, exc) from None
            args = (t0, idx, *states[:2], u_pos, u_vel, states[2])
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


def _block_states(cfg, fleet, user_bounds, jd, fr, knots, k_pos, k_vel, u_pos, u_vel):
    """(pos, vel, cand) of one block. pos and vel hold (P, 3) satellite
    states: the knots' (NaN at a knot a row skips), then the steps between
    knots of the rows that may fail, then the pairs between knots that the
    screen keeps. Per user, cand holds the candidate (row, step) pairs in
    (row, step) order and each one's index into pos and vel: with the cull
    on, the pairs the screen keeps, else every pair. k_pos and k_vel: (S,
    K', 3), the fleet at the block's first K' knots; if that is not every
    knot, the later ones are taken here (:func:`_lazy_knots`). Rows that
    may fail are propagated at every step, between the knots first, so
    they get the screen's knot test at every step; the screen bounds the
    others between knots."""
    n_sat, n_knot, n_steps = fleet.n, len(knots), len(fr)
    if not cfg.cull:  # every step is a knot, and every pair a candidate
        every = np.arange(n_sat * n_steps)
        cand = [(*np.divmod(every, n_steps), every)] * len(u_pos)
        return k_pos.reshape(-1, 3), k_vel.reshape(-1, 3), cand
    knot_of = np.full(n_steps, -1)
    knot_of[knots] = np.arange(n_knot)
    between = np.flatnonzero(knot_of < 0)
    # the rows that may fail, unless every step is a knot (then every row
    # gets the knot test at every step from the screen)
    dense = np.flatnonzero(fleet.may_fail) if len(between) else np.arange(0)
    screened = np.flatnonzero(~fleet.may_fail) if len(dense) else slice(None)
    # their steps between knots first, as they need no screen
    d_keys = (dense[:, None] * n_steps + between).ravel()
    if len(dense):
        d_pos, d_vel = fleet.batch.propagate_pairs(jd, fr, *np.divmod(d_keys, n_steps))
    u_r = np.sqrt(np.einsum("ubk,ubk->ub", u_pos, u_pos))
    if k_pos.shape[1] < n_knot:
        reach, rate = mask_reach(fleet.bounds, user_bounds, u_r.min(), cfg.min_elevation_deg)
        rate[fleet.may_fail] = np.inf  # never skipped
        k_pos, k_vel = _lazy_knots(
            fleet.batch, jd, fr, knots, knots * cfg.step_s, k_pos, k_vel, u_pos[:, knots],
            reach, rate,
        )
    u_top = u_r.max(axis=1)
    keys = horizon_screen(
        k_pos[screened], k_vel[screened], u_pos[:, knots], u_vel[:, knots], knots, cfg.step_s,
        [b[screened] for b in fleet.bounds], user_bounds, cfg.min_elevation_deg, u_top,
    )
    if len(dense):
        keys = _fleet_keys(keys, screened, n_steps)
    # between the knots: the pairs any user keeps
    need = np.zeros((n_sat, n_steps), dtype=bool)
    need.ravel()[np.concatenate(keys)] = True
    need[:, knots] = False
    p_keys = np.flatnonzero(need)
    need = None  # freed before the pairs' tiles are made
    between_states = [(d_pos, d_vel)] if len(dense) else []
    if len(p_keys):
        between_states.append(fleet.batch.propagate_pairs(jd, fr, *np.divmod(p_keys, n_steps)))
    pos, vel = k_pos.reshape(-1, 3), k_vel.reshape(-1, 3)
    if between_states:
        pos = np.concatenate([pos, *(p for p, _ in between_states)])
        vel = np.concatenate([vel, *(v for _, v in between_states)])
    # a state's index into pos and vel: row x knots + knot at a knot, else
    # its place after the knots, from a table written only at the keys of
    # the states taken between knots
    slot = np.empty(n_sat * n_steps, dtype=np.int32)
    taken = np.concatenate([d_keys, p_keys])
    slot[taken] = np.arange(n_sat * n_knot, n_sat * n_knot + len(taken))
    if len(dense):  # the knot test on every step of the rows that may fail
        d_all = np.empty((len(dense), n_steps, 3))
        d_all[:, knots] = k_pos[dense]
        d_all[:, between] = d_pos.reshape(len(dense), len(between), 3)
        exact = horizon_screen(
            d_all, None, u_pos, None, np.arange(n_steps), cfg.step_s,
            [b[dense] for b in fleet.bounds], user_bounds, cfg.min_elevation_deg, u_top,
        )
        exact = _fleet_keys(exact, dense, n_steps)
        keys = [np.sort(np.concatenate([k, e]), kind="stable") for k, e in zip(keys, exact)]
    cand = []
    for k in keys:
        row, step = np.divmod(k, n_steps)
        knot = knot_of[step]
        cand.append((row, step, np.where(knot < 0, slot[k], row * n_knot + knot)))
    return pos, vel, cand


def _lazy_knots(batch, jd, fr, knots, t_knot, pos0, vel0, u_knots, reach, rate):
    """The fleet's states (S, K, 3) at a block's knots, NaN at each knot
    where a row is not taken. pos0, vel0: (S, 1, 3) at the first knot;
    t_knot: the knots' times [s]; u_knots: (U, K, 3) the users there;
    reach, rate: each row's Θ and Ω (:func:`mask_reach`).

    No user can see a row taken at knot j before t_j + :func:`mask_wait`.
    The row is next taken at the last knot at or before that time, but not
    before knot j + 1, and at no later knot of the block if that time is
    past its last one. So every knot it skips, and every interval that
    such a knot ends, holds only steps at which no user sees it. Each knot
    takes its rows in one :meth:`SatBatch.propagate_pairs` call. Once a
    knot skips no row, every later knot takes every row, in one
    :meth:`SatBatch.propagate_jd` call, with no more deciding.
    """
    n_sat, n_knot = len(pos0), len(knots)
    pos, vel = np.full((n_sat, n_knot, 3), np.nan), np.full((n_sat, n_knot, 3), np.nan)
    rows, p, v = np.arange(n_sat), pos0[:, 0], vel0[:, 0]
    due = np.zeros(n_sat, dtype=np.intp)  # each row's next knot; n_knot: none
    for j in range(n_knot):
        if j:
            rows = np.flatnonzero(due == j)
            p, v = batch.propagate_pairs(jd, fr, rows, np.full(len(rows), knots[j]))
        pos[rows, j], vel[rows, j] = p, v
        if j == n_knot - 1:
            break
        seen = t_knot[j] + mask_wait(p, u_knots[:, j], reach[rows], rate[rows])
        nxt = np.maximum(np.searchsorted(t_knot, seen, side="right") - 1, j + 1)
        nxt[seen > t_knot[-1]] = n_knot
        nxt[np.isnan(seen)] = j + 1  # a state that is not finite is taken at the next knot
        due[rows] = nxt
        if (due == j + 1).all():
            pos[:, j + 1 :], vel[:, j + 1 :] = batch.propagate_jd(jd, fr[knots[j + 1 :]])
            break
    return pos, vel


def _fleet_keys(keys, rows, n_steps):
    """Each user's keys row * n_steps + step from a screen of the fleet rows
    ``rows``, as keys of the whole fleet."""
    return [rows[k // n_steps] * n_steps + k % n_steps for k in keys]


def _block_failure(fleet, jd, fr, t0, exc):
    """The error of a block that failed, counted from the scenario start. A
    block propagates the fleet only at some pairs, so the error is taken
    from the fleet's dense block, which fails first if it fails at all,
    as a run without the screen does; else it is ``exc``, the users'."""
    try:
        fleet.propagate_block(jd, fr)
    except PropagationError as dense:
        exc = dense
    if exc.step is not None:
        exc.step += t0  # the propagators count from the block start
    return exc


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

    # an interval end is one of at most n_steps instants, so each is formatted once
    stamp = lru_cache(maxsize=None)(partial(_step_iso, cfg))
    with _replacing(out_dir / "pass_access.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "kind", "sat_id", "start_iso", "end_iso", "duration_min"])
        for u in manifest.users:
            uid = u.spec.user_id
            for sat, s, e in u.passes:
                w.writerow(
                    [uid, "pass", sat, stamp(s), stamp(e),
                     f"{(e - s + 1) * cfg.step_s / 60.0:.4f}"]
                )
            for s, e in u.accesses:
                w.writerow(
                    [uid, "access", "", stamp(s), stamp(e),
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
