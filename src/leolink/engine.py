"""End-to-end scenario execution.

Propagates every constellation satellite and user over the configured
window in time blocks. Per block, users are propagated at every step and
the fleet exactly only at knots, about every ``_KNOT_S`` seconds: every
row at the first knot, in one :meth:`_Fleet.propagate_block` call, then,
after the users' call, every later knot's rows in one
:meth:`SatBatch.propagate_pairs` call. :func:`_knot_plan` decides them all
first, from each row's direction predicted from its mean elements: a row
is taken at a knot only if some user may see it in an interval next to
it, and a row taken at no later knot is left out of the screen. Where the
first interval clears too few rows to pay, every later knot is taken in
one :meth:`SatBatch.propagate_jd` call instead. One elevation screen for
all users (:func:`geometry.horizon_screen`) bounds each (user, satellite)
pair's height above the user's horizon plane between knots, against the
least height at which the satellite can clear the elevation mask, and
keeps, per user, the (satellite row, step) pairs that may be at or above
the mask, in (row, step) order; a skipped knot, and an interval it ends,
keeps none. Rows whose propagation can fail (deep-space or drag rows)
are taken at every knot and every step, and get the screen's knot test
at every step instead of its bound. Every state between knots, the pairs
any user keeps and those steps of the rows that may fail, comes from one
more :meth:`SatBatch.propagate_pairs` call, so a block makes at most
three fleet calls, and a failure is raised as a block without the
screen raises it. A fleet whose rows all can fail (a GEO fleet) has a
knot at every step, all taken in the first call. All the states a block
takes go into one (P, 3) store, indexed by one (satellite, step) table.
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
    mask_clear,
    mask_reach,
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
# step) steps, where each row is propagated only if some user may see it in
# an interval next to the knot. At seed 0 (10 s steps, 25 deg mask), knots
# every 60, 120 and 240 s took 16.2K, 16.8K and 19.1K knot states on
# iss_leo and 108K, 57K and 31K on population_mc (which takes every knot),
# and whole runs took a median of 147, 112 and 136 ms (iss_leo) and 874,
# 778 and 964 ms (population_mc), 15 runs each on a 2-vCPU host in October
# 2026.
_KNOT_S = 120.0
# Least share of the rows that cannot fail whose first interval between
# knots must be cleared for a block to plan its later knots and take them
# as gathered pairs, rather than take them all in one dense call. At seeds
# 0 and 5 the first interval cleared 98% of the rows on iss_leo and 17% on
# population_mc, whose 110 users make the plan's products cost more than
# the states it skips: planned, its block work took 390-430 ms against
# 335-355 ms dense (median of 9 runs, 2-vCPU host, October 2026).
_CLEAR_SHARE = 0.5


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
    # only, and _block_states the later knots _knot_plan picks.
    planned = cfg.cull and not fleet.may_fail.all()
    knot_every = max(1, round(_KNOT_S / cfg.step_s)) if planned else 1

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
                k_pos, k_vel = fleet.propagate_block(jd0, fr[knots[:1] if planned else knots])
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
    """(pos, vel, cand) of one block. pos and vel hold every (P, 3)
    satellite state the block takes: the knots', then those between knots.
    Per user, cand holds the candidate (row, step) pairs in (row, step)
    order and each one's index into pos and vel: with the cull on, the pairs
    the screen keeps, else every pair. k_pos and k_vel: (S, K', 3), the
    fleet at the block's first K' knots; if that is not every knot, the
    later ones are taken here, each row only at the knots :func:`_knot_plan`
    picks. The screen bounds the rows that cannot fail between knots. Rows
    that may fail are taken at every step, between knots with the pairs the
    screen keeps in one gathered call, and get the screen's knot test at
    every step."""
    n_sat, n_knot, n_steps = fleet.n, len(knots), len(fr)
    if not cfg.cull:  # every step is a knot, and every pair a candidate
        every = np.arange(n_sat * n_steps)
        cand = [(*np.divmod(every, n_steps), every)] * len(u_pos)
        return k_pos.reshape(-1, 3), k_vel.reshape(-1, 3), cand
    may_fail, screened = np.flatnonzero(fleet.may_fail), np.flatnonzero(~fleet.may_fail)
    pos, vel = k_pos.reshape(-1, 3), k_vel.reshape(-1, 3)
    # at[s, j]: the index of row s's state at knot j into pos, -1 where the
    # row is not taken there
    at = np.arange(len(pos), dtype=np.int32).reshape(n_sat, -1)
    u_r = np.sqrt(np.einsum("ubk,ubk->ub", u_pos, u_pos))
    u_knots = u_pos[:, knots]
    if at.shape[1] < n_knot:
        reach, rate = mask_reach(fleet.bounds, user_bounds, u_r.min(), cfg.min_elevation_deg)
        span = float(np.diff(knots).max()) * cfg.step_s
        take = _knot_plan(fleet.batch, fleet.may_fail, jd, fr, knots, span, u_knots, reach, rate)
        if take is None:  # every row at every later knot, in one dense call
            take = np.ones((n_sat, n_knot), dtype=bool)
            later = (m.reshape(-1, 3) for m in fleet.batch.propagate_jd(jd, fr[knots[1:]]))
        else:
            row, knot = np.nonzero(take[:, 1:])
            later = fleet.batch.propagate_pairs(jd, fr, row, knots[knot + 1])
            # the rows not taken after the first knot cannot be seen in the block
            screened = screened[take[screened, 1:].any(axis=1)]
        pos, vel = (np.concatenate([k, m]) for k, m in zip((pos, vel), later))
        at = np.concatenate([at, np.full((n_sat, n_knot - 1), -1, dtype=np.int32)], axis=1)
        at[:, 1:][take[:, 1:]] = np.arange(n_sat, len(pos), dtype=np.int32)
        later = None
    # np.take gathers (P, 3) rows about 4x faster than indexing
    idx = at[screened]
    s_pos, s_vel = np.take(pos, idx, axis=0), np.take(vel, idx, axis=0)
    s_pos[idx < 0] = s_vel[idx < 0] = np.nan  # the knots not taken
    u_top = u_r.max(axis=1)
    keys = horizon_screen(
        s_pos, s_vel, u_knots, u_vel[:, knots], knots, cfg.step_s,
        [b[screened] for b in fleet.bounds], user_bounds, cfg.min_elevation_deg, u_top,
    )
    keys = _fleet_keys(keys, screened, n_steps)
    s_pos = s_vel = None
    # between the knots: the pairs any user keeps, and every step of the rows
    # that may fail
    need = np.zeros((n_sat, n_steps), dtype=bool)
    need.ravel()[np.concatenate(keys)] = True
    need[may_fail] = True
    need[:, knots] = False
    p_keys = np.flatnonzero(need)
    need = None  # freed before the pairs' tiles are made
    row, step = np.divmod(p_keys, n_steps)
    between = fleet.batch.propagate_pairs(jd, fr, row, step)
    # slot[step, row]: the index of a state into pos and vel, written only
    # where the state is taken; step by step, so that each knot's row is
    # one contiguous write
    slot = np.empty((n_steps, n_sat), dtype=np.int32)
    slot[knots] = at.T
    slot.ravel()[step * n_sat + row] = np.arange(len(pos), len(pos) + len(p_keys), dtype=np.int32)
    pos, vel = (np.concatenate([k, m]) for k, m in zip((pos, vel), between))
    # the knot test on every step of the rows that may fail
    exact = horizon_screen(
        np.take(pos, slot[:, may_fail].T, axis=0), None, u_pos, None, np.arange(n_steps),
        cfg.step_s, [b[may_fail] for b in fleet.bounds], user_bounds, cfg.min_elevation_deg, u_top,
    )
    exact = _fleet_keys(exact, may_fail, n_steps)
    keys = [np.sort(np.concatenate([k, e]), kind="stable") for k, e in zip(keys, exact)]
    slot, cand = slot.ravel(), []
    for k in keys:
        row, step = np.divmod(k, n_steps)
        cand.append((row, step, slot[step * n_sat + row]))
    return pos, vel, cand


def _knot_plan(batch, may_fail, jd, fr, knots, span, u_knots, reach, rate):
    """(S, K) bool, the knots at which each row of ``batch`` is taken, or
    None to take every row at every knot. may_fail: (S,) the rows whose
    propagation can fail; span: the longest interval between knots [s];
    u_knots: (U, K, 3) the users at the knots; reach, rate: each row's Θ
    and Ω (:func:`mask_reach`).

    A row that cannot fail is predicted at every knot from its mean
    elements, to within a margin μ (:meth:`SatBatch.mean_directions`). The
    interval between two knots is cleared for the row if, at both, its
    predicted central angle from every user exceeds Θ + μ + Ω span / 2
    (:func:`mask_clear`): every step of the interval is within span / 2 of
    one of them, so no user sees the row there. A row is taken at the
    first knot and wherever an interval next to a knot is not cleared;
    rows that may fail, at every knot. Where the first interval clears
    fewer than ``_CLEAR_SHARE`` of the rows that cannot fail, every row is
    taken at every knot (None), decided from two products per user only.
    """
    rows = np.flatnonzero(~may_fail)
    limit = reach[rows] + 0.5 * span * rate[rows]

    def far(cols):
        dirs, margin = batch.mean_directions(jd, fr[knots[cols]], rows)
        return mask_clear(dirs, u_knots[:, cols], limit + margin)

    ends = far(slice(0, 2))
    if np.count_nonzero(ends[0] & ends[1]) < _CLEAR_SHARE * len(rows):
        return None
    if len(knots) > 2:
        ends = np.concatenate([ends, far(slice(2, None))])
    clear = ends[:-1] & ends[1:]  # (K - 1, R), interval j ends at knots j and j + 1
    # a later knot is skipped where both intervals next to it are cleared
    right = np.concatenate([clear[1:], np.ones((1, len(rows)), dtype=bool)])
    take = np.ones((batch.n, len(knots)), dtype=bool)
    take[rows, 1:] = ~(clear & right).T
    return take


def _fleet_keys(keys, rows, n_steps):
    """Each user's keys row * n_steps + step from a screen of the fleet rows
    ``rows`` (ascending), as keys of the whole fleet; ``keys`` itself where
    ``rows`` is 0, 1, ... (as is the whole fleet)."""
    if not len(rows) or rows[-1] == len(rows) - 1:
        return keys
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
