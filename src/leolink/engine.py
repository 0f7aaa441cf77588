"""End-to-end scenario execution.

Propagates every constellation satellite and user over the configured
window in time blocks. Per block, users are propagated at every step and
the fleet exactly only at knots, about every ``_KNOT_S`` seconds, all in
one :meth:`_Fleet.propagate_block` call after the users'.
:func:`_knot_plan` decides its rows at every knot alike, from each row's
direction predicted from its mean elements: a row is taken at a knot
only if some user may see it in an interval next to it, and a row taken
at no knot is left out of the screen. Where the first interval clears
too few rows to pay, and in a block of one knot, every row is taken at
every knot instead. One screen for all users
(:func:`geometry.horizon_screen`) keeps the (user, satellite row, step)
pairs that may pass both sides of the visibility predicate, the mask
and the row's beam, as one ascending array of keys. It first finds the
near (interval, user, satellite) triples: at a knot of the interval, the
central angle between the two is within a cap, the largest angle at
which the satellite can clear the mask or, if less, at which the user
can be inside its beam, plus the angle both can turn in half an
interval. Both the plan and the screen take that tighter angle, each
row's beam given by its shell or catalog. Direction cells, each knot's
satellite directions binned by declination and right ascension, give the
candidates, so the work grows with the near triples, not with users x
satellites. On those triples only, it tests each knot exactly against
the least height above the user's horizon plane at which the satellite
can clear the mask or, if higher, be seen inside a nadir-law beam, and
bounds that height between knots by parabolas whose curvature bounds
z'' from above within the central angle the pair can reach there (an
interval where it may reach 90 degrees is kept whole); a skipped knot,
and an interval it ends, keeps none. Rows whose propagation can fail
(deep-space or drag rows) are taken at every knot and every step, and
get the screen's knot test of the mask at every step instead of its
bounds. Every state between knots, the pairs any user keeps and those
steps of the rows that may fail, comes from one more
:meth:`SatBatch.propagate_pairs` call, so a block makes at most two
fleet calls, and a failure is raised as a block without the screen
raises it. A fleet whose rows all can fail (a GEO fleet) has a knot at
every step, all taken in the knot call. All the states a block takes go
into one (P, 3) store, indexed by one (satellite, step) table.
``cull=False`` makes every step a knot and every pair a candidate
instead. The candidates go on in chunks of whole users, of about
``_PAIR_BUDGET`` pairs, through the two-sided visibility predicate,
whose elevation test is the one exact test of the mask, the selection
policy and one streaming accumulator, which finalizes every user into
the columns the output files are formatted from. Threads take a chunk
each; the accumulator takes the chunks in user order on the calling
thread, so results are identical for any thread count, and satellite
states are bit-identical whether taken at knots or as gathered pairs.
"""

from __future__ import annotations

import csv
import json
import os
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import timedelta
from functools import cached_property, partial
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
from .metrics import BinGrid, CoverageSummary, Results, StepRecord, UserAccumulator, bin_grids
from .policy import serving_rows
from .population import UserSpec
from .propagation import PropagationError, satrec_from_tle
from .sgp4batch import SatBatch, Slots
from .timebase import format_utc, julian_date
from .tle import elements_to_tle
from .walker import build_walker, shell_angles
from .writer import grid_text, pass_access_text, summary_text


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
# knots must be cleared for a block to plan its knots and take them as
# gathered pairs, rather than take every row at every knot in one dense
# call. At seeds 0 and 5 the first interval cleared 98% of the rows on
# iss_leo and 17% on population_mc, whose 110 users make the plan's
# products cost more than the states it skips: planned, its block work took
# 390-430 ms against 335-355 ms dense (median of 9 runs, 2-vCPU host,
# October 2026).
_CLEAR_SHARE = 0.5
# Candidate pairs per chunk of whole users: a chunk starts at each user whose
# first pair of the block passes a multiple of this. At seed 0 the 1,100-user
# 20 min population (1.69 M candidates) took a median of 1,387, 1,090, 1,041,
# 1,065 and 1,149 ms at 2^13-2^16 and 2^18 (7 runs); population_mc took
# 189-206 ms at each (11 runs) and peaked at 72-74 MB RSS up to 2^15, 76 MB
# at 2^16 and 95 MB at 2^18 (2-vCPU host, October 2026).
_PAIR_BUDGET = 1 << 15


@dataclass
class UserResult:
    """One user's results. Its summaries, passes and accesses are built
    from the run's :class:`Results` columns when first read."""

    spec: UserSpec
    records: list[StepRecord] | None = None
    results: Results | None = field(default=None, repr=False, compare=False)
    index: int = 0  # the user's index into ``results``

    @cached_property
    def summaries(self) -> dict[str, CoverageSummary]:
        return self.results.summaries(self.index)

    @cached_property
    def passes(self) -> list[tuple[int, int, int]]:  # (sat_id, start_step, end_step)
        return self._rows(self.results.passes)

    @cached_property
    def accesses(self) -> list[tuple[int, int]]:  # whole-fleet (start_step, end_step)
        return self._rows(self.results.accesses)

    def _rows(self, table: np.ndarray) -> list[tuple]:
        a, b = np.searchsorted(table[0], (self.index, self.index + 1))  # row 0: the user
        return list(zip(*table[1:, a:b].tolist()))


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
    results: Results  # every user's summaries, passes and accesses, as columns

    threads: int = 1
    # seconds in the elevation screen and in the gathered propagate_pairs
    # calls between knots, and the work counts of _new_profile
    profile: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields ``manifest.json`` holds, in its order."""
        return {k: getattr(self, k) for k in ("config", "constellation_counts", "n_steps",
                "wallclock_s", "threads", "version", "seed", "output_dir", "profile")}


def _new_profile() -> dict:
    """A run's profile before its first block: seconds in the screen and in
    the gathered pairs; fleet states taken at knots, triples screened (users
    x rows x intervals, where knots are apart), near triples
    (:func:`geometry.horizon_screen`), candidate pairs (summed over users),
    gathered pairs and visible pairs."""
    return {"screen_s": 0.0, "gathered_pairs_s": 0.0, "knot_states": 0, "triples": 0,
            "near_triples": 0, "candidates": 0, "gathered_pairs": 0, "visible_pairs": 0}


class _Fleet:
    """Flattened satellite set across all configured constellations, with
    each row's constellation index, beam cone parameters and beam group.

    Each Walker shell is one batch entry (:class:`Slots`) from its first
    slot's TLE, and each catalog TLE one more. The batch initialises the
    near-earth rows in one call, checks at its epoch each one that may fail
    and runs the deep-space rows' scalar init, so set-up raises the error
    of the first row in fleet order that a record per row fails.
    """

    def __init__(self, cfg: ScenarioConfig):
        entries = []
        groups = []  # per shell or catalog, (rows, constellation, beam cone params)
        self.names = [c.name for c in cfg.constellations]
        self.counts: dict[str, int] = {}
        n = 0
        for ci, cc in enumerate(cfg.constellations):
            n0 = n
            if cc.shells is not None:
                for si, shell in enumerate(cc.shells):
                    angles = shell_angles(shell)
                    first, = build_walker(shell, cfg.epoch, 1, angles)
                    tle = elements_to_tle(_offset(cc, first), catalog_id=n + 1,
                                          name=f"{cc.name}-{n - n0}")
                    # each slot's angles through the operations of _offset and
                    # elements_to_tle, for their bits
                    raan, mean_anomaly = _offset_angles(cc, *angles)
                    names = _SlotNames(cc.name, range(n - n0, n - n0 + shell.total))
                    slots = Slots(tle, names, raan % 360.0, mean_anomaly % 360.0)
                    entries.append((slots, satrec_from_tle))
                    n += shell.total
                    groups.append((shell.total, ci, cc.beam_for_shell(si).cone_params))
            else:
                entries += [(_offset(cc, tle), satrec_from_tle) for tle in cc.tles]
                n += len(cc.tles)
                groups.append((len(cc.tles), ci, cc.beam.cone_params))
            self.counts[cc.name] = n - n0
        self.n = n
        sizes = [m for m, _, _ in groups]
        self.const_of_sat = np.repeat(np.array([ci for _, ci, _ in groups], dtype=np.int64), sizes)
        self.beam_nadir = np.repeat(np.array([c[0] for _, _, c in groups], dtype=bool), sizes)
        self.beam_param = np.repeat(np.array([c[1] for _, _, c in groups], dtype=float), sizes)
        # each row's cone parameters and beam group (its shell or catalog)
        self.beams = (self.beam_nadir, self.beam_param, np.repeat(np.arange(len(groups)), sizes))
        self.batch = SatBatch(entries)
        self.bounds = self.batch.orbit_bounds()
        self.may_fail = self.batch.may_fail

    def propagate_block(self, jd: float, fr: np.ndarray, take: np.ndarray | None = None):
        """Positions and velocities at the instants (jd, fr[b]): (S, B, 3),
        every row at every instant, or, given the (S, B) bool ``take``,
        (P, 3) of the rows at the instants it marks, row by row."""
        if take is None:
            return self.batch.propagate_jd(jd, fr)
        return self.batch.propagate_pairs(jd, fr, *np.nonzero(take))


class _SlotNames(Sequence):
    """The names of a constellation's satellites ``ids``, as its TLEs name
    them, each formatted when read."""

    def __init__(self, constellation: str, ids: range):
        self.constellation, self.ids = constellation, ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> str:
        return f"{self.constellation}-{self.ids[k]}"


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
    tles = []
    for u in cfg.users:
        el = u.elements if u.elements.epoch is not None else replace(u.elements, epoch=cfg.epoch)
        tles.append(elements_to_tle(el, catalog_id=90000 + u.user_id, name=f"user-{u.user_id}"))
    return [(t, satrec_from_tle) for t in tles]


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

    acc = UserAccumulator(fleet.names, fleet.const_of_sat, cfg.step_s, n_users)
    profile = _new_profile()
    records_cap = [[] for _ in range(n_users)] if cfg.capture_records else None

    block = max(8, min(512, int(4e6 / max(fleet.n, 1))))
    # Every step is a knot without the cull, which makes every pair a
    # candidate, and when every row may fail and so is propagated at every
    # step anyway. Else _block_states takes each row at the knots that
    # _knot_plan picks.
    planned = cfg.cull and not fleet.may_fail.all()
    knot_every = max(1, round(_KNOT_S / cfg.step_s)) if planned else 1

    def chunk_pairs(users):
        """The block's candidate pairs of ``users`` (a range): visibility,
        user, row, step, range, range-rate, each user's serving pair at
        each step, and the users."""
        lo, hi = first[users[0]], first[users[-1] + 1]
        rest, step = np.divmod(np.arange(lo, hi) if keys is None else keys[lo:hi], len(idx))
        user, row = np.divmod(rest, fleet.n)
        at, u_at = np.take(slot, step * fleet.n + row), user * len(idx) + step
        rng, rr, sin_el, cos_off, sat_r = pair_geometry_arrays(  # np.take: see _block_states
            np.take(pos, at, axis=0), np.take(vel, at, axis=0),
            np.take(u_pos, u_at, axis=0), np.take(u_vel, u_at, axis=0),
        )
        cos_half = beam_cos_half_arrays(fleet.beam_nadir[row], fleet.beam_param[row], sat_r)
        vis = visible_mask_arrays(sin_el, cos_off, cfg.min_elevation_deg, cos_half)
        srv = serving_rows(vis, user, step, rng, cfg.policy, users, idx)
        if records_cap is not None:
            elev = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
            visible = [[] for _ in range(srv.size)]  # per (user, step), rows ascending
            seg = (user - users[0]) * len(idx) + step
            for i, *link in zip(*(a[vis].tolist() for a in (seg, row, rng, rr, elev))):
                visible[i].append(tuple(link))
            served = [int(row[j]) if j >= 0 else None for j in srv.ravel().tolist()]
            for i, u in enumerate(users):
                b = slice(i * len(idx), (i + 1) * len(idx))
                records_cap[u].extend(map(StepRecord, idx.tolist(), visible[b], served[b]))
        return vis, user, row, step, rng, rr, srv, users

    pool = ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1 else None
    mapped = map if pool is None else pool.map
    try:
        for t0 in range(0, n_steps, block):
            idx = np.arange(t0, min(t0 + block, n_steps))
            fr = fr0 + idx * (cfg.step_s / 86400.0)
            knots = np.unique(np.r_[np.arange(0, len(idx), knot_every), len(idx) - 1])
            try:
                u_pos, u_vel = user_batch.propagate_jd(jd0, fr)
                pos, vel, keys, slot = _block_states(
                    cfg, fleet, user_bounds, jd0, fr, knots, u_pos, u_vel, profile
                )
            except PropagationError as exc:
                raise _block_failure(fleet, jd0, fr, t0, exc) from None
            u_pos, u_vel = u_pos.reshape(-1, 3), u_vel.reshape(-1, 3)  # user u, step k at u * B + k
            # each user's first candidate, then the block's candidate count
            first = np.arange(n_users + 1) * (fleet.n * len(idx))
            if keys is not None:
                first = np.searchsorted(keys, first)
            profile["candidates"] += int(first[-1])
            cut = np.r_[np.flatnonzero(np.diff(first[:-1] // _PAIR_BUDGET, prepend=-1)), n_users]
            chunks = [range(u, v) for u, v in zip(cut[:-1], cut[1:])]
            # a chunk per thread at a time, so few chunks' pairs are alive at once
            for c in range(0, len(chunks), cfg.threads):
                for pairs in mapped(chunk_pairs, chunks[c : c + cfg.threads]):
                    profile["visible_pairs"] += int(np.count_nonzero(pairs[0]))
                    acc.update_block(t0, *pairs)
            pos = vel = keys = slot = None  # freed before the next block's states are made
    finally:
        if pool is not None:
            pool.shutdown()

    results = acc.finalize(n_steps, cfg.carrier_frequency_hz)
    users = [UserResult(u, records_cap[ui] if records_cap else None, results, ui)
             for ui, u in enumerate(cfg.users)]

    aggregate = _aggregate(cfg, results)
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
        results=results,
        threads=cfg.threads,
        profile=profile,
    )
    if out_dir is not None:
        _write_outputs(cfg, manifest, out_dir)
    return manifest


def _block_states(cfg, fleet, user_bounds, jd, fr, knots, u_pos, u_vel, profile):
    """(pos, vel, keys, slot) of one block. pos and vel hold every (P, 3)
    satellite state the block takes: the knots', from one
    :meth:`_Fleet.propagate_block` call, then those between knots.
    keys: every user's candidate pairs, those the screen keeps, as ascending
    keys (u * S + row) * B + step; None without the cull (every pair).
    slot: (B * S,), at b * S + s the index into pos and vel of row s's
    state at step b, where taken. Each row is taken at the knots
    :func:`_knot_plan` picks; every row at every knot without the cull, when
    every row may fail, in a block of one knot or where the plan does not pay.
    The screen bounds the rows that cannot fail between knots. Rows that
    may fail are taken at every step, between knots with the pairs the
    screen keeps in one gathered call, and get its knot test at every step."""
    n_sat, n_knot, n_steps = fleet.n, len(knots), len(fr)
    may_fail, screened = np.flatnonzero(fleet.may_fail), np.flatnonzero(~fleet.may_fail)
    u_r = np.sqrt(np.einsum("ubk,ubk->ub", u_pos, u_pos))
    u_knots = u_pos[:, knots]
    take = None
    if cfg.cull and len(screened) and n_knot > 1:
        reach, rate = mask_reach(
            fleet.bounds, user_bounds, u_r.min(), cfg.min_elevation_deg, fleet.beams
        )
        span = float(np.diff(knots).max()) * cfg.step_s
        take = _knot_plan(fleet.batch, fleet.may_fail, jd, fr, knots, span, u_knots, reach, rate)
    pos, vel = (m.reshape(-1, 3) for m in fleet.propagate_block(jd, fr[knots], take))
    profile["knot_states"] += len(pos)
    # at[s, j]: the index of row s's state at knot j into pos, -1 where the
    # row is not taken there
    if take is None:
        at = np.arange(len(pos), dtype=np.int32).reshape(n_sat, n_knot)
    else:
        at = np.full((n_sat, n_knot), -1, dtype=np.int32)
        at[take] = np.arange(len(pos), dtype=np.int32)
        # the rows taken at no knot cannot be seen in the block
        screened = screened[take[screened].any(axis=1)]
    if not cfg.cull:  # every step is a knot, and every pair a candidate
        return pos, vel, None, at.T.ravel()
    # np.take gathers (P, 3) rows about 4x faster than indexing
    idx = at[screened]
    s_pos, s_vel = np.take(pos, idx, axis=0), np.take(vel, idx, axis=0)
    s_pos[idx < 0] = s_vel[idx < 0] = np.nan  # the knots not taken
    u_top = u_r.max(axis=1)
    t = time.perf_counter()
    keys = horizon_screen(
        s_pos, s_vel, u_knots, u_vel[:, knots], knots, cfg.step_s,
        [b[screened] for b in fleet.bounds], user_bounds, cfg.min_elevation_deg, u_top,
        [b[screened] for b in fleet.beams], profile,
    )
    profile["screen_s"] += time.perf_counter() - t
    keys = _fleet_keys(keys, screened, n_sat, n_steps)
    s_pos = s_vel = None
    # between the knots: the pairs any user keeps, and every step of the rows
    # that may fail
    need = np.zeros((n_sat, n_steps), dtype=bool)
    need.ravel()[keys % (n_sat * n_steps)] = True
    need[may_fail] = True
    row, step = np.divmod(np.flatnonzero(need), n_steps)
    need = None  # freed before the pairs' tiles are made
    # the knot states are taken already; dropping them from the kept keys
    # costs less than clearing the knot columns of need
    off_knot = np.ones(n_steps, dtype=bool)
    off_knot[knots] = False
    kept = off_knot[step]
    row, step = row[kept], step[kept]
    t = time.perf_counter()
    between = fleet.batch.propagate_pairs(jd, fr, row, step)
    profile["gathered_pairs_s"] += time.perf_counter() - t
    profile["gathered_pairs"] += len(row)
    # slot[step, row]: the index of a state into pos and vel, written only
    # where the state is taken; step by step, so that each knot's row is
    # one contiguous write
    slot = np.empty((n_steps, n_sat), dtype=np.int32)
    slot[knots] = at.T
    slot.ravel()[step * n_sat + row] = np.arange(len(pos), len(pos) + len(row), dtype=np.int32)
    pos, vel = (np.concatenate([k, m]) for k, m in zip((pos, vel), between))
    row = step = kept = between = None  # freed before the every-step screen
    # the knot test on every step of the rows that may fail
    t = time.perf_counter()
    exact = horizon_screen(
        np.take(pos, slot[:, may_fail].T, axis=0), None, u_pos, None, np.arange(n_steps),
        cfg.step_s, [b[may_fail] for b in fleet.bounds], user_bounds, cfg.min_elevation_deg, u_top,
    )
    profile["screen_s"] += time.perf_counter() - t
    if len(exact):  # two ascending runs, which a stable sort merges
        keys = np.concatenate([keys, _fleet_keys(exact, may_fail, n_sat, n_steps)])
        keys.sort(kind="stable")
    return pos, vel, keys, slot.ravel()


def _knot_plan(batch, may_fail, jd, fr, knots, span, u_knots, reach, rate):
    """(S, K) bool, the knots at which each row of ``batch`` is taken, or
    None to take every row at every knot. may_fail: (S,) the rows whose
    propagation can fail; knots: (K,) at least two; span: the longest
    interval between knots [s]; u_knots: (U, K, 3) the users at the knots;
    reach, rate: each row's Θ and Ω (:func:`mask_reach`).

    A row that cannot fail is predicted at every knot from its mean
    elements, to within a margin μ (:meth:`SatBatch.mean_directions`). The
    interval between two knots is cleared for the row if, at both, its
    predicted central angle from every user exceeds Θ + μ + Ω span / 2
    (:func:`mask_clear`): every step of the interval is within span / 2 of
    one of them, so no user sees the row there. Such a row is taken at a
    knot exactly where an interval next to it is not cleared; rows that may
    fail, at every knot. Where the first interval clears fewer than
    ``_CLEAR_SHARE`` of the rows that cannot fail, every row is taken at
    every knot (None), decided from two products per user only.
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
    # a knot is skipped where both intervals next to it are cleared; the
    # first and the last knot have one
    edge = np.ones((1, len(rows)), dtype=bool)
    left, right = np.concatenate([edge, clear]), np.concatenate([clear, edge])
    take = np.ones((batch.n, len(knots)), dtype=bool)
    take[rows] = ~(left & right).T
    return take


def _fleet_keys(keys, rows, n_sat, n_steps):
    """Keys (u * R + r) * B + step of a screen of the R ascending fleet rows
    ``rows``, as keys (u * n_sat + rows[r]) * B + step, in place."""
    if 0 < len(rows) < n_sat:
        lift = (rows - np.arange(len(rows))) * n_steps
        keys += keys // (len(rows) * n_steps) * ((n_sat - len(rows)) * n_steps)
        keys += lift[keys // n_steps % n_sat]
    return keys


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


def _aggregate(cfg: ScenarioConfig, results: Results) -> dict:
    """Scenario-level scalars. The headline per-constellation coverage
    averages the Monte Carlo stratum only; near-shell refinement bands feed
    the grids but not this scalar."""
    mc = [ui for ui, u in enumerate(cfg.users) if u.tag == "montecarlo"]
    out: dict = {"montecarlo_users": len(mc)}
    if mc:
        coverage = {name: results.column("coverage_probability", results.sets.index(name))
                    for name in results.sets[1:] + ["combined"]}
        out["overall_coverage"] = {name: float(np.mean([c[ui] for ui in mc]))
                                   for name, c in coverage.items()}
    return out


def _step_iso(cfg: ScenarioConfig, step: int) -> str:
    return format_utc(cfg.epoch + timedelta(seconds=step * cfg.step_s))


def _user_meta(spec: UserSpec) -> dict:
    """One user's entry in ``summary.json`` before its summaries."""
    return {
        "user_id": spec.user_id,
        "tag": spec.tag,
        "alt_km": spec.altitude_km,
        "inc_deg": spec.inclination_deg,
        "raan_deg": spec.elements.raan,
        "ma_deg": spec.elements.mean_anomaly,
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
    results, specs = manifest.results, [u.spec for u in manifest.users]
    head = {
        "config": manifest.config,
        "reporting_mode": cfg.reporting_mode,
        "aggregate": manifest.aggregate,
    }
    meta = [_user_meta(spec) for spec in specs]
    with _replacing(out_dir / "summary.json") as fh:
        fh.write(summary_text(head, {k: [m[k] for m in meta] for k in meta[0]}, results))

    with _replacing(out_dir / "pass_access.csv", newline="") as fh:
        ids = [spec.user_id for spec in specs]
        fh.write(pass_access_text(ids, results, partial(_step_iso, cfg), cfg.step_s))

    if any(spec.tag in ("montecarlo", "shell_band") for spec in specs):
        with _replacing(out_dir / "population.csv", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user_id", "alt_km", "inc_deg", "raan_deg", "ma_deg", "tag"])
            for spec in specs:
                w.writerow(
                    [spec.user_id, f"{spec.altitude_km:.3f}",
                     f"{spec.inclination_deg:.3f}", f"{spec.elements.raan:.3f}",
                     f"{spec.elements.mean_anomaly:.3f}", spec.tag]
                )
        names = [(name, results.sets.index(name)) for name in [*results.sets[1:], "combined"]]
        grids = bin_grids(
            [spec.altitude_km for spec in specs],
            [spec.inclination_deg for spec in specs],
            [(metric, results.column(metric, k)) for _, k in names for metric in cfg.grid.metrics],
            cfg.grid.altitude_bin_km,
            cfg.grid.inclination_bin_deg,
        )
        paths = [f"grid_{name}_{metric}.csv" for name, _ in names for metric in cfg.grid.metrics]
        for path, grid in zip(paths, grids):
            _write_grid(grid, out_dir / path)

    with _replacing(out_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest.to_dict(), indent=2) + "\n")


def _write_grid(grid: BinGrid, path: Path) -> None:
    with _replacing(path, newline="") as fh:
        fh.write(grid_text(grid))
