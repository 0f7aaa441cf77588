"""Coverage, pass/access interval, and link-statistics reduction.

Two layers:

* Plain record-based functions (:func:`extract_passes`,
  :func:`extract_accesses`, :func:`coverage_probability`, :func:`summarize`)
  that operate on explicit :class:`StepRecord` sequences. These are the
  readable reference implementations.
* One streaming accumulator for all users (:class:`UserAccumulator`),
  fed by the scenario engine one time block of a few whole users'
  candidate (satellite row, step) pairs at a time. Its state is arrays
  over users x sets: set 0 is the whole fleet, set 1 + c constellation c.
  Counts, runs and each (user, set)'s slice come from the visible pairs in
  (user, row, step) order, so no pair-level timeline is ever materialized,
  and one finalize gives every summary field as a column (:class:`Results`).
  Tests pin the two layers to identical results, for every user and set.

Durations follow the sample-count convention: a run of k consecutive
visible samples lasts k * step seconds.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .link import doppler_offset_hz, fspl_db


@dataclass(frozen=True)
class StepRecord:
    """Per-step visibility snapshot for one user.

    ``visible`` holds (satellite_id, range_km, range_rate_km_s,
    user_elevation_deg) tuples; ``serving`` is a satellite id or None.
    """

    step_index: int
    visible: list[tuple[int, float, float, float]]
    serving: int | None = None


@dataclass(frozen=True)
class PassInterval:
    satellite_id: int
    start_step: int
    end_step: int  # inclusive
    duration_min: float

    @staticmethod
    def make(satellite_id: int, start: int, end: int, step_seconds: float) -> "PassInterval":
        return PassInterval(satellite_id, start, end, (end - start + 1) * step_seconds / 60.0)


@dataclass(frozen=True)
class AccessInterval:
    start_step: int
    end_step: int  # inclusive
    duration_min: float

    @staticmethod
    def make(start: int, end: int, step_seconds: float) -> "AccessInterval":
        return AccessInterval(start, end, (end - start + 1) * step_seconds / 60.0)


def _record_runs(records, active) -> list[tuple[int, int]]:
    """(first, last) step of each maximal run of records where ``active``."""
    out = []
    start = prev = None
    for rec in records:
        on = active(rec)
        if on and start is None:
            start = rec.step_index
        elif not on and start is not None:
            out.append((start, prev))
            start = None
        prev = rec.step_index
    if start is not None:
        out.append((start, prev))
    return out


def extract_passes(records, satellite_id: int, step_seconds: float) -> list[PassInterval]:
    """Maximal consecutive-step runs where one satellite stays visible."""
    runs = _record_runs(records, lambda rec: any(sid == satellite_id for sid, *_ in rec.visible))
    return [PassInterval.make(satellite_id, s, e, step_seconds) for s, e in runs]


def extract_accesses(records, step_seconds: float) -> list[AccessInterval]:
    """Maximal runs with a non-empty visible set; handovers do not break a run."""
    runs = _record_runs(records, lambda rec: rec.visible)
    return [AccessInterval.make(s, e, step_seconds) for s, e in runs]


def coverage_probability(records) -> float:
    """Fraction of steps with at least one visible satellite."""
    records = list(records)
    if not records:
        return 0.0
    return sum(1 for r in records if r.visible) / len(records)


@dataclass
class CoverageSummary:
    """Per-user aggregate over one timeline (whole run or one constellation)."""

    total_steps: int = 0
    covered_steps: int = 0
    coverage_probability: float = 0.0
    access_count: int = 0
    avg_access_min: float = 0.0
    max_access_min: float = 0.0
    pass_count: int = 0
    pass_hist_min: list[int] = field(default_factory=list)  # 1-minute bins
    visible_min: int = 0
    visible_avg: float = 0.0
    visible_max: int = 0
    visible_hist: list[int] = field(default_factory=list)  # index = count
    fspl_min_db: float | None = None
    fspl_avg_db: float | None = None
    fspl_max_db: float | None = None
    max_doppler_khz: float | None = None
    serving_steps: int = 0
    serving_fspl_min_db: float | None = None
    serving_fspl_avg_db: float | None = None
    serving_fspl_max_db: float | None = None
    serving_max_doppler_khz: float | None = None
    usage_fractions: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.covered_steps and not (
            self.visible_min <= self.visible_avg <= self.visible_max
        ):
            raise ValueError("visible-count statistics out of order")

    @classmethod
    def grid_metrics(cls) -> tuple[str, ...]:
        """The scalar fields, the metrics a population grid can average."""
        return tuple(f.name for f in fields(cls) if f.type in ("int", "float", "float | None"))

    def pass_fraction_below(self, minutes: float) -> float:
        """Fraction of passes strictly shorter than the given duration."""
        if self.pass_count == 0:
            return 0.0
        whole = int(minutes)
        n = sum(self.pass_hist_min[:whole])
        # bins are 1-minute wide; a non-integer threshold needs the partial bin,
        # which the histogram cannot resolve -- callers use whole minutes
        return n / self.pass_count

    def to_dict(self) -> dict:
        """The fields by name, the histograms and usage fractions copied:
        what ``dataclasses.asdict`` gives, without its deep copy of every
        value (the containers hold only numbers)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("pass_hist_min", "visible_hist", "usage_fractions"):
            out[name] = copy(out[name])
        return out


class _IntervalTracker:
    """Runs of consecutive active steps per key across sequential time blocks."""

    def __init__(self):
        # (2, n): the keys whose run reaches the end of the last block,
        # ascending, over the absolute step each of those runs started at
        self.open = np.empty((2, 0), dtype=np.int64)
        self.runs: list[np.ndarray] = []  # (3, n) (key, start, end), in the order closed

    def update(self, t0: int, n_steps: int, key: np.ndarray, step: np.ndarray,
               span: tuple[int, int]) -> None:
        """Active (key, step) entries of the n_steps block starting at absolute
        step t0, in (key, step) order, steps counted from the block start:
        every entry of the block whose key is in ``span``, [lo, hi). Only
        the open runs of those keys continue or end here. The runs this call
        closes are appended by (key, end step)."""
        a, b = np.searchsorted(self.open[0], span)
        open_keys, open_starts = self.open[:, a:b]
        new_run = np.ones(len(key) + 1, dtype=bool)
        new_run[1:-1] = (key[1:] != key[:-1]) | (step[1:] != step[:-1] + 1)
        bounds = np.flatnonzero(new_run)
        keys, starts, ends = key[bounds[:-1]], t0 + step[bounds[:-1]], t0 + step[bounds[1:] - 1]
        # a run from the block's first step continues its key's open run, if any
        first = np.flatnonzero(starts == t0)
        at = np.searchsorted(open_keys, keys[first])
        go_on = at < len(open_keys)
        go_on[go_on] = open_keys[at[go_on]] == keys[first[go_on]]
        starts[first[go_on]] = open_starts[at[go_on]]
        ended = np.ones(len(open_keys), dtype=bool)
        ended[at[go_on]] = False  # the other open runs end before the block
        done = ends < t0 + n_steps - 1
        last = np.full(ended.sum(), t0 - 1)
        closed = np.hstack((np.stack((open_keys[ended], open_starts[ended], last)),
                            np.stack((keys[done], starts[done], ends[done]))))
        self.runs.append(closed[:, np.argsort(closed[0], kind="stable")])
        new = np.stack((keys[~done], starts[~done]))
        self.open = np.concatenate((self.open[:, :a], new, self.open[:, b:]), axis=1)

    def close(self, last_step: int) -> np.ndarray:
        """Every run, the open ones ended at last_step: (3, n) (key, start,
        end), in the order closed."""
        self.runs.append(np.vstack((self.open, np.full((1, self.open.shape[1]), last_step))))
        self.open = np.empty((2, 0), dtype=np.int64)
        return np.concatenate(self.runs, axis=1)


def _bounds(key: np.ndarray) -> list[int]:
    """Where each run of equal entries of a non-empty ``key`` starts, then
    its length."""
    return np.flatnonzero(np.r_[True, key[1:] != key[:-1], True]).tolist()


def _trimmed(table: np.ndarray) -> list[list[int]]:
    """Each row of a 2-D count table, without its trailing zeros."""
    seen = table != 0
    n = np.where(seen.any(axis=1), table.shape[1] - seen[:, ::-1].argmax(axis=1), 0)
    return [row[:k] for row, k in zip(table.tolist(), n.tolist())]


class _LinkStats:
    """Running count, min/max/log-sum range and peak |range-rate| per key."""

    def __init__(self, n_keys: int = 1):
        self.n = np.zeros(n_keys, dtype=np.int64)
        self.rng_min = np.full(n_keys, math.inf)
        self.rng_max = np.zeros(n_keys)
        self.log_sum = np.zeros(n_keys)
        self.abs_rr_max = np.zeros(n_keys)

    def update(self, rng: np.ndarray, rr: np.ndarray, key=0) -> None:
        """Entries grouped by key, in ascending key order; one key for all
        if ``key`` is a number."""
        if rng.size == 0:
            return
        key = np.broadcast_to(key, rng.shape)
        bounds = _bounds(key)
        first, k = bounds[:-1], key[bounds[:-1]]
        self.n[k] += np.diff(bounds)
        self.rng_min[k] = np.minimum(self.rng_min[k], np.minimum.reduceat(rng, first))
        self.rng_max[k] = np.maximum(self.rng_max[k], np.maximum.reduceat(rng, first))
        self.abs_rr_max[k] = np.maximum(self.abs_rr_max[k], np.maximum.reduceat(np.abs(rr), first))
        # one pairwise sum per key and call, which segmented sums would not keep
        self.log_sum[k] += [np.log10(rng[a:b]).sum() for a, b in zip(bounds, bounds[1:])]

    def columns(self, frequency_hz: float, prefix: str = "") -> dict[str, list]:
        """Each key's path loss and Doppler summary fields, their names
        behind ``prefix``, None for a key with no entry."""
        seen = self.n > 0
        values = {
            "fspl_min_db": fspl_db(np.where(seen, self.rng_min, 1.0), frequency_hz),
            # the loss at 1 km plus the mean of 20 log10(range)
            "fspl_avg_db": fspl_db(1.0, frequency_hz) + 20.0 * self.log_sum / np.maximum(self.n, 1),
            "fspl_max_db": fspl_db(np.where(seen, self.rng_max, 1.0), frequency_hz),
            "max_doppler_khz": np.abs(doppler_offset_hz(self.abs_rr_max, frequency_hz)) / 1e3,
        }
        return {prefix + name: np.where(seen, v, None).tolist() for name, v in values.items()}


@dataclass
class Results:
    """What :class:`UserAccumulator` found for U users over the K sets
    ``sets``: each :class:`CoverageSummary` field as U x K values, user u's
    for set k at u * K + k; (user, satellite row, start, end) of each pass
    and (user, start, end) of each whole-fleet access, as rows, each
    user's in the order found, users ascending."""

    sets: list[str]
    columns: dict[str, list]
    passes: np.ndarray
    accesses: np.ndarray

    def summaries(self, u: int) -> dict[str, CoverageSummary]:
        """User u's summaries by set name."""
        at = u * len(self.sets)
        return {name: CoverageSummary(**{f: col[at + k] for f, col in self.columns.items()})
                for k, name in enumerate(self.sets)}

    def column(self, name: str, k: int) -> list:
        """One field of set k, by user."""
        return self.columns[name][k :: len(self.sets)]


class UserAccumulator:
    """Streams the statistics of U users over K = 1 + C satellite sets: set
    0 is the whole fleet ("combined"), set 1 + c constellation c. Each
    (user, set) is keyed u * K + k.

    Satellite rows are satellite ids and are grouped by constellation, so a
    (user, set)'s pairs are a slice of the (user, row, step)-ordered pairs.
    Per key there is a row of the visible-count histogram, whose non-zero
    counts are the covered steps, and an entry of the visible and the
    serving link statistics, whose serving count gives the serving steps
    and usage. One tracker keyed by user and satellite row follows the
    passes, which finalize assigns to sets by their row's constellation;
    one keyed by user and set follows the accesses.
    """

    def __init__(self, constellation_names: list[str], const_of_sat: np.ndarray,
                 step_seconds: float, n_users: int):
        if np.any(np.diff(const_of_sat) < 0):
            raise ValueError("satellite rows must be grouped by constellation")
        self.names = constellation_names
        self.const_of_sat = const_of_sat
        self.step_seconds = step_seconds
        self.n_users, self.n_sets = n_users, 1 + len(constellation_names)
        n_keys = n_users * self.n_sets
        self.visible_hist = np.zeros((n_keys, 8), dtype=np.int64)
        self.vis_stats = _LinkStats(n_keys)
        self.srv_stats = _LinkStats(n_keys)
        self.passes = _IntervalTracker()  # keyed u * S + satellite row
        self.accesses = _IntervalTracker()  # keyed u * K + k

    def update_block(self, t0: int, vis, user, row, step, rng, rr, serving, users: range) -> None:
        """The candidate pairs of one block starting at absolute step t0 and
        of the consecutive ``users``, each user's pairs of the block in one
        call, the calls of a block in user order: aligned arrays of
        visibility, user, satellite row, step within the block, range and
        range-rate, in (user, row, step) order. serving: (len(users), B),
        each user's serving pair at each step as an index into the pairs
        (-1 for none)."""
        n_sets, n_sat = self.n_sets, len(self.const_of_sat)
        n_users, n_steps = serving.shape
        k0 = users[0] * n_sets  # the first (user, set) key of the call
        srv_user, srv_step = np.nonzero(serving >= 0)  # in (user, step) order
        at = serving[srv_user, srv_step]
        srv_rng, srv_rr = rng[at], rr[at]
        srv_base = k0 + n_sets * srv_user
        srv_key = srv_base + 1 + self.const_of_sat[row[at]]
        pick = np.flatnonzero(vis)
        user, row, step, rng, rr = (np.take(a, pick) for a in (user, row, step, rng, rr))
        self.passes.update(t0, n_steps, user * n_sat + row, step,
                           (users[0] * n_sat, (users[-1] + 1) * n_sat))

        base = n_sets * user
        key = base + 1 + self.const_of_sat[row]  # ascending
        counts = np.bincount((key - k0) * n_steps + step, minlength=n_users * n_sets * n_steps)
        counts = counts.reshape(n_users, n_sets, n_steps)  # visible, by user, set and step
        counts[:, 0] = counts[:, 1:].sum(axis=1)
        counts = counts.reshape(n_users * n_sets, n_steps)
        self.vis_stats.update(rng, rr, key)
        self.vis_stats.update(rng, rr, base)
        order = np.argsort(srv_key, kind="stable")  # each key's served steps in step order
        self.srv_stats.update(srv_rng[order], srv_rr[order], srv_key[order])
        self.srv_stats.update(srv_rng, srv_rr, srv_base)

        n_keys, width = len(counts), self.visible_hist.shape[1]
        grow = int(counts.max(initial=0)) + 1 - width
        if grow > 0:
            self.visible_hist = np.pad(self.visible_hist, ((0, 0), (0, grow)))
            width += grow
        keys = counts + width * np.arange(n_keys)[:, None]
        hist = np.bincount(keys.ravel(), minlength=n_keys * width).reshape(n_keys, -1)
        self.visible_hist[k0 : k0 + n_keys] += hist
        key, step = np.nonzero(counts)
        self.accesses.update(t0, n_steps, k0 + key, step, (k0, k0 + n_keys))

    def finalize(self, total_steps: int, frequency_hz: float) -> Results:
        """Every user's summaries, passes and accesses, as columns."""
        n_users, n_sets = self.n_users, self.n_sets
        n_keys = n_users * n_sets
        step_min = self.step_seconds / 60.0

        p_key, p_start, p_end = self.passes.close(total_steps - 1)
        p_user, p_row = np.divmod(p_key, len(self.const_of_sat))
        p_bin = ((p_end - p_start + 1) * step_min).astype(np.int64)  # 1-minute bins
        width = int(p_bin.max(initial=0)) + 1
        keys = n_sets * p_user + np.stack((0 * p_row, 1 + self.const_of_sat[p_row]))
        pass_hist = np.bincount((keys * width + p_bin).ravel(), minlength=n_keys * width)
        pass_hist = pass_hist.reshape(n_keys, width)
        passes = np.stack((p_user, p_row, p_start, p_end))[:, np.argsort(p_user, kind="stable")]

        runs = self.accesses.close(total_steps - 1)
        a_key, a_start, a_end = runs[:, np.argsort(runs[0], kind="stable")]
        a_dur = (a_end - a_start + 1) * step_min
        whole = a_key % n_sets == 0
        accesses = np.stack((a_key[whole] // n_sets, a_start[whole], a_end[whole]))
        # perfbench's tracer (after_finalize) counts every user's passes and
        # whole-fleet accesses here
        self.combined = SimpleNamespace(passes=SimpleNamespace(intervals=passes.T),
                                        accesses=SimpleNamespace(intervals=accesses.T))
        avg_access, max_access = np.zeros(n_keys), np.zeros(n_keys)
        if a_key.size:
            bounds = _bounds(a_key)
            k = a_key[bounds[:-1]]
            max_access[k] = np.maximum.reduceat(a_dur, bounds[:-1])
            avg_access[k] = [np.mean(a_dur[a:b]) for a, b in zip(bounds, bounds[1:])]

        hist = self.visible_hist
        visible_hist = _trimmed(hist)
        n_counted = hist.sum(axis=1)
        covered = n_counted - hist[:, 0]
        served = self.srv_stats.n.reshape(n_users, n_sets)
        usage = [{} for _ in range(n_keys)]
        for u in np.flatnonzero(served[:, 0]).tolist():
            usage[u * n_sets] = dict(zip(self.names, (served[u, 1:] / served[u, 0]).tolist()))
        columns = {
            "total_steps": [total_steps] * n_keys,
            "covered_steps": covered.tolist(),
            "coverage_probability": (covered / max(total_steps, 1)).tolist(),
            "access_count": np.bincount(a_key, minlength=n_keys).tolist(),
            "avg_access_min": avg_access.tolist(),
            "max_access_min": max_access.tolist(),
            "pass_count": pass_hist.sum(axis=1).tolist(),
            "pass_hist_min": _trimmed(pass_hist),
            "visible_min": (hist != 0).argmax(axis=1).tolist(),
            "visible_avg": (hist @ np.arange(hist.shape[1]) / np.maximum(n_counted, 1)).tolist(),
            "visible_max": [max(len(h) - 1, 0) for h in visible_hist],
            "visible_hist": visible_hist,
            **self.vis_stats.columns(frequency_hz),
            "serving_steps": self.srv_stats.n.tolist(),
            **self.srv_stats.columns(frequency_hz, "serving_"),
            "usage_fractions": usage,
        }
        return Results(["combined", *self.names], columns, passes, accesses)


def summarize(records, step_seconds: float, frequency_hz: float,
              constellation_of: dict[int, str] | None = None) -> CoverageSummary:
    """Reference reduction of an explicit record sequence (combined view).

    The engine's streamed results are pinned to this implementation by
    tests; use it directly for small scenarios and oracles.
    """
    records = list(records)
    total = len(records)
    if total == 0:
        return CoverageSummary()
    covered = sum(1 for r in records if r.visible)
    accesses = extract_accesses(records, step_seconds)
    sat_ids = sorted({sid for r in records for sid, *_ in r.visible})
    passes = [p for sid in sat_ids for p in extract_passes(records, sid, step_seconds)]
    bins = [int(p.duration_min) for p in passes]  # 1-minute bins
    pass_hist = [bins.count(b) for b in range(max(bins) + 1)] if bins else []
    counts = [len(r.visible) for r in records]
    vmax = max(counts)
    visible_hist = [counts.count(c) for c in range(vmax + 1)]

    stats = _LinkStats()
    for r in records:
        if r.visible:
            arr = np.array([[v[1], v[2]] for v in r.visible])
            stats.update(arr[:, 0], arr[:, 1])
    srv = _LinkStats()
    srv_steps = 0
    usage_counts: dict[str, int] = {}
    for r in records:
        if r.serving is not None:
            entry = next(v for v in r.visible if v[0] == r.serving)
            srv.update(np.array([entry[1]]), np.array([entry[2]]))
            srv_steps += 1
            if constellation_of:
                cname = constellation_of[r.serving]
                usage_counts[cname] = usage_counts.get(cname, 0) + 1
    usage = {k: v / srv_steps for k, v in usage_counts.items()} if srv_steps else {}

    link = {**stats.columns(frequency_hz), **srv.columns(frequency_hz, "serving_")}
    acc_durs = [a.duration_min for a in accesses]
    return CoverageSummary(
        total_steps=total,
        covered_steps=covered,
        coverage_probability=covered / total,
        access_count=len(accesses),
        avg_access_min=float(np.mean(acc_durs)) if acc_durs else 0.0,
        max_access_min=max(acc_durs) if acc_durs else 0.0,
        pass_count=len(passes),
        pass_hist_min=pass_hist,
        visible_min=min(counts),
        visible_avg=float(np.mean(counts)),
        visible_max=vmax,
        visible_hist=visible_hist,
        serving_steps=srv_steps,
        usage_fractions=usage,
        **{name: column[0] for name, column in link.items()},
    )


@dataclass
class BinGrid:
    """(altitude x inclination) cell means of one summary metric."""

    metric: str
    alt_bin_km: float
    inc_bin_deg: float
    alt_lows: np.ndarray
    inc_lows: np.ndarray
    values: np.ndarray  # NaN where empty
    counts: np.ndarray

    def to_rows(self) -> list[tuple]:
        cells = zip(self.alt_lows.tolist(), self.values.tolist(), self.counts.tolist())
        return [(alt, inc, self.metric, "" if math.isnan(v) else v, n)
                for alt, vs, ns in cells for inc, v, n in zip(self.inc_lows.tolist(), vs, ns)]

    HEADER = ("alt_bin_low_km", "inc_bin_low_deg", "metric", "value", "count")


def bin_grid(alt_km: list[float], inc_deg: list[float], summaries: list[CoverageSummary],
             altitude_bin_km: float, inclination_bin_deg: float, metric: str) -> BinGrid:
    """Mean of one metric over users falling in each (altitude, inclination)
    cell; empty cells are NaN-flagged, distinct from zero."""
    values = [getattr(s, metric) for s in summaries]
    return bin_grids(alt_km, inc_deg, [(metric, values)], altitude_bin_km, inclination_bin_deg)[0]


def bin_grids(alt_km: list[float], inc_deg: list[float], metrics: list[tuple[str, list]],
              altitude_bin_km: float, inclination_bin_deg: float) -> list[BinGrid]:
    """The :func:`bin_grid` of each (metric, one value per user) pair, the
    users binned once; a None value is left out of its cell's mean."""
    if altitude_bin_km <= 0 or inclination_bin_deg <= 0:
        raise ValueError("bin widths must be positive")
    if any(len(values) != len(alt_km) for _, values in metrics) or len(inc_deg) != len(alt_km):
        raise ValueError("need one summary per user")
    ai = np.floor(np.asarray(alt_km) / altitude_bin_km).astype(int)
    ii = np.floor(np.asarray(inc_deg) / inclination_bin_deg).astype(int)
    a0, a1 = ai.min(), ai.max()
    i0, i1 = ii.min(), ii.max()
    shape = (a1 - a0 + 1, i1 - i0 + 1)
    cell = (ai - a0) * shape[1] + ii - i0
    counts = np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)
    alt_lows = np.arange(a0, a1 + 1) * altitude_bin_km
    inc_lows = np.arange(i0, i1 + 1) * inclination_bin_deg
    grids = []
    for metric, values in metrics:
        has = [v is not None for v in values]
        at = cell[np.array(has, dtype=bool)]
        # a weighted bincount adds each cell's values in user order
        sums = np.bincount(at, [v for v in values if v is not None], minlength=counts.size)
        valued = np.bincount(at, minlength=counts.size)
        with np.errstate(invalid="ignore"):
            mean = np.where(valued > 0, sums / np.maximum(valued, 1), np.nan)
        grids.append(BinGrid(metric, altitude_bin_km, inclination_bin_deg, alt_lows, inc_lows,
                             mean.reshape(shape), counts))
    return grids
