"""Coverage, pass/access interval, and link-statistics reduction.

Two layers:

* Plain record-based functions (:func:`extract_passes`,
  :func:`extract_accesses`, :func:`coverage_probability`, :func:`summarize`)
  that operate on explicit :class:`StepRecord` sequences. These are the
  readable reference implementations.
* Streaming accumulators (:class:`UserAccumulator`) fed by the scenario
  engine one time block of candidate (satellite row, step) pairs at a time.
  Counts, runs and per-constellation slices come from the visible pairs in
  (row, step) order, so no pair-level timeline is ever materialized. Tests
  pin the two layers to identical results.

Durations follow the sample-count convention: a run of k consecutive
visible samples lasts k * step seconds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

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


def extract_passes(records, satellite_id: int, step_seconds: float) -> list[PassInterval]:
    """Maximal consecutive-step runs where one satellite stays visible."""
    out: list[PassInterval] = []
    start = None
    prev = None
    for rec in records:
        seen = any(sid == satellite_id for sid, *_ in rec.visible)
        if seen and start is None:
            start = rec.step_index
        elif not seen and start is not None:
            out.append(PassInterval.make(satellite_id, start, prev, step_seconds))
            start = None
        prev = rec.step_index
    if start is not None:
        out.append(PassInterval.make(satellite_id, start, prev, step_seconds))
    return out


def extract_accesses(records, step_seconds: float) -> list[AccessInterval]:
    """Maximal runs with a non-empty visible set; handovers do not break a run."""
    out: list[AccessInterval] = []
    start = None
    prev = None
    for rec in records:
        if rec.visible and start is None:
            start = rec.step_index
        elif not rec.visible and start is not None:
            out.append(AccessInterval.make(start, prev, step_seconds))
            start = None
        prev = rec.step_index
    if start is not None:
        out.append(AccessInterval.make(start, prev, step_seconds))
    return out


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
        return asdict(self)


class _IntervalTracker:
    """Runs of consecutive active steps per row across sequential time blocks."""

    def __init__(self):
        # rows whose run reaches the end of the last block, ascending, and the
        # absolute step each of those runs started at
        self.open_rows = np.empty(0, dtype=np.int64)
        self.open_starts = np.empty(0, dtype=np.int64)
        self.intervals: list[tuple[int, int, int]] = []  # (row, start, end)

    def update(self, t0: int, n_steps: int, row: np.ndarray, step: np.ndarray) -> None:
        """Active (row, step) entries of the n_steps block starting at absolute
        step t0, in (row, step) order, steps counted from the block start.
        The runs this block closes are appended by (row, end step)."""
        # open runs enter as entries on the step before the block
        rows = np.concatenate((self.open_rows, row))
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        at = np.concatenate((np.full(len(self.open_rows), t0 - 1), t0 + step))[order]
        began = np.concatenate((self.open_starts, t0 + step))[order]
        new_run = np.ones(len(rows) + 1, dtype=bool)
        new_run[1:-1] = (rows[1:] != rows[:-1]) | (at[1:] != at[:-1] + 1)
        bounds = np.flatnonzero(new_run)
        rows, starts, ends = rows[bounds[:-1]], began[bounds[:-1]], at[bounds[1:] - 1]
        done = ends < t0 + n_steps - 1
        self.intervals.extend(zip(rows[done].tolist(), starts[done].tolist(), ends[done].tolist()))
        self.open_rows, self.open_starts = rows[~done], starts[~done]

    def close(self, last_step: int) -> None:
        self.intervals.extend(
            (r, s, last_step) for r, s in zip(self.open_rows.tolist(), self.open_starts.tolist())
        )
        self.open_rows = self.open_starts = np.empty(0, dtype=np.int64)


class _LinkStats:
    """Running min/max/log-mean range and peak |range-rate|."""

    def __init__(self):
        self.n = 0
        self.rng_min = math.inf
        self.rng_max = 0.0
        self.log_sum = 0.0
        self.abs_rr_max = 0.0

    def update(self, rng: np.ndarray, rr: np.ndarray) -> None:
        if rng.size == 0:
            return
        self.n += rng.size
        self.rng_min = min(self.rng_min, float(rng.min()))
        self.rng_max = max(self.rng_max, float(rng.max()))
        self.log_sum += float(np.log10(rng).sum())
        self.abs_rr_max = max(self.abs_rr_max, float(np.abs(rr).max()))

    def fspl_stats(self, frequency_hz: float):
        if self.n == 0:
            return None, None, None
        k = fspl_db(1.0, frequency_hz)  # offset for 1 km
        return (
            fspl_db(self.rng_min, frequency_hz),
            k + 20.0 * self.log_sum / self.n,
            fspl_db(self.rng_max, frequency_hz),
        )

    def max_doppler_khz(self, frequency_hz: float):
        if self.n == 0:
            return None
        return abs(doppler_offset_hz(self.abs_rr_max, frequency_hz)) / 1e3


class ConstellationAccumulator:
    """Streams one user's statistics over one satellite set: the whole fleet
    or one constellation."""

    def __init__(self, name: str, step_seconds: float):
        self.name = name
        self.step_seconds = step_seconds
        self.covered = 0
        self.visible_hist = np.zeros(8, dtype=np.int64)
        self.passes = _IntervalTracker()
        self.accesses = _IntervalTracker()
        self.vis_stats = _LinkStats()
        self.srv_stats = _LinkStats()
        self.srv_steps = 0

    def update_block(
        self,
        t0: int,
        n_steps: int,
        step: np.ndarray,
        rng: np.ndarray,
        rr: np.ndarray,
        srv_rng: np.ndarray,
        srv_rr: np.ndarray,
    ) -> None:
        """One block of this set's visible pairs (step within the block,
        range, range-rate; in (row, step) order) and, in step order, the
        serving range and range-rate of the steps this set serves."""
        counts = np.bincount(step, minlength=n_steps)
        cmax = int(counts.max(initial=0))
        if cmax >= len(self.visible_hist):
            self.visible_hist = np.concatenate(
                [self.visible_hist, np.zeros(cmax + 1 - len(self.visible_hist), dtype=np.int64)]
            )
        self.visible_hist += np.bincount(counts, minlength=len(self.visible_hist))
        covered = np.flatnonzero(counts)
        self.covered += len(covered)
        self.vis_stats.update(rng, rr)
        self.accesses.update(t0, n_steps, np.zeros(len(covered), dtype=np.int64), covered)
        self.srv_steps += len(srv_rng)
        self.srv_stats.update(srv_rng, srv_rr)

    def finalize(
        self,
        total_steps: int,
        frequency_hz: float,
        usage_fractions: dict[str, float] | None = None,
    ) -> CoverageSummary:
        self.passes.close(total_steps - 1)
        self.accesses.close(total_steps - 1)
        step_min = self.step_seconds / 60.0

        pass_hist: list[int] = []
        for _, s, e in self.passes.intervals:
            b = int((e - s + 1) * step_min)
            if b >= len(pass_hist):
                pass_hist.extend([0] * (b + 1 - len(pass_hist)))
            pass_hist[b] += 1

        acc_durs = [(e - s + 1) * step_min for _, s, e in self.accesses.intervals]
        hist = self.visible_hist
        last = int(np.flatnonzero(hist)[-1]) if hist.any() else 0
        hist = hist[: last + 1]
        n_counted = int(hist.sum())
        visible_avg = float((np.arange(len(hist)) * hist).sum() / n_counted) if n_counted else 0.0
        nonzero = np.flatnonzero(hist)
        fspl_min, fspl_avg, fspl_max = self.vis_stats.fspl_stats(frequency_hz)
        sfspl_min, sfspl_avg, sfspl_max = self.srv_stats.fspl_stats(frequency_hz)
        return CoverageSummary(
            total_steps=total_steps,
            covered_steps=self.covered,
            coverage_probability=self.covered / total_steps if total_steps else 0.0,
            access_count=len(acc_durs),
            avg_access_min=float(np.mean(acc_durs)) if acc_durs else 0.0,
            max_access_min=max(acc_durs) if acc_durs else 0.0,
            pass_count=len(self.passes.intervals),
            pass_hist_min=pass_hist,
            visible_min=int(nonzero[0]) if nonzero.size else 0,
            visible_avg=visible_avg,
            visible_max=int(nonzero[-1]) if nonzero.size else 0,
            visible_hist=hist.tolist(),
            fspl_min_db=fspl_min,
            fspl_avg_db=fspl_avg,
            fspl_max_db=fspl_max,
            max_doppler_khz=self.vis_stats.max_doppler_khz(frequency_hz),
            serving_steps=self.srv_steps,
            serving_fspl_min_db=sfspl_min,
            serving_fspl_avg_db=sfspl_avg,
            serving_fspl_max_db=sfspl_max,
            serving_max_doppler_khz=self.srv_stats.max_doppler_khz(frequency_hz),
            usage_fractions=usage_fractions or {},
        )

    def access_intervals(self) -> list[tuple[int, int]]:
        return [(s, e) for _, s, e in self.accesses.intervals]


class UserAccumulator:
    """Combined plus per-constellation accumulation for one user.

    Satellite rows are satellite ids and are grouped by constellation, so a
    constellation's pairs are a slice of the (row, step)-ordered pairs.
    """

    def __init__(
        self, constellation_names: list[str], const_of_sat: np.ndarray, step_seconds: float
    ):
        if np.any(np.diff(const_of_sat) < 0):
            raise ValueError("satellite rows must be grouped by constellation")
        self.names = constellation_names
        self.const_of_sat = const_of_sat
        # first row of each constellation, then the row count
        self.row_bounds = np.searchsorted(const_of_sat, np.arange(len(constellation_names) + 1))
        self.combined = ConstellationAccumulator("combined", step_seconds)
        self.per_const = {
            name: ConstellationAccumulator(name, step_seconds) for name in constellation_names
        }
        self.serving_by_const = np.zeros(len(constellation_names), dtype=np.int64)

    def update_block(
        self,
        t0: int,
        vis: np.ndarray,
        row: np.ndarray,
        step: np.ndarray,
        rng: np.ndarray,
        rr: np.ndarray,
        serving: np.ndarray,
    ) -> None:
        """One block of candidate pairs starting at absolute step t0: aligned
        arrays in (row, step) order of visibility, satellite row, step within
        the block, range and range-rate, plus each step's serving pair as an
        index into those arrays (-1 for none)."""
        n_steps = len(serving)
        at = serving[serving >= 0]  # in step order
        srv_rng, srv_rr = rng[at], rr[at]
        srv_const = self.const_of_sat[row[at]]
        self.serving_by_const += np.bincount(srv_const, minlength=len(self.names))
        row, step, rng, rr = row[vis], step[vis], rng[vis], rr[vis]

        self.combined.passes.update(t0, n_steps, row, step)
        self.combined.update_block(t0, n_steps, step, rng, rr, srv_rng, srv_rr)
        cut = np.searchsorted(row, self.row_bounds)
        for ci, acc in enumerate(self.per_const.values()):
            mine = slice(cut[ci], cut[ci + 1])
            member = srv_const == ci
            acc.update_block(
                t0, n_steps, step[mine], rng[mine], rr[mine], srv_rng[member], srv_rr[member]
            )

    def finalize(self, total_steps: int, frequency_hz: float) -> dict[str, CoverageSummary]:
        served_total = int(self.serving_by_const.sum())
        usage = {}
        if served_total:
            usage = {
                name: float(self.serving_by_const[ci] / served_total)
                for ci, name in enumerate(self.names)
            }
        out = {"combined": self.combined.finalize(total_steps, frequency_hz, usage)}
        # a constellation's passes are the combined passes on its rows
        for ci, name in enumerate(self.names):
            lo, hi = self.row_bounds[ci], self.row_bounds[ci + 1]
            acc = self.per_const[name]
            acc.passes.intervals = [p for p in self.combined.passes.intervals if lo <= p[0] < hi]
            out[name] = acc.finalize(total_steps, frequency_hz)
        return out


def summarize(
    records,
    step_seconds: float,
    frequency_hz: float,
    constellation_of: dict[int, str] | None = None,
) -> CoverageSummary:
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
    passes = []
    for sid in sat_ids:
        passes.extend(extract_passes(records, sid, step_seconds))

    pass_hist: list[int] = []
    for p in passes:
        b = int(p.duration_min)
        if b >= len(pass_hist):
            pass_hist.extend([0] * (b + 1 - len(pass_hist)))
        pass_hist[b] += 1

    counts = [len(r.visible) for r in records]
    vmax = max(counts)
    visible_hist = [0] * (vmax + 1)
    for c in counts:
        visible_hist[c] += 1

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

    fspl_min, fspl_avg, fspl_max = stats.fspl_stats(frequency_hz)
    sf_min, sf_avg, sf_max = srv.fspl_stats(frequency_hz)
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
        fspl_min_db=fspl_min,
        fspl_avg_db=fspl_avg,
        fspl_max_db=fspl_max,
        max_doppler_khz=stats.max_doppler_khz(frequency_hz),
        serving_steps=srv_steps,
        serving_fspl_min_db=sf_min,
        serving_fspl_avg_db=sf_avg,
        serving_fspl_max_db=sf_max,
        serving_max_doppler_khz=srv.max_doppler_khz(frequency_hz),
        usage_fractions=usage,
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
        rows = []
        for i, alt in enumerate(self.alt_lows):
            for j, inc in enumerate(self.inc_lows):
                v = self.values[i, j]
                rows.append(
                    (
                        float(alt),
                        float(inc),
                        self.metric,
                        "" if math.isnan(v) else float(v),
                        int(self.counts[i, j]),
                    )
                )
        return rows

    HEADER = ("alt_bin_low_km", "inc_bin_low_deg", "metric", "value", "count")


def bin_grid(
    alt_km: list[float],
    inc_deg: list[float],
    summaries: list[CoverageSummary],
    altitude_bin_km: float,
    inclination_bin_deg: float,
    metric: str,
) -> BinGrid:
    """Mean of one metric over users falling in each (altitude, inclination)
    cell; empty cells are NaN-flagged, distinct from zero."""
    if altitude_bin_km <= 0 or inclination_bin_deg <= 0:
        raise ValueError("bin widths must be positive")
    if not (len(alt_km) == len(inc_deg) == len(summaries)):
        raise ValueError("need one summary per user")
    ai = np.floor(np.asarray(alt_km) / altitude_bin_km).astype(int)
    ii = np.floor(np.asarray(inc_deg) / inclination_bin_deg).astype(int)
    a0, a1 = ai.min(), ai.max()
    i0, i1 = ii.min(), ii.max()
    shape = (a1 - a0 + 1, i1 - i0 + 1)
    sums = np.zeros(shape)
    counts = np.zeros(shape, dtype=np.int64)
    valued = np.zeros(shape, dtype=np.int64)
    for k, summary in enumerate(summaries):
        cell = (ai[k] - a0, ii[k] - i0)
        counts[cell] += 1
        v = getattr(summary, metric)
        if v is not None:
            sums[cell] += v
            valued[cell] += 1
    with np.errstate(invalid="ignore"):
        values = np.where(valued > 0, sums / np.maximum(valued, 1), np.nan)
    return BinGrid(
        metric=metric,
        alt_bin_km=altitude_bin_km,
        inc_bin_deg=inclination_bin_deg,
        alt_lows=(np.arange(a0, a1 + 1) * altitude_bin_km),
        inc_lows=(np.arange(i0, i1 + 1) * inclination_bin_deg),
        values=values,
        counts=counts,
    )
