import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.link import fspl_db
from leolink.metrics import (
    CoverageSummary,
    StepRecord,
    UserAccumulator,
    bin_grid,
    coverage_probability,
    extract_accesses,
    extract_passes,
    summarize,
)

F = 11.45e9
STEP = 10.0


def records_from_pattern(patterns: dict[int, str]) -> list[StepRecord]:
    """Build records from per-satellite visibility strings of T/F."""
    n = len(next(iter(patterns.values())))
    out = []
    for k in range(n):
        visible = [
            (sid, 500.0 + 10.0 * sid, 1.0, 45.0)
            for sid, pat in sorted(patterns.items())
            if pat[k] == "T"
        ]
        out.append(StepRecord(step_index=k, visible=visible))
    return out


def test_pass_full_run():
    recs = records_from_pattern({7: "TTTTTTTT"})
    passes = extract_passes(recs, 7, STEP)
    assert len(passes) == 1
    assert (passes[0].start_step, passes[0].end_step) == (0, 7)
    assert passes[0].duration_min == pytest.approx(8 * STEP / 60.0)


def test_pass_pattern_ttft():
    # T,T,F,T at 10 s steps -> passes of 20 s and 10 s
    recs = records_from_pattern({1: "TTFT"})
    passes = extract_passes(recs, 1, STEP)
    assert [(p.start_step, p.end_step) for p in passes] == [(0, 1), (3, 3)]
    assert [p.duration_min for p in passes] == pytest.approx([20 / 60.0, 10 / 60.0])


def test_accesses_empty():
    recs = records_from_pattern({1: "FFFF"})
    assert extract_accesses(recs, STEP) == []
    assert coverage_probability(recs) == 0.0


def test_accesses_union_of_abutting_passes():
    recs = records_from_pattern({1: "TTTF FFFF".replace(" ", ""), 2: "FFFT TTTT".replace(" ", "")})
    accesses = extract_accesses(recs, STEP)
    assert len(accesses) == 1
    assert (accesses[0].start_step, accesses[0].end_step) == (0, 7)


def test_coverage_half():
    recs = records_from_pattern({1: "TFTF"})
    assert coverage_probability(recs) == 0.5


def test_fixed_range_fspl_min_equals_max():
    recs = [StepRecord(k, [(1, 750.0, 0.0, 60.0)]) for k in range(10)]
    s = summarize(recs, STEP, F)
    assert s.fspl_min_db == s.fspl_avg_db == s.fspl_max_db == pytest.approx(fspl_db(750.0, F))


def test_summary_usage_fractions():
    recs = [
        StepRecord(0, [(1, 100.0, 0.0, 50.0), (5, 200.0, 0.0, 50.0)], serving=1),
        StepRecord(1, [(5, 150.0, 0.0, 50.0)], serving=5),
        StepRecord(2, [], serving=None),
        StepRecord(3, [(1, 120.0, 0.0, 50.0)], serving=1),
    ]
    s = summarize(recs, STEP, F, constellation_of={1: "a", 5: "b"})
    assert s.usage_fractions == {"a": pytest.approx(2 / 3), "b": pytest.approx(1 / 3)}
    assert s.serving_steps == 3


def test_single_satellite_passes_equal_accesses():
    recs = records_from_pattern({3: "TTFFTTTFTF"})
    passes = extract_passes(recs, 3, STEP)
    accesses = extract_accesses(recs, STEP)
    assert [(p.start_step, p.end_step) for p in passes] == [
        (a.start_step, a.end_step) for a in accesses
    ]


def _assert_summary_invariants(recs, s):
    # sum of access durations reproduces coverage exactly (same step count)
    accesses = extract_accesses(recs, STEP)
    covered = sum(a.end_step - a.start_step + 1 for a in accesses)
    assert covered == s.covered_steps
    assert s.coverage_probability == pytest.approx(covered / s.total_steps)
    # every pass lies inside some access
    sat_ids = {sid for r in recs for sid, *_ in r.visible}
    spans = [(a.start_step, a.end_step) for a in accesses]
    for sid in sat_ids:
        for p in extract_passes(recs, sid, STEP):
            assert any(a0 <= p.start_step and p.end_step <= a1 for a0, a1 in spans)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_interval_extraction_matches_brute_force(data):
    n_sats = data.draw(st.integers(1, 5))
    n_steps = data.draw(st.integers(1, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    vis = rng.random((n_sats, n_steps)) < rng.uniform(0.1, 0.9)
    recs = []
    for k in range(n_steps):
        recs.append(
            StepRecord(k, [(s, 400.0 + s, 0.5, 40.0) for s in range(n_sats) if vis[s, k]])
        )
    # independent O(N*S) rescan
    for s in range(n_sats):
        expected = []
        run = None
        for k in range(n_steps):
            if vis[s, k] and run is None:
                run = k
            elif not vis[s, k] and run is not None:
                expected.append((run, k - 1))
                run = None
        if run is not None:
            expected.append((run, n_steps - 1))
        got = [(p.start_step, p.end_step) for p in extract_passes(recs, s, STEP)]
        assert got == expected
    _assert_summary_invariants(recs, summarize(recs, STEP, F))


def _feed_accumulator(vis, ranges, rates, step_s, freq, block, candidates):
    n_sats, n_steps = vis.shape
    acc = UserAccumulator(["only"], np.zeros(n_sats, dtype=np.int64), step_s)
    for t0 in range(0, n_steps, block):
        sl = slice(t0, min(t0 + block, n_steps))
        row, step = np.nonzero(candidates[:, sl])  # (row, step) order
        v, r, rr = vis[:, sl], ranges[:, sl], rates[:, sl]
        no_serving = np.full(sl.stop - t0, -1)
        acc.update_block(t0, v[row, step], row, step, r[row, step], rr[row, step], no_serving)
    return acc.finalize(n_steps, freq)


@pytest.mark.parametrize("block", [1, 7, 32, 100])
def test_streaming_accumulator_matches_reference(block):
    rng = np.random.default_rng(42)
    n_sats, n_steps = 6, 100
    vis = rng.random((n_sats, n_steps)) < 0.35
    ranges = rng.uniform(200.0, 2500.0, (n_sats, n_steps))
    rates = rng.uniform(-8.0, 8.0, (n_sats, n_steps))
    recs = [
        StepRecord(
            k,
            [(s, float(ranges[s, k]), float(rates[s, k]), 40.0) for s in range(n_sats) if vis[s, k]],
        )
        for k in range(n_steps)
    ]
    ref = summarize(recs, STEP, F)
    candidates = vis | (rng.random((n_sats, n_steps)) < 0.2)
    got = _feed_accumulator(vis, ranges, rates, STEP, F, block, candidates)["combined"]
    assert got.covered_steps == ref.covered_steps
    assert got.coverage_probability == pytest.approx(ref.coverage_probability)
    assert got.access_count == ref.access_count
    assert got.avg_access_min == pytest.approx(ref.avg_access_min)
    assert got.max_access_min == pytest.approx(ref.max_access_min)
    assert got.pass_count == ref.pass_count
    assert got.pass_hist_min == ref.pass_hist_min
    assert got.visible_hist == ref.visible_hist
    assert (got.visible_min, got.visible_avg, got.visible_max) == (
        ref.visible_min,
        pytest.approx(ref.visible_avg),
        ref.visible_max,
    )
    assert got.fspl_min_db == pytest.approx(ref.fspl_min_db)
    assert got.fspl_avg_db == pytest.approx(ref.fspl_avg_db)
    assert got.fspl_max_db == pytest.approx(ref.fspl_max_db)
    assert got.max_doppler_khz == pytest.approx(ref.max_doppler_khz)


def test_summary_invariant_violation_raises():
    with pytest.raises(ValueError):
        CoverageSummary(total_steps=10, covered_steps=5, visible_min=3, visible_avg=2.0, visible_max=5)


def test_pass_fraction_below():
    s = CoverageSummary(pass_hist_min=[10, 5, 3, 2], total_steps=1)
    s.pass_count = 20
    assert s.pass_fraction_below(1.0) == pytest.approx(0.5)
    assert s.pass_fraction_below(2.0) == pytest.approx(0.75)


def test_bin_grid_single_cell():
    s1 = CoverageSummary(total_steps=10, covered_steps=5, coverage_probability=0.5)
    s2 = CoverageSummary(total_steps=10, covered_steps=7, coverage_probability=0.7)
    grid = bin_grid([400.0, 410.0], [53.0, 54.0], [s1, s2], 25.0, 5.0, "coverage_probability")
    assert grid.values.shape == (1, 2) or grid.values.shape == (1, 1)
    rows = grid.to_rows()
    populated = [r for r in rows if r[4] > 0]
    if len(populated) == 1:
        assert populated[0][3] == pytest.approx(0.6)


def test_bin_grid_empty_cells_flagged():
    s = CoverageSummary(total_steps=10, covered_steps=0, coverage_probability=0.0)
    grid = bin_grid([400.0, 900.0], [10.0, 80.0], [s, s], 100.0, 45.0, "coverage_probability")
    # corner cells populated, off-diagonal cells empty and distinct from zero
    assert grid.counts.sum() == 2
    empties = grid.counts == 0
    assert np.all(np.isnan(grid.values[empties]))
    assert not np.any(np.isnan(grid.values[~empties]))


def test_bin_grid_skips_none_metric():
    s1 = CoverageSummary(total_steps=10, covered_steps=5, coverage_probability=0.5)
    s1.fspl_avg_db = 160.0
    s2 = CoverageSummary(total_steps=10, covered_steps=0, coverage_probability=0.0)
    grid = bin_grid([400.0, 401.0], [53.0, 53.5], [s1, s2], 25.0, 5.0, "fspl_avg_db")
    assert grid.counts.sum() == 2
    assert grid.values[0, 0] == pytest.approx(160.0)  # None skipped from the mean


def test_bin_grid_validation():
    with pytest.raises(ValueError):
        bin_grid([400.0], [53.0], [CoverageSummary()], 0.0, 5.0, "coverage_probability")
    with pytest.raises(ValueError):
        bin_grid([400.0, 500.0], [53.0], [CoverageSummary()], 25.0, 5.0, "coverage_probability")
