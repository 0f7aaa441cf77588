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


def test_summary_to_dict_is_asdict_with_copied_containers():
    # the same dict as dataclasses.asdict, key order included, whose
    # containers the caller may change without changing the summary
    from dataclasses import asdict

    recs = records_from_pattern({3: "TTFFTTTFTF", 7: "FTTTFFFTTT"})
    recs[1] = StepRecord(1, recs[1].visible, serving=7)
    s = summarize(recs, STEP, F, constellation_of={3: "a", 7: "b"})
    d = s.to_dict()
    assert d == asdict(s) and list(d) == list(asdict(s))
    for name in ("pass_hist_min", "visible_hist", "usage_fractions"):
        assert d[name] == getattr(s, name) and d[name] is not getattr(s, name)


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


def _feed_accumulator(users, ranges, rates, servings, names, const_of_sat, step_s, freq, block,
                      candidates, chunk=None):
    """Every user's (vis, ranges, rates, serving, candidates) through one
    accumulator, a block of ``chunk`` users' pairs at a time (of all users'
    if None)."""
    n_sats, n_steps = users[0].shape
    chunk = chunk or len(users)
    acc = UserAccumulator(names, const_of_sat, step_s, len(users))
    for t0 in range(0, n_steps, block):
        sl = slice(t0, min(t0 + block, n_steps))
        for u0 in range(0, len(users), chunk):
            parts, srvs, n_pairs = [], [], 0
            for u in range(u0, min(u0 + chunk, len(users))):
                row, step = np.nonzero(candidates[u][:, sl])  # (row, step) order
                v, r, rr = users[u][:, sl], ranges[u][:, sl], rates[u][:, sl]
                # each step's serving pair as an index into the chunk's candidates, -1 for none
                srv = np.full(sl.stop - t0, -1)
                hit = row == servings[u][t0 + step]
                srv[step[hit]] = n_pairs + np.flatnonzero(hit)
                parts.append((v[row, step], np.full(len(row), u), row, step, r[row, step],
                              rr[row, step]))
                srvs.append(srv)
                n_pairs += len(row)
            arrays = [np.concatenate(a) for a in zip(*parts)]
            acc.update_block(t0, *arrays, np.stack(srvs), range(u0, u0 + len(parts)))
    return acc.finalize(n_steps, freq)


# constellation of each of the six satellites; rows are grouped by constellation
_CONSTELLATIONS = {1: [0, 0, 0, 0, 0, 0], 3: [0, 0, 1, 1, 1, 2]}


@pytest.mark.parametrize(
    "block, n_const, n_users, chunk",
    [pytest.param(b, 1, 1, None, id=str(b)) for b in (1, 7, 32, 100)]
    + [pytest.param(b, 3, 1, None, id=f"{b}-3const") for b in (1, 7, 32, 100)]
    + [pytest.param(b, 3, 3, None, id=f"{b}-3const-3users") for b in (1, 7, 32, 100)]
    + [pytest.param(b, 3, 3, 1, id=f"{b}-3const-3users-chunk1") for b in (1, 7, 32, 100)],
)
def test_streaming_accumulator_matches_reference(block, n_const, n_users, chunk):
    """Every user's and every set's streamed summary, the whole fleet's and
    each constellation's, equals the record reference on that user's and
    set's records, whether a block's users come in one call or one call
    each (chunk 1). With several users, user 1 has no candidates in the
    second block (in the whole run if there is one block), and user 2's
    satellite 0 stays visible across the first block boundary."""
    rng = np.random.default_rng(42)
    n_sats, n_steps = 6, 100
    const_of_sat = np.array(_CONSTELLATIONS[n_const])
    names = [f"c{c}" for c in range(n_const)]
    owner = {s: names[c] for s, c in enumerate(const_of_sat)}
    users, all_ranges, all_rates, servings, all_candidates, all_views = [], [], [], [], [], []
    for u in range(n_users):
        vis = rng.random((n_sats, n_steps)) < 0.35
        ranges = rng.uniform(200.0, 2500.0, (n_sats, n_steps))
        rates = rng.uniform(-8.0, 8.0, (n_sats, n_steps))
        extra = rng.random((n_sats, n_steps)) < 0.2
        if u == 1:
            vis[:, block : 2 * block] = extra[:, block : 2 * block] = False
            if block >= n_steps:
                vis[:] = extra[:] = False
        if u == 2:
            vis[0, max(0, block - 3) : block + 3] = True
        # the closest visible satellite serves
        serving = np.where(vis.any(axis=0), np.where(vis, ranges, np.inf).argmin(axis=0), -1)
        recs = [
            StepRecord(
                k,
                [(s, float(ranges[s, k]), float(rates[s, k]), 40.0) for s in range(n_sats) if vis[s, k]],
                int(serving[k]) if serving[k] >= 0 else None,
            )
            for k in range(n_steps)
        ]
        views = {"combined": recs}
        for name in names:
            views[name] = [
                StepRecord(
                    r.step_index,
                    [v for v in r.visible if owner[v[0]] == name],
                    r.serving if r.serving is not None and owner[r.serving] == name else None,
                )
                for r in recs
            ]
        users.append(vis)
        all_ranges.append(ranges)
        all_rates.append(rates)
        servings.append(serving)
        all_candidates.append(vis | extra)
        all_views.append(views)
    results = _feed_accumulator(
        users, all_ranges, all_rates, servings, names, const_of_sat, STEP, F, block, all_candidates,
        chunk,
    )
    assert results.sets == list(all_views[0])
    for u, views in enumerate(all_views):
        recs = views["combined"]
        # the whole fleet's passes and accesses of each user, in time order per satellite
        p_user, p_row, p_start, p_end = results.passes
        mine = p_user == u
        got_passes = sorted(zip(p_row[mine].tolist(), p_start[mine].tolist(), p_end[mine].tolist()))
        assert got_passes == [
            (p.satellite_id, p.start_step, p.end_step)
            for s in range(n_sats) for p in extract_passes(recs, s, STEP)
        ]
        a_user, a_start, a_end = results.accesses
        assert list(zip(a_start[a_user == u].tolist(), a_end[a_user == u].tolist())) == [
            (a.start_step, a.end_step) for a in extract_accesses(recs, STEP)
        ]
        _assert_sets_match_reference(results.summaries(u), views, owner)


def _assert_sets_match_reference(summaries, views, owner):
    assert list(summaries) == list(views)
    for name, records in views.items():
        # the reference names a usage fraction for the whole fleet only
        ref = summarize(records, STEP, F, owner if name == "combined" else None)
        got = summaries[name]
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
        assert got.serving_steps == ref.serving_steps
        assert got.serving_fspl_min_db == pytest.approx(ref.serving_fspl_min_db)
        assert got.serving_fspl_avg_db == pytest.approx(ref.serving_fspl_avg_db)
        assert got.serving_fspl_max_db == pytest.approx(ref.serving_fspl_max_db)
        assert got.serving_max_doppler_khz == pytest.approx(ref.serving_max_doppler_khz)
        # the accumulator also lists the constellations that never serve
        used = {k: v for k, v in got.usage_fractions.items() if v}
        assert used == pytest.approx(ref.usage_fractions)


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
