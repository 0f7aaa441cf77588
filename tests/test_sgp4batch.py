import math
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leolink import sgp4core
from leolink.elements import KeplerianElements
from leolink.propagation import PropagationError, satrec_from_tle
from leolink.sgp4batch import SatBatch
from leolink.timebase import julian_date, parse_utc
from leolink.tle import TwoLineElementSet, elements_to_tle
from leolink.walker import ShellSpec, build_walker

EPOCH = parse_utc("2021-03-20T09:37:29Z")
DEG = math.pi / 180.0


def _records(elements):
    return [satrec_from_tle(elements_to_tle(el, k + 1)) for k, el in enumerate(elements)]


def test_batch_matches_scalar_on_shell():
    els = build_walker(ShellSpec(1200.0, 87.9, 3, 5, raan_span=180.0), EPOCH)
    recs = _records(els)
    batch = SatBatch(recs)
    jd, fr = julian_date(EPOCH)
    frs = fr + np.linspace(0.0, 1.0, 17)
    pos, vel = batch.propagate_jd(jd, frs)
    ts = batch.tsince_minutes(jd, frs)
    for i in (0, 7, 14):
        for k in (0, 8, 16):
            r, v = sgp4core.propagate_record(recs[i], float(ts[i, k]))
            assert np.max(np.abs(pos[i, k] - r)) < 1e-6
            assert np.max(np.abs(vel[i, k] - v)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    alt=st.floats(250.0, 2000.0),
    ecc=st.floats(0.0, 0.05),
    inc=st.floats(0.0, 180.0),
    raan=st.floats(0.0, 359.9),
    ma=st.floats(0.0, 359.9),
    t_min=st.floats(-1440.0, 1440.0),
)
def test_batch_matches_scalar_property(alt, ecc, inc, raan, ma, t_min):
    from hypothesis import assume

    a = 6378.137 + alt
    assume(a * (1.0 - ecc) > 6378.137 + 140.0)  # keep perigee in orbit
    el = KeplerianElements(a, ecc, inc, raan, 10.0, ma, EPOCH)
    rec = satrec_from_tle(elements_to_tle(el, 1))
    batch = SatBatch([satrec_from_tle(elements_to_tle(el, 1))])
    r, v = sgp4core.propagate_record(rec, t_min)
    if rec.error == 0:
        pos, vel = batch.propagate_tsince(np.array([[t_min]]))
        assert np.max(np.abs(pos[0, 0] - r)) < 1e-6
        assert np.max(np.abs(vel[0, 0] - v)) < 1e-9


def _deep_record(name, rev_per_day, ecc, inc, bstar=0.0, argp=270.0, raan=40.0, ma=10.0,
                 epoch=EPOCH):
    from leolink.tle import TwoLineElementSet

    tle = TwoLineElementSet(
        name=name,
        epoch=epoch,
        inclination=inc,
        raan=raan,
        eccentricity=ecc,
        arg_perigee=argp,
        mean_anomaly=ma,
        mean_motion=rev_per_day,
        bstar=bstar,
        catalog_id=33333,
    )
    rec = satrec_from_tle(tle)
    assert rec.method == "d"
    return rec


def _assert_matches_scalar(recs, t):
    """Every (row, column) of one batch call agrees with the scalar
    reference at the sub-millimeter gates."""
    pos, vel = SatBatch(recs).propagate_tsince(t)
    for i, rec in enumerate(recs):
        for k in range(t.shape[1]):
            r, v = sgp4core.propagate_record(rec, float(t[i, k]))
            assert rec.error == 0
            at = f"{rec.name} at {t[i, k]} min"
            np.testing.assert_allclose(pos[i, k], r, rtol=0.0, atol=1e-6, err_msg=at)
            np.testing.assert_allclose(vel[i, k], v, rtol=0.0, atol=1e-9, err_msg=at)


# five days either side of epoch: the resonance integrator restarts at epoch
# and takes up to ten 720-minute steps in either direction, with columns on
# and next to the step boundaries; and one instant about 28 days out on
# each side (56 steps)
_DEEP_T = np.concatenate(
    [
        np.linspace(-7200.0, 7200.0, 97),
        [0.0, 720.0, -720.0, 1440.0, np.nextafter(1440.0, 0.0), np.nextafter(-720.0, -1e4)],
        [40325.0, -40330.5],
    ]
)


@pytest.mark.parametrize(
    "case, rev_per_day, ecc, inc, bstar, irez",
    [
        ("geo_lyddane", 1.00273791, 2e-4, 3.0, 0.0, 1),  # inclination below 0.2 rad
        # the perturbed inclination turns negative and is flipped
        ("geo_equatorial", 1.00273791, 2e-4, 0.0, 0.0, 1),
        ("geo_inclined", 1.00273791, 2e-4, 15.0, 0.0, 1),  # at or above 0.2 rad
        ("molniya", 2.00611, 0.72, 63.4, 0.0, 2),  # 12 h, e >= 0.5
        ("non_resonant", 3.0, 0.1, 30.0, 0.0, 0),
        ("drag", 1.5, 0.3, 7.0, 1.0e-4, 0),
        ("retrograde_geo", 1.00273791, 1e-3, 179.9, 0.0, 1),
    ],
)
def test_deep_batch_matches_scalar(case, rev_per_day, ecc, inc, bstar, irez):
    rec = _deep_record(case, rev_per_day, ecc, inc, bstar)
    assert rec.irez == irez
    assert (rec.inclo < 0.2) == (inc < 0.2 / DEG)
    _assert_matches_scalar([rec], _DEEP_T[None, :])


def test_mixed_batch_keeps_fleet_order():
    # near-earth and deep-space rows interleaved: one batch call returns
    # every row in the order given, each as its own batch would. The first
    # deep-space tile mixes rows below and above 0.2 rad, which take the
    # two forms of the lunar-solar periodics.
    near = _records(build_walker(ShellSpec(550.0, 53.0, 2, 2), EPOCH))
    deep = [
        _deep_record("geo", 1.00273791, 2e-4, 0.0),
        _deep_record("geo_inclined", 1.00273791, 2e-4, 15.0),
        _deep_record("molniya", 2.00611, 0.72, 63.4),
        _deep_record("meo", 2.0057, 0.01, 55.0),
    ]
    recs = [near[0], *deep[:3], near[1], near[2], deep[3], near[3], _drag_record()]
    t = np.broadcast_to(np.linspace(-3000.0, 3000.0, 41), (len(recs), 41))
    pos, vel = SatBatch(recs).propagate_tsince(t)
    for i, rec in enumerate(recs):
        p, v = SatBatch([rec]).propagate_tsince(t[:1])
        assert np.array_equal(pos[i], p[0]) and np.array_equal(vel[i], v[0])
    _assert_matches_scalar(recs, np.ascontiguousarray(t[:, ::8]))


@settings(max_examples=30, deadline=None)
@given(
    rev_per_day=st.floats(0.9, 6.3),  # periods of 3.8 h to 26.7 h
    ecc=st.floats(0.0, 0.75),
    inc=st.floats(0.0, 180.0),
    argp=st.floats(0.0, 359.9),
    raan=st.floats(0.0, 359.9),
    ma=st.floats(0.0, 359.9),
    bstar=st.sampled_from([0.0, 1e-5]),
    t_min=st.floats(-4320.0, 4320.0),
)
# a subnormal inclination: the reference returns NaN with error code 0
@example(1.00273791, 2e-4, 2.2e-311, 270.0, 40.0, 10.0, 0.0, 100.0)
def test_deep_batch_matches_scalar_property(rev_per_day, ecc, inc, argp, raan, ma, bstar, t_min):
    from hypothesis import assume

    from leolink.propagation import PropagationError

    a = 42164.0 * (1.00273791 / rev_per_day) ** (2.0 / 3.0)
    assume(a * (1.0 - ecc) > 6378.137 + 500.0)  # keep perigee in orbit
    rec = _deep_record("prop", rev_per_day, ecc, inc, bstar, argp, raan, ma)
    t = np.array([[t_min, -t_min, 0.0]])
    finite = []
    for k in range(3):
        r, v = sgp4core.propagate_record(rec, float(t[0, k]))
        assume(rec.error == 0)
        finite.append(bool(np.isfinite(r).all() and np.isfinite(v).all()))
    if all(finite):
        _assert_matches_scalar([rec], t)
        return
    # the batch raises at the first column where the reference is not finite
    with pytest.raises(PropagationError, match="position or velocity is not finite") as err:
        SatBatch([rec]).propagate_tsince(t)
    assert (err.value.object_name, err.value.step) == ("prop", finite.index(False))


def test_deep_record_in_improved_mode_is_rejected():
    # the batch's lunar-solar periodics take the AFSPC (opsmode 'a') angle
    # wrap, the mode of every record the program initializes
    from copy import copy

    rec = _deep_record("OTHER-MODE", 1.00273791, 2e-4, 3.0)
    SatBatch([rec])
    improved = copy(rec)
    improved.operationmode = "i"
    with pytest.raises(ValueError, match="OTHER-MODE: deep-space records need operation mode 'a'"):
        SatBatch([_records([KeplerianElements(7000.0, 0.0, 53.0, 0.0, 0.0, 0.0, EPOCH)])[0], improved])


def test_masked_division_is_silent_at_zero_inclination():
    # with every lunar-solar coefficient zero the periodics vanish: the
    # first column keeps sin(i) = 0 and takes the Lyddane form, the second
    # takes the division by sin(i) that the first must not reach (warnings
    # from this module are errors under the test configuration)
    from types import SimpleNamespace

    from leolink.sgp4batch import _DEEP_FIELDS

    c = SimpleNamespace(**{f: np.zeros((1, 1)) for f in _DEEP_FIELDS})
    ones = np.ones((1, 2))
    ep, inclp, nodep, argpp, mp, sinip, cosip = SatBatch._dpper(
        c, 0.0 * ones, 0.1 * ones, np.array([[0.0, 0.5]]), ones, ones, ones
    )
    assert np.array_equal(inclp, [[0.0, 0.5]])
    assert np.array_equal(sinip, np.sin(inclp)) and np.array_equal(cosip, np.cos(inclp))
    assert np.array_equal(nodep[:, 1], [1.0]) and np.array_equal(argpp[:, 1], [1.0])
    assert np.isfinite(nodep).all() and np.isfinite(argpp).all()


def _scalar_failure(rec, t):
    """The first failing column of the scalar reference on ``t``, and its
    error code."""
    for k, tk in enumerate(t):
        sgp4core.propagate_record(rec, float(tk))
        if rec.error:
            return k, rec.error
    return None, 0


_FAIL_T = np.arange(0.0, 1400.0, 7.0)
_GEO = (1.00273791, 2e-4, 3.0)


def _failing_record(name, elements, overrides):
    rec = _deep_record(name, *elements)
    for field, value in overrides.items():
        setattr(rec, field, value)
    return rec


@pytest.mark.parametrize(
    "code, elements, overrides",
    [
        (1, _GEO, {"dedt": 1.0 / 900.0}),  # the mean eccentricity grows past 1
        (2, _GEO, {"del1": 1e-5}),  # the resonance drives the mean motion below 0
        # the lunar-solar term takes the perturbed eccentricity past 1 first
        (3, _GEO, {"peo": -0.5, "dedt": 0.5 / 900.0}),
        # within 2e-4 of 1, the semilatus rectum turns negative some columns
        # before the perturbed eccentricity check fails, which runs first
        (4, _GEO, {"peo": -0.99, "dedt": 1e-5}),
        (6, (2.00611, 0.8, 63.4), {}),  # a 12 h orbit with its perigee inside the Earth
    ],
)
def test_deep_failure_matches_scalar(code, elements, overrides):
    from leolink.propagation import PropagationError

    rec = _failing_record("RUNAWAY", elements, overrides)
    first, scalar_code = _scalar_failure(rec, _FAIL_T)
    assert scalar_code == code and first > 0
    with pytest.raises(PropagationError) as err:
        SatBatch([rec]).propagate_tsince(_FAIL_T[None, :])
    assert str(err.value).startswith(f"SGP4 failed for RUNAWAY: {sgp4core.SGP4_ERRORS[code]}")
    assert err.value.object_name == "RUNAWAY"
    assert err.value.step == first
    assert abs((err.value.utc - (EPOCH + timedelta(minutes=_FAIL_T[first]))).total_seconds()) < 1e-3


def test_batch_failure_is_the_earliest_column():
    # rows fail at different columns, in the same tile and across tiles: the
    # error names the earliest failing column and the object failing there
    from leolink.propagation import PropagationError

    late = _failing_record("LATE", _GEO, {"dedt": 1.0 / 900.0})
    early = _failing_record("EARLY", (2.00611, 0.8, 63.4), {})
    sinker = _drag_record("SINKER", bstar=0.09, mean_motion=16.4)
    (k_late, _), (k_early, _), (k_sinker, _) = (
        _scalar_failure(r, _FAIL_T) for r in (late, early, sinker)
    )
    assert k_sinker < k_early < k_late
    twin = _failing_record("TWIN", (2.00611, 0.8, 63.4), {})
    for recs, name, step in (
        ([late, early], "EARLY", k_early),
        ([late, early, twin], "EARLY", k_early),
        ([late, early, sinker], "SINKER", k_sinker),
        ([late, sinker, early], "SINKER", k_sinker),
    ):
        with pytest.raises(PropagationError) as err:
            SatBatch(recs).propagate_tsince(np.broadcast_to(_FAIL_T, (len(recs), len(_FAIL_T))))
        assert (err.value.object_name, err.value.step) == (name, step)


def test_batch_radius_stability_drag_free():
    els = build_walker(ShellSpec(550.0, 53.0, 2, 4), EPOCH)
    batch = SatBatch(_records(els))
    jd, fr = julian_date(EPOCH)
    pos, _ = batch.propagate_jd(jd, fr + np.linspace(0.0, 1.0, 289))
    radii = np.linalg.norm(pos, axis=-1)
    spread = radii.max(axis=1) - radii.min(axis=1)
    assert np.all(spread / (6378.137 + 550.0) < 0.005)


def test_batch_decay_error_names_object():
    from leolink.propagation import PropagationError
    from leolink.tle import TwoLineElementSet

    tle = TwoLineElementSet(
        name="SINKER",
        epoch=EPOCH,
        inclination=53.0,
        raan=0.0,
        eccentricity=0.0,
        arg_perigee=0.0,
        mean_anomaly=0.0,
        mean_motion=16.4,
        bstar=0.09,
        catalog_id=11111,
    )
    batch = SatBatch([satrec_from_tle(tle)])
    with pytest.raises(PropagationError, match="SINKER") as err:
        batch.propagate_tsince(np.array([[10.0, 20.0, 30000.0, 30001.0]]))
    # the first failing column, and its instant
    assert err.value.object_name == "SINKER"
    assert err.value.step == 2
    assert abs((err.value.utc - (EPOCH + timedelta(minutes=30000.0))).total_seconds()) < 1e-3
    assert "step 2, 2021-04-10T05:37:29Z" in str(err.value)


def _drag_record(name="DRAG", bstar=2.0e-4, catalog_id=22222, mean_motion=15.5):
    from leolink.tle import TwoLineElementSet

    tle = TwoLineElementSet(
        name=name,
        epoch=EPOCH,
        inclination=51.6,
        raan=30.0,
        eccentricity=0.0005,
        arg_perigee=80.0,
        mean_anomaly=10.0,
        mean_motion=mean_motion,
        bstar=bstar,
        catalog_id=catalog_id,
    )
    return satrec_from_tle(tle)


@pytest.mark.parametrize("kind", ["near", "deep", "deep-epochs"])
def test_tiled_batch_matches_single_row_batches(kind):
    # T chosen so that a tile holds 3 rows. Near-earth: 10 rows make tiles
    # of 3, 3, 3, 1. Deep-space: one tile whose adjacent rows take the three
    # branches of the lunar-solar periodics, a GEO at 3 deg (the Lyddane
    # form), the equatorial GEO (its perturbed inclination is negative, and
    # flipped, up to about 14.8 days past epoch) and a Molniya (at or above
    # 0.2 rad), 13 to 16 days past epoch. Deep-space epochs: one tile of
    # resonant rows at the scenario epoch and a non-resonant 8 h orbit whose
    # TLE is 30 days older, so that its instants are further from its
    # epoch than any resonant row's
    from datetime import timedelta

    from leolink import sgp4batch

    tile = sgp4batch.TILE if kind == "near" else sgp4batch.DEEP_TILE
    n_steps = tile // 3
    assert tile // n_steps == 3
    if kind == "near":
        els = build_walker(ShellSpec(550.0, 53.0, 2, 3), EPOCH) + build_walker(
            ShellSpec(1200.0, 87.9, 2, 2, raan_span=180.0), EPOCH
        )
        recs = _records(els)
        start, step_s = 0.0, 10.0
    elif kind == "deep":
        recs = [
            _deep_record("geo_lyddane", *_GEO),
            _deep_record("geo_equatorial", 1.00273791, 2e-4, 0.0),
            _deep_record("molniya", 2.00611, 0.72, 63.4),
        ]
        start, step_s = 13.0, 3.0 * 86400.0 / n_steps
    else:
        recs = [
            _deep_record("geo", *_GEO),
            _deep_record("eight", 3.0, 0.1, 30.0, epoch=EPOCH - timedelta(days=30.0)),
            _deep_record("molniya", 2.00611, 0.72, 63.4),
        ]
        assert [rec.irez for rec in recs] == [1, 0, 2]
        start, step_s = 0.0, 86400.0 / n_steps
    jd, fr = julian_date(EPOCH)
    frs = fr + start + np.arange(n_steps) * (step_s / 86400.0)
    batch = SatBatch(recs)
    pos, vel = batch.propagate_jd(jd, frs)
    assert pos.shape == vel.shape == (len(recs), n_steps, 3)
    for i, rec in enumerate(recs):
        p, v = SatBatch([rec]).propagate_jd(jd, frs)
        assert np.array_equal(pos[i], p[0]) and np.array_equal(vel[i], v[0])
    # and the pair tiles of every third (row, step) of a fresh batch
    rows, steps = np.divmod(np.arange(0, len(recs) * n_steps, 3), n_steps)
    p, v = SatBatch(recs).propagate_pairs(jd, frs, rows, steps)
    assert np.array_equal(p, pos[rows, steps]) and np.array_equal(v, vel[rows, steps])


def test_drag_free_tiles_match_the_drag_path():
    # alone, the Walker rows take the drag-free path; with one bstar != 0 row
    # in their tile they take the full drag path, which must give the same bits
    recs = _records(build_walker(ShellSpec(550.0, 53.0, 3, 4), EPOCH))
    jd, fr = julian_date(EPOCH)
    frs = fr + np.linspace(-0.5, 2.0, 97)
    pos, vel = SatBatch(recs).propagate_jd(jd, frs)
    mixed = recs[:5] + [_drag_record()] + recs[5:]
    mpos, mvel = SatBatch(mixed).propagate_jd(jd, frs)
    walker_rows = [i for i in range(len(mixed)) if i != 5]
    assert np.array_equal(mpos[walker_rows], pos) and np.array_equal(mvel[walker_rows], vel)
    # and the drag row still agrees with the scalar reference
    drag = _drag_record()
    ts = SatBatch([drag]).tsince_minutes(jd, frs)
    for k in (0, 48, 96):
        r, v = sgp4core.propagate_record(drag, float(ts[0, k]))
        assert np.max(np.abs(mpos[5, k] - r)) < 1e-6
        assert np.max(np.abs(mvel[5, k] - v)) < 1e-9


def test_decay_error_in_a_later_tile_names_object():
    from leolink.propagation import PropagationError
    from leolink.sgp4batch import TILE

    # one row per tile; the decaying object sits in the fourth tile and
    # fails from column TILE // 2 on
    t = np.concatenate([np.full(TILE // 2, 10.0), [30000.0, 30001.0]])[None, :]
    recs = _records(build_walker(ShellSpec(550.0, 53.0, 1, 3), EPOCH))
    batch = SatBatch(recs + [_drag_record("SINKER", bstar=0.09, catalog_id=11111)])
    with pytest.raises(PropagationError, match="SINKER") as err:
        batch.propagate_tsince(t)
    assert err.value.object_name == "SINKER"
    assert err.value.step == TILE // 2
    assert abs((err.value.utc - (EPOCH + timedelta(minutes=30000.0))).total_seconds()) < 1e-3


def test_batch_peak_memory_is_bounded_by_its_output():
    import tracemalloc

    recs = _records(build_walker(ShellSpec(550.0, 53.0, 40, 50), EPOCH))
    batch = SatBatch(recs)
    jd, fr = julian_date(EPOCH)
    frs = fr + np.arange(512) * (10.0 / 86400.0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        pos, vel = batch.propagate_jd(jd, frs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pos.shape == (2000, 512, 3)
    assert peak <= 2 * (pos.nbytes + vel.nbytes)


def _mixed_records():
    """Drag-free Walker rows, drag rows and deep-space rows (a resonant GEO,
    a 12 h Molniya and a non-resonant 8 h orbit), interleaved."""
    walker = _records(build_walker(ShellSpec(550.0, 53.0, 2, 3), EPOCH))
    return [
        walker[0], _drag_record("DRAG1"), walker[1], _deep_record("GEO", *_GEO), walker[2],
        _deep_record("MOLNIYA", 2.00611, 0.72, 63.4), _drag_record("DRAG2", 1e-3, 22223),
        walker[3], _deep_record("EIGHT", 3.0, 0.1, 30.0), walker[4], walker[5],
    ]


_MIXED = SatBatch(_mixed_records())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(1, 300),
    share=st.floats(0.0, 1.0),
    step_s=st.sampled_from([1.0, 10.0, 60.0, 600.0]),
    start_days=st.floats(-40.0, 40.0),
    small_tiles=st.booleans(),
)
def test_pairs_match_dense_tiles_bit_for_bit(seed, n_steps, share, step_s, start_days, small_tiles):
    # any (row, step) subset of a mixed batch, in tiles of any size, gives
    # the same bits as the dense tiles at those elements
    from leolink import sgp4batch

    jd, fr = julian_date(EPOCH)
    frs = fr + start_days + np.arange(n_steps) * (step_s / 86400.0)
    pos, vel = _MIXED.propagate_tsince(_MIXED.tsince_minutes(jd, frs))
    keys = np.flatnonzero(np.random.default_rng(seed).random(_MIXED.n * n_steps) < share)
    rows, steps = np.divmod(keys, n_steps)
    with pytest.MonkeyPatch.context() as mp:
        if small_tiles:
            mp.setattr(sgp4batch, "TILE", 7)
            mp.setattr(sgp4batch, "DEEP_TILE", 3)
        p, v = _MIXED.propagate_pairs(jd, frs, rows, steps)
    assert p.shape == v.shape == (len(keys), 3)
    assert np.array_equal(p, pos[rows, steps]) and np.array_equal(v, vel[rows, steps])


def test_deep_states_do_not_depend_on_earlier_calls():
    # the resonance table a batch grows over calls, twice in each direction,
    # gives the bits of a fresh batch, which grows it in one go
    jd, fr = julian_date(EPOCH)
    frs = fr + np.linspace(-40.0, 40.0, 241)
    fresh = SatBatch(_mixed_records())
    warm = SatBatch(_mixed_records())
    for days in (20.0, 40.0, -20.0, -40.0):
        warm.propagate_jd(jd, fr + days + np.arange(3) / 24.0)
    for got, want in zip(warm.propagate_jd(jd, frs), fresh.propagate_jd(jd, frs)):
        assert np.array_equal(got, want)
    rows, steps = np.nonzero(np.random.default_rng(1).random((warm.n, len(frs))) < 0.3)
    for got, want in zip(warm.propagate_pairs(jd, frs, rows, steps),
                         SatBatch(_mixed_records()).propagate_pairs(jd, frs, rows, steps)):
        assert np.array_equal(got, want)


def test_calls_on_threads_grow_one_table_in_turn():
    # calls on more threads than cores, each reaching other knots, grow one
    # batch's table: each call gets the bits of its own fresh batch
    import sys
    from concurrent.futures import ThreadPoolExecutor

    jd, fr = julian_date(EPOCH)
    days = [-40.0, 35.0, -12.0, 20.0, 40.0, -30.0, 5.0, -3.0]
    want = [SatBatch(_mixed_records()).propagate_jd(jd, fr + d + np.arange(3) / 24.0) for d in days]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            shared = SatBatch(_mixed_records())
            with ThreadPoolExecutor(max_workers=len(days)) as pool:
                calls = pool.map(lambda d: shared.propagate_jd(jd, fr + d + np.arange(3) / 24.0),
                                 days, timeout=120)
                for (pos, vel), (p, v) in zip(calls, want):
                    assert np.array_equal(pos, p) and np.array_equal(vel, v)
    finally:
        sys.setswitchinterval(interval)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


_SPECIAL = [0.0, -0.0, 2.0 * np.pi, -2.0 * np.pi, 6.0 * np.pi, -8.0 * np.pi, 5e-324, -5e-324,
            2.2e-308, -2.2e-308, 1e300, -1e300, np.nan, -np.nan, np.inf, -np.inf, -1e-20]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=64).map(lambda xs: np.array(xs + _SPECIAL)))
def test_floor_mods_keep_every_bit(x):
    # the tiles' fmod forms give the bits of the reference's expressions:
    # x % 2pi, and the mean node's wrap that keeps its sign
    from leolink.sgp4batch import _TWOPI, _mod2pi

    with np.errstate(invalid="ignore"):  # fmod and % of an infinity
        assert np.array_equal(_bits(_mod2pi(x)), _bits(x % _TWOPI))
        node = np.fmod(x + 0.0, _TWOPI)
        where = np.where(x >= 0.0, x % _TWOPI, -((-x) % _TWOPI))
    # every bit but a NaN's sign, which the where form flips for -inf; a NaN
    # anywhere in a tile raises, whatever its sign
    nan = np.isnan(where)
    assert np.array_equal(np.isnan(node), nan)
    assert np.array_equal(_bits(node)[~nan], _bits(where)[~nan])


def test_pair_failure_is_the_dense_failure():
    # with every step of the failing rows among the pairs, propagate_pairs
    # names the object, step and instant the dense call names, whichever
    # tiles the pairs fall in
    from leolink import sgp4batch
    from leolink.propagation import PropagationError

    late = _failing_record("LATE", _GEO, {"dedt": 1.0 / 900.0})
    early = _failing_record("EARLY", (2.00611, 0.8, 63.4), {})
    twin = _failing_record("TWIN", (2.00611, 0.8, 63.4), {})
    sinker = _drag_record("SINKER", bstar=0.09, mean_motion=16.4)
    walker = _records(build_walker(ShellSpec(550.0, 53.0, 1, 3), EPOCH))
    jd, fr = julian_date(EPOCH)
    frs = fr + _FAIL_T / 1440.0
    rng = np.random.default_rng(3)
    for recs, name in (
        ([walker[0], late, walker[1], early], "EARLY"),
        ([late, early, twin, walker[2]], "EARLY"),
        ([walker[0], late, sinker, early], "SINKER"),
        ([late, early, walker[1], sinker], "SINKER"),
    ):
        batch = SatBatch(recs)
        with pytest.raises(PropagationError) as dense:
            batch.propagate_jd(jd, frs)
        assert dense.value.object_name == name
        need = rng.random((len(recs), len(frs))) < 0.2
        need[[i for i, r in enumerate(recs) if r.name in ("LATE", "EARLY", "TWIN", "SINKER")]] = True
        assert not need.all()
        rows, steps = np.nonzero(need)
        for tile in (sgp4batch.TILE, 5):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sgp4batch, "TILE", tile)
                mp.setattr(sgp4batch, "DEEP_TILE", tile)
                with pytest.raises(PropagationError) as err:
                    batch.propagate_pairs(jd, frs, rows, steps)
            got, want = err.value, dense.value
            assert (got.object_name, got.step, got.utc, str(got)) == (
                want.object_name, want.step, want.utc, str(want)
            )


def test_orbit_bounds_hold_for_batch_states():
    # every propagated radius and speed lies inside the record's bounds
    recs = _mixed_records()
    batch = SatBatch(recs)
    r_lo, r_hi, v_hi = batch.orbit_bounds()
    jd, fr = julian_date(EPOCH)
    pos, vel = batch.propagate_jd(jd, fr + np.linspace(-2.0, 2.0, 2001))
    r = np.linalg.norm(pos, axis=-1)
    assert np.all(r_lo[:, None] <= r) and np.all(r <= r_hi[:, None])
    assert np.all(np.linalg.norm(vel, axis=-1) <= v_hi[:, None])
    drag = np.array([rec.bstar != 0.0 for rec in recs])
    assert np.array_equal(batch.may_fail, drag | batch.deep)
    assert np.all(np.isinf(r_hi[drag])) and np.all(np.isfinite(r_hi[~drag]))


def _tle(perigee, ecc, inc, bstar, angles, days):
    """A TLE of the given perigee height above the WGS-72 radius [km],
    eccentricity, inclination [deg], bstar, (raan, argp, ma) [deg] and
    epoch offset [days]."""
    mu, re = sgp4core.WGS72[1:3]
    a = (re + perigee) / (1.0 - ecc)
    n = 86400.0 / (2.0 * math.pi * math.sqrt(a**3 / mu))
    raan, argp, ma = angles
    return TwoLineElementSet(
        name="", epoch=EPOCH + timedelta(days=days), inclination=inc, raan=raan,
        eccentricity=ecc, arg_perigee=argp, mean_anomaly=ma, mean_motion=n, bstar=bstar,
        catalog_id=1,
    )


_angle = st.floats(0.0, 360.0, exclude_max=True)
_tles = st.builds(
    _tle,
    # isimp below 220 km, sfour's branches below 156 and 98 km, and orbits
    # that scalar init rejects at epoch below the surface
    perigee=st.one_of(st.floats(90.0, 2000.0), st.floats(-400.0, 90.0)),
    # cc3 and xmcof only above e = 1e-4; periods of 225 min and more
    # (scalar init) from e of about 0.3 up
    ecc=st.one_of(st.just(1e-4), st.floats(0.0, 1e-4), st.floats(1e-4, 0.75)),
    # xlcof's guard where |cos i + 1| <= 1.5e-12
    inc=st.one_of(st.floats(0.0, 180.0), st.just(180.0), st.floats(179.9999999, 180.0)),
    bstar=st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
    angles=st.tuples(_angle, _angle, _angle),
    days=st.floats(-30.0, 30.0),
)


def _scalar_init(tle):
    """satrec_from_tle's record of ``tle``, or the error it raises."""
    try:
        return satrec_from_tle(tle)
    except PropagationError as exc:
        return exc


@settings(max_examples=150, deadline=None)
@given(tles=st.lists(_tles, min_size=1, max_size=5).map(
    lambda ts: [replace(t, catalog_id=k + 1) for k, t in enumerate(ts)]
))
def test_batch_init_is_scalar_init(tles):
    # the batch's near-earth init gives every column the bits of scalar
    # init's record; a row that scalar init rejects raises its error, the
    # first such row's in a batch, with no step or instant; and a batch
    # whose rows scalar init accepts raises nothing
    refs = [_scalar_init(t) for t in tles]
    for t, ref in zip(tles, refs):
        if isinstance(ref, PropagationError):
            with pytest.raises(PropagationError) as got:
                SatBatch([(t, satrec_from_tle)])
            assert (str(got.value), got.value.object_name, got.value.step, got.value.utc) == (
                str(ref), ref.object_name, None, None
            )
        else:
            SatBatch([(t, satrec_from_tle)])
    errors = [ref for ref in refs if isinstance(ref, PropagationError)]
    if errors:
        with pytest.raises(PropagationError) as got:
            SatBatch([(t, satrec_from_tle) for t in tles])
        assert str(got.value) == str(errors[0])
        return
    got, want = SatBatch([(t, satrec_from_tle) for t in tles]), SatBatch(refs)
    assert got.deep.tolist() == [rec.method == "d" for rec in refs]
    assert got._cols.keys() == want._cols.keys()
    for key, column in want._cols.items():
        assert got._cols[key].tobytes() == column.tobytes(), key
    for key in ("epoch_jd", "epoch_fr", "deep"):
        assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key
