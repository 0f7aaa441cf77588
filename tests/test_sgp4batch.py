import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leolink import sgp4core
from leolink.elements import KeplerianElements
from leolink.propagation import satrec_from_tle
from leolink.sgp4batch import SatBatch
from leolink.timebase import julian_date, parse_utc
from leolink.tle import elements_to_tle
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


def _deep_record(name, rev_per_day, ecc, inc, bstar=0.0, argp=270.0, raan=40.0, ma=10.0):
    from leolink.tle import TwoLineElementSet

    tle = TwoLineElementSet(
        name=name,
        epoch=EPOCH,
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
# and next to the step boundaries
_DEEP_T = np.concatenate(
    [
        np.linspace(-7200.0, 7200.0, 97),
        [0.0, 720.0, -720.0, 1440.0, np.nextafter(1440.0, 0.0), np.nextafter(-720.0, -1e4)],
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


def test_masked_division_is_silent_at_zero_inclination():
    # with every lunar-solar coefficient zero the periodics vanish: the
    # first column keeps sin(i) = 0 and takes the Lyddane form, the second
    # takes the division by sin(i) that the first must not reach (warnings
    # from this module are errors under the test configuration)
    from types import SimpleNamespace

    from leolink.sgp4batch import _DEEP_FIELDS

    c = SimpleNamespace(**{f: np.zeros((1, 1)) for f in _DEEP_FIELDS}, afspc=np.ones((1, 1), bool))
    ones = np.ones((1, 2))
    ep, inclp, nodep, argpp, mp = SatBatch._dpper(
        c, 0.0 * ones, 0.1 * ones, np.array([[0.0, 0.5]]), ones, ones, ones
    )
    assert np.array_equal(inclp, [[0.0, 0.5]])
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


def test_tiled_batch_matches_single_row_batches():
    # T chosen so that a tile holds 3 rows: 10 rows make tiles of 3, 3, 3, 1
    from leolink.sgp4batch import TILE

    n_steps = TILE // 3
    assert TILE // n_steps == 3
    els = build_walker(ShellSpec(550.0, 53.0, 2, 3), EPOCH) + build_walker(
        ShellSpec(1200.0, 87.9, 2, 2, raan_span=180.0), EPOCH
    )
    recs = _records(els)
    assert len(recs) == 10
    jd, fr = julian_date(EPOCH)
    frs = fr + np.arange(n_steps) * (10.0 / 86400.0)
    pos, vel = SatBatch(recs).propagate_jd(jd, frs)
    assert pos.shape == vel.shape == (10, n_steps, 3)
    for i, rec in enumerate(recs):
        p, v = SatBatch([rec]).propagate_jd(jd, frs)
        assert np.array_equal(pos[i], p[0]) and np.array_equal(vel[i], v[0])


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
