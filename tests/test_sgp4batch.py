import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink import sgp4core
from leolink.elements import KeplerianElements
from leolink.propagation import satrec_from_tle
from leolink.sgp4batch import SatBatch
from leolink.timebase import julian_date, parse_utc
from leolink.tle import elements_to_tle
from leolink.walker import ShellSpec, build_walker

EPOCH = parse_utc("2021-03-20T09:37:29Z")


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


def test_batch_rejects_deep_space():
    geo = sgp4core.init_record(
        satnum=1,
        epoch_jd=2459293.9,
        bstar=0.0,
        ecco=1e-4,
        argpo_rad=0.0,
        inclo_rad=0.001,
        mo_rad=0.0,
        no_kozai_rad_min=1.0027 * 2 * math.pi / 1440.0,
        nodeo_rad=0.0,
    )
    geo.name = "geo"
    with pytest.raises(ValueError, match="deep-space"):
        SatBatch([geo])


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
