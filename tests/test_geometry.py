import math
from datetime import timezone, datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leolink import geometry
from leolink.constants import EARTH_RADIUS_KM
from leolink.elements import StateVector
from leolink.geometry import (
    BeamModel,
    beam_cos_half_arrays,
    earth_limb_half_cone,
    grazing_range_km,
    is_visible,
    pair_geometry_arrays,
    relative_geometry,
    segment_clears_earth,
    visible_mask_arrays,
)

T0 = datetime(2021, 3, 20, tzinfo=timezone.utc)


def sv(pos, vel=(0.0, 0.0, 0.0)):
    return StateVector(T0, np.array(pos, dtype=float), np.array(vel, dtype=float))


def test_radial_alignment():
    g = relative_geometry(sv((7000.0, 0, 0)), sv((7500.0, 0, 0)))
    assert g.range_km == pytest.approx(500.0)
    assert g.range_rate_km_s == pytest.approx(0.0)
    assert g.user_elevation_deg == pytest.approx(90.0)
    assert g.sat_off_nadir_deg == pytest.approx(0.0)
    assert g.los_clear


def test_antipodal_occlusion():
    g = relative_geometry(sv((7000.0, 0, 0)), sv((-7500.0, 0, 0)))
    assert not g.los_clear


def test_parallel_comoving():
    g = relative_geometry(
        sv((7000.0, 0, 0), (0, 7.5, 0)), sv((7000.0, 100.0, 0), (0, 7.5, 0))
    )
    assert g.range_km == pytest.approx(100.0)
    assert g.range_rate_km_s == pytest.approx(0.0)


def test_coincident_positions_error():
    with pytest.raises(ValueError):
        relative_geometry(sv((7000.0, 0, 0)), sv((7000.0, 0, 0)))


def test_coincident_pair_is_not_visible_in_the_array_kernel():
    # a user on a satellite's orbit and phase: no direction, no warning,
    # and never visible, while the other pairs keep their geometry
    pos = np.array([[7000.0, 0.0, 0.0], [7000.0, 10.0, 0.0]])
    vel = np.array([[0.0, 7.5, 0.0], [0.0, 7.5, 0.0]])
    rng, rr, sin_el, cos_off, rs = pair_geometry_arrays(pos, vel, pos[0], vel[0])
    assert rng[0] == 0.0 and np.isnan([rr[0], sin_el[0], cos_off[0]]).all()
    assert rng[1] == 10.0 and rs[0] == 7000.0 and np.isfinite([rr[1], sin_el[1], cos_off[1]]).all()
    assert not visible_mask_arrays(sin_el, cos_off, 0.0, -1.0)[0]


def test_earth_limb_half_cone_values():
    assert earth_limb_half_cone(1e-6) == pytest.approx(90.0, abs=0.1)
    assert earth_limb_half_cone(1200.0) == pytest.approx(
        math.degrees(math.asin(6378.137 / 7578.137)), abs=1e-9
    )
    assert earth_limb_half_cone(1200.0) == pytest.approx(57.3, abs=0.05)
    assert earth_limb_half_cone(35786.0) == pytest.approx(8.7, abs=0.05)
    with pytest.raises(ValueError):
        earth_limb_half_cone(0.0)


def test_ground_service_beam_tighter_than_limb():
    limb = BeamModel("earth_limb")
    gs = BeamModel("ground_service", service_elevation=30.0)
    assert gs.half_cone_deg(1200.0) < limb.half_cone_deg(1200.0)
    gs0 = BeamModel("ground_service", service_elevation=0.0)
    assert gs0.half_cone_deg(1200.0) == pytest.approx(limb.half_cone_deg(1200.0))


def test_beam_model_validation():
    with pytest.raises(ValueError):
        BeamModel("nonsense")
    with pytest.raises(ValueError):
        BeamModel("fixed_half_cone")
    with pytest.raises(ValueError):
        BeamModel("fixed_half_cone", half_cone=120.0)
    with pytest.raises(ValueError):
        BeamModel("ground_service", service_elevation=95.0)


def test_is_visible_zenith_case():
    g = relative_geometry(sv((7000.0, 0, 0)), sv((7600.0, 0, 0)))
    assert is_visible(g, 25.0, BeamModel("earth_limb"), 7600.0 - EARTH_RADIUS_KM)


def test_user_above_satellite_not_visible():
    # user 100 km above the satellite: the satellite sits below the user's
    # horizon plane and its Earth-facing cone cannot contain the user
    sat_r = EARTH_RADIUS_KM + 550.0
    user = sv((sat_r + 100.0, 0, 0))
    sat = sv((sat_r * math.cos(0.02), sat_r * math.sin(0.02), 0.0))
    g = relative_geometry(user, sat)
    assert not is_visible(g, 25.0, BeamModel("earth_limb"), 550.0)
    assert g.user_elevation_deg < 0.0


def test_threshold_inclusive():
    beam = BeamModel("earth_limb")
    g = relative_geometry(sv((7000.0, 0, 0)), sv((7600.0, 0, 0)))
    g_249 = type(g)(g.range_km, 0.0, 24.9, g.sat_off_nadir_deg, True)
    g_250 = type(g)(g.range_km, 0.0, 25.0, g.sat_off_nadir_deg, True)
    assert not is_visible(g_249, 25.0, beam, 600.0)
    assert is_visible(g_250, 25.0, beam, 600.0)


def test_los_symmetry_and_swap_invariance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p1 = rng.uniform(-9000, 9000, 3)
        p2 = rng.uniform(-9000, 9000, 3)
        if np.linalg.norm(p1) < 6500 or np.linalg.norm(p2) < 6500:
            continue
        if np.linalg.norm(p1 - p2) < 1.0:
            continue
        v1 = rng.uniform(-8, 8, 3)
        v2 = rng.uniform(-8, 8, 3)
        a = relative_geometry(sv(p1, v1), sv(p2, v2))
        b = relative_geometry(sv(p2, v2), sv(p1, v1))
        assert a.range_km == pytest.approx(b.range_km)
        assert a.range_rate_km_s == pytest.approx(b.range_rate_km_s)
        assert a.los_clear == b.los_clear
        assert segment_clears_earth(p1, p2) == segment_clears_earth(p2, p1)


def test_triangle_interior_angles_sum():
    # (Earth center, user, satellite) triangle: angles must sum to 180 deg,
    # tying elevation and off-nadir together
    rng = np.random.default_rng(11)
    for _ in range(200):
        p1 = rng.uniform(-9000, 9000, 3)
        p2 = rng.uniform(-9000, 9000, 3)
        if min(np.linalg.norm(p1), np.linalg.norm(p2)) < 6500:
            continue
        if np.linalg.norm(p1 - p2) < 100.0:
            continue
        g = relative_geometry(sv(p1), sv(p2))
        theta = math.degrees(
            math.acos(
                min(1.0, max(-1.0, float(p1 @ p2) / (np.linalg.norm(p1) * np.linalg.norm(p2))))
            )
        )
        at_user = 90.0 + g.user_elevation_deg
        at_sat = g.sat_off_nadir_deg
        assert theta + at_user + at_sat == pytest.approx(180.0, abs=1e-6)


def test_visibility_monotone_in_min_elevation():
    g = relative_geometry(sv((7000.0, 0, 0)), sv((7500.0, 500.0, 0)))
    beam = BeamModel("earth_limb")
    visible = [is_visible(g, e, beam, 7500.0 - EARTH_RADIUS_KM) for e in (0, 10, 20, 40, 80)]
    # once invisible, raising the threshold can never flip it back
    assert all(a >= b for a, b in zip(visible, visible[1:]))


def test_grazing_range():
    d = grazing_range_km(42164.0, EARTH_RADIUS_KM + 1200.0)
    expected = math.sqrt(42164.0**2 - EARTH_RADIUS_KM**2) + math.sqrt(
        7578.137**2 - EARTH_RADIUS_KM**2
    )
    assert d == pytest.approx(expected)
    with pytest.raises(ValueError):
        grazing_range_km(6000.0, 7000.0)


def _random_states(n, rng):
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = rng.uniform(6700.0, 7600.0, (n, 1))
    pos = u * radii
    vel = rng.uniform(-8, 8, (n, 3))
    return pos, vel


def test_array_kernels_match_scalar():
    rng = np.random.default_rng(3)
    sat_pos, sat_vel = _random_states(40, rng)
    user_pos, user_vel = _random_states(5, rng)
    sp = np.broadcast_to(sat_pos[:, None, :], (40, 5, 3))
    svl = np.broadcast_to(sat_vel[:, None, :], (40, 5, 3))
    rng_a, rr_a, sin_el, cos_off, sat_r = pair_geometry_arrays(sp, svl, user_pos, user_vel)
    cos_half = math.cos(math.radians(60.0))
    vis = visible_mask_arrays(sin_el, cos_off, 25.0, cos_half)
    for i in range(40):
        for j in range(5):
            g = relative_geometry(sv(user_pos[j], user_vel[j]), sv(sat_pos[i], sat_vel[i]))
            assert rng_a[i, j] == pytest.approx(g.range_km, rel=1e-12)
            assert sat_r[i, j] == pytest.approx(np.linalg.norm(sat_pos[i]), rel=1e-15)
            assert rr_a[i, j] == pytest.approx(g.range_rate_km_s, rel=1e-9, abs=1e-12)
            assert math.degrees(math.asin(np.clip(sin_el[i, j], -1, 1))) == pytest.approx(
                g.user_elevation_deg, abs=1e-9
            )
            expected = (
                g.los_clear
                and g.user_elevation_deg >= 25.0
                and g.sat_off_nadir_deg <= 60.0
            )
            assert bool(vis[i, j]) == expected


def test_beam_cone_kernel_matches_beam_model():
    # one array call over mixed beams, each pair against its beam's scalar law
    beams = [
        BeamModel("earth_limb"),
        BeamModel("ground_service", service_elevation=0.0),
        BeamModel("ground_service", service_elevation=27.0),
        BeamModel("ground_service", service_elevation=89.0),
        BeamModel("fixed_half_cone", half_cone=8.7),
        BeamModel("fixed_half_cone", half_cone=90.0),
    ]
    alts = np.array([160.0, 550.0, 1200.0, 20200.0, 35786.0])
    beam_of = np.repeat(np.arange(len(beams)), len(alts))
    alt = np.tile(alts, len(beams))
    nadir, param = (np.array(col) for col in zip(*(beams[b].cone_params for b in beam_of)))
    cos_half = beam_cos_half_arrays(nadir, param, EARTH_RADIUS_KM + alt)
    for k, b in enumerate(beam_of):
        expected = beams[b].half_cone_deg(float(alt[k]))
        assert math.degrees(math.acos(cos_half[k])) == pytest.approx(expected, abs=1e-9)


def test_horizon_cull_is_conservative(monkeypatch):
    # every pair visible at min elevation >= 0 must survive the cull, for
    # every user, whether or not the block is cut into step and satellite chunks
    rng = np.random.default_rng(5)
    sat_pos, sat_vel = _random_states(60, rng)
    users = [_random_states(4, rng) for _ in range(3)]
    sp = np.broadcast_to(sat_pos[:, None, :], (60, 4, 3))
    svl = np.broadcast_to(sat_vel[:, None, :], (60, 4, 3))
    for chunk, gemm in ((geometry._CULL_CHUNK, geometry._GEMM_SIZE), (1, 3 * 3 * 7)):
        monkeypatch.setattr(geometry, "_CULL_CHUNK", chunk)
        monkeypatch.setattr(geometry, "_GEMM_SIZE", gemm)
        # the screen with a knot at every step is the exact cull
        keys = geometry.horizon_screen(sp, None, np.stack([pos for pos, _ in users]), None, np.arange(4))
        assert len(keys) == 3
        for (user_pos, user_vel), k in zip(users, keys):
            row, step = np.divmod(k, 4)
            assert np.all(np.diff(row * 4 + step) > 0)  # (row, step) order
            mask = np.zeros((60, 4), dtype=bool)
            mask[row, step] = True
            above = np.einsum("sbk,bk->sb", sp, user_pos) >= np.sum(user_pos**2, axis=1)
            assert np.array_equal(mask, above)
            _, _, sin_el, cos_off, _ = pair_geometry_arrays(sp, svl, user_pos, user_vel)
            for min_el in (0.0, 10.0, 25.0):
                vis = visible_mask_arrays(sin_el, cos_off, min_el, -1.0)
                assert not np.any(vis & ~mask)


@settings(max_examples=100, deadline=None)
@given(
    alt_user=st.floats(300.0, 2000.0),
    alt_sat=st.floats(200.0, 1500.0),
    theta=st.floats(0.001, math.pi / 2),
)
def test_above_shell_invariant(alt_user, alt_sat, theta):
    # a user strictly above the satellite with elevation >= 0 always falls
    # outside any Earth-facing nadir cone
    if alt_user <= alt_sat + 1.0:
        alt_user = alt_sat + 1.0 + alt_user / 10.0
    ru = EARTH_RADIUS_KM + alt_user
    rs = EARTH_RADIUS_KM + alt_sat
    user = sv((ru, 0.0, 0.0))
    sat = sv((rs * math.cos(theta), rs * math.sin(theta), 0.0))
    g = relative_geometry(user, sat)
    if g.user_elevation_deg >= 0.0:
        assert g.sat_off_nadir_deg > earth_limb_half_cone(alt_sat)



@st.composite
def _orbit_records(draw, n):
    """n SGP4 records of random kinds: LEO with and without drag, MEO,
    resonant GEO, eccentric near-earth and deep-space (HEO), and resonant
    12 h Molniya orbits."""
    from dataclasses import replace

    from leolink.elements import KeplerianElements
    from leolink.propagation import satrec_from_tle
    from leolink.timebase import parse_utc
    from leolink.tle import elements_to_tle

    recs = []
    for k in range(n):
        kind = draw(st.sampled_from(["leo", "leo_drag", "meo", "geo", "heo", "molniya"]))
        if kind.startswith("leo"):
            a, e = EARTH_RADIUS_KM + draw(st.floats(300.0, 2000.0)), draw(st.floats(0.0, 0.02))
        elif kind == "meo":
            a, e = EARTH_RADIUS_KM + draw(st.floats(5000.0, 25000.0)), draw(st.floats(0.0, 0.05))
        elif kind == "geo":
            a, e = 42164.0 * draw(st.floats(0.995, 1.005)), draw(st.floats(0.0, 0.01))
        elif kind == "heo":
            e = draw(st.floats(0.1, 0.75))
            a = min((EARTH_RADIUS_KM + draw(st.floats(300.0, 3000.0))) / (1.0 - e), 46000.0)
        else:
            a, e = 26560.0, draw(st.floats(0.5, 0.75))
        angles = [draw(st.floats(0.0, 360.0)) for _ in range(3)]
        el = KeplerianElements(
            a, e, draw(st.floats(0.0, 180.0)), *angles, parse_utc("2021-03-20T09:37:29Z")
        )
        tle = elements_to_tle(el, catalog_id=k + 1)
        if kind == "leo_drag":
            tle = replace(tle, bstar=1e-4)
        recs.append(satrec_from_tle(tle))
    return recs


def _jumping_records():
    """A 12 h orbit (e = 0.5) and a GEO one (e = 0), both with every angle
    0 and inclination 0 or 1 degree, and four LEO orbits. At their epoch the
    two deep-space positions jump as their node crosses zero (the Lyddane
    form of the lunar-solar periodics below 0.2 rad inclination)."""
    from leolink.elements import KeplerianElements
    from leolink.propagation import satrec_from_tle
    from leolink.timebase import parse_utc
    from leolink.tle import elements_to_tle

    epoch = parse_utc("2021-03-20T09:37:29Z")
    orbits = [(26560.0, 0.5, 0.0), (42164.0, 0.0, 1.0)] + [(EARTH_RADIUS_KM + 300.0, 0.0, 0.0)] * 4
    return [
        satrec_from_tle(elements_to_tle(KeplerianElements(a, e, i, 0.0, 0.0, 0.0, epoch), k + 1))
        for k, (a, e, i) in enumerate(orbits)
    ]


@settings(max_examples=100, deadline=None)
@example(
    sats=_jumping_records(), users=_jumping_records()[:3], n_steps=27, step_s=1.0,
    knot_every=3, start_days=0.0,
)
@given(
    sats=_orbit_records(6),
    users=_orbit_records(3),
    n_steps=st.integers(3, 150),
    step_s=st.sampled_from([1.0, 5.0, 10.0, 30.0, 60.0, 120.0]),
    knot_every=st.integers(2, 30),
    start_days=st.floats(-1.0, 1.0),
)
def test_screen_keeps_every_pair_above_the_horizon(
    sats, users, n_steps, step_s, knot_every, start_days
):
    # no pair that passes the exact horizon test is dropped by the screen,
    # and A bounds |z''| (hypothesis reports the largest |z''| / A it saw)
    from hypothesis import assume, note, target

    from leolink.propagation import PropagationError
    from leolink.sgp4batch import SatBatch
    from leolink.timebase import julian_date

    fleet, crew = SatBatch(sats), SatBatch(users)
    for r in sats + users:
        note(f"{r.method} n={r.no_kozai:.6g} e={r.ecco:.6g} i={r.inclo:.6g} bstar={r.bstar}")
    jd, fr = julian_date(datetime(2021, 3, 20, 9, 37, 29, tzinfo=timezone.utc))
    frs = fr + start_days + np.arange(n_steps) * (step_s / 86400.0)
    try:
        sp, svel = fleet.propagate_jd(jd, frs)
        up, uvel = crew.propagate_jd(jd, frs)
    except PropagationError:
        assume(False)  # a drag orbit that decays in the window
    knots = np.unique(np.r_[np.arange(0, n_steps, knot_every), n_steps - 1])
    kept = geometry.horizon_screen(
        sp[:, knots], svel[:, knots], up[:, knots], uvel[:, knots], knots, step_s,
        fleet.orbit_bounds(), crew.orbit_bounds(),
    )
    is_knot = np.zeros(n_steps, dtype=bool)
    is_knot[knots] = True
    # the exact cull, keys row * n_steps + step: dot(sat, user) >= |user|^2;
    # a pair on the plane to rounding (a satellite that is the user) may
    # fall on either side, so it is left out of both comparisons
    dot = np.einsum("sbk,ubk->usb", sp, up)
    ru2 = np.einsum("ubk,ubk->ub", up, up)[:, None]
    tie = np.abs(dot - ru2) <= 1e-12 * ru2
    for exact, keys, on_plane in zip(dot >= ru2, kept, tie):
        exact = np.flatnonzero(exact & ~on_plane)
        keys = np.setdiff1d(keys, np.flatnonzero(on_plane))
        assert np.isin(exact, keys).all()
        # at the knots the screen is the exact test
        assert np.array_equal(exact[is_knot[exact % n_steps]], keys[is_knot[keys % n_steps]])

    ru = np.linalg.norm(up, axis=-1)
    z = np.einsum("sbk,ubk->usb", sp, up / ru[..., None]) - ru[:, None, :]
    zdd = np.abs(z[..., 2:] - 2.0 * z[..., 1:-1] + z[..., :-2]).max(axis=-1) / step_s**2
    span = np.diff(knots).max() * step_s
    accel, _ = geometry._screen_rates(
        fleet.orbit_bounds(), crew.orbit_bounds(), np.linalg.norm(sp[:, knots], axis=-1).max(axis=1), span
    )
    ratio = float((zdd / accel).max())
    target(ratio, label="largest |z''| / A")
    assert ratio <= 1.0


@settings(max_examples=100, deadline=None)
@example(
    sats=_jumping_records(), users=_jumping_records()[:3], n_steps=27, step_s=1.0,
    knot_every=3, start_days=0.0, min_el=25.0,
)
@given(
    sats=_orbit_records(6),
    users=_orbit_records(3),
    n_steps=st.integers(3, 150),
    step_s=st.sampled_from([1.0, 5.0, 10.0, 30.0, 60.0, 120.0]),
    knot_every=st.integers(2, 30),
    start_days=st.floats(-1.0, 1.0),
    min_el=st.one_of(st.just(0.0), st.floats(0.0, 90.0, exclude_max=True)),
)
def test_screen_keeps_every_pair_above_the_elevation_mask(
    sats, users, n_steps, step_s, knot_every, start_days, min_el
):
    # no pair that pair geometry puts at or above the elevation mask is
    # dropped by the screen, and between two knots each radius stays within
    # the sag of its values there (hypothesis reports the largest excursion
    # / sag it saw; objects without a speed bound have an infinite sag)
    from hypothesis import assume, target

    from leolink.propagation import PropagationError
    from leolink.sgp4batch import SatBatch
    from leolink.timebase import julian_date

    fleet, crew = SatBatch(sats), SatBatch(users)
    jd, fr = julian_date(datetime(2021, 3, 20, 9, 37, 29, tzinfo=timezone.utc))
    frs = fr + start_days + np.arange(n_steps) * (step_s / 86400.0)
    try:
        sp, svel = fleet.propagate_jd(jd, frs)
        up, uvel = crew.propagate_jd(jd, frs)
    except PropagationError:
        assume(False)  # a drag orbit that decays in the window
    knots = np.unique(np.r_[np.arange(0, n_steps, knot_every), n_steps - 1])
    args = (
        sp[:, knots], svel[:, knots], up[:, knots], uvel[:, knots], knots, step_s,
        fleet.orbit_bounds(), crew.orbit_bounds(), min_el,
    )
    kept = geometry.horizon_screen(*args, np.linalg.norm(up, axis=-1).max(axis=1))
    if min_el > 0.0:  # the users' radii at the knots alone do not bound c
        with pytest.raises(ValueError):
            geometry.horizon_screen(*args)
    sin_min = math.sin(math.radians(min_el))
    for p, v, keys in zip(up, uvel, kept):
        _, _, sin_el, _, _ = pair_geometry_arrays(sp, svel, p, v)
        visible = sin_el >= sin_min
        # at the mask 0 a pair on the horizon plane to rounding may fall on
        # either side (above 0 the screen lowers its floor by a margin)
        ru2 = np.sum(p * p, axis=-1)
        visible &= np.abs(np.einsum("sbk,bk->sb", sp, p) - ru2) > 1e-12 * ru2
        assert np.isin(np.flatnonzero(visible), keys).all()

    worst = 0.0
    for pos, bounds in ((sp, fleet.orbit_bounds()), (up, crew.orbit_bounds())):
        r = np.linalg.norm(pos, axis=-1)
        for k0, k1 in zip(knots[:-1], knots[1:]):
            ends, inner = r[:, [k0, k1]], r[:, k0 : k1 + 1]
            out = np.maximum(ends.min(axis=1) - inner.min(axis=1), inner.max(axis=1) - ends.max(axis=1))
            worst = max(worst, float((out / geometry._radius_sag(bounds, (k1 - k0) * step_s)).max()))
    target(worst, label="largest radius excursion / sag")
    assert worst <= 1.0


@settings(max_examples=100, deadline=None)
@example(
    sats=_jumping_records(), users=_jumping_records()[:3], n_steps=27, step_s=1.0,
    knot_every=3, start_days=0.0,
)
@given(
    sats=_orbit_records(6),
    users=_orbit_records(3),
    n_steps=st.integers(3, 150),
    step_s=st.sampled_from([1.0, 5.0, 10.0, 30.0, 60.0, 120.0]),
    knot_every=st.integers(2, 30),
    start_days=st.floats(-1.0, 1.0),
)
def test_screen_keeps_what_both_parabola_bounds_keep(
    sats, users, n_steps, step_s, knot_every, start_days
):
    # the speed pre-test drops nothing: the screen keeps exactly the steps
    # where both parabola bounds, evaluated at every step with ż from the
    # velocities, reach the horizon (and at the knots the exact cull); and
    # V bounds |ż| + D at every knot
    from hypothesis import assume

    from leolink.propagation import PropagationError
    from leolink.sgp4batch import SatBatch
    from leolink.timebase import julian_date

    fleet, crew = SatBatch(sats), SatBatch(users)
    jd, fr = julian_date(datetime(2021, 3, 20, 9, 37, 29, tzinfo=timezone.utc))
    frs = fr + start_days + np.arange(n_steps) * (step_s / 86400.0)
    try:
        sp, svel = fleet.propagate_jd(jd, frs)
        up, uvel = crew.propagate_jd(jd, frs)
    except PropagationError:
        assume(False)  # a drag orbit that decays in the window
    knots = np.unique(np.r_[np.arange(0, n_steps, knot_every), n_steps - 1])
    args = (
        sp[:, knots], svel[:, knots], up[:, knots], uvel[:, knots], knots, step_s,
        fleet.orbit_bounds(), crew.orbit_bounds(),
    )
    kept = geometry.horizon_screen(*args)
    # and the same screen taking one satellite and two knot intervals at a time
    with mock.patch.object(geometry, "_CULL_CHUNK", 32 * 2 * len(users)):
        chunked = geometry.horizon_screen(*args)
    # z = sat . û - |user| and ż = v_sat . û + sat . dû/dt - d|user|/dt,
    # (U, S, K) at the knots
    s_pos, s_vel, u_pos, u_vel = sp[:, knots], svel[:, knots], up[:, knots], uvel[:, knots]
    ru = np.linalg.norm(u_pos, axis=-1)
    uhat = u_pos / ru[..., None]
    climb = np.einsum("ukc,ukc->uk", uhat, u_vel)
    turn = (u_vel - uhat * climb[..., None]) / ru[..., None]
    dot = np.einsum("skc,ukc->usk", s_pos, u_pos)
    z = (dot - ru[:, None] ** 2) / ru[:, None]
    zdot = (
        np.einsum("skc,ukc->usk", s_vel, uhat)
        + np.einsum("skc,ukc->usk", s_pos, turn)
        - climb[:, None]
    )
    sat_r = np.linalg.norm(s_pos, axis=-1).max(axis=1)
    accel, slack = geometry._screen_rates(
        fleet.orbit_bounds(), crew.orbit_bounds(), sat_r, np.diff(knots).max() * step_s
    )
    reach = geometry._speed_bound(
        np.linalg.norm(s_vel, axis=-1).max(axis=1), sat_r,
        np.linalg.norm(turn, axis=-1).max(axis=1), np.abs(climb).max(axis=1), slack,
    )
    assert (reach[..., None] >= np.abs(zdot) + slack[..., None]).all()

    # the dense reference: the exact test at the knots, and between knots
    # z_k + (ż_k + D) h + A h^2 / 2 >= 0 and z_k+1 + (D - ż_k+1) h' + A h'^2 / 2 >= 0
    a, d = accel[..., None], slack[..., None]
    want = np.zeros((len(users), len(sats), n_steps), dtype=bool)
    want[..., knots] = dot >= ru[:, None] ** 2
    for k, (k0, k1) in enumerate(zip(knots[:-1], knots[1:])):
        after = np.arange(1, k1 - k0) * step_s
        before = (k1 - k0) * step_s - after
        fwd = z[..., k, None] + (zdot[..., k, None] + d) * after + 0.5 * a * after * after
        bwd = z[..., k + 1, None] + (d - zdot[..., k + 1, None]) * before + 0.5 * a * before * before
        want[..., k0 + 1 : k1] = (fwd >= 0.0) & (bwd >= 0.0)
    # a pair on the plane to rounding at a knot (a satellite that is the
    # user) may fall on either side there, so it is left out
    on_plane = np.zeros_like(want)
    on_plane[..., knots] = np.abs(dot - ru[:, None] ** 2) <= 1e-12 * ru[:, None] ** 2
    for w, *screens, tie in zip(want, kept, chunked, on_plane):
        for keys in screens:
            keys = np.setdiff1d(keys, np.flatnonzero(tie))
            assert np.array_equal(keys, np.flatnonzero(w & ~tie))


def test_screen_peak_memory_is_bounded_by_its_output():
    # 1,000 users against 4,000 satellites, knots two steps apart: the
    # screen works a few knots and satellites at a time, so it never holds
    # a (users, satellites) array (32 MB here), only its output and about a
    # dozen arrays of two knots by _GEMM_SIZE / 3 (user, satellite) pairs
    import tracemalloc

    from leolink.constants import MU_EARTH

    rng = np.random.default_rng(3)

    def circular(n, radius, n_knot, spread):
        # n circular orbits through random points of a cap, at n_knot instants
        pos = rng.normal(size=(n, 3)) * [spread, spread, 1.0] + [0.0, 0.0, 1.0]
        pos *= radius / np.linalg.norm(pos, axis=1, keepdims=True)
        vel = np.cross(pos, rng.normal(size=(n, 3)))
        vel *= math.sqrt(MU_EARTH / radius) / np.linalg.norm(vel, axis=1, keepdims=True)
        t = np.arange(n_knot)[None, :, None] * 20.0
        bounds = (np.full(n, radius), np.full(n, radius), np.full(n, math.sqrt(MU_EARTH / radius)))
        return pos[:, None] + vel[:, None] * t, np.repeat(vel[:, None], n_knot, axis=1), bounds

    def traced(*args):
        geometry.horizon_screen(*args)  # warmed up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            keys = geometry.horizon_screen(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return sum(k.nbytes for k in keys), peak

    sat_pos, sat_vel, sat_bounds = circular(4000, 7000.0, 2, 10.0)
    user_pos, user_vel, user_bounds = circular(1000, 6800.0, 2, 0.1)
    out, peak = traced(
        sat_pos, sat_vel, user_pos, user_vel, np.array([0, 2]), 10.0, sat_bounds, user_bounds
    )
    assert 0 < out < 1000 * 4000 * 3 * 8 // 100
    assert peak <= 2 * out + 16 * 2 * (geometry._GEMM_SIZE // 3) * 8
    # with a knot at every step (the exact cull), one product of about
    # _CULL_CHUNK floats is alive at a time: 100 users, 1,000 satellites
    # and 60 steps take three of them per satellite chunk
    sat_pos, _, _ = circular(1000, 7000.0, 60, 10.0)
    user_pos, _, _ = circular(100, 6800.0, 60, 0.1)
    out, peak = traced(sat_pos, None, user_pos, None, np.arange(60))
    assert 0 < out < 1000 * 100 * 60 * 8 // 100
    assert peak <= 2 * out + 1.5 * geometry._CULL_CHUNK * 8
