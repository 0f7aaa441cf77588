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


def _state_bounds(pos, vel):
    """(r_lo, r_hi, v_hi) of n objects whose states are pos, vel (n, K, 3)."""
    r = np.linalg.norm(pos, axis=-1)
    return r.min(axis=1), r.max(axis=1), np.linalg.norm(vel, axis=-1).max(axis=1)


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
    u_pos, u_vel = (np.stack(part) for part in zip(*users))
    bounds = _state_bounds(sp, svl), _state_bounds(u_pos, u_vel)
    for chunk, gemm in ((geometry._CULL_CHUNK, geometry._GEMM_SIZE), (1, 3 * 3 * 7)):
        monkeypatch.setattr(geometry, "_CULL_CHUNK", chunk)
        monkeypatch.setattr(geometry, "_GEMM_SIZE", gemm)
        # the screen with a knot at every step is the exact cull
        keys = _screen(sp, None, u_pos, None, np.arange(4), 1.0, *bounds, 0.0, bounds[1][1])
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


def _screen(*args):
    """The keys of geometry.horizon_screen(*args), all users' in one
    ascending array, split per user as keys row * B + step."""
    keys = geometry.horizon_screen(*args)
    assert np.all(np.diff(keys) > 0)
    per_user = len(args[0]) * (int(args[4][-1]) + 1)  # satellites x steps
    user, rest = np.divmod(keys, per_user)
    return [rest[user == u] for u in range(len(args[2]))]


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


@st.composite
def _beams(draw, n):
    """Beams of n satellites as the screen takes them, (nadir, param,
    group), each (n,): up to three beam groups, each of one kind, the limb,
    a ground-service cone (0 degrees included) or a fixed cone up to 90
    degrees (whose edge misses a user's sphere where r_s sin h >= r_u)."""
    kinds = draw(st.lists(st.one_of(
        st.just(BeamModel("earth_limb")),
        st.builds(lambda e: BeamModel("ground_service", service_elevation=e),
                  st.one_of(st.just(0.0), st.floats(0.0, 90.0, exclude_max=True))),
        st.builds(lambda h: BeamModel("fixed_half_cone", half_cone=h),
                  st.one_of(st.just(90.0), st.floats(0.0, 90.0, exclude_min=True))),
    ), min_size=1, max_size=3))
    group = np.array(draw(st.lists(st.integers(0, len(kinds) - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
    nadir, param = (np.array(col)[group] for col in zip(*(b.cone_params for b in kinds)))
    return nadir, param, group


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
    # no pair that passes the exact horizon test is dropped by the screen
    from hypothesis import assume, note

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
    kept = _screen(
        sp[:, knots], svel[:, knots], up[:, knots], uvel[:, knots], knots, step_s,
        fleet.orbit_bounds(), crew.orbit_bounds(), 0.0, np.linalg.norm(up, axis=-1).max(axis=1),
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
    kept = _screen(
        sp[:, knots], svel[:, knots], up[:, knots], uvel[:, knots], knots, step_s,
        fleet.orbit_bounds(), crew.orbit_bounds(), min_el, np.linalg.norm(up, axis=-1).max(axis=1),
    )
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
@given(
    sats=_orbit_records(6),
    users=_orbit_records(3),
    n_steps=st.integers(3, 150),
    step_s=st.sampled_from([1.0, 5.0, 10.0, 30.0, 60.0, 120.0]),
    knot_every=st.integers(2, 30),
    start_days=st.floats(-1.0, 1.0),
    min_el=st.one_of(st.just(0.0), st.floats(0.0, 90.0, exclude_max=True)),
    beams=_beams(6),
)
def test_screen_with_beams_keeps_every_visible_pair(
    sats, users, n_steps, step_s, knot_every, start_days, min_el, beams
):
    # given the satellites' beams, of every kind, the screen still keeps
    # every pair that the two-sided predicate accepts: at or above the
    # elevation mask and inside the satellite's beam (hypothesis reports the
    # most such pairs it saw)
    from hypothesis import target

    fleet, crew, _, _, (sp, svel), (up, uvel) = _dense_states(sats, users, n_steps, step_s, start_days)
    knots = np.unique(np.r_[np.arange(0, n_steps, knot_every), n_steps - 1])
    kept = _screen(
        sp[:, knots], svel[:, knots], up[:, knots], uvel[:, knots], knots, step_s,
        fleet.orbit_bounds(), crew.orbit_bounds(), min_el, np.linalg.norm(up, axis=-1).max(axis=1),
        beams,
    )
    visible = 0
    for p, v, keys in zip(up, uvel, kept):
        _, _, sin_el, cos_off, sat_r = pair_geometry_arrays(sp, svel, p, v)
        cos_half = beam_cos_half_arrays(beams[0][:, None], beams[1][:, None], sat_r)
        seen = visible_mask_arrays(sin_el, cos_off, min_el, cos_half)
        # at the mask 0 a pair on the horizon plane to rounding may fall on
        # either side (above 0 the screen lowers its floor by a margin)
        ru2 = np.sum(p * p, axis=-1)
        seen &= np.abs(np.einsum("sbk,bk->sb", sp, p) - ru2) > 1e-12 * ru2
        assert np.isin(np.flatnonzero(seen), keys).all()
        visible += int(seen.sum())
    target(float(visible), label="visible pairs")


@settings(max_examples=100, deadline=None)
@given(
    sats=_orbit_records(6),
    users=_orbit_records(3),
    n_steps=st.integers(3, 150),
    step_s=st.sampled_from([1.0, 5.0, 10.0, 30.0, 60.0]),
    start_days=st.floats(-1.0, 1.0),
)
def test_upward_bound_holds_within_its_central_angle(sats, users, n_steps, step_s, start_days):
    # on near-earth records: over two steps, the second difference of z is
    # at most the A (geometry._curvature) of the largest central angle at
    # the three steps plus Ω times a step, which bounds the angle between
    # them (hypothesis reports the largest z'' - A [km/s^2] it saw)
    from hypothesis import assume, target

    sats = [r for r in sats if r.method == "n"]
    users = [r for r in users if r.method == "n"]
    assume(sats and users)
    fleet, crew, _, _, (sp, _), (up, _) = _dense_states(sats, users, n_steps, step_s, start_days)
    ru, rs = np.linalg.norm(up, axis=-1), np.linalg.norm(sp, axis=-1)
    uhat = up / ru[..., None]
    z = np.einsum("sbk,ubk->usb", sp, uhat) - ru[:, None, :]
    zdd = (z[..., 2:] - 2.0 * z[..., 1:-1] + z[..., :-2]) / step_s**2
    angle = np.arccos(np.clip(np.einsum("sbk,ubk->usb", sp / rs[..., None], uhat), -1.0, 1.0))
    _, rate = geometry.mask_reach(fleet.orbit_bounds(), crew.orbit_bounds(), ru.min(), 0.0)
    widest = np.maximum(np.maximum(angle[..., 2:], angle[..., 1:-1]), angle[..., :-2])
    widest += rate[:, None] * step_s
    sat_bounds = [b[:, None] for b in fleet.orbit_bounds()]
    user_bounds = [b[:, None, None] for b in crew.orbit_bounds()]
    sat_r = rs.max(axis=1)[:, None]
    upward, _ = geometry._curvature(sat_bounds, user_bounds, sat_r, step_s, np.cos(widest))
    bounded = np.isfinite(upward)
    worst = float((zdd - upward)[bounded].max(initial=-1.0))
    target(worst, label="largest z'' - A")
    assert worst <= 0.0


def test_an_interval_without_a_curvature_bound_is_kept_whole():
    # A (geometry._curvature) has no bound where the central angle may reach
    # 90 degrees over the interval (row 0, 40 degrees from the user at both
    # knots, below the horizon there) or where the satellite has no r_hi
    # (row 1, 3 degrees away and falling fast at the first knot, rising at
    # the last): the screen keeps every step strictly between the knots.
    # Row 2 is row 1 with an r_hi, whose A is 0 there, and keeps none.
    knots, step_s = np.array([0, 20]), 60.0
    angle = np.radians([40.0, 3.0, 3.0])
    pos = 7000.0 * np.stack([np.cos(angle), np.sin(angle), np.zeros(3)], axis=1)
    sat_vel = np.zeros((3, 2, 3))
    sat_vel[:, :, 0] = [-5.0, 5.0]  # ż at the two knots, the user being still
    sat_bounds = (np.full(3, 6990.0), np.array([7010.0, np.inf, 7010.0]), np.full(3, 7.5))
    user_pos = np.zeros((1, 2, 3))
    user_pos[..., 0] = 6800.0
    user_bounds = (np.array([6790.0]), np.array([6810.0]), np.array([1e-3]))
    (kept,) = _screen(
        np.repeat(pos[:, None], 2, axis=1), sat_vel, user_pos, np.zeros((1, 2, 3)), knots, step_s,
        sat_bounds, user_bounds, 0.0, np.array([6800.0]),
    )
    row, step = np.divmod(kept, 21)
    between = np.arange(1, 20)
    assert np.array_equal(step[row == 0], between)
    assert np.array_equal(step[row == 1], np.r_[0, between, 20])
    assert np.array_equal(step[row == 2], [0, 20])


@settings(max_examples=200, deadline=None)
@given(
    g0=st.floats(0.0, math.pi),
    g1=st.floats(0.0, math.pi),
    turn=st.one_of(st.floats(0.0, 10.0), st.just(math.inf)),
)
def test_far_cos_is_a_lower_bound_that_stops_at_a_right_angle(g0, g1, turn):
    # the screen's cos γ_max, γ_max = min(γ0, γ1) + turn, from the knots'
    # cosines: at most cos γ_max, and at most 0 (no bound) from pi / 2 on
    far = float(geometry._far_cos(np.cos(g0), np.cos(g1), np.float64(turn)))
    widest = min(g0, g1) + turn
    assert far <= max(math.cos(min(widest, math.pi)), 0.0) + 1e-12


@settings(max_examples=100, deadline=None)
@example(
    sats=_jumping_records(), users=_jumping_records()[:3], n_steps=27, step_s=1.0,
    knot_every=3, start_days=0.0, beams=None,
)
@given(
    sats=_orbit_records(6),
    users=_orbit_records(3),
    n_steps=st.integers(3, 150),
    step_s=st.sampled_from([1.0, 5.0, 10.0, 30.0, 60.0, 120.0]),
    knot_every=st.integers(2, 30),
    start_days=st.floats(-1.0, 1.0),
    beams=st.none() | _beams(6),
)
def test_screen_keeps_what_both_parabola_bounds_keep(
    sats, users, n_steps, step_s, knot_every, start_days, beams
):
    # the screen keeps exactly the steps where both parabola bounds,
    # evaluated at every step with ż from the velocities, reach the horizon
    # (and at the knots the exact cull), of the triples within the cap,
    # with or without the satellites' beams
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
        fleet.orbit_bounds(), crew.orbit_bounds(), 0.0,
        np.linalg.norm(up[:, knots], axis=-1).max(axis=1),
    )
    kept = _screen(*args, beams)
    # and the same screen taking one user and so few candidates at a time
    with mock.patch.object(geometry, "_CULL_CHUNK", 32 * 2 * len(users)):
        chunked = _screen(*args, beams)
    want, tie = _dense_screen(*args, beams)
    for w, *screens, t in zip(want, kept, chunked, tie):
        for keys in screens:
            keys = np.setdiff1d(keys, np.flatnonzero(t))
            assert np.array_equal(keys, np.flatnonzero(w & ~t))


def _dense_screen(s_pos, s_vel, u_pos, u_vel, knots, step_s, sat_bounds, user_bounds, min_el,
                  user_r_max, beams=None):
    """The dense reference of the horizon screen with knots apart: (want,
    tie), each (U, S, B). want holds the exact test z - c >= 0 at the
    knots, with c the tighter of the mask's and the beam's floor, and
    between knots k and k+1 the steps where
    z_k + (ż_k + D) h + A h^2 / 2 >= 0 and z_k+1 + (D - ż_k+1) h' + A h'^2 / 2 >= 0,
    with A and D the interval's (geometry._curvature), both only where the
    cap keeps the pair (_near_steps). tie
    marks the knot steps where z is c to rounding (a satellite that is the
    user, or one on the mask), which may fall on either side."""
    # z = sat . û - |user| and ż = v_sat . û + sat . dû/dt - d|user|/dt,
    # (U, S, K) at the knots
    n_steps = knots[-1] + 1
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
    span = np.diff(knots).max() * step_s
    with np.errstate(invalid="ignore"):  # the absent knots
        rs = np.linalg.norm(s_pos, axis=-1)
        sat_low = np.maximum(sat_bounds[0], np.nanmin(rs, axis=1) - geometry._radius_sag(sat_bounds, span))
        sat_r = np.nanmax(rs, axis=1)
    # the beam's floor lift cos_phi[u, g] + base[u, g] (geometry._beam_floor_terms)
    u_min = _least_radius(u_pos, user_bounds, span)
    beam, _, _, groups = geometry._beam_reach(beams, sat_bounds[1], u_min)
    cos_phi, base = geometry._beam_floor_terms(*groups, u_min, user_r_max)
    lift = np.sqrt(np.maximum(sat_low * sat_low - groups[0][beam] ** 2, 0.0))
    floor = np.maximum(
        lift * cos_phi[:, beam] + base[:, beam] - (1e-9 * sat_low + 1e-6),
        geometry._elevation_floor(user_r_max[:, None], sat_low, min_el),
    )[..., None]
    # each interval's A, within the central angle of its knots plus the
    # angle both can turn over it
    (s_lo, _, s_v), (u_lo, _, u_v) = sat_bounds, user_bounds
    turn = (1.0 + geometry._VELOCITY_SLACK) * (s_v / s_lo + (u_v / u_lo)[:, None])
    cos = (z + ru[:, None]) / rs
    far = geometry._far_cos(cos[..., :-1], cos[..., 1:], turn[..., None] * (np.diff(knots) * step_s))
    accel, d = geometry._curvature(
        [b[:, None] for b in sat_bounds], [b[:, None, None] for b in user_bounds], sat_r[:, None],
        span, far,
    )
    want = np.zeros((len(u_pos), len(s_pos), n_steps), dtype=bool)
    want[..., knots] = z - floor >= 0.0
    for k, (k0, k1) in enumerate(zip(knots[:-1], knots[1:])):
        a = accel[..., k, None]
        after = np.arange(1, k1 - k0) * step_s
        before = (k1 - k0) * step_s - after
        fwd = z[..., k, None] - floor + (zdot[..., k, None] + d) * after + 0.5 * a * after * after
        bwd = z[..., k + 1, None] - floor + (d - zdot[..., k + 1, None]) * before + 0.5 * a * before * before
        want[..., k0 + 1 : k1] = (fwd >= 0.0) & (bwd >= 0.0)
    want &= _near_steps(s_pos, u_pos, knots, step_s, sat_bounds, user_bounds, min_el, beams)
    tie = np.zeros_like(want)
    tie[..., knots] = np.abs(z - floor) <= 1e-12 * ru[:, None]
    return want, tie


def _least_radius(u_pos, user_bounds, span):
    """Each user's least radius over the block, from its knots and radius sag."""
    ru = np.linalg.norm(u_pos, axis=-1)
    return np.maximum(user_bounds[0], ru.min(axis=1) - geometry._radius_sag(user_bounds, span))


def _near_steps(s_pos, u_pos, knots, step_s, sat_bounds, user_bounds, min_el, beams=None):
    """(U, S, B) bool, the steps of each pair that the screen's cap keeps:
    the steps of each (interval, user, satellite) triple whose central angle
    at either knot is at most min(Θ, Θ_b) + Ω H / 2 + margin, Θ and the
    beam's Θ_b from the user's least radius over the block, and the knots
    next to such a triple. An absent (NaN) knot is never near."""
    n_steps = knots[-1] + 1
    span = np.diff(knots).max() * step_s
    ru = np.linalg.norm(u_pos, axis=-1)
    rs = np.linalg.norm(s_pos, axis=-1)
    cos = np.einsum("skc,ukc->usk", s_pos / rs[..., None], u_pos / ru[..., None])
    angle = np.arccos(np.clip(cos, -1.0, 1.0))
    (s_lo, s_hi, s_v), (u_lo, _, u_v) = sat_bounds, user_bounds
    u_min = _least_radius(u_pos, user_bounds, span)
    beam, reach, drop, _ = geometry._beam_reach(beams, s_hi, u_min)
    cap = geometry._mask_angle(u_min[:, None], s_hi, math.radians(min_el))
    cap = np.minimum(cap, reach[:, beam] - drop) + geometry._CAP_MARGIN
    cap += (1.0 + geometry._VELOCITY_SLACK) * 0.5 * span * (s_v / s_lo + (u_v / u_lo)[:, None])
    with np.errstate(invalid="ignore"):
        at_knot = angle <= cap[..., None]
    interval = at_knot[..., :-1] | at_knot[..., 1:]
    near = np.zeros(cap.shape + (n_steps,), dtype=bool)
    for j, (k0, k1) in enumerate(zip(knots[:-1], knots[1:])):
        near[..., k0 : k1 + 1] |= interval[..., j, None]
    return near


@st.composite
def _sky_states(draw, n, n_knot, radius, absent, crowd=0):
    """n objects, and ``crowd`` more, at n_knot knots: (pos, vel, bounds).
    The n have directions at the poles, at right ascension +-pi or
    anywhere; the crowd is spread over the sphere and bunched near the
    poles and near right ascension +-pi, enough per shell for the cells to
    bin right ascension. Each object lies on one of up to three shells of
    radius in ``radius`` [km], within 1e-4 of it, moves at up to 10 km/s,
    and has bounds that hold at the knots (v_hi infinite on some shells, as
    for deep-space rows); if ``absent``, objects are NaN at some knots but
    the first."""
    count = n + crowd
    edge = st.one_of(
        st.sampled_from([(math.pi / 2, 0.0), (-math.pi / 2, 0.0)]),
        st.tuples(st.floats(-math.pi / 2, math.pi / 2), st.sampled_from([math.pi, -math.pi])),
        st.tuples(st.floats(-math.pi / 2, math.pi / 2), st.floats(-math.pi, math.pi)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dec = rng.uniform(-1.0, 1.0, (count, n_knot))
    dec = np.arcsin(dec)
    ra = rng.uniform(-math.pi, math.pi, (count, n_knot))
    side = rng.integers(0, 4, (count, n_knot))
    near = np.abs(rng.normal(0.0, 0.05, (count, n_knot)))
    dec = np.where(side == 0, math.pi / 2 - near, np.where(side == 1, near - math.pi / 2, dec))
    ra = np.where(side == 2, math.pi - near, np.where(side == 3, near - math.pi, ra))
    if n:
        dec[:n], ra[:n] = np.moveaxis(np.array(draw(st.lists(edge, min_size=n * n_knot,
                                                             max_size=n * n_knot))), 1, 0).reshape(2, n, n_knot)
    shells = np.array(draw(st.lists(st.floats(*radius), min_size=1, max_size=3)))
    deep = np.array(draw(st.lists(st.booleans(), min_size=len(shells), max_size=len(shells))))
    shell = rng.integers(0, len(shells), count)
    r = shells[shell, None] * (1.0 + rng.uniform(-1e-4, 1e-4, (count, n_knot)))
    pos = np.stack([np.cos(dec) * np.cos(ra), np.cos(dec) * np.sin(ra), np.sin(dec)], axis=-1)
    pos *= r[..., None]
    vel = rng.normal(size=(count, n_knot, 3)) * draw(st.floats(0.0, 10.0 / math.sqrt(3)))
    speed = np.linalg.norm(vel, axis=-1).max(axis=1, initial=0.0) + 1.0
    bounds = (r.min(axis=1, initial=np.inf) * 0.999, r.max(axis=1, initial=0.0) * 1.001,
              np.where(deep[shell], np.inf, speed))
    if absent and n_knot > 1:
        gone = rng.random((count, n_knot - 1)) < draw(st.sampled_from([0.0, 0.3]))
        pos[:, 1:][gone] = vel[:, 1:][gone] = np.nan
    return pos, vel, bounds


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n_sat=st.integers(0, 6),
    crowd=st.sampled_from([0, 400]),
    n_user=st.integers(1, 3),
    gaps=st.lists(st.integers(1, 8), min_size=1, max_size=4).filter(lambda g: max(g) > 1),
    step_s=st.sampled_from([1.0, 10.0, 60.0, 600.0]),
    min_el=st.one_of(st.just(0.0), st.floats(0.0, 90.0, exclude_max=True), st.just(89.99)),
    small_chunk=st.booleans(),
    with_beams=st.booleans(),
)
def test_screen_keys_equal_the_dense_reference_on_cell_edge_cases(
    data, n_sat, crowd, n_user, gaps, step_s, min_el, small_chunk, with_beams
):
    # the cells drop no near triple: at directions on the poles and at right
    # ascension +-pi, for caps from below 0 (a mask near 90) to above 90
    # degrees and infinite (no speed bound), with absent knots, no
    # satellites, one user and the satellites' beams or none, the screen's
    # keys are the dense reference's
    knots = np.cumsum([0] + gaps)
    sat_pos, sat_vel, sat_bounds = data.draw(
        _sky_states(n_sat, len(knots), (EARTH_RADIUS_KM + 200.0, 50000.0), True, crowd)
    )
    user_pos, user_vel, user_bounds = data.draw(
        _sky_states(n_user, len(knots), (EARTH_RADIUS_KM + 100.0, 45000.0), False)
    )
    user_r_max = np.linalg.norm(user_pos, axis=-1).max(axis=1)
    beams = data.draw(_beams(len(sat_pos))) if with_beams else None
    args = (sat_pos, sat_vel, user_pos, user_vel, knots, step_s, sat_bounds, user_bounds, min_el,
            user_r_max, beams)
    with mock.patch.object(geometry, "_CULL_CHUNK", 32 if small_chunk else geometry._CULL_CHUNK):
        kept = _screen(*args)
    assert len(kept) == n_user
    want, tie = _dense_screen(*args)
    for w, keys, t in zip(want, kept, tie):
        assert np.all(np.diff(keys) > 0)
        keys = np.setdiff1d(keys, np.flatnonzero(t))
        assert np.array_equal(keys, np.flatnonzero(w & ~t))


def _dense_states(sats, users, n_steps, step_s, start_days):
    """Both batches, the Julian date and the step instants, and the
    satellites' and users' (pos, vel) at every step; the example is
    rejected if an orbit with drag decays in the window."""
    from hypothesis import assume

    from leolink.propagation import PropagationError
    from leolink.sgp4batch import SatBatch
    from leolink.timebase import julian_date

    fleet, crew = SatBatch(sats), SatBatch(users)
    jd, fr = julian_date(datetime(2021, 3, 20, 9, 37, 29, tzinfo=timezone.utc))
    frs = fr + start_days + np.arange(n_steps) * (step_s / 86400.0)
    try:
        return fleet, crew, jd, frs, fleet.propagate_jd(jd, frs), crew.propagate_jd(jd, frs)
    except PropagationError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(
    sats=_orbit_records(6),
    users=_orbit_records(3),
    n_steps=st.integers(2, 150),
    step_s=st.sampled_from([1.0, 5.0, 10.0, 30.0, 60.0, 120.0]),
    start_days=st.floats(-1.0, 1.0),
    min_el=st.one_of(st.just(0.0), st.floats(0.0, 90.0, exclude_max=True)),
    beams=_beams(6),
)
def test_mask_reach_bounds_the_central_angle(
    sats, users, n_steps, step_s, start_days, min_el, beams
):
    # for near-earth users: between any two steps the central angle θ from
    # a satellite to a user moves by at most Ω times the time between
    # them (hypothesis reports the largest move / Ω Δt it saw), every
    # pair at or above the elevation mask has θ <= Θ, and, given the
    # satellites' beams, every pair that is also inside the beam has θ <=
    # that Θ (hypothesis reports the most visible pairs it saw)
    from hypothesis import assume, target

    users = [r for r in users if r.method == "n"]
    assume(users)
    fleet, crew, _, _, (sp, svel), (up, uvel) = _dense_states(sats, users, n_steps, step_s, start_days)
    r_u = np.linalg.norm(up, axis=-1)
    reach, rate = geometry.mask_reach(fleet.orbit_bounds(), crew.orbit_bounds(), r_u.min(), min_el)
    shat = sp / np.linalg.norm(sp, axis=-1, keepdims=True)
    theta = np.arccos(np.clip(np.einsum("sbk,ubk->usb", shat, up / r_u[..., None]), -1.0, 1.0))
    # every pair of steps, through the largest move of θ over each span
    moved = max(
        float((np.abs(theta[..., lag:] - theta[..., :-lag]) / (rate[:, None] * lag * step_s)).max())
        for lag in range(1, n_steps)
    )
    target(moved, label="largest move of θ / Ω Δt")
    assert moved <= 1.0
    beam_reach, _ = geometry.mask_reach(
        fleet.orbit_bounds(), crew.orbit_bounds(), r_u.min(), min_el, beams
    )
    assert (beam_reach <= reach).all()
    sin_min = math.sin(math.radians(min_el))
    visible = 0
    for u, (p, v) in enumerate(zip(up, uvel)):
        _, _, sin_el, cos_off, sat_r = pair_geometry_arrays(sp, svel, p, v)
        s, b = np.nonzero(sin_el >= sin_min)
        assert (theta[u, s, b] <= reach[s]).all()
        cos_half = beam_cos_half_arrays(beams[0][:, None], beams[1][:, None], sat_r)
        s, b = np.nonzero(visible_mask_arrays(sin_el, cos_off, min_el, cos_half))
        assert (theta[u, s, b] <= beam_reach[s]).all()
        visible += len(s)
    target(float(visible), label="visible pairs")


@settings(max_examples=100, deadline=None)
@given(
    sats=_orbit_records(8),
    n_steps=st.integers(2, 150),
    step_s=st.sampled_from([1.0, 10.0, 60.0, 600.0]),
    knot_every=st.integers(1, 30),
    start_days=st.floats(-3.0, 3.0),
)
def test_mean_directions_stay_within_their_margin(sats, n_steps, step_s, knot_every, start_days):
    # for the records that cannot fail, at knots like the engine's (evenly
    # spaced but for the last) within 3 days of epoch: the angle from each
    # predicted direction to the batch position's is at most the record's
    # margin (hypothesis reports the largest angle / margin it saw)
    from hypothesis import assume, target

    from leolink.sgp4batch import SatBatch

    rows = np.flatnonzero(~SatBatch(sats).may_fail)
    assume(len(rows))
    knots = np.unique(np.r_[np.arange(0, n_steps, knot_every), n_steps - 1])
    fleet, _, jd, frs, (sp, _), _ = _dense_states(
        [sats[r] for r in rows], sats[:1], n_steps, step_s, start_days
    )
    dirs, margin = fleet.mean_directions(jd, frs[knots], np.arange(len(rows)))
    dirs = dirs.transpose(2, 0, 1)
    pos = sp[:, knots]
    # atan2 keeps small angles exact, where arccos of a dot product does not
    angle = np.arctan2(
        np.linalg.norm(np.cross(pos, dirs), axis=-1), np.einsum("skc,skc->sk", pos, dirs)
    )
    worst = float((angle / margin[:, None]).max())
    target(worst, label="largest angle / margin")
    assert worst <= 1.0
    assert np.allclose(np.linalg.norm(dirs, axis=-1), 1.0, rtol=0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    sats=_orbit_records(6),
    users=_orbit_records(3),
    n_steps=st.integers(3, 150),
    step_s=st.sampled_from([1.0, 5.0, 10.0, 30.0, 60.0, 120.0]),
    knot_every=st.integers(1, 30),
    start_days=st.floats(-1.0, 1.0),
    min_el=st.one_of(st.just(0.0), st.floats(0.0, 90.0, exclude_max=True)),
)
def test_screen_with_skipped_knots_keeps_every_pair_above_the_mask(
    sats, users, n_steps, step_s, knot_every, start_days, min_el
):
    # the engine's knot plan takes each satellite only at the knots next to
    # an interval where some user may see it, the first knot included,
    # gathered at the states a dense call gives; the screen on those knots
    # (NaN elsewhere), of the satellites taken at some knot, still keeps
    # every pair that pair geometry puts at or above the elevation mask
    # (hypothesis reports the most such pairs it saw after a skipped knot
    # of their satellite; a deep-space user, with no speed bound, would skip
    # none). The plan is kept for any share of cleared rows, not only where
    # it pays.
    from hypothesis import assume, target

    from leolink import engine

    users = [r for r in users if r.method == "n"]
    assume(users)
    fleet, crew, jd, frs, (sp, svel), (up, uvel) = _dense_states(
        sats, users, n_steps, step_s, start_days
    )
    knots = np.unique(np.r_[np.arange(0, n_steps, knot_every), n_steps - 1])
    r_u = np.linalg.norm(up, axis=-1)
    reach, rate = geometry.mask_reach(fleet.orbit_bounds(), crew.orbit_bounds(), r_u.min(), min_el)
    span = float(np.diff(knots).max()) * step_s
    ends = []  # each knot, whether the plan predicts each row far from every user

    def far(*args):
        ends.append(geometry.mask_clear(*args))
        return ends[-1]

    with mock.patch.object(engine, "_CLEAR_SHARE", 0.0), mock.patch.object(engine, "mask_clear", far):
        taken = engine._knot_plan(
            fleet, fleet.may_fail, jd, frs, knots, span, up[:, knots], reach, rate
        )
    # rows that may fail are taken at every knot; a row that cannot fail, at
    # a knot exactly where an interval next to it (one at the first and the
    # last knot) is not cleared, far at both its knots
    assert taken[fleet.may_fail].all()
    ends = np.concatenate(ends)
    clear = ends[:-1] & ends[1:]
    for j in range(len(knots)):
        assert np.array_equal(taken[~fleet.may_fail, j], ~clear[max(j - 1, 0) : j + 1].all(axis=0))
    row, knot = np.nonzero(taken)
    p, v = fleet.propagate_pairs(jd, frs, row, knots[knot])
    assert np.array_equal(p, sp[:, knots][taken])
    assert np.array_equal(v, svel[:, knots][taken])
    pos, vel = np.full((2, len(sats), len(knots), 3), np.nan)
    pos[taken], vel[taken] = p, v
    # the first skipped knot of each satellite, or none
    first_skip = np.where(taken.all(axis=1), n_steps, knots[np.argmin(taken, axis=1)])
    live = np.flatnonzero(taken.any(axis=1))
    kept = _screen(
        pos[live], vel[live], up[:, knots], uvel[:, knots], knots, step_s,
        [b[live] for b in fleet.orbit_bounds()], crew.orbit_bounds(), min_el, r_u.max(axis=1),
    )
    sin_min = math.sin(math.radians(min_el))
    after_skip = 0
    for p, v, keys in zip(up, uvel, kept):
        keys = live[keys // n_steps] * n_steps + keys % n_steps
        _, _, sin_el, _, _ = pair_geometry_arrays(sp, svel, p, v)
        visible = sin_el >= sin_min
        # at the mask 0 a pair on the horizon plane to rounding may fall on
        # either side (above 0 the screen lowers its floor by a margin)
        ru2 = np.sum(p * p, axis=-1)
        visible &= np.abs(np.einsum("sbk,bk->sb", sp, p) - ru2) > 1e-12 * ru2
        assert np.isin(np.flatnonzero(visible), keys).all()
        after_skip += int((visible & (np.arange(n_steps) > first_skip[:, None])).sum())
    target(float(after_skip), label="visible pairs after a skipped knot")


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
        sat_pos, sat_vel, user_pos, user_vel, np.array([0, 2]), 10.0, sat_bounds, user_bounds, 0.0,
        np.linalg.norm(user_pos, axis=-1).max(axis=1),
    )
    assert 0 < out < 1000 * 4000 * 3 * 8 // 100
    assert peak <= 2 * out + 16 * 2 * (geometry._GEMM_SIZE // 3) * 8
    # with a knot at every step (the exact cull), one product of about
    # _CULL_CHUNK floats is alive at a time: 100 users, 1,000 satellites
    # and 60 steps take three of them per satellite chunk
    sat_pos, _, sat_bounds = circular(1000, 7000.0, 60, 10.0)
    user_pos, _, user_bounds = circular(100, 6800.0, 60, 0.1)
    out, peak = traced(
        sat_pos, None, user_pos, None, np.arange(60), 10.0, sat_bounds, user_bounds, 0.0,
        np.linalg.norm(user_pos, axis=-1).max(axis=1),
    )
    assert 0 < out < 1000 * 100 * 60 * 8 // 100
    assert peak <= 2 * out + 1.5 * geometry._CULL_CHUNK * 8
