import math
from datetime import timezone, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink import geometry
from leolink.constants import EARTH_RADIUS_KM
from leolink.elements import StateVector
from leolink.geometry import (
    BeamModel,
    beam_cos_half_arrays,
    earth_limb_half_cone,
    grazing_range_km,
    horizon_candidates,
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
        cands = horizon_candidates(sp, np.stack([pos for pos, _ in users]))
        assert len(cands) == 3
        for (user_pos, user_vel), (row, step) in zip(users, cands):
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
