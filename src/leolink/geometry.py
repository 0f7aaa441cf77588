"""Relative geometry of (user, satellite) pairs and the two-sided
visibility predicate: user elevation cone against satellite beam cone.

Scalar functions implement the per-pair contract; the ``*_arrays`` kernels
are the broadcast equivalents the scenario engine runs on whole
constellations, tested for agreement with the scalar path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH_RADIUS_KM
from .elements import StateVector


@dataclass(frozen=True)
class BeamModel:
    """Satellite-side beam cone.

    Kinds: ``earth_limb`` (nadir cone closing on the visible Earth disc),
    ``ground_service`` (cone closing on the contour where ground terminals
    see the satellite at ``service_elevation`` degrees; the limb is the
    0-degree special case), and ``fixed_half_cone`` (``half_cone`` degrees,
    used for wide-beam GEO platforms).
    """

    kind: str = "earth_limb"
    half_cone: float | None = None
    service_elevation: float | None = None

    def __post_init__(self):
        if self.kind not in ("earth_limb", "fixed_half_cone", "ground_service"):
            raise ValueError(f"unknown beam kind {self.kind!r}")
        if self.kind == "fixed_half_cone":
            if self.half_cone is None or not 0.0 < self.half_cone <= 90.0:
                raise ValueError("fixed beam needs half_cone in (0, 90] degrees")
        if self.kind == "ground_service":
            if self.service_elevation is None or not 0.0 <= self.service_elevation < 90.0:
                raise ValueError("ground_service beam needs service_elevation in [0, 90) degrees")

    @property
    def nadir_factor(self) -> float:
        """cos(service elevation): scales the Earth radius in the cone law."""
        if self.kind == "earth_limb":
            return 1.0
        if self.kind == "ground_service":
            return math.cos(math.radians(self.service_elevation))
        raise ValueError("fixed beams have no nadir factor")

    @property
    def cone_params(self) -> tuple[bool, float]:
        """This beam's (nadir flag, parameter) in :func:`beam_cos_half_arrays`."""
        if self.kind == "fixed_half_cone":
            return False, math.cos(math.radians(self.half_cone))
        return True, self.nadir_factor

    def half_cone_deg(self, sat_altitude_km: float) -> float:
        if self.kind == "fixed_half_cone":
            return float(self.half_cone)
        x = self.nadir_factor * EARTH_RADIUS_KM / (EARTH_RADIUS_KM + sat_altitude_km)
        return math.degrees(math.asin(x))


@dataclass(frozen=True)
class RelativeGeometry:
    """One (user, satellite) pair at one instant.

    ``range_rate`` is positive when receding. ``user_elevation`` is the
    satellite's angle above the user's local horizontal; ``sat_off_nadir``
    the user's angle off the satellite's nadir direction. ``los_clear`` is
    true when the connecting segment misses the Earth sphere.
    """

    range_km: float
    range_rate_km_s: float
    user_elevation_deg: float
    sat_off_nadir_deg: float
    los_clear: bool


def earth_limb_half_cone(altitude_km: float) -> float:
    """Half-angle [deg] of the nadir cone just enclosing the Earth disc."""
    if altitude_km <= 0.0:
        raise ValueError("altitude must be positive")
    return math.degrees(math.asin(EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km)))


def segment_clears_earth(p1: np.ndarray, p2: np.ndarray, radius: float = EARTH_RADIUS_KM) -> bool:
    """True iff the closed segment [p1, p2] stays outside the sphere."""
    d = p2 - p1
    dd = float(d @ d)
    if dd == 0.0:
        return float(p1 @ p1) > radius * radius
    s = -float(p1 @ d) / dd
    s = min(1.0, max(0.0, s))
    closest = p1 + s * d
    return float(closest @ closest) > radius * radius


def relative_geometry(user: StateVector, sat: StateVector) -> RelativeGeometry:
    """Range, range-rate, elevation, off-nadir and LOS flag for one pair."""
    d = sat.position - user.position
    rng = float(np.linalg.norm(d))
    if rng == 0.0:
        raise ValueError("coincident positions: relative direction undefined")
    dv = sat.velocity - user.velocity
    rr = float(d @ dv) / rng

    ru = float(np.linalg.norm(user.position))
    rs = float(np.linalg.norm(sat.position))
    sin_elev = float(d @ user.position) / (rng * ru)
    cos_off = float(d @ sat.position) / (rng * rs)
    elev = math.degrees(math.asin(min(1.0, max(-1.0, sin_elev))))
    off_nadir = math.degrees(math.acos(min(1.0, max(-1.0, cos_off))))
    return RelativeGeometry(
        range_km=rng,
        range_rate_km_s=rr,
        user_elevation_deg=elev,
        sat_off_nadir_deg=off_nadir,
        los_clear=segment_clears_earth(user.position, sat.position),
    )


def is_visible(
    geom: RelativeGeometry,
    min_elevation_deg: float,
    sat_beam: BeamModel,
    sat_altitude_km: float,
) -> bool:
    """Two-sided predicate; boundary comparisons are inclusive."""
    half_cone = sat_beam.half_cone_deg(sat_altitude_km)
    return (
        geom.los_clear
        and geom.user_elevation_deg >= min_elevation_deg
        and geom.sat_off_nadir_deg <= half_cone
    )


def grazing_range_km(r1_km: float, r2_km: float, radius: float = EARTH_RADIUS_KM) -> float:
    """Longest Earth-grazing sight line between two orbital radii.

    The line of sight tangent to the Earth sphere: sqrt(r1^2 - Re^2) +
    sqrt(r2^2 - Re^2). Upper bound on any clear-LOS range between the
    shells, independent of phasing.
    """
    if r1_km < radius or r2_km < radius:
        raise ValueError("orbital radii must exceed the Earth radius")
    return math.sqrt(r1_km**2 - radius**2) + math.sqrt(r2_km**2 - radius**2)


# ---------------------------------------------------------------------------
# Broadcast kernels (engine hot path)
# ---------------------------------------------------------------------------


# Floats per dot-product chunk of the horizon cull (16 MB of float64)
_CULL_CHUNK = 1 << 21
# Multiply-adds per matrix product. OpenBLAS runs a product this small on the
# calling thread; parallelism belongs to the engine's ``threads`` option, and
# a BLAS thread pool competing with other processes stalls every product.
_GEMM_SIZE = 1 << 18


def horizon_candidates(
    sat_pos: np.ndarray, user_pos: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Conservative cull of one time block for every user: the pairs with the
    satellite at or above the user's geometric horizon plane (elevation >= 0).

    elevation >= 0  <=>  dot(sat - user, user) >= 0  <=>  dot(sat, user) >= |user|^2,
    so any pair failing this can never pass a min-elevation >= 0 test.
    sat_pos: (S, B, 3); user_pos: (U, B, 3). Returns, per user, the kept
    (row, step) index arrays in (row, step) order. The dot products are
    (U, 3) x (3, satellites) products per step, taken a few steps and
    satellites at a time so that no (B, U, S) array is built.
    """
    n_sat, n_steps, _ = sat_pos.shape
    n_user = user_pos.shape[0]
    ru2 = np.einsum("ubk,ubk->bu", user_pos, user_pos)
    width = max(1, _GEMM_SIZE // (3 * n_user))
    keys = []
    for s0 in range(0, n_sat, width):
        sats = sat_pos[s0 : s0 + width]
        n = len(sats)
        chunk = max(1, _CULL_CHUNK // (n * n_user))
        for b0 in range(0, n_steps, chunk):
            b1 = min(n_steps, b0 + chunk)
            # strided (C, U, 3) x (C, 3, n) views, multiplied without copies
            above = np.matmul(
                user_pos[:, b0:b1].transpose(1, 0, 2), sats[:, b0:b1].transpose(1, 2, 0)
            ) >= ru2[b0:b1, :, None]
            # flat index (b * U + u) * n + s
            b, us = np.divmod(np.flatnonzero(above), n_user * n)
            u, s = np.divmod(us, n)
            keys.append((u * n_sat + s0 + s) * n_steps + (b0 + b))
    # sorted keys (u * S + s) * B + b run user by user, each in (row, step) order
    keys = np.sort(np.concatenate(keys))
    per_user = n_sat * n_steps
    bounds = np.searchsorted(keys, np.arange(n_user + 1) * per_user)
    return [
        np.divmod(keys[bounds[u] : bounds[u + 1]] - u * per_user, n_steps) for u in range(n_user)
    ]


def pair_geometry_arrays(
    sat_pos: np.ndarray,
    sat_vel: np.ndarray,
    user_pos: np.ndarray,
    user_vel: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Range [km], range-rate [km/s], sin(elevation), cos(off-nadir) and the
    satellite's distance from the Earth's centre [km].

    sat arrays (..., 3), user arrays broadcastable against them.
    """
    d = sat_pos - user_pos
    rng = np.sqrt(np.einsum("...k,...k->...", d, d))
    dv = sat_vel - user_vel
    rr = np.einsum("...k,...k->...", d, dv) / rng
    ru = np.sqrt(np.einsum("...k,...k->...", user_pos, user_pos))
    rs = np.sqrt(np.einsum("...k,...k->...", sat_pos, sat_pos))
    sin_elev = np.einsum("...k,...k->...", d, user_pos) / (rng * ru)
    cos_off = np.einsum("...k,...k->...", d, sat_pos) / (rng * rs)
    return rng, rr, sin_elev, cos_off, rs


def beam_cos_half_arrays(
    nadir: np.ndarray, param: np.ndarray, sat_r_km: np.ndarray
) -> np.ndarray:
    """cos(half-cone) of each pair's satellite beam, the array form of
    :meth:`BeamModel.half_cone_deg`. Aligned per pair: ``nadir`` and
    ``param`` are the beam's :attr:`BeamModel.cone_params` (a nadir-law
    cone obeys sin(half) = param * Re / r_sat, a fixed cone has cos(half) =
    param), ``sat_r_km`` the satellite's distance from the Earth's centre."""
    nadir_cos = np.sqrt(np.maximum(0.0, 1.0 - (param * EARTH_RADIUS_KM / sat_r_km) ** 2))
    return np.where(nadir, nadir_cos, param)


def visible_mask_arrays(
    sin_elev: np.ndarray,
    cos_off: np.ndarray,
    min_elevation_deg: float,
    cos_half_cone: np.ndarray | float,
) -> np.ndarray:
    """Inclusive two-sided visibility on precomputed angle cosines.

    Valid for min_elevation >= 0 where elevation >= 0 already implies a
    clear line of sight (the segment rises away from the Earth sphere).
    """
    return (sin_elev >= math.sin(math.radians(min_elevation_deg))) & (
        cos_off >= cos_half_cone
    )
