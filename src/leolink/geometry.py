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

from .constants import EARTH_RADIUS_KM, MU_EARTH
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


# Floats per dot-product chunk of the horizon screen (16 MB of float64). Between
# knots the screen takes all of a block's knots for a satellite tile of 1/32
# of this size and keeps a few arrays of the tile's shape. On the LEO rows of
# the population_mc block (110 users, 11 knots, 5,124 satellites; 2-vCPU host,
# October 2026), tiles of 1/64, 1/32, 1/16 and 1/8 took 200, 174, 181 and
# 200 ms, and the screen's peak (tracemalloc) was 6.6, 7.2, 7.4 and 12.8 MB.
_CULL_CHUNK = 1 << 21
# Multiply-adds per matrix product. OpenBLAS runs a product this small on the
# calling thread; parallelism belongs to the engine's ``threads`` option, and
# a BLAS thread pool competing with other processes stalls every product.
_GEMM_SIZE = 1 << 18
# Relative margin on the accelerations in the screen's bound on |z''|: the
# non-Keplerian forces of SGP4 (J2 is below 0.4% of gravity). On the orbits
# that RADIUS_MARGIN was measured on, the batch positions' acceleration came
# to at most 0.6% above mu / r_p^2, which r_lo alone already covers.
_ACCEL_MARGIN = 0.01
# SGP4's velocity is not exactly the rate of its position: on the orbits of
# RADIUS_MARGIN, |velocity - d(position)/dt| was at most 2.7e-4 of the
# fastest speed (largest for eccentric deep-space orbits), and the
# resonance integrator's 720-minute steps kink the velocity by at most
# 5e-6 km/s. The screen widens each horizon rate by this share of speed.
_VELOCITY_SLACK = 1e-3


def horizon_screen(
    sat_pos: np.ndarray,
    sat_vel: np.ndarray | None,
    user_pos: np.ndarray,
    user_vel: np.ndarray | None,
    knots: np.ndarray,
    step_s: float = 0.0,
    sat_bounds: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    user_bounds: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    min_elevation_deg: float = 0.0,
    user_r_max: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Conservative elevation cull of one time block for every user, from
    exact states at knot steps only.

    A pair (user u, satellite s) is kept at a step if the satellite may be
    at or above the user's elevation mask e = ``min_elevation_deg``. With
    z = dot(sat, û) - |user|, the satellite's height above the user's
    horizon plane, elevation >= e holds exactly when z >= c(|user|, |sat|)
    (:func:`_elevation_floor`), and c is 0 at e = 0:

        elevation >= 0  <=>  dot(sat, user) >= |user|^2  <=>  z >= 0.

    c rises with |sat| and falls with |user|, so the screen takes one c per
    pair, from the user's largest radius over the block's steps and the
    satellite's least radius between knots (:func:`_radius_sag`), and tests
    z - c >= 0. At a knot the test is exact for that c. Between knots k and
    k+1, h after knot k and h' = H - h before knot k+1, z - c is at most

        z_k - c + (ż_k + D) h + A h^2 / 2   and   z_k+1 - c + (D - ż_k+1) h' + A h'^2 / 2,

    where A bounds |z''| and D the gap between SGP4's velocity and the rate
    of its position (``_screen_rates``). A speed pre-test first drops the
    intervals where the two bounds cannot both reach c at any step
    (``_speed_test``), before ż is formed. Both bounds are convex
    parabolas, so their ends decide each remaining interval; only surviving
    intervals are tested step by step. With a knot at every step this is
    the exact cull for c.

    sat_pos, sat_vel: (S, K, 3) at the knots; user_pos, user_vel: (U, K, 3)
    at the knots; knots: (K,) ascending steps of the block, the first 0 and
    the last the block's last step; step_s: the step [s]; sat_bounds and
    user_bounds: each object's (r_lo, r_hi, v_hi) from
    :meth:`SatBatch.orbit_bounds`; an infinite v_hi (no bound) keeps every
    pair with that object at every step. A satellite's state may be NaN at
    any knot but the first, where the engine's knot plan has cleared both
    intervals next to it (no user can see the satellite there): that knot
    is then absent, and neither it nor an interval it ends is tested, nor
    enters the satellite's radii and speeds. With no satellites (S = 0) it
    keeps no pair. Velocities and user_bounds are read only if some knots
    are more than one step apart; sat_bounds, if given, narrow c.
    user_r_max: (U,) each user's largest radius over the block's steps
    [km], needed for a mask above 0 if some knots are more than one step
    apart, else the largest at the knots. Returns, per user,
    the kept pairs as keys row * B + step, ascending (in (row, step) order).
    The products are (U, 3) x (3, satellites) per knot. With a knot at every
    step they are taken a few knots and satellites at a time; else all the
    knots of a satellite tile at once, so each knot's product is made once
    (a few knots at a time only where one satellite's knots overrun the
    tile). They, c and the bounds A, D and V cover at most ``_GEMM_SIZE``
    / 3 (user, satellite) pairs at once, so no (U, S) array is built.
    """
    n_sat, n_knot, _ = sat_pos.shape
    n_user = user_pos.shape[0]
    if n_sat == 0:
        return [np.zeros(0, dtype=np.int64) for _ in range(n_user)]
    knots = np.asarray(knots, dtype=np.int64)
    n_steps = int(knots[-1]) + 1
    gap = np.diff(knots)
    screened = bool((gap > 1).any())
    ru2 = np.einsum("ubk,ubk->bu", user_pos, user_pos)
    ru = np.sqrt(ru2)
    width = max(1, _GEMM_SIZE // (3 * n_user))
    budget = _CULL_CHUNK
    span = gap * step_s
    h = float(span.max()) if screened else 0.0
    if user_r_max is None:
        if screened and min_elevation_deg > 0.0:
            raise ValueError("a mask above 0 between knots needs each user's largest radius")
        user_r_max = ru.max(axis=0)
    if screened:
        uhat = user_pos.transpose(1, 0, 2) / ru[..., None]
        uvel = user_vel.transpose(1, 0, 2)
        rdot = np.einsum("buk,buk->bu", uhat, uvel)
        # (û, dû/dt) per knot and user, for ż = v_sat . û + sat . dû/dt - d|user|/dt
        lead = np.concatenate([uhat, (uvel - uhat * rdot[..., None]) / ru[..., None]], axis=2)
        turn = np.sqrt(np.einsum("buk,buk->bu", lead[..., 3:], lead[..., 3:]).max(axis=0))
        climb = np.abs(rdot).max(axis=0)
        # all the knots of a narrower satellite tile at once, so that each
        # knot's product, z and ż are made once
        budget = _CULL_CHUNK // 32
        width = max(1, min(width, budget // (n_knot * n_user)))
    keys = []
    for s0 in range(0, n_sat, width):
        sats = sat_pos[s0 : s0 + width]
        n = len(sats)
        tile = slice(s0, s0 + n)
        chunk = max(1, budget // (n * n_user))
        sat_low, sat_r = _radius_range(sats, chunk)
        if sat_bounds is not None:
            sag = _radius_sag([b[tile] for b in sat_bounds], h)
            sat_low = np.maximum(sat_bounds[0][tile], sat_low - sag)
        floor = _elevation_floor(user_r_max, sat_low, min_elevation_deg)  # (U, n), like the products
        if screened:
            vels = sat_vel[tile]
            speed = np.sqrt(np.fmax.reduce(np.einsum("sbk,sbk->sb", vels, vels), axis=1))
            accel, slack = _screen_rates([b[tile] for b in sat_bounds], user_bounds, sat_r, h)
            rate_max = _speed_bound(speed, sat_r, turn, climb, slack)
        b0 = 0
        while True:
            b1 = min(n_knot - 1, b0 + chunk)
            kn = slice(b0, b1 + 1)
            # strided (C, U, 3) x (C, 3, n) views, multiplied without copies
            dot = np.matmul(user_pos[:, kn].transpose(1, 0, 2), sats[:, kn].transpose(1, 2, 0))
            # knots b0 .. b1 - 1 here; the last knot with the last chunk
            n_own = b1 - b0 + (b1 == n_knot - 1)
            z = dot  # dot's last use: z = (dot - |user|^2) / |user| - c
            z -= ru2[kn, :, None]
            z /= ru[kn, :, None]
            z -= floor
            above = z[:n_own] >= 0.0
            # flat index (b * U + u) * n + s
            b, us = np.divmod(np.flatnonzero(above), n_user * n)
            u, s = np.divmod(us, n)
            keys.append((u * n_sat + s0 + s) * n_steps + knots[b0 + b])
            if screened and (gap[b0:b1] > 1).any():
                live = _speed_test(z, rate_max, accel, gap[b0:b1], span[b0:b1])
                if len(live):
                    both = np.concatenate([vels[:, kn], sats[:, kn]], axis=2)
                    zdot = np.matmul(lead[kn], both.transpose(1, 2, 0))
                    zdot -= rdot[kn, :, None]
                    i, u, s, step = _between_knots(
                        z, zdot, live, accel, slack, gap[b0:b1], span[b0:b1], step_s
                    )
                    keys.append((u * n_sat + s0 + s) * n_steps + knots[b0 + i] + step)
            dot = z = zdot = above = None  # freed before the next chunk's product is made
            if b1 == n_knot - 1:
                break
            b0 = b1
    # sorted keys (u * S + s) * B + b run user by user, each in (row, step) order
    keys = np.concatenate(keys)
    keys.sort()
    per_user = n_sat * n_steps
    bounds = np.searchsorted(keys, np.arange(n_user + 1) * per_user)
    return [keys[bounds[u] : bounds[u + 1]] - u * per_user for u in range(n_user)]


def _radius_range(pos, chunk):
    """Each object's least and largest radius [km] over the knots of pos
    (N, K, 3), taken ``chunk`` knots at a time; NaN states (absent knots)
    are left out."""
    lo, hi = np.full(len(pos), np.inf), np.zeros(len(pos))
    for b0 in range(0, pos.shape[1], chunk):
        part = pos[:, b0 : b0 + chunk]
        r2 = np.einsum("sbk,sbk->sb", part, part)
        np.fmin(lo, np.fmin.reduce(r2, axis=1), out=lo)
        np.fmax(hi, np.fmax.reduce(r2, axis=1), out=hi)
    return np.sqrt(lo), np.sqrt(hi)


def mask_reach(sat_bounds, user_bounds, user_r_min, min_elevation_deg):
    """(Θ, Ω), each (n,), for n satellites and a set of users: Θ [rad] is
    the largest central angle between a satellite and a user at which the
    user can see it at or above the elevation mask e, and Ω [rad/s] bounds
    how fast that angle can change.

    A satellite at radius r_s is at elevation >= e from a user at radius
    r_u only within the central angle arccos(cos e r_u / r_s) - e, which
    rises with r_s and falls with r_u; so Θ takes it at the orbit's r_hi
    and ``user_r_min``, the users' least radius [km] over the instants to
    be bounded (a satellite that cannot rise to the mask gets Θ = -e). The
    direction of an object at radius at least r_lo moving at most at v_hi
    turns at most at v_hi / r_lo, and SGP4's positions move at most
    ``_VELOCITY_SLACK`` of the speed faster than its velocities say, so
    Ω = (1 + slack) (v_hi / r_lo + the users' largest v_hi / r_lo). An
    infinite v_hi (no speed bound) makes Ω infinite. sat_bounds and
    user_bounds: each object's (r_lo, r_hi, v_hi) from
    :meth:`SatBatch.orbit_bounds`.
    """
    s_lo, s_hi, s_v = sat_bounds
    u_lo, _, u_v = user_bounds
    e = math.radians(min_elevation_deg)
    reach = np.arccos(np.minimum(1.0, math.cos(e) * user_r_min / s_hi)) - e
    rate = (1.0 + _VELOCITY_SLACK) * (s_v / s_lo + np.max(u_v / u_lo))
    return reach, rate


def mask_clear(sat_dir, user_pos, limit):
    """(K, n) bool, True where each of n satellites' central angle from
    every user exceeds its ``limit`` [rad], at each of K instants.

    sat_dir: (K, 3, n) unit vectors (:meth:`SatBatch.mean_directions`);
    user_pos: (U, K, 3); limit: (n,). A limit below 0 is taken as 0 and
    one of at least pi clears nothing. The products (U, 3) x (3, n) are
    taken ``_GEMM_SIZE`` / 3 (user, satellite) pairs and a few instants at
    a time.
    """
    uhat = (user_pos / np.linalg.norm(user_pos, axis=-1, keepdims=True)).transpose(1, 0, 2)
    cos_limit = np.where(limit < np.pi, np.cos(np.clip(limit, 0.0, np.pi)), -np.inf)
    n_knot, n_user, n = len(sat_dir), uhat.shape[1], sat_dir.shape[2]
    width = max(1, _GEMM_SIZE // (3 * n_user))
    chunk = max(1, (_CULL_CHUNK // 32) // (n_user * min(width, max(n, 1))))
    far = np.empty((n_knot, n), dtype=bool)
    for s0 in range(0, n, width):
        tile = slice(s0, s0 + width)
        for b0 in range(0, n_knot, chunk):
            kn = slice(b0, b0 + chunk)
            near = np.matmul(uhat[kn], sat_dir[kn, :, tile]).max(axis=1)
            np.less(near, cos_limit[tile], out=far[kn, tile])
    return far


def _radial_accel(r_lo, r_hi):
    """(e, bound on |r''| [km/s^2]) of each orbit with radii in [r_lo, r_hi]:
    on a Kepler orbit |r''| <= mu e / r_p^2, with e <= (r_hi - r_lo) /
    (r_hi + r_lo), widened by ``_ACCEL_MARGIN`` of gravity."""
    ecc = (1.0 - r_lo / r_hi) / (1.0 + r_lo / r_hi)
    return ecc, (ecc + _ACCEL_MARGIN) * MU_EARTH / r_lo**2


def _radius_sag(bounds, span_max):
    """How far [km] each object's radius can leave the range of its values
    at two knots at most ``span_max`` seconds apart: |r''| H^2 / 8, the
    largest gap between a function with |r''| bounded and the chord through
    its ends. bounds: (r_lo, r_hi, v_hi) per object. Infinite between knots
    where v_hi is (a deep-space position can jump), and 0 with a knot at
    every step (``span_max`` 0)."""
    r_lo, r_hi, v_hi = bounds
    if span_max == 0.0:
        return np.zeros(len(r_lo))
    sag = _radial_accel(r_lo, r_hi)[1] * (span_max * span_max / 8.0)
    return np.where(np.isinf(v_hi), np.inf, sag)


def _elevation_floor(r_user, r_sat, min_elevation_deg):
    """c (U, n) [km], each pair's least height z above the user's horizon
    plane at which the satellite is at or above the elevation mask e, for
    users at radius at most r_user (U,) and satellites at radius at least
    r_sat (n,).

    From z = sin(el) |sat - user| and |sat - user|^2 = r_s^2 - r_u^2 - 2 r_u z,
    with z >= 0 (el >= 0),

        el >= e  <=>  z >= sin e (sqrt(r_s^2 - r_u^2 cos^2 e) - r_u sin e),

    which rises with r_s and falls with r_u. It is lowered by 1e-9 of r_s
    plus 1 mm, so that a pair the predicate decides to be on the mask from
    its own rounded sin(el) stays kept, and clamped at 0 (where it is
    negative or r_s < r_u cos e, z >= 0 is the tighter test). At e = 0 it
    is 0."""
    e = math.radians(min_elevation_deg)
    sin_e, cos_e = math.sin(e), math.cos(e)
    if sin_e == 0.0:
        return np.zeros((len(r_user), len(r_sat)))
    c = r_sat * r_sat - np.square(r_user * cos_e)[:, None]
    np.maximum(c, 0.0, out=c)
    np.sqrt(c, out=c)
    c -= (r_user * sin_e)[:, None]
    c *= sin_e
    c -= 1e-9 * r_sat + 1e-6
    return np.maximum(c, 0.0, out=c)


def _screen_rates(sat_bounds, user_bounds, sat_r_knots, span_max):
    """(A, D), each (U, n): A bounds |z''| [km/s^2] and D the error [km/s]
    of ż taken from SGP4's velocities, for every pair of a user and one of
    the n satellites that ``sat_bounds`` and ``sat_r_knots`` describe.

    With z = sat . û - r (r = |user|),

        z'' = sat'' . û + 2 sat' . û' + sat . û'' - r'',

    so |z''| <= |sat''| + 2 |sat'| |û'| + |sat| |û''| + |r''|, where
    |sat''| <= mu / r_lo^2 (widened by ``_ACCEL_MARGIN``), |sat'| <= v_hi,
    |û'| <= v / r, and from user'' = r'' û + 2 r' û' + r û'',
    |û''| <= (|user''| + |r''| + 2 |r'| |û'|) / r. On a Kepler orbit
    |r''| <= mu e / r_p^2 and |r'| <= e sqrt(mu / p) <= e sqrt(mu / r_p),
    with e <= (r_hi - r_lo) / (r_hi + r_lo). |sat| is at most r_hi, and at
    most the largest knot radius plus v_hi times half the longest knot
    interval (for drag orbits, whose r_hi is infinite).
    """
    s_lo, s_hi, s_v = sat_bounds
    u_lo, u_hi, u_v = user_bounds
    mu = MU_EARTH
    s_acc = (1.0 + _ACCEL_MARGIN) * mu / s_lo**2
    s_r = np.minimum(s_hi, sat_r_knots + 0.5 * span_max * s_v)
    u_acc = (1.0 + _ACCEL_MARGIN) * mu / u_lo**2
    u_e, u_rdd = _radial_accel(u_lo, u_hi)
    u_ang = u_v / u_lo
    u_rd = u_e * np.sqrt(mu / u_lo)
    u_ang2 = (u_acc + u_rdd + 2.0 * u_rd * u_ang) / u_lo
    accel = s_acc + 2.0 * u_ang[:, None] * s_v + u_ang2[:, None] * s_r + u_rdd[:, None]
    slack = _VELOCITY_SLACK * (s_v + u_v[:, None] * (1.0 + s_r / u_lo[:, None]))
    return accel, slack


def _speed_bound(sat_speed, sat_r, turn, climb, slack):
    """V (U, n), with |ż| + D <= V at every knot for each pair of a user
    and one of n satellites (D, ``slack``, from :func:`_screen_rates`).

    ż = v_sat . û + sat . dû/dt - d|user|/dt and |û| = 1, so by
    Cauchy-Schwarz |ż| <= |v_sat| + |sat| |dû/dt| + |d|user|/dt|.
    sat_speed, sat_r: (n,) each satellite's largest speed and radius at the
    knots; turn, climb: (U,) each user's largest |dû/dt| and |d|user|/dt|
    there. The factor 1 + 1e-9 covers the rounding of ż.
    """
    return (sat_speed + turn[:, None] * sat_r + climb[:, None]) * (1.0 + 1e-9) + slack


def _speed_test(z, rate_max, accel, gap, span):
    """Flat indices into z, (knot * U + user) * n + satellite, of the
    intervals that the speed pre-test keeps, each at its first knot.

    With V = ``rate_max`` (:func:`_speed_bound`), h after knot k and
    h' = H - h before knot k+1, the two parabola bounds of
    :func:`horizon_screen` sum to at most

        z_k + z_k+1 - 2 c + V h + V h' + A (h^2 + h'^2) / 2 <= z_k + z_k+1 - 2 c + V H + A H^2 / 2,

    and so to at most that with the longest interval's H. Where that is
    negative, one of them is negative at every step, so the interval keeps
    none. z: (C, U, n), z - c at C consecutive knots; rate_max, accel: (U,
    n); gap, span: the C - 1 intervals in steps and seconds.
    """
    h = span.max()
    top = z[:-1] + z[1:]
    live = np.flatnonzero(top >= -(rate_max + 0.5 * accel * h) * h)
    return live[gap[live // z[0].size] > 1]


def _between_knots(z, zdot, live, accel, slack, gap, span, step_s):
    """Steps strictly between knots that the bounds keep: (interval, user,
    satellite, steps after the interval's first knot) arrays. z, zdot: (C,
    U, n), z - c and ż at C consecutive knots; live: the intervals to test,
    as flat indices of their first knot into z (:func:`_speed_test`);
    accel, slack: (U, n); gap, span: the C - 1 intervals in steps and
    seconds."""
    i, pair = np.divmod(live, accel.size)
    h = span[i]
    a, d = accel.take(pair), slack.take(pair)
    z0, z1 = z.take(live), z.take(live + accel.size)
    v0, v1 = zdot.take(live), zdot.take(live + accel.size)
    half = 0.5 * a * h * h
    # each bound's larger end value, over the whole interval
    fwd = np.maximum(z0 + (v0 + d) * h + half, z0)
    bwd = np.maximum(z1 + (d - v1) * h + half, z1)
    t = np.flatnonzero((fwd >= 0.0) & (bwd >= 0.0))
    i, pair = i[t], pair[t]
    a, d = a[t, None], d[t, None]
    z0, z1, v0, v1 = z0[t, None], z1[t, None], v0[t, None], v1[t, None]
    # the surviving intervals, step by step
    m = np.arange(1, int(gap.max()))
    after = m * step_s
    before = np.maximum(gap[i, None] - m, 1) * step_s  # positive also where masked
    keep = z0 + (v0 + d) * after + 0.5 * a * after * after >= 0.0
    keep &= z1 + (d - v1) * before + 0.5 * a * before * before >= 0.0
    keep &= m < gap[i, None]
    t, k = np.nonzero(keep)
    u, s = np.divmod(pair[t], z.shape[2])
    return i[t], u, s, m[k]


def pair_geometry_arrays(
    sat_pos: np.ndarray,
    sat_vel: np.ndarray,
    user_pos: np.ndarray,
    user_vel: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Range [km], range-rate [km/s], sin(elevation), cos(off-nadir) and the
    satellite's distance from the Earth's centre [km].

    sat arrays (..., 3), user arrays broadcastable against them. A
    satellite at the user's position (range 0, a user on a satellite's
    orbit and phase) has no direction: its range-rate and angles are NaN,
    so :func:`visible_mask_arrays` never accepts it.
    """
    d = sat_pos - user_pos
    rng = np.sqrt(np.einsum("...k,...k->...", d, d))
    dv = sat_vel - user_vel
    ru = np.sqrt(np.einsum("...k,...k->...", user_pos, user_pos))
    rs = np.sqrt(np.einsum("...k,...k->...", sat_pos, sat_pos))
    with np.errstate(invalid="ignore"):  # 0 / 0 at range 0 only
        rr = np.einsum("...k,...k->...", d, dv) / rng
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
