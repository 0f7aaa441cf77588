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


# Floats per dot-product chunk of the horizon screen's every-step test (16 MB
# of float64). Where knots are apart, the screen takes the candidates of its
# direction cells a group of users at a time, about 1/32 of this many.
_CULL_CHUNK = 1 << 21
# Multiply-adds per matrix product. OpenBLAS runs a product this small on the
# calling thread; parallelism belongs to the engine's ``threads`` option, and
# a BLAS thread pool competing with other processes stalls every product.
_GEMM_SIZE = 1 << 18
# Relative margin on the accelerations in the screen's bound on z'': the
# non-Keplerian forces of SGP4 (J2 is below 0.4% of gravity). On the orbits
# that RADIUS_MARGIN was measured on, the batch positions' acceleration came
# to at most 0.6% above mu / r_p^2, which r_lo alone already covers, and on
# 1,800 such orbits (about 1,000 near-earth, +-3 days of epoch, second
# differences over 2 s) the vector a + mu r / |r|^3 was at most 0.29% of
# mu / r_lo^2 (near-earth; 0.18% deep-space).
_ACCEL_MARGIN = 0.01
# SGP4's velocity is not exactly the rate of its position: on the orbits of
# RADIUS_MARGIN, |velocity - d(position)/dt| was at most 2.7e-4 of the
# fastest speed (largest for eccentric deep-space orbits), and the
# resonance integrator's 720-minute steps kink the velocity by at most
# 5e-6 km/s. The screen widens each horizon rate by this share of speed.
_VELOCITY_SLACK = 1e-3
# Angular margin [rad] of the screen's cap, about 7 m at LEO radii: far above
# the rounding of a central angle taken from unit vectors (1e-15 rad) and of
# the knot test, whose floor is lowered by 1e-9 of the radius plus 1 mm.
_CAP_MARGIN = 1e-6
# How far the screen lowers the cosine of each beam's half-cone h before it
# bounds the beam: the predicate compares cos(off-nadir) with cos(h), each
# rounded to a few 1e-16, so a pair it accepts is within this cone.
_BEAM_MARGIN = 1e-12
# Declination width [rad] of the screen's direction cells, and the least
# width of their right ascension bins. On population_mc's first block (110
# users, 5,124 rows, 11 knots, 26K near knots; 2-vCPU host, October 2026),
# widths of 0.05, 0.1, 0.2 and 0.3 rad gave 46K, 47K, 72K and 102K cell
# candidates, and the screen took a median of 53, 48, 50 and 50 ms.
_BAND = 0.1


def horizon_screen(
    sat_pos: np.ndarray,
    sat_vel: np.ndarray | None,
    user_pos: np.ndarray,
    user_vel: np.ndarray | None,
    knots: np.ndarray,
    step_s: float,
    sat_bounds: tuple[np.ndarray, np.ndarray, np.ndarray],
    user_bounds: tuple[np.ndarray, np.ndarray, np.ndarray],
    min_elevation_deg: float,
    user_r_max: np.ndarray,
    beams: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    tally: dict | None = None,
) -> np.ndarray:
    """Conservative cull of one time block for every user, from exact
    states at knot steps only, against both sides of the visibility
    predicate: the user's elevation mask and, where knots are apart, the
    satellite's beam.

    A pair (user u, satellite s) is kept at a step if the satellite may be
    at or above the user's elevation mask e = ``min_elevation_deg``. With
    z = dot(sat, û) - |user|, the satellite's height above the user's
    horizon plane, elevation >= e holds exactly when z >= c(|user|, |sat|)
    (:func:`_elevation_floor`), and c is 0 at e = 0:

        elevation >= 0  <=>  dot(sat, user) >= |user|^2  <=>  z >= 0.

    c rises with |sat| and falls with |user|, so the screen takes one c per
    pair, from the user's largest radius over the block's steps and the
    satellite's least radius between knots (:func:`_radius_sag`), and tests
    z - c >= 0. At a knot the test is exact for that c. With a knot at every
    step this is the exact cull for c, taken as (U, 3) x (3, satellites)
    products, a few knots and satellites at a time, so that they cover at
    most ``_GEMM_SIZE`` / 3 (user, satellite) pairs and ``_CULL_CHUNK``
    floats at once; beams are not read there.

    Where knots are apart, the screen first finds the near (interval, user,
    satellite) triples (:func:`_near_screen`): those where the central angle
    between the two at either knot is at most the cap

        min(Θ(u, s), Θ_b(u, s)) + Ω(u, s) H / 2 + ``_CAP_MARGIN``,

    with Θ and Ω of :func:`mask_reach` for the pair, Θ_b the largest central
    angle at which the user can be inside the satellite's beam and above
    its horizon (:func:`_beam_reach`; infinite without ``beams``), both
    from the user's least radius over the block, and H the longest
    interval. A visible pair has its central angle within both there, and
    every step is within H / 2 of a knot, so the cap drops no such pair.
    Direction cells (:class:`_DirectionCells`) bin each knot's satellite
    directions by class of r_hi, declination band and right ascension; each
    user's cap for a class (at the class's widest) is mapped to the cells it
    touches, and their satellites pass an exact test of the central angle.
    The knot test then runs only on the knots of the near triples, against
    the floor max(c, c_b): c_b is the least z of a user inside a nadir-law
    beam (:func:`_beam_floor_terms`), taken at the same radii as c where it
    falls with |user| over the block, and no bound elsewhere or for fixed
    cones. Between knots k and k+1, h after knot k and h' = H_k - h before
    knot k+1, z - c is at most

        z_k - c + (ż_k + D) h + A h^2 / 2   and   z_k+1 - c + (D - ż_k+1) h' + A h'^2 / 2,

    where D bounds the gap between SGP4's velocity and the rate of its
    position and A bounds z'' from above (:func:`_curvature`), for the
    interval: it holds while the central angle stays within the smaller of
    its values at the two knots plus Ω H_k, and it is infinite, which keeps
    the interval whole, where that angle may reach pi / 2 or an orbit bound
    is not finite. Both bounds are convex parabolas, so their ends decide
    each near interval (:func:`_between_knots`); only those kept are tested
    step by step. A step between knots is kept where both bounds and the
    cap keep it. The triples are taken a batch of users at a time, about
    ``_CULL_CHUNK`` / 32 cell candidates per batch (more where one user has
    more).

    sat_pos, sat_vel: (S, K, 3) at the knots; user_pos, user_vel: (U, K, 3)
    at the knots; knots: (K,) ascending steps of the block, the first 0 and
    the last the block's last step; step_s: the step [s]; sat_bounds and
    user_bounds: each object's (r_lo, r_hi, v_hi) from
    :meth:`SatBatch.orbit_bounds`; an infinite v_hi (no bound) makes the
    cap and A infinite, which keeps every pair with that object at every
    step. A satellite's state may be NaN at any knot, where the engine's
    knot plan has cleared every interval next to it (no user can see the
    satellite there): that knot is then absent, never near, and neither it
    nor an interval it ends is tested, nor enters the satellite's radii.
    With no satellites (S = 0) it keeps no pair. Velocities and user_bounds
    are read only if some knots are more than one step apart; sat_bounds
    narrow c. user_r_max: (U,) each user's largest radius over the block's
    steps [km]. beams: each satellite's (nadir, param, group) of
    :func:`_beam_reach`, or None to bound the elevation only. tally: if
    given, a dict whose ``"triples"`` (users x satellites x intervals) and
    ``"near_triples"`` counts the screen adds to where knots are apart.
    Returns the kept pairs of every user as one ascending array of keys
    (u * S + s) * B + step: user by user, each user's in (row, step) order.
    """
    if len(sat_pos) == 0:
        return np.zeros(0, dtype=np.int64)
    knots = np.asarray(knots, dtype=np.int64)
    if not (np.diff(knots) > 1).any():
        keys = _knot_test(sat_pos, user_pos, knots, sat_bounds, min_elevation_deg, user_r_max)
    else:
        keys = _near_screen(
            sat_pos, sat_vel, user_pos, user_vel, knots, step_s, sat_bounds, user_bounds,
            min_elevation_deg, user_r_max, beams, tally,
        )
    keys = np.concatenate(keys)
    keys.sort()
    return keys


def _knot_test(sat_pos, user_pos, knots, sat_bounds, min_elevation_deg, user_r_max):
    """The keys (u * S + s) * B + step of a screen with a knot at every
    step (:func:`horizon_screen`), unsorted: z - c >= 0 at every knot, from
    (U, 3) x (3, n) products of satellite tiles and a few knots at a time."""
    n_sat, n_knot, _ = sat_pos.shape
    n_user = user_pos.shape[0]
    n_steps = int(knots[-1]) + 1
    ru2 = np.einsum("ubk,ubk->bu", user_pos, user_pos)
    ru = np.sqrt(ru2)
    width = max(1, _GEMM_SIZE // (3 * n_user))
    keys = []
    for s0 in range(0, n_sat, width):
        sats = sat_pos[s0 : s0 + width]
        n = len(sats)
        chunk = max(1, _CULL_CHUNK // (n * n_user))
        sat_low = np.maximum(sat_bounds[0][s0 : s0 + n], _least_radius(sats, chunk))
        floor = _elevation_floor(user_r_max[:, None], sat_low, min_elevation_deg)
        for b0 in range(0, n_knot, chunk):
            kn = slice(b0, b0 + chunk)
            # strided (C, U, 3) x (C, 3, n) views, multiplied without copies
            z = np.matmul(user_pos[:, kn].transpose(1, 0, 2), sats[:, kn].transpose(1, 2, 0))
            z -= ru2[kn, :, None]
            z /= ru[kn, :, None]
            z -= floor
            # flat index (b * U + u) * n + s
            b, us = np.divmod(np.flatnonzero(z >= 0.0), n_user * n)
            u, s = np.divmod(us, n)
            keys.append((u * n_sat + s0 + s) * n_steps + knots[b0 + b])
            z = None  # freed before the next chunk's product is made
    return keys


def _near_screen(sat_pos, sat_vel, user_pos, user_vel, knots, step_s, sat_bounds,
                 user_bounds, min_elevation_deg, user_r_max, beams, tally):
    """The keys (u * S + s) * B + step of a screen whose knots are apart
    (:func:`horizon_screen`), as a list of arrays: the knot test on the
    knots of the near intervals and both parabola bounds on those
    intervals."""
    n_sat, n_knot, _ = sat_pos.shape
    n_user = user_pos.shape[0]
    n_steps = int(knots[-1]) + 1
    gap = np.diff(knots)
    span = gap * step_s
    h = float(span.max())
    e = math.radians(min_elevation_deg)
    # the users at the knots, flat u * K + k: rows of user, û, dû/dt,
    # |user|^2, |user| and d|user|/dt (_heights)
    up, uv = user_pos.reshape(-1, 3), user_vel.reshape(-1, 3)
    ru2 = np.einsum("ik,ik->i", up, up)
    ru = np.sqrt(ru2)
    uhat = up / ru[:, None]
    rdot = np.einsum("ik,ik->i", uhat, uv)
    turn = (uv - uhat * rdot[:, None]) / ru[:, None]
    users = np.concatenate([up, uhat, turn, np.stack([ru2, ru, rdot], axis=1)], axis=1).T.copy()
    u_lo, u_hi, u_v = user_bounds
    u_min = np.maximum(u_lo, ru.reshape(n_user, n_knot).min(axis=1) - _radius_sag(user_bounds, h))
    # the satellites at the knots, flat s * K + k; NaN at the absent knots
    sats = sat_pos.reshape(-1, 3), sat_vel.reshape(-1, 3)
    rs = np.sqrt(np.einsum("ik,ik->i", sats[0], sats[0]))
    s_lo, s_hi, s_v = sat_bounds
    sat_r = np.fmax.reduce(rs.reshape(n_sat, n_knot), axis=1)
    sat_low = np.fmin.reduce(rs.reshape(n_sat, n_knot), axis=1)
    sat_low = np.maximum(s_lo, sat_low - _radius_sag(sat_bounds, h))
    # the beam bound: Θ_b of user u and satellite s is reach[u, g] - drop[s]
    # with g = beam[s], and the beam floor lift[s] cos_phi[u, g] + base[u, g]
    beam, reach, drop, groups = _beam_reach(beams, s_hi, u_min)
    n_beam = reach.shape[1]
    cos_phi, base = _beam_floor_terms(*groups, u_min, user_r_max)
    lift = np.sqrt(np.maximum(sat_low * sat_low - np.square(groups[0].take(beam)), 0.0))
    lift_margin = 1e-9 * sat_low + 1e-6  # as _elevation_floor lowers c
    # the cap min(Θ_mask, Θ_b) + Ω H / 2 + margin, with Ω = (1 + slack)
    # (v_hi / r_lo of both); the cells query it per class of satellites
    # whose r_hi are within 1% (a bundled shell is one class), at the
    # class's largest r_hi and Ω, largest reach of its beams and least drop
    s_turn, u_turn = s_v / s_lo, u_v / u_lo
    grow = (1.0 + _VELOCITY_SLACK) * 0.5 * h
    _, group = np.unique(np.floor(100.0 * np.log(s_hi / EARTH_RADIUS_KM)), return_inverse=True)
    n_group = group.max() + 1
    top = np.full((3, n_group), -np.inf)
    np.maximum.at(top, (0, group), s_hi)
    np.maximum.at(top, (1, group), s_turn)
    np.maximum.at(top, (2, group), -drop)
    member = np.zeros((n_group, n_beam), dtype=bool)
    member[group, beam] = True
    widest = np.where(member, reach[:, None], -np.inf).max(axis=2) + top[2]
    np.minimum(widest, _mask_angle(u_min[:, None], top[0], e), out=widest)
    widest += grow * (top[1] + u_turn[:, None]) + _CAP_MARGIN
    cells = _DirectionCells(sats[0], rs, group, n_knot)
    ranges, owner = cells.query(uhat, np.repeat(widest, n_knot, axis=0))
    # batches of whole users, each of about _CULL_CHUNK / 32 candidates
    user = owner // n_knot
    per_user = np.bincount(user, weights=ranges[:, 1] - ranges[:, 0], minlength=n_user)
    batch = (np.cumsum(per_user) - per_user) // max(1, _CULL_CHUNK // 32)
    cut = np.searchsorted(user, np.r_[np.flatnonzero(np.diff(batch, prepend=-1)), n_user])
    keys = []
    for r0, r1 in zip(cut[:-1], cut[1:]):
        pair, q, unit = cells.candidates(ranges[r0:r1], owner[r0:r1])
        s, k = np.divmod(pair, n_knot)
        u = q // n_knot
        angle = np.arccos(np.clip(_dot(unit, users[3:6].take(q, axis=1)), -1.0, 1.0))
        cap = _mask_angle(u_min.take(u), s_hi.take(s), e)
        np.minimum(cap, reach.take(u * n_beam + beam.take(s)) - drop.take(s), out=cap)
        cap += grow * (s_turn.take(s) + u_turn.take(u)) + _CAP_MARGIN
        near = np.flatnonzero(angle <= cap)
        # the near knots as sorted keys (s * U + u) * K + k, satellite by
        # satellite so that the states below are read in order; the near
        # intervals, those next to them, by the key of their first knot:
        # each near knot gives the interval it ends and the one it starts
        knot = (s.take(near) * n_user + u.take(near)) * n_knot + k.take(near)
        knot.sort()
        first = np.stack([knot - 1, knot], axis=1)
        first[knot % n_knot == 0, 0] = -1
        first[knot % n_knot == n_knot - 1, 1] = -1
        first, _ = _distinct(first.ravel())
        first = first[first >= 0]
        if tally is not None:
            tally["near_triples"] = tally.get("near_triples", 0) + len(first)
        # the knots of the near intervals, each once: interval i ends at
        # knots left[i] and left[i] + 1 of them
        ends, left = _distinct(np.stack([first, first + 1], axis=1).ravel())
        left = left[0::2]
        su, k = np.divmod(ends, n_knot)
        s, u = np.divmod(su, n_user)
        row = u * n_sat + s  # the output's (user, satellite) key
        # the knot test there, against the tighter of the mask's and the
        # beam's floor
        sk, uk = s * n_knot + k, u * n_knot + k
        z, zdot = _heights(sats, users, sk, uk)
        cos_angle = (z + users[10].take(uk)) / rs.take(sk)  # of the central angle
        ub = u * n_beam + beam.take(s)
        floor = lift.take(s) * cos_phi.take(ub)
        floor += base.take(ub)
        floor -= lift_margin.take(s)
        np.maximum(floor, _elevation_floor(user_r_max.take(u), sat_low.take(s), min_elevation_deg),
                   out=floor)
        z -= floor
        at = np.flatnonzero(z >= 0.0)
        keys.append(row.take(at) * n_steps + knots.take(k.take(at)))
        # both parabola bounds on the near intervals more than a step long
        left = left.take(np.flatnonzero(gap.take(k.take(left)) > 1))
        u, s, j = u.take(left), s.take(left), k.take(left)
        sweep = (1.0 + _VELOCITY_SLACK) * (s_turn.take(s) + u_turn.take(u)) * span.take(j)
        far = _far_cos(cos_angle.take(left), cos_angle.take(left + 1), sweep)
        accel, slack = _curvature(
            (s_lo.take(s), s_hi.take(s), s_v.take(s)), (u_lo.take(u), u_hi.take(u), u_v.take(u)),
            sat_r.take(s), h, far,
        )
        t, m = _between_knots(
            z.take(left), z.take(left + 1), zdot.take(left), zdot.take(left + 1), accel, slack,
            gap.take(j), span.take(j), step_s,
        )
        keys.append(row.take(left.take(t)) * n_steps + knots.take(j.take(t)) + m)
    if tally is not None:
        tally["triples"] = tally.get("triples", 0) + n_user * n_sat * (n_knot - 1)
    return keys


def _distinct(keys):
    """(distinct, at): the sorted ``keys`` with each repeated key once, and
    the index of each key among them."""
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new], np.cumsum(new) - 1


def _dot(rows, cols):
    """The dot products of (N, 3) rows with the (3, N) columns."""
    out = rows[:, 0] * cols[0]
    out += rows[:, 1] * cols[1]
    out += rows[:, 2] * cols[2]
    return out


def _heights(sats, users, p, q):
    """(z, ż) of the satellite states p (rows of ``sats``' positions and
    velocities) against the user states q (columns of ``users``, as
    :func:`_near_screen` builds them): z = (sat . user - |user|^2) / |user|
    and ż = v_sat . û + sat . dû/dt - d|user|/dt; NaN at an absent knot."""
    pos, vel, u = sats[0].take(p, axis=0), sats[1].take(p, axis=0), users.take(q, axis=1)
    z = _dot(pos, u[0:3])
    z -= u[9]
    z /= u[10]
    zdot = _dot(vel, u[3:6])
    zdot += _dot(pos, u[6:9])
    zdot -= u[11]
    return z, zdot


class _DirectionCells:
    """The directions of S satellites at K knots, binned into cells: a cell
    holds one class of satellites at one knot, within one declination band
    of width ``_BAND`` and one of the band's right ascension bins. The bins
    are about as wide as the bands, or wider where there are fewer states
    than that makes cells, so that there are at most about as many cells
    as states. Built from flat (S K, 3) positions and their radii,
    NaN where a knot is absent (such a state is in no cell), and each
    satellite's class."""

    def __init__(self, pos, radius, group, n_knot):
        self.n_band = math.ceil(math.pi / _BAND)
        self.n_knot, self.n_group = n_knot, group.max() + 1
        present = np.flatnonzero(~np.isnan(radius))
        fill = len(present) // (n_knot * self.n_group * self.n_band)
        self.n_ra = max(1, min(math.ceil(2.0 * math.pi / _BAND), fill))
        unit = pos.take(present, axis=0) / radius.take(present)[:, None]
        dec, ra = _dec_ra(unit)
        # each state's cell, numbered by knot, class, band and right
        # ascension bin
        s, k = np.divmod(present, n_knot)
        cell = (k * self.n_group + group.take(s)) * self.n_band + self._band(dec)
        cell *= self.n_ra
        cell += self._bin(ra)
        order = np.argsort(cell)
        self.pair, self.unit = present.take(order), unit.take(order, axis=0)
        n_cell = n_knot * self.n_group * self.n_band * self.n_ra
        self.first = np.zeros(n_cell + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell, minlength=n_cell), out=self.first[1:])

    def _band(self, dec):
        return np.minimum(((dec + 0.5 * math.pi) / _BAND).astype(np.int64), self.n_band - 1)

    def _bin(self, ra):
        """The right ascension bins of angles in [-pi, pi], clipped there."""
        turn = np.clip((ra + math.pi) * (self.n_ra / (2.0 * math.pi)), 0.0, self.n_ra - 1)
        return turn.astype(np.int64)

    def query(self, uhat, reach):
        """(ranges, owner): (Q, 2) runs [start, end) of cell entries that
        hold every satellite of each class c within ``reach[:, c]`` [rad]
        of each of the (U K,) user directions ``uhat`` (flat u * K + k, at
        knot k), and the user direction that owns each run, ascending. A
        reach of at least pi / 2 takes every cell of the class and knot, one
        below 0 none."""
        dec, ra = _dec_ra(uhat)
        # 1e-7 for the rounding of the cells' angles
        rho = np.minimum(reach + 1e-7, math.pi).ravel()
        owner = np.arange(len(rho)) // self.n_group  # (user direction, class) pairs
        dec, ra = dec.take(owner), ra.take(owner)
        full = rho >= 0.5 * math.pi
        lo = np.where(full, 0, self._band(np.maximum(dec - rho, -0.5 * math.pi)))
        hi = np.where(full, self.n_band - 1, self._band(np.minimum(dec + rho, 0.5 * math.pi)))
        # the cap's largest half-width in right ascension, asin(sin ρ / cos δ),
        # or every right ascension where the cap reaches a pole
        polar = np.abs(dec) + rho >= 0.5 * math.pi
        half = np.full(len(rho), math.pi)
        tilt = np.sin(rho[~polar]) / np.cos(dec[~polar])
        half[~polar] = np.arcsin(np.clip(tilt, -1.0, 1.0)) + 1e-9
        n = np.where(rho < 0.0, 0, hi - lo + 1)
        src = np.repeat(np.arange(len(rho)), n)
        band = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
        # the bins of right ascension mid - half .. mid + half, every bin
        # where they span the circle, or up to two runs where they pass -pi
        # or pi: bins below 0 or from n_ra continue at the other end
        mid, half = ra.take(src) + math.pi, half.take(src)
        lo = np.floor((mid - half) * (self.n_ra / (2.0 * math.pi))).astype(np.int64)
        hi = np.floor((mid + half) * (self.n_ra / (2.0 * math.pi))).astype(np.int64)
        every = hi - lo + 1 >= self.n_ra
        lo[every], hi[every] = 0, self.n_ra - 1
        runs = np.stack([
            np.maximum(lo, 0), np.minimum(hi, self.n_ra - 1),
            np.where(lo < 0, lo + self.n_ra, np.where(hi >= self.n_ra, 0, 1)),
            np.where(lo < 0, self.n_ra - 1, np.where(hi >= self.n_ra, hi - self.n_ra, 0)),
        ], axis=1)  # the second run empty, as (1, 0), where there is none
        base = (((owner.take(src) % self.n_knot) * self.n_group + src % self.n_group)
                * self.n_band + band) * self.n_ra
        start = self.first.take(base[:, None] + runs[:, 0::2])
        end = self.first.take(base[:, None] + runs[:, 1::2] + 1)
        return np.stack([start.ravel(), end.ravel()], axis=1), np.repeat(owner.take(src), 2)

    def candidates(self, ranges, owner):
        """(pair, q, unit): the flat state s * K + k of every entry in
        ``ranges``, the user direction that owns its run, and its unit
        direction."""
        count = ranges[:, 1] - ranges[:, 0]
        at = np.repeat(ranges[:, 0] - np.cumsum(count) + count, count) + np.arange(count.sum())
        return self.pair.take(at), np.repeat(owner, count), self.unit.take(at, axis=0)


def _dec_ra(unit):
    """Declination and right ascension [rad] of (N, 3) unit vectors. Near a
    pole the declination, an arcsine, is within 2e-8 rad (sqrt(2 eps)) of
    the direction's."""
    return np.arcsin(np.clip(unit[:, 2], -1.0, 1.0)), np.arctan2(unit[:, 1], unit[:, 0])


def _least_radius(pos, chunk):
    """Each object's least radius [km] over the knots of pos (N, K, 3),
    taken ``chunk`` knots at a time; NaN states (absent knots) are left
    out."""
    lo = np.full(len(pos), np.inf)
    for b0 in range(0, pos.shape[1], chunk):
        part = pos[:, b0 : b0 + chunk]
        np.fmin(lo, np.fmin.reduce(np.einsum("sbk,sbk->sb", part, part), axis=1), out=lo)
    return np.sqrt(lo)


def _mask_angle(r_user, r_sat, e):
    """The largest central angle [rad] at which a satellite at radius at most
    r_sat is at or above the elevation e [rad] from a user at radius at
    least r_user: arccos(cos e r_user / r_sat) - e, -e where the satellite
    cannot rise to the mask."""
    return np.arccos(np.minimum(1.0, math.cos(e) * r_user / r_sat)) - e


def _beam_reach(beams, s_hi, r_user):
    """(beam, reach, drop, groups): the beam's bound on the central angle
    between S satellites, at radius at most ``s_hi`` [km], and users at
    radius at least ``r_user`` (U,) [km] that are inside the satellite's
    beam and above their horizon. Θ_b of user u and satellite s is
    reach[u, beam[s]] - drop[s]; beam: (S,) each satellite's beam group;
    groups: (rho, nadir, top), each (G,): each group's r_s sin h [km] (a
    nadir-law group's), whether its cone is a nadir law, and its largest
    s_hi [km]. ``beams`` is (nadir, param, group),
    each (S,): the cone parameters of :func:`beam_cos_half_arrays` and the
    beam group (a fleet's shell or catalog, one beam each); None bounds
    nothing (Θ_b infinite).

    A user at r_u < r_s at the off-nadir angle α and central angle γ has
    r_s sin α = r_u sin(α + γ), and above its horizon α + γ <= pi / 2, so
    γ = asin(r_s sin α / r_u) - α, which rises with α. Inside a beam of
    half-cone h, then, γ <= asin(min(1, r_s sin h / r_u)) - min(h, asin(r_u
    / r_s)), which rises with r_s and falls with r_u. For a nadir-law beam
    (sin h = f Re / r_s) r_s sin h = f Re, so reach = asin(f Re / r_u) and
    drop = h at s_hi (reach pi where f Re >= r_u, which bounds nothing);
    a fixed cone takes both terms at its group's largest s_hi, with drop 0.
    Each cone is widened to cos h - ``_BEAM_MARGIN``: a fixed one directly,
    a nadir-law one to r_s sin h = sqrt((f Re)^2 + 2 margin r^2), at the
    group's largest s_hi r, which keeps the law's form."""
    n_sat, n_user = len(s_hi), len(r_user)
    if beams is None:
        return (np.zeros(n_sat, dtype=np.int64), np.full((n_user, 1), np.inf), np.zeros(n_sat),
                (np.zeros(1), np.zeros(1, dtype=bool), np.zeros(1)))
    is_nadir, param, beam = beams
    n_beam = int(beam.max(initial=-1)) + 1
    nadir = np.zeros(n_beam, dtype=bool)
    nadir[beam] = is_nadir
    cone = np.ones(n_beam)
    cone[beam] = param
    top = np.zeros(n_beam)
    np.maximum.at(top, beam, s_hi)
    half = np.where(nadir, 0.0, np.arccos(np.maximum(cone - _BEAM_MARGIN, 0.0)))
    r_user = r_user[:, None]
    # absent groups (top 0) and groups of rows without r_hi (top inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        wide = np.hypot(cone * EARTH_RADIUS_KM, math.sqrt(2.0 * _BEAM_MARGIN) * top)
        rho = np.where(nadir, wide, top * np.sin(half))
        reach = np.arcsin(np.minimum(1.0, rho / r_user))
        reach -= np.minimum(half, np.arcsin(np.minimum(1.0, r_user / top)))
        drop = np.arcsin(np.fmin(1.0, rho.take(beam) / s_hi))
    reach[nadir & (rho >= r_user)] = np.pi
    return beam, reach, np.where(is_nadir, drop, 0.0), (rho, nadir, top)


def _beam_floor_terms(rho, nadir, top, u_min, u_max):
    """(cos_phi, base), each (U, G): the beam's floor on z = sat . û - r_u
    for a user of radius in [u_min, u_max] (U,) [km] and a satellite of
    nadir-law group g at radius at least r_low, inside its beam and above
    the user's horizon, is lift cos_phi[u, g] + base[u, g], with lift =
    sqrt(r_low^2 - rho_g^2); where this is no bound (fixed cones), cos_phi
    is 0 and base -inf. rho, nadir, top: the groups of :func:`_beam_reach`.

    With φ = asin(rho / r_u) and h = asin(rho / r_s), the central angle is
    at most φ - h, so z >= c_b = r_s cos(φ - h) - r_u = r_s cos h cos φ +
    rho^2 / r_u - r_u. dc_b / dr_s = cos φ / cos h >= 0, and dc_b / dr_u =
    r_s sin(φ - h) tan φ / r_u - 1, below 0 wherever r_s sin(φ - h) tan φ <
    r_u. That product is largest at (u_min, the group's largest s_hi), so
    where it is below u_min there, c_b is least at (u_max, r_low)."""
    sin_phi = rho / u_min[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # groups absent from the rows
        sin_h = np.minimum(1.0, rho / top)
        cos_phi = np.sqrt(np.maximum(1.0 - sin_phi * sin_phi, 0.0))
        slope = top * (sin_phi * np.sqrt(1.0 - sin_h * sin_h) - cos_phi * sin_h) * sin_phi / cos_phi
        bound = nadir & (sin_phi < 1.0) & (slope < u_min[:, None])
    u_max = u_max[:, None]
    cos_phi = np.where(bound, np.sqrt(np.maximum(1.0 - np.square(rho / u_max), 0.0)), 0.0)
    return cos_phi, np.where(bound, rho * rho / u_max - u_max, -np.inf)


def mask_reach(sat_bounds, user_bounds, user_r_min, min_elevation_deg, beams=None):
    """(Θ, Ω), each (n,), for n satellites and a set of users: Θ [rad] is
    the largest central angle between a satellite and a user at which the
    user can see it, at or above the elevation mask e and, given the
    satellites' ``beams``, inside the satellite's beam, and Ω [rad/s]
    bounds how fast that angle can change.

    A satellite at radius r_s is at elevation >= e from a user at radius
    r_u only within the central angle arccos(cos e r_u / r_s) - e, which
    rises with r_s and falls with r_u; so Θ takes it at the orbit's r_hi
    and ``user_r_min``, the users' least radius [km] over the instants to
    be bounded (a satellite that cannot rise to the mask gets Θ = -e).
    With beams, (nadir, param, group) of :func:`_beam_reach`, Θ is the
    lesser of that and the beam's bound Θ_b, taken at the same radii. The
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
    reach = _mask_angle(user_r_min, s_hi, math.radians(min_elevation_deg))
    beam, beam_reach, drop, _ = _beam_reach(beams, s_hi, np.array([float(user_r_min)]))
    np.minimum(reach, beam_reach[0].take(beam) - drop, out=reach)
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
    """c [km], each pair's least height z above the user's horizon plane at
    which the satellite is at or above the elevation mask e, for users at
    radius at most r_user and satellites at radius at least r_sat (arrays
    that broadcast to the pairs' shape).

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
        return np.zeros(np.broadcast(r_user, r_sat).shape)
    c = r_sat * r_sat - np.square(r_user * cos_e)
    np.maximum(c, 0.0, out=c)
    np.sqrt(c, out=c)
    c -= r_user * sin_e
    c *= sin_e
    c -= 1e-9 * r_sat + 1e-6
    return np.maximum(c, 0.0, out=c)


def _far_cos(cos0, cos1, turn):
    """A lower bound on cos γ_max, γ_max = min(γ0, γ1) + ``turn`` [rad], from
    the cosines of the central angles γ0 and γ1 at an interval's knots: with
    c = cos min(γ0, γ1) and s = sin of it, c (1 - turn^2 / 2) - s turn. It
    is above 0 only where γ_max < pi / 2."""
    c = np.maximum(np.maximum(cos0, cos1), 0.0)
    turn = np.minimum(turn, np.pi)  # any turn from pi / 2 on bounds nothing
    out = np.sqrt(1.0 - np.minimum(c * c, 1.0))
    out *= -turn
    out += c * (1.0 - 0.5 * turn * turn)
    return out


def _curvature(sat_bounds, user_bounds, sat_r_knots, span_max, cos_far):
    """(A, D): A [km/s^2] bounds z'' from above for pairs of a user and a
    satellite whose central angle stays within γ_max, given cos_far <= cos
    γ_max (:func:`_far_cos`), and D bounds the error [km/s] of ż taken from
    SGP4's velocities. The orbits' bounds, the satellite's largest knot
    radius ``sat_r_knots`` and cos_far are arrays that broadcast to the
    pairs' shape. A is infinite (no bound) where cos_far <= 0 or an orbit
    bound is not finite (deep-space or drag orbits), and at least 0, so
    that a parabola with it stays convex.

    With z = sat . û - r (r = |user|), q = sat . û = z + r, a_s and a_u the
    non-Keplerian accelerations of the satellite and the user (each within
    ``_ACCEL_MARGIN`` of mu / r_lo^2),

        z'' = -q (mu / |sat|^3 + mu / r^3 + r'' / r) + 2 sat' . û'
              - 2 r' (sat . û') / r - r'' + a_s . û + sat . a_u / r.

    Where γ <= γ_max < pi / 2, q >= s_lo cos γ_max > 0, so the first term
    is at most -s_lo cos γ_max (mu / s_r^3 + mu / u_hi^3 - r''_max / u_lo)
    (0 where that factor is not positive). |sat'| <= v_hi and |û'| <= v /
    r; on a Kepler orbit |r''| <= mu e / r_p^2 and |r'| <= e sqrt(mu / p)
    <= e sqrt(mu / r_p), with e <= (r_hi - r_lo) / (r_hi + r_lo); |sat| is
    at most s_r, the lesser of r_hi and the largest knot radius plus v_hi
    times half the longest knot interval. Near the zenith the first two
    terms nearly cancel, and A is about 15x smaller than a bound on |z''|.
    """
    s_lo, s_hi, s_v = sat_bounds
    u_lo, u_hi, u_v = user_bounds
    mu = MU_EARTH
    s_r = np.minimum(s_hi, sat_r_knots + 0.5 * span_max * s_v)
    u_e, u_rdd = _radial_accel(u_lo, u_hi)
    u_ang = u_v / u_lo
    u_rd = u_e * np.sqrt(mu / u_lo)
    pull = np.maximum(mu / s_r**3 + mu / u_hi**3 - u_rdd / u_lo, 0.0)
    up = (2.0 * u_ang * (s_v + u_rd * s_r / u_lo) + u_rdd
          + _ACCEL_MARGIN * mu * (1.0 / s_lo**2 + s_r / u_lo**3)
          - s_lo * np.maximum(cos_far, 0.0) * pull)
    bounded = (cos_far > 0.0) & np.isfinite(up) & np.isfinite(s_hi) & np.isfinite(u_hi)
    slack = _VELOCITY_SLACK * (s_v + u_v * (1.0 + s_r / u_lo))
    return np.where(bounded, np.maximum(up, 0.0), np.inf), slack


def _between_knots(z0, z1, v0, v1, accel, slack, gap, span, step_s):
    """(t, m): the steps strictly between knots that both parabola bounds of
    :func:`horizon_screen` keep, as the index t of their interval and the
    steps m after its first knot. Per interval: z0, z1, z - c at its two
    knots; v0, v1, ż there; accel, slack, the interval's A (at least 0)
    and D (:func:`_curvature`); gap, span, its length in steps and
    seconds."""
    half = 0.5 * accel * span * span
    # each bound's larger end value, over the whole interval
    fwd = np.maximum(z0 + (v0 + slack) * span + half, z0)
    bwd = np.maximum(z1 + (slack - v1) * span + half, z1)
    t = np.flatnonzero((fwd >= 0.0) & (bwd >= 0.0))
    # the intervals kept, step by step, as (steps, intervals) arrays of at
    # most _GEMM_SIZE / 3 values
    m = np.arange(1, int(gap.max(initial=1)))
    after = (m * step_s)[:, None]
    width = max(1, (_GEMM_SIZE // 3) // max(len(m), 1))
    out = []
    for c in range(0, len(t), width):
        i = t[c : c + width]
        a, d, n = 0.5 * accel.take(i), slack.take(i), gap.take(i)
        before = np.maximum(n - m[:, None], 1) * step_s  # positive also where masked
        keep = _parabola(z0.take(i), v0.take(i) + d, a, after) >= 0.0
        keep &= _parabola(z1.take(i), d - v1.take(i), a, before) >= 0.0
        keep &= m[:, None] < n
        k, at = np.divmod(np.flatnonzero(keep), len(i))
        out.append((i.take(at), m.take(k)))
    if not out:
        return t, t
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _parabola(z, rate, half_accel, h):
    """z + rate h + half_accel h^2, by broadcasting."""
    out = rate * h
    out += z
    h2 = half_accel * h
    h2 *= h
    out += h2
    return out


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
