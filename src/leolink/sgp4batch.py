"""Vectorized SGP4/SDP4 over (satellite, time) grids.

Transcribes the scalar propagator (:mod:`leolink.sgp4core`, the reference
the tests pin this module to) into numpy broadcasting, so a whole fleet,
near-earth and deep-space objects alike, advances per time block in a
handful of array operations.

A call works through the satellites in row tiles and writes each tile's
positions and velocities into the preallocated (N, T, 3) outputs. A tile
never mixes the two kinds of object: tiles end wherever the record's method
changes in row order.

* Near-earth tiles hold about ``TILE`` (satellite, step) elements. The
  formulas create some 70 temporaries; at tile size each is 256 KB, so a
  ufunc's operands stay in the core's L2 cache instead of streaming full
  (N, T) arrays through DRAM, and a call's peak memory is its output plus
  one tile's temporaries. Tiles whose satellites all have ``bstar == 0``
  (every Walker shell) skip the secular drag terms, which would add exactly
  zero there.
* Deep-space tiles (period >= 225 min) add the secular lunar-solar
  rates, the resonance integrator of ``_dspace`` and the lunar-solar
  periodics of ``_dpper``, with the inclination-dependent constants
  recomputed per element. The integrator's states at its 720-minute knots
  belong to the batch, not the tile: a call first grows one table of them
  (:class:`_Resonance`) to every knot its instants reach, and each element
  gathers its knot's state from it, so a tile costs the same however far
  its instants are from the TLE epoch. The periodics nearly double the
  temporaries, which set a small fleet's peak memory, so these tiles hold
  only about ``DEEP_TILE`` elements: at twice that, a 24 h run of the 23
  bundled GEO satellites peaked 3% higher in RSS (46.8 against 45.3 MB)
  and ran no faster (2-vCPU Xeon).

Both kinds then share one Kepler / short-period / orientation tail, fed
(rows, 1) per-satellite columns for near-earth rows and (rows, T) arrays
for deep-space rows. Agreement with the scalar reference is enforced by
tests to sub-millimeter. A failure raises :class:`PropagationError` naming
the object, column and instant: each of the reference's error codes, and a
non-finite position or velocity, which the reference returns with no code.

Angles wrap through C's fmod, in forms with the bits of the reference's
floor-mod expressions (:func:`_mod2pi`); numpy's remainder also computes
the quotient.

:meth:`SatBatch.propagate_pairs` runs the same tiles on scattered
(record, instant) pairs instead of a grid: each pair tile gathers its
records' constants into (P, 1) columns, and its outputs are bit-identical
to the grid's.

A batch is built from TLEs, from initialised scalar records and from
:class:`Slots`. The near-earth branch of :func:`sgp4core.sgp4init` runs over
the element columns of every TLE row in one call (:func:`_near_init`),
calling libm per row wherever numpy need not round as libm does, so each
column has the bits of the row's scalar record. Deep-space rows keep scalar
init: a caller passes their records, or each TLE with the scalar init that
the batch runs if the row is one that scalar init takes (:func:`tle_kinds`
says which those are). The TLE rows that :attr:`SatBatch.may_fail` are
propagated once at their epoch, as scalar init does, and the first in row
order that fails with one of SGP4's error codes raises scalar init's error,
as does the first scalar init that fails. A :class:`Slots` entry stands for
many rows, the slots of one Walker shell that cannot fail: their columns are
its first slot's, with each slot's node and mean anomaly and the two
constants that depend on them.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import attrgetter, itemgetter
from types import SimpleNamespace

import numpy as np

from . import sgp4core
from .propagation import PropagationError
from .timebase import datetime_from_jd, julian_date
from .tle import TwoLineElementSet

_TWOPI = 2.0 * np.pi
# (tumin, mu, radiusearthkm, xke, j2, j3, j4, j3oj2) of every record
_WGS72 = sgp4core.WGS72
# the reason a batch gives for a state that is not finite, which has no SGP4
# error code
_NOT_FINITE = "position or velocity is not finite"

# (satellite, step) elements per tile; a tile holds max(1, TILE // T) rows
TILE = 32768
DEEP_TILE = 4096

# Relative widening of the mean-element perigee and apogee in orbit_bounds.
# Batch positions of 600 random orbits (near-earth and deep-space, perigee
# 200 km up to a = 46,000 km, e up to 0.75, over +-3 days of epoch) stayed
# within 0.31% of the mean-element perigee and 0.1% of the apogee.
RADIUS_MARGIN = 0.01

# Angle [rad] added to the bound of mean_directions on how far a direction
# is from its prediction, for rounding and Kepler's equation, which is
# solved to 1e-12 rad. On random orbits that cannot fail (perigee from 300
# km, e up to 0.48, within 3 days of epoch) the largest angle seen was
# 0.996 of the bound. On the OneWeb and Starlink shells over a 512-step
# block at 10 s, it was at most 0.21 deg and 0.92 of the bound (0.12 to
# 0.28 deg, most of it the aycof term and the node's motion).
DIRECTION_MARGIN = 1e-6

# SatRecord attributes hoisted into per-satellite constant arrays
_FIELDS = tuple(
    "mo argpo nodeo mdot argpdot nodedot nodecf cc1 cc4 cc5 bstar "
    "t2cof t3cof t4cof t5cof omgcof xmcof eta delmo sinmao d2 d3 d4 "
    "no_unkozai ecco aycof xlcof con41 x1mth2 x7thm1 inclo".split()
)
# the constants only the secular drag terms read
_DRAG_FIELDS = tuple(
    "cc1 cc4 cc5 nodecf omgcof xmcof eta delmo sinmao d2 d3 d4 t2cof t3cof t4cof t5cof "
    "isimp".split()
)
# the columns a near-earth tile reads, with and without drag
_NEAR_COLUMNS = _FIELDS + ("isimp", "sinip", "cosip")
_DRAG_FREE_COLUMNS = tuple(f for f in _NEAR_COLUMNS if f not in _DRAG_FIELDS)
# the columns mean_directions reads
_DIRECTION_COLUMNS = tuple(
    "mo argpo nodeo mdot argpdot nodedot no_unkozai ecco aycof xlcof x7thm1 sinip cosip".split()
)
# the deep-space (lunar-solar and resonance) constants; zero on near-earth rows
_DEEP_FIELDS = tuple(
    "e3 ee2 peo pgho pho pinco plo se2 se3 sgh2 sgh3 sgh4 sh2 sh3 si2 si3 "
    "sl2 sl3 sl4 xgh2 xgh3 xgh4 xh2 xh3 xi2 xi3 xl2 xl3 xl4 zmol zmos "
    "d2201 d2211 d3210 d3222 d4410 d4422 d5220 d5232 d5421 d5433 "
    "dedt didt dmdt dnodt domdt del1 del2 del3 xfact xlamo gsto".split()
)
# the constants that only the resonance integrator's knots read, and all
# those they read (_Resonance)
_RESONANCE_FIELDS = tuple(
    "xlamo xfact del1 del2 del3 d2201 d2211 d3210 d3222 d4410 d4422 d5220 d5232 d5421 "
    "d5433".split()
)
_KNOT_FIELDS = _RESONANCE_FIELDS + ("no_unkozai", "argpo", "argpdot", "irez")
# the columns a deep-space tile reads besides a near-earth tile's
_DEEP_COLUMNS = tuple(f for f in _DEEP_FIELDS + ("irez",) if f not in _RESONANCE_FIELDS)

# lunar-solar periodics (_dpper)
_ZNS, _ZES, _ZNL, _ZEL = 1.19459e-5, 0.01675, 1.5835218e-4, 0.05490
# resonance integrator (_dspace)
_FASX2, _FASX4, _FASX6 = 0.13130908, 2.8843198, 0.37448087
_G22, _G32, _G44, _G52, _G54 = 5.7686396, 0.95240898, 1.8014998, 1.0508330, 4.4108898
_RPTIM = 4.37526908801129966e-3
_STEPP = 720.0
_STEP2 = 259200.0


@dataclass(frozen=True)
class Slots:
    """Rows that share a near-earth TLE's constants but for their node and
    mean anomaly at epoch [rad], as the slots of one Walker shell do:
    near-earth :func:`sgp4core.sgp4init` reads those two angles only into
    ``nodeo`` and ``mo`` and, through :func:`sgp4core.mean_anomaly_terms`,
    ``delmo`` and ``sinmao``. ``tle`` gives the other constants; it is not
    checked against the angles, and no filled row is checked at its epoch:
    slots are for rows that cannot fail (:func:`tle_kinds`)."""

    tle: TwoLineElementSet
    names: Sequence[str]
    nodeo: np.ndarray
    mo: np.ndarray


def tle_kinds(tles: Sequence[TwoLineElementSet]) -> tuple[np.ndarray, np.ndarray]:
    """Per TLE, (scalar, may_fail): whether :class:`SatBatch` leaves its row
    to scalar init, and whether propagating it may fail
    (:attr:`SatBatch.may_fail`), both from the mean motion that
    :func:`sgp4core.sgp4init` un-Kozais. Scalar init takes the deep-space
    rows (a period of 225 min or more) and those whose period is not a
    number, which it handles as it will."""
    bstar, ecco, no_kozai, _, inclo, _, _ = _elements(tles)
    no_unkozai = _unkozai(no_kozai, ecco, inclo)[0]
    scalar = _scalar(no_unkozai)
    r_lo, _ = _radii(no_unkozai, ecco, bstar != 0.0, _WGS72[2], _WGS72[3])
    return scalar, _may_fail(scalar, r_lo, _WGS72[2])


def _may_fail(deep, r_lo, radiusearthkm):
    """:attr:`SatBatch.may_fail` from each record's deep-space flag and r_lo."""
    return deep | (r_lo <= radiusearthkm)


def _radii(no_unkozai, ecco, drag, radiusearthkm, xke):
    """Per record, (r_lo, r_hi) of :meth:`SatBatch.orbit_bounds` [km]."""
    a = radiusearthkm * (xke / no_unkozai) ** (2.0 / 3.0)
    r_lo = np.where(drag, radiusearthkm, a * (1.0 - ecco) * (1.0 - RADIUS_MARGIN))
    r_hi = np.where(drag, np.inf, a * (1.0 + ecco) * (1.0 + RADIUS_MARGIN))
    return r_lo, r_hi


class SatBatch:
    """Fleet-sized batch of initialized SGP4 records, in the given order.

    An entry is a TLE, which the batch initialises, a (TLE, scalar init)
    pair, whose scalar init the batch runs if the row is one that scalar
    init takes (:func:`tle_kinds`), a scalar record, or a :class:`Slots`
    entry, which stands for one row per slot. Every row's constants are
    copied into columns; no record is kept. Set-up raises scalar init's
    error for the first row that scalar init rejects: a pair's scalar init
    that fails, or a TLE row that fails at its epoch with one of SGP4's
    error codes."""

    def __init__(
        self,
        records: list[TwoLineElementSet | sgp4core.SatRecord | Slots
                      | tuple[TwoLineElementSet, Callable[[TwoLineElementSet], sgp4core.SatRecord]]],
    ):
        entries = [r[0] if type(r) is tuple else r for r in records]
        # each entry's TLE, a Slots entry's its template; None for a record
        tles = [None if isinstance(r, sgp4core.SatRecord) else r.tle if isinstance(r, Slots)
                else r for r in entries]
        at = [i for i, t in enumerate(tles) if t is not None]
        elements = _elements([tles[i] for i in at])
        unkozai = _unkozai(elements[2], elements[1], elements[4])
        scalar = _scalar(unkozai[0])
        if scalar.any():
            for i in compress(at, scalar.tolist()):
                if type(records[i]) is not tuple:
                    raise ValueError(
                        f"{tles[i].name or tles[i].catalog_id}: deep-space rows need scalar init"
                    )
                try:
                    entries[i] = records[i][1](tles[i])
                except PropagationError:
                    SatBatch(entries[:i])  # raises the error of an earlier row that fails
                    raise
            near = ~scalar
            at = list(compress(at, near.tolist()))
            elements = [c[near] for c in elements]
            unkozai = [c[near] for c in unkozai]
        is_rec = [isinstance(r, sgp4core.SatRecord) for r in entries]
        is_slots = [isinstance(r, Slots) for r in entries]
        sizes = [len(r.names) if s else 1 for r, s in zip(entries, is_slots)]
        starts = list(accumulate(sizes, initial=0))
        self.n = starts.pop()
        # each row's name, formatted when first read (an error message reads one)
        self._names = [
            r.names if s else (r.name if c else r.name or str(r.catalog_id),)
            for r, s, c in zip(entries, is_slots, is_rec)
        ]
        recs = list(compress(entries, is_rec))
        fields = _FIELDS + ("epoch_jd", "epoch_fr", "isimp")
        source = _matrix(recs, fields)
        if at:
            near = _near_init([tles[i] for i in at], elements, unkozai)
            # every entry's constants, from those of the records, then of the TLEs
            source = np.concatenate([source, [near[f] for f in fields]], axis=1)
            rec = np.array(is_rec, dtype=bool)
            source = source[:, np.where(rec, np.cumsum(rec), len(recs) + np.cumsum(~rec)) - 1]
        self._cols = dict(zip(fields, np.repeat(source, sizes, axis=1)[:, :, None]))
        for r, a in zip(compress(entries, is_slots), compress(starts, is_slots)):
            rows = slice(a, a + len(r.names))
            self._cols["nodeo"][rows, 0] = r.nodeo
            self._cols["mo"][rows, 0] = r.mo
            self._cols["delmo"][rows, 0], self._cols["sinmao"][rows, 0] = _mean_anomaly_terms(
                self._cols["eta"][a, 0], r.mo
            )
        self._cols["isimp"] = self._cols["isimp"] != 0.0
        # near-earth SGP4 keeps inclination at its epoch value apart from
        # the short-period terms
        self._cols["sinip"] = np.sin(self._cols["inclo"])
        self._cols["cosip"] = np.cos(self._cols["inclo"])
        self.epoch_jd = self._cols.pop("epoch_jd")[:, 0]
        self.epoch_fr = self._cols.pop("epoch_fr")[:, 0]
        rec_rows = list(compress(starts, is_rec))
        deep = [i for i, r in enumerate(recs) if r.method == "d"]
        self.deep = np.zeros(self.n, dtype=bool)
        if deep:
            # only deep-space tiles read these; near-earth rows stay zero
            rows = [rec_rows[i] for i in deep]
            self.deep[rows] = True
            deep_recs = [recs[i] for i in deep]
            # the AFSPC mode of the lunar-solar periodics, init_record's default
            other = [r.name for r in deep_recs if r.operationmode != "a"]
            if other:
                raise ValueError(f"{other[0]}: deep-space records need operation mode 'a'")
            fields = _DEEP_FIELDS + ("irez",)
            full = np.zeros((len(fields), self.n))
            full[:, rows] = _matrix(deep_recs, fields)
            self._cols.update(zip(fields, full[:, :, None]))
        resonant = [rec_rows[i] for i in deep if recs[i].irez != 0]
        self._resonance = _Resonance(self._cols, resonant, self.n) if resonant else None
        # maximal runs of rows of one kind, as (start, stop, deep)
        edges = [0, *(np.flatnonzero(np.diff(self.deep)) + 1).tolist(), self.n]
        self._runs = [(a, b, bool(self.deep[a])) for a, b in zip(edges, edges[1:]) if a < b]
        self.mu = _WGS72[1]
        self.xke = _WGS72[3]
        self.j2 = _WGS72[4]
        self.j3oj2 = _WGS72[7]
        self.radiusearthkm = _WGS72[2]
        self.vkmpersec = self.radiusearthkm * self.xke / 60.0
        self._drag = self._cols["bstar"][:, 0] != 0.0
        # scalar init's epoch check, on the TLE rows that may fail
        rows = np.array([a for a, s, c in zip(starts, is_slots, is_rec) if not (s or c)],
                        dtype=np.intp)
        self._check_epochs(rows[self.may_fail[rows]])

    @cached_property
    def names(self) -> list[str]:
        """The name of each row."""
        return list(chain.from_iterable(self._names))

    def orbit_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per record, (r_lo, r_hi, v_hi): the radius [km] stays within
        [r_lo, r_hi] and the speed [km/s] below v_hi at every instant that
        propagates. The arrays are computed once per batch and read-only.

        The radii are the mean-element perigee and apogee widened by
        ``RADIUS_MARGIN``, and v_hi is the vis-viva speed at r_lo of the
        orbit from r_lo to r_hi, the fastest orbit in that range. Drag
        lowers an orbit without limit until SGP4 stops it at the Earth's
        surface, so a record with drag gets r_lo = the Earth radius, no
        r_hi (infinity) and the escape speed there. A deep-space position can
        jump: below 0.2 rad inclination, where the lunar-solar periodics take
        the Lyddane form, SGP4 moved a 12 h orbit by over a kilometre within
        one second as its node crossed zero. Deep-space records therefore
        get no speed bound (v_hi infinite).
        """
        return self._bounds

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r_lo, r_hi = _radii(self._cols["no_unkozai"][:, 0], self._cols["ecco"][:, 0], self._drag,
                            self.radiusearthkm, self.xke)
        v_hi = np.sqrt(2.0 * self.mu / r_lo / (1.0 + r_lo / r_hi))
        bounds = r_lo, r_hi, np.where(self.deep, np.inf, v_hi)
        for b in bounds:
            b.flags.writeable = False
        return bounds

    @property
    def may_fail(self) -> np.ndarray:
        """Per record, whether propagation can fail at some instant.

        A near-earth record without drag keeps its mean elements: its
        eccentricity, mean motion and semi-major axis are constants, so
        only the radius check (the object below the Earth's surface) can
        fail, and not while r_lo is above the surface. Deep-space records
        (lunar-solar terms and resonances move their elements) and records
        with drag can fail.
        """
        r_lo, _, _ = self.orbit_bounds()
        return _may_fail(self.deep, r_lo, self.radiusearthkm)

    def mean_directions(
        self, jd: float, fr: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(directions, margin): unit vectors (T, 3, R) that predict the
        directions of records ``rows``, which must not :attr:`may_fail`, at
        the instants (jd, fr[t]), one (3, R) product operand per instant,
        and each record's bound (R,) [rad] on the angle from them to the
        direction that propagation gives there.

        Such a record keeps e, i and a constant, and its node Ω and its
        argument of latitude λ = ω + M advance at constant rates. The
        prediction is the circular orbit at λ in the plane of (Ω, i), with
        Ω taken at the middle of the instants: λ advances by one rotation
        per record and distinct interval between instants (complex
        products), not by trigonometric functions at each instant. A
        direction moves by at most the change of each of its three angles,
        so the margin adds how far each can be from the prediction:

        * λ: the equation of centre of the long-period eccentricity vector
          (axnl, aynl), whose size is e' <= e + |aycof| / p, with p = a (1 -
          e^2) in Earth radii (below 2 asin(e'), checked for e' up to 0.9);
          the long-period term |xlcof| e / p; the short-period term
          |x7thm1| k / 4;
        * Ω: the node's motion over half the instants' span; the
          short-period term 3 |cos i| k / 2;
        * i: the short-period term 3 |cos i sin i| k / 2,

        where k = j2 / (2 (a (1 - e'^2))^2) bounds SGP4's temp2. The sum,
        plus ``DIRECTION_MARGIN``, is the margin.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if self.deep[rows].any() or self._drag[rows].any():
            raise ValueError("mean directions need records without drag or deep-space terms")
        fr = np.atleast_1d(np.asarray(fr, dtype=float))
        c = SimpleNamespace(**{f: self._cols[f][rows, 0] for f in _DIRECTION_COLUMNS})
        t0 = ((jd - self.epoch_jd[rows]) + (fr[0] - self.epoch_fr[rows])) * 1440.0
        half = 0.5 * (fr[-1] - fr[0]) * 1440.0
        node = c.nodeo + c.nodedot * (t0 + half)
        sin_n, cos_n = np.sin(node), np.cos(node)
        # exp(iλ) per instant, from one rotation per distinct interval [min]
        rate = c.mdot + c.argpdot
        steps, which = np.unique(np.round(np.diff(fr) * 1440.0, 9), return_inverse=True)
        turn = np.exp(1j * rate * steps[:, None])
        lat = np.empty((len(fr), len(rows)), dtype=complex)
        lat[0] = np.exp(1j * (c.mo + c.argpo + rate * t0))
        for j, interval in enumerate(which, 1):
            np.multiply(lat[j - 1], turn[interval], out=lat[j])
        # cos λ times the node's direction plus sin λ times the direction 90
        # deg along the orbit from it, axis by axis
        cos_l, sin_l = lat.real, lat.imag
        out = np.empty((len(fr), 3, len(rows)))
        for axis, (at_node, ahead) in enumerate(
            ((cos_n, -sin_n * c.cosip), (sin_n, cos_n * c.cosip))
        ):
            np.multiply(cos_l, at_node, out=out[:, axis])
            out[:, axis] += sin_l * ahead
        np.multiply(sin_l, c.sinip, out=out[:, 2])

        e = np.maximum(c.ecco, 1e-6)
        a = (self.xke / c.no_unkozai) ** (2.0 / 3.0)
        p = a * (1.0 - e * e)
        e_lp = e + np.abs(c.aycof) / p
        k = 0.5 * self.j2 / np.square(a * (1.0 - e_lp * e_lp))
        margin = 2.0 * np.arcsin(e_lp) + np.abs(c.xlcof) * e / p + 0.25 * np.abs(c.x7thm1) * k
        margin += np.abs(c.nodedot) * half + 1.5 * k * np.abs(c.cosip) * (1.0 + np.abs(c.sinip))
        return out, margin + DIRECTION_MARGIN

    def tsince_minutes(self, jd: float, fr: np.ndarray) -> np.ndarray:
        """Minutes past each record's epoch for instants (jd, fr[t]) -> (N, T)."""
        fr = np.atleast_1d(np.asarray(fr, dtype=float))
        return ((jd - self.epoch_jd[:, None]) + (fr[None, :] - self.epoch_fr[:, None])) * 1440.0

    def propagate_tsince(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Propagate at per-pair offsets t [min], shape (N, T) or broadcastable.

        Returns (pos, vel) with shape (N, T, 3) in TEME km, km/s. Raises
        :class:`PropagationError` if an object decays or leaves the valid
        element range, naming the earliest failing column and the first
        object failing there, as a scalar loop over the columns would.
        """
        t = np.broadcast_to(np.asarray(t, dtype=float), (self.n, np.atleast_2d(t).shape[-1]))
        pos = np.empty(t.shape + (3,))
        vel = np.empty(t.shape + (3,))
        if self._resonance is not None:
            self._resonance.grow(t[self._resonance.resonant])
        failures = []  # (step, row, error) of each failing tile
        for start, stop, deep in self._runs:
            rows = max(1, (DEEP_TILE if deep else TILE) // max(t.shape[1], 1))
            for r0 in range(start, stop, rows):
                tile = slice(r0, min(r0 + rows, stop))
                fields = _tile_columns(deep, self._drag[tile].any())
                c = SimpleNamespace(**{f: self._cols[f][tile] for f in fields})
                at = (np.arange(tile.start, tile.stop), None)
                try:
                    self._propagate_tile(c, t[tile], pos[tile], vel[tile], at, deep)
                except PropagationError as exc:
                    failures.append(self._first_failure(c, t[tile], at, deep, exc))
        if failures:
            raise min(failures)[2]
        return pos, vel

    def propagate_pairs(
        self, jd: float, fr: np.ndarray, rows: np.ndarray, steps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Propagate record ``rows[p]`` to the instant (jd, fr[steps[p]]) for
        each pair p; ``rows`` must ascend. Returns (pos, vel), each (P, 3).

        Each tile gathers its pairs' per-record constants into (P, 1)
        columns, and tsince is the expression of :meth:`tsince_minutes`, so a
        pair's output is bit-identical to the same element of
        :meth:`propagate_jd`. A failure names the failing pair's object, its
        step (an index into ``fr``) and instant: the earliest failing step,
        and there the first failing row, as :meth:`propagate_jd` on the same
        instants would if these were the only failing pairs.
        """
        fr = np.atleast_1d(np.asarray(fr, dtype=float))
        rows = np.asarray(rows, dtype=np.intp)
        steps = np.asarray(steps, dtype=np.intp)
        tsince = ((jd - self.epoch_jd[rows]) + (fr[steps] - self.epoch_fr[rows])) * 1440.0
        pos, vel, failures = self._pairs(tsince, rows, steps)
        if failures:
            raise min(failures)[2]
        return pos, vel

    def _pairs(self, tsince, rows, steps):
        """The tiles of :meth:`propagate_pairs` at the pairs' offsets
        ``tsince`` [min]: (pos, vel, failures), the (step, row, error) of
        each failing tile's first failure."""
        pos = np.empty((len(rows), 3))
        vel = np.empty((len(rows), 3))
        if self._resonance is not None:
            self._resonance.grow(tsince[self._resonance.resonant[rows]])
        failures = []
        edges = np.searchsorted(rows, [start for start, _, _ in self._runs] + [self.n])
        for (_, _, deep), p0, p1 in zip(self._runs, edges, edges[1:]):
            size = DEEP_TILE if deep else TILE
            for a in range(p0, p1, size):
                tile = slice(a, min(a + size, p1))
                r, k = rows[tile], steps[tile]
                fields = _tile_columns(deep, self._drag[r].any())
                c = SimpleNamespace(**{f: self._cols[f][r] for f in fields})
                t = tsince[tile, None]
                try:
                    self._propagate_tile(c, t, pos[tile, None], vel[tile, None], (r, k), deep)
                except PropagationError as exc:
                    failures.append(self._first_failure(c, t, (r, k), deep, exc))
        return pos, vel, failures

    def _check_epochs(self, rows: np.ndarray) -> None:
        """Raise scalar init's error for the first of ``rows`` (ascending)
        that scalar init rejects: propagated to its epoch, it fails with one
        of SGP4's error codes. A state that is not finite has no code, and
        scalar init keeps its record."""
        while len(rows):
            zeros = np.zeros(len(rows))
            _, _, failures = self._pairs(zeros, rows, zeros.astype(np.intp))
            if not failures:
                return
            _, row, exc = min(failures)
            if not exc.args[0].endswith(_NOT_FINITE):
                message = exc.args[0].replace("SGP4 failed", "SGP4 init failed", 1)
                raise PropagationError(message, exc.object_name)
            rows = rows[rows > row]

    def propagate_jd(self, jd: float, fr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Propagate every record to the instants (jd, fr[t])."""
        return self.propagate_tsince(self.tsince_minutes(jd, fr))

    def _propagate_tile(self, c, t, pos, vel, at, deep: bool) -> None:
        """Propagate the rows whose constants are the (rows, 1) columns of
        ``c`` at offsets ``t`` (rows, T) into ``pos``/``vel`` (rows, T, 3).
        ``at`` locates the elements for errors: (the batch row of each tile
        row, None) when columns are steps, or (rows, steps) of the pairs of
        a (P, 1) pair tile. ``deep`` says whether the rows are deep-space
        ones."""
        # secular gravity
        xmdf = c.mo + c.mdot * t
        argpdf = c.argpo + c.argpdot * t
        nodedf = c.nodeo + c.nodedot * t
        drag = bool(c.bstar.any())
        if drag:
            # secular drag
            t2 = t * t
            nodem = nodedf + c.nodecf * t2
            tempa = 1.0 - c.cc1 * t
            tempe = c.bstar * c.cc4 * t
            templ = c.t2cof * t2

            delomg = c.omgcof * t
            delmtemp = 1.0 + c.eta * np.cos(xmdf)
            delm = c.xmcof * (delmtemp * delmtemp * delmtemp - c.delmo)
            temp = delomg + delm
            lowalt = ~c.isimp
            mm = np.where(lowalt, xmdf + temp, xmdf)
            argpm = np.where(lowalt, argpdf - temp, argpdf)
            t3 = t2 * t
            t4 = t3 * t
            tempa = np.where(lowalt, tempa - c.d2 * t2 - c.d3 * t3 - c.d4 * t4, tempa)
            tempe = np.where(lowalt, tempe + c.bstar * c.cc5 * (np.sin(mm) - c.sinmao), tempe)
            templ = np.where(lowalt, templ + c.t3cof * t3 + t4 * (c.t4cof + t * c.t5cof), templ)
        else:
            # Every drag coefficient (cc1, nodecf, omgcof, xmcof, d2-d4,
            # t2cof-t5cof) is bstar times a finite factor, and cc4/cc5 enter
            # only as bstar*cc4 and bstar*cc5, so with bstar == 0 each drag
            # term above adds exactly +-0: tempa is 1 and tempe, templ, delm
            # and delomg vanish. Adding a signed zero changes no value but a
            # -0.0 sum, which needs -0.0 elements (parsed angles are +0.0),
            # so skipping them leaves every bit unchanged, and am and em stay
            # per-satellite columns.
            nodem, mm, argpm = nodedf, xmdf, argpdf

        if deep:
            em, inclm, argpm, mm, nodem, nm = self._dspace(c, t, at[0], argpm, mm, nodem)
            if (nm <= 0.0).any():
                self._raise(nm <= 0.0, t, at, 2)
        else:
            em, inclm, nm = c.ecco, c.inclo, c.no_unkozai
        am = (self.xke / nm) ** (2.0 / 3.0)
        if drag:
            am = am * tempa * tempa
            em = em - tempe
            mm = mm + c.no_unkozai * templ
        nm = self.xke / am**1.5

        bad = (em >= 1.0) | (em < -0.001)
        if bad.any():
            self._raise(bad, t, at, 1)
        em = np.maximum(em, 1.0e-6)

        xlm = mm + argpm + nodem

        # the remainder with the sign of nodem (C's fmod), and +0.0 for -0.0
        nodem = np.fmod(nodem + 0.0, _TWOPI)
        argpm = _mod2pi(argpm)
        xlm = _mod2pi(xlm)
        mm = _mod2pi(xlm - argpm - nodem)

        if not deep:
            self._tail(c, t, pos, vel, at, am, nm, em, c.inclo, nodem, argpm, mm)
            return

        ep, xincp, nodep, argpp, mp, sinip, cosip = self._dpper(c, t, em, inclm, nodem, argpm, mm)
        flip = xincp < 0.0
        if flip.any():
            xincp = np.where(flip, -xincp, xincp)
            nodep = np.where(flip, nodep + np.pi, nodep)
            argpp = np.where(flip, argpp - np.pi, argpp)
            sinip = np.sin(xincp)
            cosip = np.cos(xincp)
        bad = (ep < 0.0) | (ep > 1.0)
        if bad.any():
            self._raise(bad, t, at, 3)

        # long period periodics: the inclination-dependent constants follow
        # the perturbed inclination
        cosisq = cosip * cosip
        # the reference's guard against dividing by zero at 180 degrees
        den = np.where(np.fabs(cosip + 1.0) > 1.5e-12, 1.0 + cosip, 1.5e-12)
        ic = SimpleNamespace(
            sinip=sinip,
            cosip=cosip,
            aycof=-0.5 * self.j3oj2 * sinip,
            xlcof=-0.25 * self.j3oj2 * sinip * (3.0 + 5.0 * cosip) / den,
            con41=3.0 * cosisq - 1.0,
            x1mth2=1.0 - cosisq,
            x7thm1=7.0 * cosisq - 1.0,
        )
        self._tail(ic, t, pos, vel, at, am, nm, ep, xincp, nodep, argpp, mp)

    def _tail(self, ic, t, pos, vel, at, am, nm, ep, xincp, nodep, argpp, mp) -> None:
        """Long-period periodics, Kepler's equation, short-period periodics
        and orientation from the (perturbed) mean elements. ``ic`` holds
        ``sinip cosip aycof xlcof con41 x1mth2 x7thm1`` as (rows, 1)
        columns or (rows, T) arrays."""
        axnl = ep * np.cos(argpp)
        temp = 1.0 / (am * (1.0 - ep * ep))
        aynl = ep * np.sin(argpp) + temp * ic.aycof
        xl = mp + argpp + nodep + temp * ic.xlcof * axnl

        # Kepler's equation, Newton iteration with the reference clamping
        u = _mod2pi(xl - nodep)
        eo1 = u.copy()
        pending = np.ones_like(u, dtype=bool)
        for _ in range(10):
            sineo1 = np.sin(eo1)
            coseo1 = np.cos(eo1)
            tem5 = 1.0 - coseo1 * axnl - sineo1 * aynl
            tem5 = (u - aynl * coseo1 + axnl * sineo1 - eo1) / tem5
            tem5 = np.clip(tem5, -0.95, 0.95)
            eo1 = np.where(pending, eo1 + tem5, eo1)
            pending = pending & (np.abs(tem5) >= 1.0e-12)
            if not pending.any():
                break
        sineo1 = np.sin(eo1)
        coseo1 = np.cos(eo1)

        # short period preliminaries
        ecose = axnl * coseo1 + aynl * sineo1
        esine = axnl * sineo1 - aynl * coseo1
        el2 = axnl * axnl + aynl * aynl
        pl = am * (1.0 - el2)
        if (pl < 0.0).any():
            self._raise(pl < 0.0, t, at, 4)

        rl = am * (1.0 - ecose)
        rdotl = np.sqrt(am) * esine / rl
        rvdotl = np.sqrt(pl) / rl
        betal = np.sqrt(1.0 - el2)
        temp = esine / (1.0 + betal)
        sinu = am / rl * (sineo1 - aynl - axnl * temp)
        cosu = am / rl * (coseo1 - axnl + aynl * temp)
        su = np.arctan2(sinu, cosu)
        sin2u = (cosu + cosu) * sinu
        cos2u = 1.0 - 2.0 * sinu * sinu
        temp = 1.0 / pl
        temp1 = 0.5 * self.j2 * temp
        temp2 = temp1 * temp

        mrt = rl * (1.0 - 1.5 * temp2 * betal * ic.con41) + 0.5 * temp1 * ic.x1mth2 * cos2u
        su = su - 0.25 * temp2 * ic.x7thm1 * sin2u
        xnode = nodep + 1.5 * temp2 * ic.cosip * sin2u
        xinc = xincp + 1.5 * temp2 * ic.cosip * ic.sinip * cos2u
        mvt = rdotl - nm * temp1 * ic.x1mth2 * sin2u / self.xke
        rvdot = rvdotl + nm * temp1 * (ic.x1mth2 * cos2u + 1.5 * ic.con41) / self.xke

        if (mrt < 1.0).any():
            self._raise(mrt < 1.0, t, at, 6)

        # orientation
        sinsu = np.sin(su)
        cossu = np.cos(su)
        snod = np.sin(xnode)
        cnod = np.cos(xnode)
        sini = np.sin(xinc)
        cosi = np.cos(xinc)
        xmx = -snod * cosi
        xmy = cnod * cosi
        ux = xmx * sinsu + cnod * cossu
        uy = xmy * sinsu + snod * cossu
        uz = sini * sinsu
        vx = xmx * cossu - cnod * sinsu
        vy = xmy * cossu - snod * sinsu
        vz = sini * cossu

        mr = mrt * self.radiusearthkm
        pos[..., 0] = mr * ux
        pos[..., 1] = mr * uy
        pos[..., 2] = mr * uz
        vel[..., 0] = (mvt * ux + rvdot * vx) * self.vkmpersec
        vel[..., 1] = (mvt * uy + rvdot * vy) * self.vkmpersec
        vel[..., 2] = (mvt * uz + rvdot * vz) * self.vkmpersec
        # degenerate elements, such as a subnormal inclination, can give NaN
        # with no error code from the reference
        if not np.isfinite(pos.sum() + vel.sum()):
            bad = ~(np.isfinite(pos).all(axis=-1) & np.isfinite(vel).all(axis=-1))
            self._raise(bad, t, at, _NOT_FINITE)

    def _dspace(self, c, t, rows, argpm, mm, nodem):
        """Secular lunar-solar rates and the resonance integrator of the
        reference ``_dspace`` -> (em, inclm, argpm, mm, nodem, nm);
        ``rows`` holds the batch row of each of the tile's rows.

        The reference never stores the integrator state back, so every call
        restarts at epoch and takes 720-minute steps towards ``t`` until
        fewer than 720 minutes remain. The state after k steps therefore
        depends only on the row and on k: each element reads it from the
        batch's table (:class:`_Resonance`), which the call has grown to
        every k it needs.
        """
        em = c.ecco + c.dedt * t
        inclm = c.inclo + c.didt * t
        argpm = argpm + c.domdt * t
        nodem = nodem + c.dnodt * t
        mm = mm + c.dmdt * t
        nm = c.no_unkozai
        res = c.irez != 0
        if not res.any():
            return em, inclm, argpm, mm, nodem, nm

        # The reference loop stops at the first k with |t - atime_k| < 720,
        # atime_k = +-720 k (exact in binary): k = floor(|t| / 720). The
        # rounded quotient cannot reach an integer the exact one falls
        # short of, since 720 m - ulp(720 m) divided by 720 stays more than
        # half a spacing below m, so the floor is exact.
        fwd = t > 0.0
        k = np.floor(np.fabs(t) / _STEPP)
        xli, xni, xldot, xndt, xnddt = self._resonance.gather(rows, fwd, k)

        ft = t - np.where(fwd, _STEPP, -_STEPP) * k
        nm_r = xni + xndt * ft + xnddt * ft * ft * 0.5
        xl = xli + xldot * ft + xndt * ft * ft * 0.5
        theta = _mod2pi(c.gsto + t * _RPTIM)
        mm_r = np.where(
            c.irez == 1, xl - nodem - argpm + theta, xl - 2.0 * nodem + 2.0 * theta
        )
        dndt = nm_r - c.no_unkozai
        nm_r = c.no_unkozai + dndt
        return em, inclm, argpm, np.where(res, mm_r, mm), nodem, np.where(res, nm_r, nm)

    @staticmethod
    def _dpper(c, t, ep, inclp, nodep, argpp, mp):
        """Lunar-solar periodics of the reference ``_dpper`` (after
        initialization), including the Lyddane form below 0.2 rad ->
        (ep, inclp, nodep, argpp, mp, sin(inclp), cos(inclp))."""
        zm = c.zmos + _ZNS * t
        zf = zm + 2.0 * _ZES * np.sin(zm)
        sinzf = np.sin(zf)
        f2 = 0.5 * sinzf * sinzf - 0.25
        f3 = -0.5 * sinzf * np.cos(zf)
        ses = c.se2 * f2 + c.se3 * f3
        sis = c.si2 * f2 + c.si3 * f3
        sls = c.sl2 * f2 + c.sl3 * f3 + c.sl4 * sinzf
        sghs = c.sgh2 * f2 + c.sgh3 * f3 + c.sgh4 * sinzf
        shs = c.sh2 * f2 + c.sh3 * f3
        zm = c.zmol + _ZNL * t
        zf = zm + 2.0 * _ZEL * np.sin(zm)
        sinzf = np.sin(zf)
        f2 = 0.5 * sinzf * sinzf - 0.25
        f3 = -0.5 * sinzf * np.cos(zf)
        sel = c.ee2 * f2 + c.e3 * f3
        sil = c.xi2 * f2 + c.xi3 * f3
        sll = c.xl2 * f2 + c.xl3 * f3 + c.xl4 * sinzf
        sghl = c.xgh2 * f2 + c.xgh3 * f3 + c.xgh4 * sinzf
        shll = c.xh2 * f2 + c.xh3 * f3
        pe = ses + sel - c.peo
        pinc = sis + sil - c.pinco
        pl = sls + sll - c.plo
        pgh = sghs + sghl - c.pgho
        ph = shs + shll - c.pho
        inclp = inclp + pinc
        ep = ep + pe
        sinip = np.sin(inclp)
        cosip = np.cos(inclp)

        # the standard form at or above 0.2 rad, dividing by sin(i) only there
        high = inclp >= 0.2
        if high.any():
            phs = np.divide(ph, sinip, out=np.zeros_like(ph), where=high)
            nodeh = nodep + phs
            argph = argpp + (pgh - cosip * phs)
            if high.all():
                return ep, inclp, nodeh, argph, mp + pl, sinip, cosip

        # below it, the Lyddane modification
        sinop = np.sin(nodep)
        cosop = np.cos(nodep)
        alfdp = sinip * sinop
        betdp = sinip * cosop
        dalf = ph * cosop + pinc * cosip * sinop
        dbet = -ph * sinop + pinc * cosip * cosop
        alfdp = alfdp + dalf
        betdp = betdp + dbet
        # the remainder with the sign of nodep (C's fmod), and +0.0 for -0.0
        nodel = np.fmod(nodep + 0.0, _TWOPI)
        # the AFSPC wrap of angles used without a trigonometric function
        nodel = np.where(nodel < 0.0, nodel + _TWOPI, nodel)
        xls = mp + argpp + pl + pgh + (cosip - pinc * sinip) * nodel
        xnoh = nodel
        nodel = np.arctan2(alfdp, betdp)
        nodel = np.where(nodel < 0.0, nodel + _TWOPI, nodel)
        wrap = np.fabs(xnoh - nodel) > np.pi
        nodel = np.where(wrap, np.where(nodel < xnoh, nodel + _TWOPI, nodel - _TWOPI), nodel)
        mp = mp + pl
        argpl = xls - mp - cosip * nodel
        if not high.any():
            return ep, inclp, nodel, argpl, mp, sinip, cosip
        nodep, argpp = np.where(high, nodeh, nodel), np.where(high, argph, argpl)
        return ep, inclp, nodep, argpp, mp, sinip, cosip

    def _raise(self, bad: np.ndarray, t: np.ndarray, at, code: int | str):
        """Raise the reference's error ``code`` (or the reason ``code``) for
        the first failing element of a tile located by ``at``, naming its
        object, step and UTC instant."""
        i, k = (int(x) for x in np.argwhere(np.broadcast_to(bad, t.shape))[0])
        rows, steps = at
        row = int(rows[i])
        utc = datetime_from_jd(self.epoch_jd[row], self.epoch_fr[row] + t[i, k] / 1440.0)
        reason = sgp4core.SGP4_ERRORS.get(code, code)
        step = k if steps is None else int(steps[i])
        name = self.names[row]
        raise PropagationError(f"SGP4 failed for {name}: {reason}", name, step, utc)

    def _first_failure(self, c, t, at, deep: bool, exc: PropagationError):
        """(step, row, error) of a tile's first failure: its earliest failing
        step, and there its first failing row. A tile runs each check on all
        its elements at once, so the first check to fail need not be the one
        that fails first in time: the tile's elements before the failure's
        step are run again until they all pass, then one by one at that
        step. A (rows, T) tile is first taken apart into its elements."""
        rows, steps = at
        if steps is None:
            n, n_cols = t.shape
            each = np.repeat(np.arange(n), n_cols)
            c = SimpleNamespace(**{f: a[each] for f, a in vars(c).items()})
            t, rows, steps = t.reshape(-1, 1), rows[each], np.tile(np.arange(n_cols), n)

        def attempt(sel: np.ndarray):
            if not len(sel):
                return None
            sub = SimpleNamespace(**{f: a[sel] for f, a in vars(c).items()})
            out = np.empty((len(sel), 1, 3))
            try:
                self._propagate_tile(sub, t[sel], out, out.copy(), (rows[sel], steps[sel]), deep)
            except PropagationError as e:
                return e
            return None

        k = exc.step
        while (earlier := attempt(np.flatnonzero(steps < k))) is not None:
            k = earlier.step
        for i in np.flatnonzero(steps == k):
            if (first := attempt(np.array([i]))) is not None:
                return k, int(rows[i]), first
        return k, int(rows[0]), exc


def _tile_columns(deep: bool, drag: bool) -> tuple[str, ...]:
    """The columns a tile of rows reads: a near-earth tile's, with the drag
    constants only if some row has drag, and a deep-space tile's besides."""
    return (_NEAR_COLUMNS if drag else _DRAG_FREE_COLUMNS) + (_DEEP_COLUMNS if deep else ())


def _matrix(records, fields) -> np.ndarray:
    """Each attribute in ``fields`` of every record as a float array
    (len(fields), len(records)), read in one pass over the records."""
    get = itemgetter(*fields)
    return np.fromiter(
        chain.from_iterable(get(vars(r)) for r in records), float, len(records) * len(fields)
    ).reshape(len(records), len(fields)).T


# the elements satrec_from_tle reads from a TLE, the angles last
_TLE_ELEMENTS = attrgetter(
    "bstar", "eccentricity", "mean_motion", "arg_perigee", "inclination", "mean_anomaly", "raan"
)


def _elements(tles) -> np.ndarray:
    """(bstar, ecco, no_kozai, argpo, inclo, mo, nodeo) of the TLEs, each
    (n,), with the bits :func:`propagation.satrec_from_tle` gives them."""
    m = np.fromiter(chain.from_iterable(map(_TLE_ELEMENTS, tles)), float, 7 * len(tles))
    m = m.reshape(-1, 7).T
    return m[0], m[1], m[2] * 2.0 * math.pi / 1440.0, *(m[3:] * (math.pi / 180.0))


def _libm(f, x: np.ndarray, *exponent: float) -> np.ndarray:
    """``f`` of :mod:`math` (libm) on each element of ``x``, raised to
    ``exponent`` for ``pow``: numpy's cos, sin and power need not round as
    libm does."""
    return np.fromiter(map(f, x.tolist(), *(repeat(e) for e in exponent)), float, len(x))


def _unkozai(no_kozai, ecco, inclo):
    """(no_unkozai, cosio, cosio2, omeosq, rteosq) of ``sgp4core._initl``
    over columns."""
    xke, j2 = _WGS72[3], _WGS72[4]
    omeosq = 1.0 - ecco * ecco
    rteosq = np.sqrt(omeosq)
    cosio = _libm(math.cos, inclo)
    cosio2 = cosio * cosio
    ak = _libm(math.pow, xke / no_kozai, 2.0 / 3.0)
    d1 = 0.75 * j2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq)
    del_ = d1 / (ak * ak)
    adel = ak * (1.0 - del_ * del_ - del_ * (1.0 / 3.0 + 134.0 * del_ * del_ / 81.0))
    del_ = d1 / (adel * adel)
    return no_kozai / (1.0 + del_), cosio, cosio2, omeosq, rteosq


def _scalar(no_unkozai: np.ndarray) -> np.ndarray:
    """The rows that keep scalar init (:func:`tle_kinds`)."""
    return ~(2.0 * math.pi / no_unkozai < 225.0)


def _mean_anomaly_terms(eta, mo: np.ndarray):
    """:func:`sgp4core.mean_anomaly_terms` over columns, with libm's cos and sin."""
    d = 1.0 + eta * _libm(math.cos, mo)
    return d * d * d, _libm(math.sin, mo)


def _near_init(tles, elements, unkozai) -> dict[str, np.ndarray]:
    """The constants a batch reads, each (n,) (``isimp`` as 0.0 or 1.0), of
    the near-earth branch of :func:`sgp4core.sgp4init` (with ``_initl``) on
    each TLE, from its :func:`_elements` and :func:`_unkozai`, with every
    bit of its scalar record: numpy runs each operation of the reference in
    its order, and libm its cos, sin and pow."""
    _, _, re, xke, j2, _, j4, j3oj2 = _WGS72
    x2o3 = 2.0 / 3.0
    bstar, ecco, no_kozai, argpo, inclo, mo, nodeo = elements
    no_unkozai, cosio, cosio2, omeosq, rteosq = unkozai
    # one julian_date per distinct epoch: a fleet's or the users' is often one
    epochs = {t.epoch for t in tles}
    jd = dict(zip(epochs, map(julian_date, epochs)))
    epoch_jd, epoch_fr = np.array([jd[t.epoch] for t in tles], dtype=float).reshape(-1, 2).T

    ao = _libm(math.pow, xke / no_unkozai, x2o3)
    sinio = _libm(math.sin, inclo)
    po = ao * omeosq
    con42 = 1.0 - 5.0 * cosio2
    con41 = -con42 - cosio2 - cosio2
    posq = po * po
    rp = ao * (1.0 - ecco)

    isimp = rp < 220.0 / re + 1.0
    qzms2ttemp = (120.0 - 78.0) / re
    perige = (rp - 1.0) * re
    # for perigees below 156 km, s and qoms2t are altered
    low = perige < 156.0
    sfour = np.where(perige < 98.0, 20.0, perige - 78.0)
    qzms24temp = (120.0 - sfour) / re
    qzms24 = np.where(low, qzms24temp * qzms24temp * qzms24temp * qzms24temp,
                      qzms2ttemp * qzms2ttemp * qzms2ttemp * qzms2ttemp)
    sfour = np.where(low, sfour / re + 1.0, 78.0 / re + 1.0)

    pinvsq = 1.0 / posq
    tsi = 1.0 / (ao - sfour)
    eta = ao * ecco * tsi
    etasq = eta * eta
    eeta = ecco * eta
    psisq = np.fabs(1.0 - etasq)
    coef = qzms24 * _libm(math.pow, tsi, 4.0)
    coef1 = coef / _libm(math.pow, psisq, 3.5)
    cc2 = coef1 * no_unkozai * (ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq)) + 0.375 * j2
                                * tsi / psisq * con41 * (8.0 + 3.0 * etasq * (8.0 + etasq)))
    cc1 = bstar * cc2
    # cc3 and xmcof only above e = 1e-4, and 0.0 below
    eccentric = ecco > 1.0e-4
    cc3 = np.divide(-2.0 * coef * tsi * j3oj2 * no_unkozai * sinio, ecco,
                    out=np.zeros_like(ecco), where=eccentric)
    x1mth2 = 1.0 - cosio2
    cc4 = 2.0 * no_unkozai * coef1 * ao * omeosq * (
        eta * (2.0 + 0.5 * etasq) + ecco * (0.5 + 2.0 * etasq) - j2 * tsi / (ao * psisq)
        * (-3.0 * con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta)) + 0.75 * x1mth2
           * (2.0 * etasq - eeta * (1.0 + etasq)) * _libm(math.cos, 2.0 * argpo))
    )
    cc5 = 2.0 * coef1 * ao * omeosq * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq)
    cosio4 = cosio2 * cosio2
    temp1 = 1.5 * j2 * pinvsq * no_unkozai
    temp2 = 0.5 * temp1 * j2 * pinvsq
    temp3 = -0.46875 * j4 * pinvsq * pinvsq * no_unkozai
    mdot = (no_unkozai + 0.5 * temp1 * rteosq * con41
            + 0.0625 * temp2 * rteosq * (13.0 - 78.0 * cosio2 + 137.0 * cosio4))
    argpdot = (-0.5 * temp1 * con42 + 0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4)
               + temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4))
    xhdot1 = -temp1 * cosio
    nodedot = xhdot1 + (0.5 * temp2 * (4.0 - 19.0 * cosio2)
                        + 2.0 * temp3 * (3.0 - 7.0 * cosio2)) * cosio
    omgcof = bstar * cc3 * _libm(math.cos, argpo)
    xmcof = np.divide(-x2o3 * coef * bstar, eeta, out=np.zeros_like(eeta), where=eccentric)
    nodecf = 3.5 * omeosq * xhdot1 * cc1
    # the reference's guard against dividing by zero at 180 degrees
    den = np.where(np.fabs(cosio + 1.0) > 1.5e-12, 1.0 + cosio, 1.5e-12)
    xlcof = -0.25 * j3oj2 * sinio * (3.0 + 5.0 * cosio) / den
    delmo, sinmao = _mean_anomaly_terms(eta, mo)

    # the drag terms of perigees below 220 km (isimp), 0.0 above
    cc1sq = cc1 * cc1
    d2 = 4.0 * ao * tsi * cc1sq
    temp = d2 * tsi * cc1 / 3.0
    d3 = (17.0 * ao + sfour) * temp
    d4 = 0.5 * temp * ao * tsi * (221.0 * ao + 31.0 * sfour) * cc1
    t3cof = d2 + 2.0 * cc1sq
    t4cof = 0.25 * (3.0 * d3 + cc1 * (12.0 * d2 + 10.0 * cc1sq))
    t5cof = 0.2 * (3.0 * d4 + 12.0 * cc1 * d3 + 6.0 * d2 * d2 + 15.0 * cc1sq * (2.0 * d2 + cc1sq))
    d2, d3, d4, t3cof, t4cof, t5cof = np.where(isimp, 0.0, [d2, d3, d4, t3cof, t4cof, t5cof])
    return dict(
        mo=mo, argpo=argpo, nodeo=nodeo, mdot=mdot, argpdot=argpdot, nodedot=nodedot,
        nodecf=nodecf, cc1=cc1, cc4=cc4, cc5=cc5, bstar=bstar, t2cof=1.5 * cc1, t3cof=t3cof,
        t4cof=t4cof, t5cof=t5cof, omgcof=omgcof, xmcof=xmcof, eta=eta, delmo=delmo,
        sinmao=sinmao, d2=d2, d3=d3, d4=d4, no_unkozai=no_unkozai, ecco=ecco,
        aycof=-0.5 * j3oj2 * sinio, xlcof=xlcof, con41=con41, x1mth2=x1mth2,
        x7thm1=7.0 * cosio2 - 1.0, inclo=inclo, epoch_jd=epoch_jd, epoch_fr=epoch_fr,
        isimp=isimp.astype(float),
    )


def _mod2pi(x: np.ndarray) -> np.ndarray:
    """``x % 2π`` with its bits, +0.0 for -0.0 and for multiples of 2π
    included: numpy's remainder computes the quotient too, C's fmod does
    not."""
    r = np.fmod(x, _TWOPI)
    r += np.where(r < 0.0, _TWOPI, 0.0)
    return r


class _Resonance:
    """The resonance integrator's states at its knots, for the resonant rows
    of a batch.

    The state after k 720-minute steps from epoch depends only on the row,
    on k and on the direction, so the table holds (xli, xni, xldot, xndt,
    xnddt) for k = 0 .. K in each direction as one (5, R, kb + 1 + kf)
    array, k forwards at column kb + k and backwards at kb - k. The state at
    k = 0 is the epoch state in both directions: its rates read the time
    only through xomi + xli - g terms, which lose the sign of a zero time.
    :meth:`grow` extends the table, continuing the recurrence from the
    outermost column on each side, so each value has the bits of a restart
    at epoch. :meth:`gather` only reads it: a call grows the table before
    its tiles run. The table lives as long as the batch and holds
    5 R (kb + 1 + kf) floats, 8 bytes each, for the furthest k any call
    reached: 0.7 MB for the 23 bundled GEO satellites a year from their
    epoch, and twice that while :meth:`grow` copies it.
    """

    def __init__(self, cols: dict[str, np.ndarray], rows: list[int], n: int):
        self.resonant = np.zeros(n, dtype=bool)
        self.resonant[rows] = True
        # each batch row's row in the table; 0 for the rows not in it, which
        # read that row's epoch column and discard it
        self._index = np.zeros(n, dtype=np.intp)
        self._index[rows] = np.arange(len(rows))
        self._c = SimpleNamespace(**{f: cols[f][rows, 0] for f in _KNOT_FIELDS})
        # (kb, states), replaced whole, so that a tile reads a matching pair;
        # the epoch column is made by the first call. Calls on other threads
        # grow it in turn, so that it only grows.
        self._table = None
        self._lock = threading.Lock()

    def grow(self, t: np.ndarray) -> None:
        """Extend the table to every k that the tsince values ``t`` [min]
        of resonant rows reach."""
        fwd = t > 0.0
        k = np.floor(np.fabs(t) / _STEPP)
        kf = int(k[fwd].max()) if fwd.any() else 0
        kb = int(k[~fwd].max()) if not fwd.all() else 0
        with self._lock:
            if self._table is None:
                c = self._c
                epoch = (c.xlamo, c.no_unkozai, *_rates(c, c.xlamo, c.no_unkozai, 0.0))
                self._table = (0, np.stack(epoch)[:, :, None])
            have_b, states = self._table
            have_f = states.shape[2] - 1 - have_b
            if kb <= have_b and kf <= have_f:
                return
            # a row's states beyond the k its own instants reach may
            # overflow; no tile reads them
            with np.errstate(over="ignore", invalid="ignore"):
                back = _knots(self._c, states[:, :, 0], have_b, kb, -_STEPP)
                ahead = _knots(self._c, states[:, :, -1], have_f, kf, _STEPP)
            states = np.concatenate([back[:, :, ::-1], states, ahead], axis=2)
            self._table = (max(kb, have_b), states)

    def gather(self, rows: np.ndarray, fwd: np.ndarray, k: np.ndarray) -> np.ndarray:
        """(xli, xni, xldot, xndt, xnddt), each shaped as ``k``: the state
        after ``k`` steps, forwards where ``fwd``, of batch row ``rows[i]``
        at row i of ``k``; a row not in the table reads the epoch column,
        since its own k may lie beyond every column the table holds."""
        kb, states = self._table
        k = np.where(self.resonant[rows][:, None], k, 0.0)
        col = np.where(fwd, kb + k, kb - k).astype(np.intp)
        flat = self._index[rows][:, None] * states.shape[2] + col
        return states.reshape(len(states), -1)[:, flat]


def _knots(c, state: np.ndarray, k0: int, k1: int, delt: float) -> np.ndarray:
    """The integrator's states after k = k0 + 1 .. k1 steps of ``delt``
    minutes from epoch, (5, rows, k1 - k0), from ``state`` (5, rows), the
    state after k0 steps; (5, rows, 0) if k1 <= k0."""
    out = np.empty(state.shape + (max(0, k1 - k0),))
    # contiguous copies, as a tile's columns are
    xli, xni, xldot, xndt, xnddt = (np.array(s) for s in state)
    for j, k in enumerate(range(k0 + 1, k1 + 1)):
        xli = xli + xldot * delt + xndt * _STEP2
        xni = xni + xndt * delt + xnddt * _STEP2
        xldot, xndt, xnddt = _rates(c, xli, xni, k * delt)
        out[:, :, j] = xli, xni, xldot, xndt, xnddt
    return out


def _rates(c, xli, xni, atime: float):
    """The integrator's rates (xldot, xndt, xnddt) at state (xli, xni),
    ``atime`` minutes from epoch."""
    xldot = xni + c.xfact
    # near-synchronous resonance (irez 1)
    s1 = np.sin(xli - _FASX2)
    s2 = np.sin(2.0 * (xli - _FASX4))
    s3 = np.sin(3.0 * (xli - _FASX6))
    xndt1 = c.del1 * s1 + c.del2 * s2 + c.del3 * s3
    xnddt1 = (
        c.del1 * np.cos(xli - _FASX2)
        + 2.0 * c.del2 * np.cos(2.0 * (xli - _FASX4))
        + 3.0 * c.del3 * np.cos(3.0 * (xli - _FASX6))
    )
    # near-half-day resonance (irez 2)
    xomi = c.argpo + c.argpdot * atime
    x2omi = xomi + xomi
    x2li = xli + xli
    xndt2 = (
        c.d2201 * np.sin(x2omi + xli - _G22) + c.d2211 * np.sin(xli - _G22)
        + c.d3210 * np.sin(xomi + xli - _G32) + c.d3222 * np.sin(-xomi + xli - _G32)
        + c.d4410 * np.sin(x2omi + x2li - _G44) + c.d4422 * np.sin(x2li - _G44)
        + c.d5220 * np.sin(xomi + xli - _G52) + c.d5232 * np.sin(-xomi + xli - _G52)
        + c.d5421 * np.sin(xomi + x2li - _G54) + c.d5433 * np.sin(-xomi + x2li - _G54)
    )
    xnddt2 = (
        c.d2201 * np.cos(x2omi + xli - _G22) + c.d2211 * np.cos(xli - _G22)
        + c.d3210 * np.cos(xomi + xli - _G32) + c.d3222 * np.cos(-xomi + xli - _G32)
        + c.d5220 * np.cos(xomi + xli - _G52) + c.d5232 * np.cos(-xomi + xli - _G52)
        + 2.0 * (
            c.d4410 * np.cos(x2omi + x2li - _G44)
            + c.d4422 * np.cos(x2li - _G44) + c.d5421 * np.cos(xomi + x2li - _G54)
            + c.d5433 * np.cos(-xomi + x2li - _G54)
        )
    )
    half_day = c.irez == 2
    xndt = np.where(half_day, xndt2, xndt1)
    xnddt = np.where(half_day, xnddt2, xnddt1) * xldot
    return xldot, xndt, xnddt
