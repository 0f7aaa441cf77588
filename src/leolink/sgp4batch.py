"""Vectorized near-earth SGP4 over (satellite, time) grids.

Transcribes the near-earth branch of the scalar propagator into numpy
broadcasting so whole constellations advance per time block in a handful of
array operations. Deep-space objects (period >= 225 min) are rejected here
and must go through the scalar path; the engine routes them automatically.

A call works through the satellites in row tiles of about ``TILE``
(satellite, step) elements and writes each tile's positions and velocities
into the preallocated (N, T, 3) outputs. The formulas create some 70
temporaries; at tile size each is 256 KB, so a ufunc's operands stay in the
core's L2 cache instead of streaming full (N, T) arrays through DRAM, and a
call's peak memory is its output plus one tile's temporaries. Tiles whose
satellites all have ``bstar == 0`` (every Walker shell) skip the secular
drag terms, which would add exactly zero there.

Agreement with the scalar reference is enforced by tests to sub-millimeter.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from . import sgp4core
from .propagation import PropagationError
from .timebase import datetime_from_jd

_TWOPI = 2.0 * np.pi

# (satellite, step) elements per tile; a tile holds max(1, TILE // T) rows
TILE = 32768

# SatRecord attributes hoisted into per-satellite constant arrays
_FIELDS = (
    "mo argpo nodeo mdot argpdot nodedot nodecf cc1 cc4 cc5 bstar "
    "t2cof t3cof t4cof t5cof omgcof xmcof eta delmo sinmao d2 d3 d4 "
    "no_unkozai ecco aycof xlcof con41 x1mth2 x7thm1 inclo"
).split()


class SatBatch:
    """Constellation-sized batch of initialized near-earth SGP4 records."""

    def __init__(self, records: list[sgp4core.SatRecord]):
        deep = [r.name for r in records if r.method != "n"]
        if deep:
            raise ValueError(f"deep-space records not supported in batch: {deep[:3]}")
        self.records = records
        self.n = len(records)
        self.names = [r.name for r in records]
        col = lambda f: np.array([getattr(r, f) for r in records], dtype=float)[:, None]
        self._cols = {f: col(f) for f in _FIELDS}
        self._cols["isimp"] = np.array([r.isimp for r in records], dtype=bool)[:, None]
        # near-earth SGP4 keeps inclination at its epoch value apart from
        # the short-period terms
        self._cols["sinip"] = np.sin(self._cols["inclo"])
        self._cols["cosip"] = np.cos(self._cols["inclo"])
        self.epoch_jd = np.array([r.epoch_jd for r in records], dtype=float)
        self.epoch_fr = np.array([r.epoch_fr for r in records], dtype=float)
        wc = records[0].whichconst if records else sgp4core.WGS72
        self.xke = wc[3]
        self.j2 = wc[4]
        self.radiusearthkm = wc[2]
        self.vkmpersec = self.radiusearthkm * self.xke / 60.0

    def tsince_minutes(self, jd: float, fr: np.ndarray) -> np.ndarray:
        """Minutes past each record's epoch for instants (jd, fr[t]) -> (N, T)."""
        fr = np.atleast_1d(np.asarray(fr, dtype=float))
        return ((jd - self.epoch_jd[:, None]) + (fr[None, :] - self.epoch_fr[:, None])) * 1440.0

    def propagate_tsince(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Propagate at per-pair offsets t [min], shape (N, T) or broadcastable.

        Returns (pos, vel) with shape (N, T, 3) in TEME km, km/s. Raises
        :class:`PropagationError` at the first tile in which an object
        decays or leaves the valid element range, naming that tile's first
        failing object.
        """
        t = np.broadcast_to(np.asarray(t, dtype=float), (self.n, np.atleast_2d(t).shape[-1]))
        pos = np.empty(t.shape + (3,))
        vel = np.empty(t.shape + (3,))
        rows = max(1, TILE // max(t.shape[1], 1))
        for r0 in range(0, self.n, rows):
            tile = slice(r0, r0 + rows)
            c = SimpleNamespace(**{f: a[tile] for f, a in self._cols.items()})
            self._propagate_tile(c, t[tile], pos[tile], vel[tile], r0)
        return pos, vel

    def propagate_jd(self, jd: float, fr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Propagate every record to the instants (jd, fr[t])."""
        return self.propagate_tsince(self.tsince_minutes(jd, fr))

    def _propagate_tile(self, c, t, pos, vel, r0: int) -> None:
        """Propagate the rows whose constants are the (rows, 1) columns of
        ``c`` at offsets ``t`` (rows, T) into ``pos``/``vel`` (rows, T, 3);
        ``r0`` is the tile's first row in the batch."""
        # secular gravity
        xmdf = c.mo + c.mdot * t
        argpdf = c.argpo + c.argpdot * t
        nodedf = c.nodeo + c.nodedot * t
        am = (self.xke / c.no_unkozai) ** (2.0 / 3.0)
        if c.bstar.any():
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

            am = am * tempa * tempa
            em = c.ecco - tempe
            mm = mm + c.no_unkozai * templ
        else:
            # Every drag coefficient (cc1, nodecf, omgcof, xmcof, d2-d4,
            # t2cof-t5cof) is bstar times a finite factor, and cc4/cc5 enter
            # only as bstar*cc4 and bstar*cc5, so with bstar == 0 each drag
            # term above adds exactly +-0: tempa is 1 and tempe, templ, delm
            # and delomg vanish. Adding a signed zero changes no value but a
            # -0.0 sum, which needs -0.0 elements (parsed angles are +0.0),
            # so skipping them leaves every bit unchanged, and am and em stay
            # per-satellite columns.
            nodem, mm, argpm, em = nodedf, xmdf, argpdf, c.ecco
        nm = self.xke / am**1.5

        bad = (em >= 1.0) | (em < -0.001)
        if bad.any():
            self._raise(bad, t, r0, "mean eccentricity out of range")
        em = np.maximum(em, 1.0e-6)

        xlm = mm + argpm + nodem

        nodem = np.where(nodem >= 0.0, nodem % _TWOPI, -((-nodem) % _TWOPI))
        argpm = argpm % _TWOPI
        xlm = xlm % _TWOPI
        mm = (xlm - argpm - nodem) % _TWOPI

        # long period periodics (near-earth: no lunar-solar terms)
        axnl = em * np.cos(argpm)
        temp = 1.0 / (am * (1.0 - em * em))
        aynl = em * np.sin(argpm) + temp * c.aycof
        xl = mm + argpm + nodem + temp * c.xlcof * axnl

        # Kepler's equation, Newton iteration with the reference clamping
        u = (xl - nodem) % _TWOPI
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
            self._raise(pl < 0.0, t, r0, "semilatus rectum below zero")

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

        mrt = rl * (1.0 - 1.5 * temp2 * betal * c.con41) + 0.5 * temp1 * c.x1mth2 * cos2u
        su = su - 0.25 * temp2 * c.x7thm1 * sin2u
        xnode = nodem + 1.5 * temp2 * c.cosip * sin2u
        xinc = c.inclo + 1.5 * temp2 * c.cosip * c.sinip * cos2u
        mvt = rdotl - nm * temp1 * c.x1mth2 * sin2u / self.xke
        rvdot = rvdotl + nm * temp1 * (c.x1mth2 * cos2u + 1.5 * c.con41) / self.xke

        if (mrt < 1.0).any():
            self._raise(mrt < 1.0, t, r0, "orbit decayed (radius below Earth surface)")

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

    def _raise(self, bad: np.ndarray, t: np.ndarray, r0: int, reason: str):
        """Name the first failing object of a tile starting at row ``r0``,
        and the column and UTC instant of its first failing entry."""
        i, k = (int(x) for x in np.argwhere(np.broadcast_to(bad, t.shape))[0])
        name = self.names[r0 + i]
        utc = datetime_from_jd(self.epoch_jd[r0 + i], self.epoch_fr[r0 + i] + t[i, k] / 1440.0)
        raise PropagationError(f"SGP4 failed for {name}: {reason}", name, step=k, utc=utc)
