"""Vectorized near-earth SGP4 over (satellite, time) grids.

Transcribes the near-earth branch of the scalar propagator into numpy
broadcasting so whole constellations advance per time block in a handful of
array operations. Deep-space objects (period >= 225 min) are rejected here
and must go through the scalar path; the engine routes them automatically.

Agreement with the scalar reference is enforced by tests to sub-millimeter.
"""

from __future__ import annotations

import numpy as np

from . import sgp4core
from .propagation import PropagationError
from .timebase import datetime_from_jd

_TWOPI = 2.0 * np.pi

# SatRecord attributes hoisted into per-satellite constant arrays
_FIELDS = (
    "mo argpo nodeo mdot argpdot nodedot nodecf cc1 cc4 cc5 bstar "
    "t2cof t3cof t4cof t5cof omgcof xmcof eta delmo sinmao d2 d3 d4 "
    "no_unkozai ecco aycof xlcof con41 x1mth2 x7thm1"
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
        for f in _FIELDS:
            setattr(self, f, col(f))
        self.isimp = np.array([r.isimp for r in records], dtype=bool)[:, None]
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
        :class:`PropagationError` naming the first object that decays or
        leaves the valid element range.
        """
        t = np.broadcast_to(np.asarray(t, dtype=float), (self.n, np.atleast_2d(t).shape[-1]))

        # secular gravity and drag
        xmdf = self.mo + self.mdot * t
        argpdf = self.argpo + self.argpdot * t
        nodedf = self.nodeo + self.nodedot * t
        t2 = t * t
        nodem = nodedf + self.nodecf * t2
        tempa = 1.0 - self.cc1 * t
        tempe = self.bstar * self.cc4 * t
        templ = self.t2cof * t2

        delomg = self.omgcof * t
        delmtemp = 1.0 + self.eta * np.cos(xmdf)
        delm = self.xmcof * (delmtemp * delmtemp * delmtemp - self.delmo)
        temp = delomg + delm
        lowalt = ~self.isimp
        mm = np.where(lowalt, xmdf + temp, xmdf)
        argpm = np.where(lowalt, argpdf - temp, argpdf)
        t3 = t2 * t
        t4 = t3 * t
        tempa = np.where(lowalt, tempa - self.d2 * t2 - self.d3 * t3 - self.d4 * t4, tempa)
        tempe = np.where(
            lowalt, tempe + self.bstar * self.cc5 * (np.sin(mm) - self.sinmao), tempe
        )
        templ = np.where(
            lowalt, templ + self.t3cof * t3 + t4 * (self.t4cof + t * self.t5cof), templ
        )

        am = (self.xke / self.no_unkozai) ** (2.0 / 3.0) * tempa * tempa
        nm = self.xke / am**1.5
        em = self.ecco - tempe

        bad = (em >= 1.0) | (em < -0.001)
        if bad.any():
            self._raise(bad, t, "mean eccentricity out of range")
        em = np.maximum(em, 1.0e-6)

        mm = mm + self.no_unkozai * templ
        xlm = mm + argpm + nodem

        nodem = np.where(nodem >= 0.0, nodem % _TWOPI, -((-nodem) % _TWOPI))
        argpm = argpm % _TWOPI
        xlm = xlm % _TWOPI
        mm = (xlm - argpm - nodem) % _TWOPI

        # long period periodics (near-earth: no lunar-solar terms)
        axnl = em * np.cos(argpm)
        temp = 1.0 / (am * (1.0 - em * em))
        aynl = em * np.sin(argpm) + temp * self.aycof
        xl = mm + argpm + nodem + temp * self.xlcof * axnl

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
            self._raise(pl < 0.0, t, "semilatus rectum below zero")

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

        mrt = rl * (1.0 - 1.5 * temp2 * betal * self.con41) + 0.5 * temp1 * self.x1mth2 * cos2u
        su = su - 0.25 * temp2 * self.x7thm1 * sin2u
        xnode = nodem + 1.5 * temp2 * self.cosip() * sin2u
        xinc = self.inclo_col() + 1.5 * temp2 * self.cosip() * self.sinip() * cos2u
        mvt = rdotl - nm * temp1 * self.x1mth2 * sin2u / self.xke
        rvdot = rvdotl + nm * temp1 * (self.x1mth2 * cos2u + 1.5 * self.con41) / self.xke

        if (mrt < 1.0).any():
            self._raise(mrt < 1.0, t, "orbit decayed (radius below Earth surface)")

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
        pos = np.stack((mr * ux, mr * uy, mr * uz), axis=-1)
        vel = np.stack(
            (
                (mvt * ux + rvdot * vx) * self.vkmpersec,
                (mvt * uy + rvdot * vy) * self.vkmpersec,
                (mvt * uz + rvdot * vz) * self.vkmpersec,
            ),
            axis=-1,
        )
        return pos, vel

    def propagate_jd(self, jd: float, fr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Propagate every record to the instants (jd, fr[t])."""
        return self.propagate_tsince(self.tsince_minutes(jd, fr))

    # per-sat inclination trig; near-earth SGP4 keeps inclination fixed at
    # the epoch value apart from short-period terms applied above
    def inclo_col(self) -> np.ndarray:
        if not hasattr(self, "_inclo"):
            self._inclo = np.array([r.inclo for r in self.records], dtype=float)[:, None]
            self._sinip = np.sin(self._inclo)
            self._cosip = np.cos(self._inclo)
        return self._inclo

    def sinip(self) -> np.ndarray:
        self.inclo_col()
        return self._sinip

    def cosip(self) -> np.ndarray:
        self.inclo_col()
        return self._cosip

    def _raise(self, bad: np.ndarray, t: np.ndarray, reason: str):
        """Name the first failing object, and the column and UTC instant of
        its first failing entry."""
        i, k = (int(x) for x in np.argwhere(np.broadcast_to(bad, t.shape))[0])
        utc = datetime_from_jd(self.epoch_jd[i], self.epoch_fr[i] + t[i, k] / 1440.0)
        raise PropagationError(
            f"SGP4 failed for {self.names[i]}: {reason}", self.names[i], step=k, utc=utc
        )
