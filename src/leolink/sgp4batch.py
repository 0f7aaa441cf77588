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
  recomputed per element. That nearly doubles the temporaries, which set
  a small fleet's peak memory, so these tiles hold only about
  ``DEEP_TILE`` elements: at twice that, a 24 h run of the 23 bundled GEO
  satellites peaked 6% higher, no faster.

Both kinds then share one Kepler / short-period / orientation tail, fed
(rows, 1) per-satellite columns for near-earth rows and (rows, T) arrays
for deep-space rows. Agreement with the scalar reference is enforced by
tests to sub-millimeter. A failure raises :class:`PropagationError` naming
the object, column and instant: each of the reference's error codes, and a
non-finite position or velocity, which the reference returns with no code.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from . import sgp4core
from .propagation import PropagationError
from .timebase import datetime_from_jd

_TWOPI = 2.0 * np.pi

# (satellite, step) elements per tile; a tile holds max(1, TILE // T) rows
TILE = 32768
DEEP_TILE = 4096

# SatRecord attributes hoisted into per-satellite constant arrays
_FIELDS = tuple(
    "mo argpo nodeo mdot argpdot nodedot nodecf cc1 cc4 cc5 bstar "
    "t2cof t3cof t4cof t5cof omgcof xmcof eta delmo sinmao d2 d3 d4 "
    "no_unkozai ecco aycof xlcof con41 x1mth2 x7thm1 inclo".split()
)
# the deep-space (lunar-solar and resonance) constants; zero on near-earth rows
_DEEP_FIELDS = tuple(
    "e3 ee2 peo pgho pho pinco plo se2 se3 sgh2 sgh3 sgh4 sh2 sh3 si2 si3 "
    "sl2 sl3 sl4 xgh2 xgh3 xgh4 xh2 xh3 xi2 xi3 xl2 xl3 xl4 zmol zmos "
    "d2201 d2211 d3210 d3222 d4410 d4422 d5220 d5232 d5421 d5433 "
    "dedt didt dmdt dnodt domdt del1 del2 del3 xfact xlamo gsto".split()
)

# lunar-solar periodics (_dpper)
_ZNS, _ZES, _ZNL, _ZEL = 1.19459e-5, 0.01675, 1.5835218e-4, 0.05490
# resonance integrator (_dspace)
_FASX2, _FASX4, _FASX6 = 0.13130908, 2.8843198, 0.37448087
_G22, _G32, _G44, _G52, _G54 = 5.7686396, 0.95240898, 1.8014998, 1.0508330, 4.4108898
_RPTIM = 4.37526908801129966e-3
_STEPP = 720.0
_STEP2 = 259200.0


class SatBatch:
    """Fleet-sized batch of initialized SGP4 records, in the given order."""

    def __init__(self, records: list[sgp4core.SatRecord]):
        self.records = records
        self.n = len(records)
        self.names = [r.name for r in records]
        self._cols = _columns(records, _FIELDS + ("epoch_jd", "epoch_fr", "isimp"))
        self._cols["isimp"] = self._cols["isimp"] != 0.0
        # near-earth SGP4 keeps inclination at its epoch value apart from
        # the short-period terms
        self._cols["sinip"] = np.sin(self._cols["inclo"])
        self._cols["cosip"] = np.cos(self._cols["inclo"])
        self.epoch_jd = self._cols.pop("epoch_jd")[:, 0]
        self.epoch_fr = self._cols.pop("epoch_fr")[:, 0]
        deep = [r.method == "d" for r in records]
        if any(deep):
            # only deep-space tiles read these; near-earth rows stay zero
            rows = [i for i, d in enumerate(deep) if d]
            recs = [records[i] for i in rows]
            self._cols.update(_columns(recs, _DEEP_FIELDS + ("irez",), rows, self.n))
            self._cols["afspc"] = np.zeros((self.n, 1), dtype=bool)
            self._cols["afspc"][rows, 0] = [r.operationmode == "a" for r in recs]
        # maximal runs of rows of one kind, as (start, stop, deep)
        edges = [0] + [i for i in range(1, self.n) if deep[i] != deep[i - 1]] + [self.n]
        self._runs = [(a, b, deep[a]) for a, b in zip(edges, edges[1:]) if a < b]
        wc = records[0].whichconst if records else sgp4core.WGS72
        self.xke = wc[3]
        self.j2 = wc[4]
        self.j3oj2 = wc[7]
        self.radiusearthkm = wc[2]
        self.vkmpersec = self.radiusearthkm * self.xke / 60.0

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
        failure = None
        for start, stop, deep in self._runs:
            rows = max(1, (DEEP_TILE if deep else TILE) // max(t.shape[1], 1))
            for r0 in range(start, stop, rows):
                tile = slice(r0, min(r0 + rows, stop))
                c = SimpleNamespace(**{f: a[tile] for f, a in self._cols.items()})
                try:
                    self._propagate_tile(c, t[tile], pos[tile], vel[tile], r0, deep)
                except PropagationError as exc:
                    exc = self._first_failure(c, t[tile], r0, deep, exc)
                    if failure is None or exc.step < failure.step:
                        failure = exc
        if failure is not None:
            raise failure
        return pos, vel

    def propagate_jd(self, jd: float, fr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Propagate every record to the instants (jd, fr[t])."""
        return self.propagate_tsince(self.tsince_minutes(jd, fr))

    def _propagate_tile(self, c, t, pos, vel, r0: int, deep: bool) -> None:
        """Propagate the rows whose constants are the (rows, 1) columns of
        ``c`` at offsets ``t`` (rows, T) into ``pos``/``vel`` (rows, T, 3);
        ``r0`` is the tile's first row in the batch, and ``deep`` says
        whether its rows are deep-space ones."""
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
            em, inclm, argpm, mm, nodem, nm = self._dspace(c, t, argpm, mm, nodem)
            if (nm <= 0.0).any():
                self._raise(nm <= 0.0, t, r0, 2)
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
            self._raise(bad, t, r0, 1)
        em = np.maximum(em, 1.0e-6)

        xlm = mm + argpm + nodem

        nodem = np.where(nodem >= 0.0, nodem % _TWOPI, -((-nodem) % _TWOPI))
        argpm = argpm % _TWOPI
        xlm = xlm % _TWOPI
        mm = (xlm - argpm - nodem) % _TWOPI

        if not deep:
            self._tail(c, t, pos, vel, r0, am, nm, em, c.inclo, nodem, argpm, mm)
            return

        ep, xincp, nodep, argpp, mp = self._dpper(c, t, em, inclm, nodem, argpm, mm)
        flip = xincp < 0.0
        if flip.any():
            xincp = np.where(flip, -xincp, xincp)
            nodep = np.where(flip, nodep + np.pi, nodep)
            argpp = np.where(flip, argpp - np.pi, argpp)
        bad = (ep < 0.0) | (ep > 1.0)
        if bad.any():
            self._raise(bad, t, r0, 3)

        # long period periodics: the inclination-dependent constants follow
        # the perturbed inclination
        sinip = np.sin(xincp)
        cosip = np.cos(xincp)
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
        self._tail(ic, t, pos, vel, r0, am, nm, ep, xincp, nodep, argpp, mp)

    def _tail(self, ic, t, pos, vel, r0, am, nm, ep, xincp, nodep, argpp, mp) -> None:
        """Long-period periodics, Kepler's equation, short-period periodics
        and orientation from the (perturbed) mean elements. ``ic`` holds
        ``sinip cosip aycof xlcof con41 x1mth2 x7thm1`` as (rows, 1)
        columns or (rows, T) arrays."""
        axnl = ep * np.cos(argpp)
        temp = 1.0 / (am * (1.0 - ep * ep))
        aynl = ep * np.sin(argpp) + temp * ic.aycof
        xl = mp + argpp + nodep + temp * ic.xlcof * axnl

        # Kepler's equation, Newton iteration with the reference clamping
        u = (xl - nodep) % _TWOPI
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
            self._raise(pl < 0.0, t, r0, 4)

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
            self._raise(mrt < 1.0, t, r0, 6)

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
            self._raise(bad, t, r0, "position or velocity is not finite")

    @staticmethod
    def _dspace(c, t, argpm, mm, nodem):
        """Secular lunar-solar rates and the resonance integrator of the
        reference ``_dspace`` -> (em, inclm, argpm, mm, nodem, nm).

        The reference never stores the integrator state back, so every call
        restarts at epoch and takes 720-minute steps towards ``t`` until
        fewer than 720 minutes remain. The state after k steps therefore
        depends only on the row and on k: it is built once per tile for
        every k the tile needs, in each direction, and gathered per element.
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
        delt = np.where(fwd, _STEPP, -_STEPP)
        k = np.floor(np.fabs(t) / _STEPP)
        k_fwd = int(k[fwd].max()) if fwd.any() else 0
        k_bwd = int(k[~fwd].max()) if not fwd.all() else 0
        # knot table, columns for k = k_bwd .. 1 backwards, then 0 .. k_fwd
        # forwards; the state at k = 0 is the epoch state in both directions
        bwd = _knots(c, k_bwd, -_STEPP)
        ahead = _knots(c, k_fwd, _STEPP)
        col = np.where(fwd, k_bwd + k, k_bwd - k).astype(np.intp)
        xli, xni, xldot, xndt, xnddt = (
            np.take_along_axis(np.concatenate([b[:, :0:-1], a], axis=1), col, axis=1)
            for b, a in zip(bwd, ahead)
        )

        ft = t - delt * k
        nm_r = xni + xndt * ft + xnddt * ft * ft * 0.5
        xl = xli + xldot * ft + xndt * ft * ft * 0.5
        theta = (c.gsto + t * _RPTIM) % _TWOPI
        mm_r = np.where(
            c.irez == 1, xl - nodem - argpm + theta, xl - 2.0 * nodem + 2.0 * theta
        )
        dndt = nm_r - c.no_unkozai
        nm_r = c.no_unkozai + dndt
        return em, inclm, argpm, np.where(res, mm_r, mm), nodem, np.where(res, nm_r, nm)

    @staticmethod
    def _dpper(c, t, ep, inclp, nodep, argpp, mp):
        """Lunar-solar periodics of the reference ``_dpper`` (after
        initialization), including the Lyddane form below 0.2 rad."""
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
        phs = np.divide(ph, sinip, out=np.zeros_like(ph), where=high)
        nodeh = nodep + phs
        argph = argpp + (pgh - cosip * phs)
        if high.all():
            return ep, inclp, nodeh, argph, mp + pl

        # below it, the Lyddane modification
        sinop = np.sin(nodep)
        cosop = np.cos(nodep)
        alfdp = sinip * sinop
        betdp = sinip * cosop
        dalf = ph * cosop + pinc * cosip * sinop
        dbet = -ph * sinop + pinc * cosip * cosop
        alfdp = alfdp + dalf
        betdp = betdp + dbet
        nodel = np.where(nodep >= 0.0, nodep % _TWOPI, -((-nodep) % _TWOPI))
        # the AFSPC wrap of angles used without a trigonometric function
        nodel = np.where((nodel < 0.0) & c.afspc, nodel + _TWOPI, nodel)
        xls = mp + argpp + pl + pgh + (cosip - pinc * sinip) * nodel
        xnoh = nodel
        nodel = np.arctan2(alfdp, betdp)
        nodel = np.where((nodel < 0.0) & c.afspc, nodel + _TWOPI, nodel)
        wrap = np.fabs(xnoh - nodel) > np.pi
        nodel = np.where(wrap, np.where(nodel < xnoh, nodel + _TWOPI, nodel - _TWOPI), nodel)
        mp = mp + pl
        argpl = xls - mp - cosip * nodel
        if not high.any():
            return ep, inclp, nodel, argpl, mp
        return ep, inclp, np.where(high, nodeh, nodel), np.where(high, argph, argpl), mp

    def _raise(self, bad: np.ndarray, t: np.ndarray, r0: int, code: int | str):
        """Raise the reference's error ``code`` (or the reason ``code``) for
        the first failing object of a tile starting at row ``r0``, with the
        column and UTC instant of its first failing entry."""
        i, k = (int(x) for x in np.argwhere(np.broadcast_to(bad, t.shape))[0])
        name = self.names[r0 + i]
        utc = datetime_from_jd(self.epoch_jd[r0 + i], self.epoch_fr[r0 + i] + t[i, k] / 1440.0)
        reason = sgp4core.SGP4_ERRORS.get(code, code)
        raise PropagationError(f"SGP4 failed for {name}: {reason}", name, step=k, utc=utc)

    def _first_failure(self, c, t, r0: int, deep: bool, exc: PropagationError):
        """The failure of a tile at its earliest failing column, naming the
        first object that fails there. A tile runs each check on all its
        columns at once, so the first check to fail need not be the one
        that fails first in time: the tile is run again on the columns
        before the failure until they all pass, then row by row on the
        failing column."""

        def attempt(rows: slice, cols: slice):
            sub = SimpleNamespace(**{f: a[rows] for f, a in vars(c).items()})
            ts = t[rows, cols]
            out = np.empty(ts.shape + (3,))
            try:
                self._propagate_tile(sub, ts, out, out.copy(), r0 + rows.start, deep)
            except PropagationError as e:
                return e
            return None

        k = exc.step
        while k > 0 and (earlier := attempt(slice(0, len(t)), slice(0, k))) is not None:
            k = earlier.step
        for i in range(len(t)):
            first = attempt(slice(i, i + 1), slice(k, k + 1))
            if first is not None:
                first.step = k
                return first
        return exc


def _columns(records, fields, rows=None, n=None) -> dict[str, np.ndarray]:
    """Each attribute in ``fields`` of every record as a float column, read
    in one pass over the records: (len(records), 1), or (n, 1) with the
    records at ``rows`` and zeros elsewhere."""
    get = itemgetter(*fields)
    m = np.fromiter(
        chain.from_iterable(get(vars(r)) for r in records), float, len(records) * len(fields)
    ).reshape(len(records), len(fields))
    if rows is not None:
        full = np.zeros((n, len(fields)))
        full[rows] = m
        m = full
    return dict(zip(fields, np.ascontiguousarray(m.T)[:, :, None]))


def _knots(c, kmax: int, delt: float):
    """The resonance integrator's state (xli, xni) and rates (xldot, xndt,
    xnddt) after k = 0 .. kmax steps of ``delt`` minutes from epoch, as
    (rows, kmax + 1) arrays, one column per k."""
    xli = c.xlamo
    xni = c.no_unkozai
    knots = []
    for k in range(kmax + 1):
        atime = k * delt
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
        knots.append((xli, xni, xldot, xndt, xnddt))
        xli = xli + xldot * delt + xndt * _STEP2
        xni = xni + xndt * delt + xnddt * _STEP2
    return [np.concatenate(q, axis=1) for q in zip(*knots)]
