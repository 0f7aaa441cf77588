"""Scalar propagation of TLE records to TEME state vectors."""

from __future__ import annotations

import math
from datetime import datetime

import numpy as np

from . import sgp4core
from .elements import StateVector
from .timebase import format_utc, julian_date, minutes_since
from .tle import TwoLineElementSet


class PropagationError(RuntimeError):
    """SGP4 failure (decay, degenerate elements) for an identified object.

    A failure inside a time grid also names the step (the index of the
    instant in the grid) and its UTC instant.
    """

    def __init__(
        self,
        message: str,
        object_name: str = "",
        step: int | None = None,
        utc: datetime | None = None,
    ):
        super().__init__(message)
        self.object_name = object_name
        self.step = step
        self.utc = utc

    def __str__(self) -> str:
        if self.step is None:
            return super().__str__()
        return f"{super().__str__()} (step {self.step}, {format_utc(self.utc)})"


def satrec_from_tle(tle: TwoLineElementSet) -> sgp4core.SatRecord:
    """Initialize an SGP4 record from parsed mean elements."""
    jd, fr = julian_date(tle.epoch)
    deg = math.pi / 180.0
    rec = sgp4core.init_record(
        satnum=tle.catalog_id,
        epoch_jd=jd + fr,
        bstar=tle.bstar,
        ecco=tle.eccentricity,
        argpo_rad=tle.arg_perigee * deg,
        inclo_rad=tle.inclination * deg,
        mo_rad=tle.mean_anomaly * deg,
        no_kozai_rad_min=tle.mean_motion * 2.0 * math.pi / 1440.0,
        nodeo_rad=tle.raan * deg,
        ndot=tle.ndot,
        nddot=tle.nddot,
    )
    rec.epoch_jd, rec.epoch_fr = jd, fr
    rec.name = tle.name or str(tle.catalog_id)
    if rec.error != 0:
        raise PropagationError(
            f"SGP4 init failed for {rec.name}: "
            f"{sgp4core.SGP4_ERRORS.get(rec.error, rec.error)}",
            rec.name,
        )
    return rec


def propagate(tle: TwoLineElementSet, t: datetime) -> StateVector:
    """Propagate one TLE to a UTC instant; TEME km / km s^-1 output."""
    rec = satrec_from_tle(tle)
    return propagate_satrec(rec, t)


def propagate_satrec(rec: sgp4core.SatRecord, t: datetime) -> StateVector:
    jd, fr = julian_date(t)
    tsince = minutes_since(rec.epoch_jd, rec.epoch_fr, jd, fr)
    r, v = sgp4core.propagate_record(rec, tsince)
    if rec.error != 0:
        raise PropagationError(
            f"SGP4 failed for {rec.name} at {t.isoformat()}: "
            f"{sgp4core.SGP4_ERRORS.get(rec.error, rec.error)}",
            rec.name,
        )
    return StateVector(epoch=t, position=np.array(r), velocity=np.array(v))


def is_deep_space(rec: sgp4core.SatRecord) -> bool:
    """Deep-space records (period >= 225 min) use the SDP4 branch."""
    return rec.method == "d"
