"""Orbital element and state-vector types shared across the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .constants import EARTH_RADIUS_KM, MU_EARTH, SECONDS_PER_DAY


@dataclass(frozen=True)
class KeplerianElements:
    """Classical mean elements of a near-Earth orbit.

    Angles in degrees, semi-major axis in km. ``epoch`` is the UTC instant
    the elements refer to.
    """

    semi_major_axis: float
    eccentricity: float
    inclination: float
    raan: float
    arg_perigee: float
    mean_anomaly: float
    epoch: datetime | None = None

    def __post_init__(self):
        if self.semi_major_axis <= EARTH_RADIUS_KM:
            raise ValueError(
                f"semi-major axis {self.semi_major_axis} km is below the Earth radius"
            )
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError(f"eccentricity {self.eccentricity} outside [0, 1)")
        for name in ("semi_major_axis", "inclination", "raan", "arg_perigee", "mean_anomaly"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name.replace('_', ' ')} {getattr(self, name)} is not finite")

    @property
    def altitude_km(self) -> float:
        return self.semi_major_axis - EARTH_RADIUS_KM


@dataclass(frozen=True)
class StateVector:
    """Inertial (TEME) position/velocity of one object at an epoch."""

    epoch: datetime
    position: np.ndarray = field(repr=False)  # km, shape (3,)
    velocity: np.ndarray = field(repr=False)  # km/s, shape (3,)

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))

    @property
    def radius_km(self) -> float:
        return float(np.linalg.norm(self.position))

    @property
    def speed_km_s(self) -> float:
        return float(np.linalg.norm(self.velocity))


def mean_motion_rev_day(semi_major_axis_km: float, mu: float = MU_EARTH) -> float:
    """Kepler's third law: semi-major axis [km] -> mean motion [rev/day]."""
    if semi_major_axis_km <= 0.0:
        raise ValueError("semi-major axis must be positive")
    period_s = 2.0 * math.pi * math.sqrt(semi_major_axis_km**3 / mu)
    return SECONDS_PER_DAY / period_s


def semi_major_axis_km(mean_motion_rev_day_: float, mu: float = MU_EARTH) -> float:
    """Inverse of :func:`mean_motion_rev_day`."""
    if mean_motion_rev_day_ <= 0.0:
        raise ValueError("mean motion must be positive")
    n_rad_s = mean_motion_rev_day_ * 2.0 * math.pi / SECONDS_PER_DAY
    return (mu / n_rad_s**2) ** (1.0 / 3.0)


def orbital_period_s(semi_major_axis_km_: float, mu: float = MU_EARTH) -> float:
    return 2.0 * math.pi * math.sqrt(semi_major_axis_km_**3 / mu)
