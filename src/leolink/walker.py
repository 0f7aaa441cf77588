"""Walker-style constellation shell synthesis."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .constants import EARTH_RADIUS_KM
from .elements import KeplerianElements


@dataclass(frozen=True)
class ShellSpec:
    """One constellation shell: circular planes evenly spread in RAAN.

    ``raan_span`` defaults to the full circle; ``inter_plane_phase`` defaults
    to the classic Walker delta phasing 360/(planes x sats_per_plane). Both
    stay configurable because coverage statistics are sensitive to them.
    """

    altitude: float  # km
    inclination: float  # deg
    plane_count: int
    sats_per_plane: int
    raan_span: float = 360.0
    inter_plane_phase: float | None = None

    def __post_init__(self):
        if self.plane_count < 1 or self.sats_per_plane < 1:
            raise ValueError("plane_count and sats_per_plane must be >= 1")
        if not 0.0 < self.raan_span <= 360.0:
            raise ValueError(f"raan_span {self.raan_span} outside (0, 360]")
        if self.altitude <= 0.0:
            raise ValueError("altitude must be positive")

    @property
    def total(self) -> int:
        return self.plane_count * self.sats_per_plane

    @property
    def phase_deg(self) -> float:
        if self.inter_plane_phase is not None:
            return self.inter_plane_phase
        return 360.0 / (self.plane_count * self.sats_per_plane)


def shell_angles(shell: ShellSpec) -> tuple[np.ndarray, np.ndarray]:
    """(RAAN, mean anomaly) [deg] of every slot of a shell, plane by plane.

    Plane p gets RAAN = p * raan_span / plane_count; slot s of plane p gets
    mean anomaly = s * 360/sats_per_plane + p * inter_plane_phase (mod 360).
    """
    p, s = np.divmod(np.arange(shell.total), shell.sats_per_plane)
    raan = (p * (shell.raan_span / shell.plane_count)) % 360.0
    mean_anomaly = (s * (360.0 / shell.sats_per_plane) + p * shell.phase_deg) % 360.0
    return raan, mean_anomaly


def build_walker(
    shell: ShellSpec, epoch: datetime, slots: int | None = None, angles=None
) -> list[KeplerianElements]:
    """Circular elements for every slot of a shell, or for its first
    ``slots`` slots, at the angles of :func:`shell_angles`, or at
    ``angles``, that function's result where the caller has it."""
    a = EARTH_RADIUS_KM + shell.altitude
    return [
        KeplerianElements(
            semi_major_axis=a,
            eccentricity=0.0,
            inclination=shell.inclination,
            raan=raan,
            arg_perigee=0.0,
            mean_anomaly=mean_anomaly,
            epoch=epoch,
        )
        for raan, mean_anomaly in zip(*(c[:slots].tolist() for c in angles or shell_angles(shell)))
    ]
