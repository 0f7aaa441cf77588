"""The fleet type, :class:`ConstellationConfig`, and the bundled fleets.

OneWeb and Starlink Phase-1 shells are generated Walker definitions (the
per-shell plane counts sum to 716 and 4408 satellites). Their default
beams are ground-service cones sized to the operators' filed minimum
service elevations (30 and 25 degrees); the wider Earth-limb cone stays
available per shell but overstates space-user visibility roughly twofold.

The Eutelsat GEO fleet ships as a reconstructed TLE catalog: the
operator's published records are not redistributable in usable form, so
the bundled file places each named satellite at its canonical operating
longitude on a clean geostationary orbit at the default scenario epoch.
Treat it as a fleet geometry model, not flight data.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .constants import GEO_HALF_CONE_DEG
from .geometry import BeamModel
from .tle import TwoLineElementSet, load_tle_file
from .walker import ShellSpec

# Near-polar planes spread over a half-circle (Walker star): a full-circle
# spread leaves inter-plane gaps that cannot reproduce observed
# mid-latitude coverage at the fleet's visible-count level.
ONEWEB_SHELLS = [
    ShellSpec(altitude=1200.0, inclination=87.9, plane_count=12, sats_per_plane=49, raan_span=180.0),
    ShellSpec(altitude=1200.0, inclination=55.0, plane_count=8, sats_per_plane=16),
]

STARLINK_SHELLS = [
    ShellSpec(altitude=540.0, inclination=53.2, plane_count=72, sats_per_plane=22),
    ShellSpec(altitude=550.0, inclination=53.0, plane_count=72, sats_per_plane=22),
    ShellSpec(altitude=560.0, inclination=97.6, plane_count=6, sats_per_plane=58),
    ShellSpec(altitude=560.0, inclination=97.6, plane_count=4, sats_per_plane=43),
    ShellSpec(altitude=570.0, inclination=70.0, plane_count=36, sats_per_plane=20),
]

# The sun-synchronous shells carry wide high-latitude beams; the
# mid-inclination shells get ground-service cones per the filings.
_STARLINK_SHELL_BEAMS = [None, None, BeamModel("earth_limb"), BeamModel("earth_limb"), None]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ConstellationConfig:
    """One fleet: either Walker shells or a TLE catalog, plus its beam.

    ``shell_beams`` optionally overrides the fleet beam per shell (aligned
    with ``shells``); operators file different beam layouts per shell.
    """

    name: str
    beam: BeamModel
    shells: list[ShellSpec] | None = None
    tles: list[TwoLineElementSet] | None = None
    shell_beams: list[BeamModel | None] | None = None
    raan_offset_deg: float = 0.0
    anomaly_offset_deg: float = 0.0

    def __post_init__(self):
        if (self.shells is None) == (self.tles is None):
            raise ConfigError(f"constellation {self.name}: exactly one source required")
        if self.shell_beams is not None and len(self.shell_beams) != len(self.shells or []):
            raise ConfigError(f"constellation {self.name}: shell_beams must align with shells")

    def beam_for_shell(self, index: int) -> BeamModel:
        if self.shell_beams is not None and self.shell_beams[index] is not None:
            return self.shell_beams[index]
        return self.beam

    @property
    def count(self) -> int:
        if self.shells is not None:
            return sum(s.total for s in self.shells)
        return len(self.tles)

    def max_altitude_km(self) -> float:
        if self.shells is not None:
            return max(s.altitude for s in self.shells)
        return max(t.altitude_km for t in self.tles)


BUILTIN_FLEETS = {
    "oneweb": ConstellationConfig(
        "oneweb", BeamModel("ground_service", service_elevation=32.0), shells=ONEWEB_SHELLS
    ),
    "starlink": ConstellationConfig(
        "starlink",
        BeamModel("ground_service", service_elevation=27.0),
        shells=STARLINK_SHELLS,
        shell_beams=_STARLINK_SHELL_BEAMS,
    ),
    "eutelsat_geo": ConstellationConfig(
        "eutelsat_geo",
        BeamModel("fixed_half_cone", GEO_HALF_CONE_DEG),
        tles=load_tle_file(resources.files("leolink") / "data" / "eutelsat_geo.tle"),
    ),
}
