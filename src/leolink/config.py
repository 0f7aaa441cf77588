"""Scenario configuration: schema, loading, resolution, validation.

The on-disk format is a single JSON document whose keys mirror
:class:`ScenarioConfig`. All defaults are resolved at load time and echoed
into the run manifest so a published result is reproducible from the
manifest alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

from .constants import (
    DEFAULT_CARRIER_HZ,
    DEFAULT_DURATION_S,
    DEFAULT_EPOCH,
    DEFAULT_MIN_ELEVATION_DEG,
    DEFAULT_STEP_S,
    EARTH_RADIUS_KM,
)
from .elements import KeplerianElements
from .fleets import BUILTIN_FLEETS
from .geometry import BeamModel
from .policy import SelectionPolicy
from .population import UserSpec, generate_population, preset
from .timebase import format_utc, parse_utc
from .tle import TwoLineElementSet, load_tle_file
from .walker import ShellSpec


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


@dataclass(frozen=True)
class GridSpec:
    altitude_bin_km: float = 25.0
    inclination_bin_deg: float = 5.0
    metrics: tuple[str, ...] = ("coverage_probability", "avg_access_min", "fspl_avg_db")


@dataclass
class ScenarioConfig:
    epoch: datetime
    duration_s: float = DEFAULT_DURATION_S
    step_s: float = DEFAULT_STEP_S
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG
    carrier_frequency_hz: float = DEFAULT_CARRIER_HZ
    constellations: list[ConstellationConfig] = field(default_factory=list)
    users: list[UserSpec] = field(default_factory=list)
    policy: SelectionPolicy = field(default_factory=SelectionPolicy)
    reporting_mode: str = "all_visible"
    seed: int = 0
    output_dir: Path | None = None
    threads: int = 1
    cull: bool = True
    write_intervals: bool = True
    capture_series: bool = False
    capture_records: bool = False
    grid: GridSpec = field(default_factory=GridSpec)
    users_echo: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        # endpoint-inclusive time loop
        return int(math.floor(self.duration_s / self.step_s)) + 1

    def echo(self) -> dict:
        """Fully resolved configuration for the manifest."""
        return {
            "epoch": format_utc(self.epoch),
            "duration": self.duration_s,
            "step": self.step_s,
            "min_elevation": self.min_elevation_deg,
            "carrier_frequency": self.carrier_frequency_hz,
            "constellations": [
                {
                    "name": c.name,
                    "beam": {
                        "kind": c.beam.kind,
                        "half_cone": c.beam.half_cone,
                        "service_elevation": c.beam.service_elevation,
                    },
                    "satellites": c.count,
                    "source": (
                        [
                            {
                                "altitude": s.altitude,
                                "inclination": s.inclination,
                                "plane_count": s.plane_count,
                                "sats_per_plane": s.sats_per_plane,
                                "raan_span": s.raan_span,
                                "inter_plane_phase": s.phase_deg,
                            }
                            for s in c.shells
                        ]
                        if c.shells is not None
                        else "tle_catalog"
                    ),
                    "raan_offset": c.raan_offset_deg,
                    "anomaly_offset": c.anomaly_offset_deg,
                }
                for c in self.constellations
            ],
            "users": self.users_echo or {"count": len(self.users)},
            "policy": {"kind": self.policy.kind, "seed": self.policy.seed},
            "reporting_mode": self.reporting_mode,
            "seed": self.seed,
            "culling": self.cull,
            "n_steps": self.n_steps,
        }


def _beam_from_dict(d: dict | None, default: BeamModel) -> BeamModel:
    if d is None:
        return default
    return BeamModel(
        kind=d.get("kind", "earth_limb"),
        half_cone=d.get("half_cone"),
        service_elevation=d.get("service_elevation"),
    )


def _constellation_from_dict(d: dict, base_dir: Path) -> ConstellationConfig:
    name = d.get("name")
    if not name:
        raise ConfigError("constellation entry needs a name")
    raan_off = float(d.get("raan_offset", 0.0))
    ma_off = float(d.get("anomaly_offset", 0.0))
    source = d.get("source")
    if source is None:
        fleet = BUILTIN_FLEETS.get(name)
        if fleet is None:
            raise ConfigError(
                f"constellation {name!r} has no source and is not one of the "
                f"bundled fleets {sorted(BUILTIN_FLEETS)}"
            )
        beam = _beam_from_dict(d.get("beam"), fleet.beam)
        if fleet.shells is not None:
            return ConstellationConfig(
                name,
                beam,
                shells=fleet.shells,
                shell_beams=None if "beam" in d else fleet.shell_beams,
                raan_offset_deg=raan_off,
                anomaly_offset_deg=ma_off,
            )
        return ConstellationConfig(name, beam, tles=fleet.tles(), raan_offset_deg=raan_off, anomaly_offset_deg=ma_off)
    beam = _beam_from_dict(d.get("beam"), BeamModel("earth_limb"))
    if "walker" in source:
        shells = []
        shell_beams = []
        for s in source["walker"]:
            shells.append(
                ShellSpec(
                    altitude=float(s["altitude"]),
                    inclination=float(s["inclination"]),
                    plane_count=int(s["plane_count"]),
                    sats_per_plane=int(s["sats_per_plane"]),
                    raan_span=float(s.get("raan_span", 360.0)),
                    inter_plane_phase=s.get("inter_plane_phase"),
                )
            )
            shell_beams.append(_beam_from_dict(s["beam"], beam) if "beam" in s else None)
        if all(b is None for b in shell_beams):
            shell_beams = None
        return ConstellationConfig(
            name,
            beam,
            shells=shells,
            shell_beams=shell_beams,
            raan_offset_deg=raan_off,
            anomaly_offset_deg=ma_off,
        )
    if "tle_file" in source:
        path = Path(source["tle_file"])
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ConfigError(f"constellation {name}: TLE file {path} does not exist")
        return ConstellationConfig(
            name,
            beam,
            tles=load_tle_file(path, strict=bool(source.get("strict", False))),
            raan_offset_deg=raan_off,
            anomaly_offset_deg=ma_off,
        )
    raise ConfigError(f"constellation {name}: source must contain 'walker' or 'tle_file'")


def _users_from_dict(d: dict, epoch: datetime, seed: int) -> tuple[list[UserSpec], dict]:
    if "population" in d:
        p = d["population"] or {}
        n_main = int(p.get("n_main", 1000))
        n_band = int(p.get("n_band", 100))
        pop_seed = int(p.get("seed", seed))
        users = generate_population(pop_seed, n_main=n_main, n_band=n_band, epoch=epoch)
        echo = {"population": {"n_main": n_main, "n_band": n_band, "seed": pop_seed}}
        return users, echo
    if "preset" in d:
        name = d["preset"]
        u = preset(
            name,
            epoch=epoch,
            raan_deg=float(d.get("raan", 0.0)),
            mean_anomaly_deg=float(d.get("mean_anomaly", 0.0)),
        )
        return [u], {"preset": name, "raan": u.elements.raan, "mean_anomaly": u.elements.mean_anomaly}
    if "explicit" in d:
        users = []
        for k, e in enumerate(d["explicit"]):
            users.append(
                UserSpec(
                    user_id=k,
                    elements=KeplerianElements(
                        semi_major_axis=EARTH_RADIUS_KM + float(e["altitude"]),
                        eccentricity=float(e.get("eccentricity", 0.0)),
                        inclination=float(e["inclination"]),
                        raan=float(e.get("raan", 0.0)),
                        arg_perigee=float(e.get("arg_perigee", 0.0)),
                        mean_anomaly=float(e.get("mean_anomaly", 0.0)),
                        epoch=epoch,
                    ),
                    tag="explicit",
                )
            )
        return users, {"explicit": len(users)}
    raise ConfigError("users must contain 'population', 'preset', or 'explicit'")


def load_config(path: str | Path) -> ScenarioConfig:
    """Load and fully resolve a scenario configuration file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(raw, base_dir=path.parent)


def config_from_dict(raw: dict, base_dir: Path | None = None) -> ScenarioConfig:
    base_dir = base_dir or Path.cwd()
    epoch = parse_utc(str(raw.get("epoch", DEFAULT_EPOCH)))
    seed = int(raw.get("seed", 0))
    policy_d = raw.get("policy", {"kind": "closest"})
    if policy_d.get("kind") == "random" and policy_d.get("seed") is None:
        raise ConfigError("random policy requires a seed")
    policy = SelectionPolicy(kind=policy_d.get("kind", "closest"), seed=policy_d.get("seed"))

    constellations = [
        _constellation_from_dict(c, base_dir) for c in raw.get("constellations", [])
    ]
    users, users_echo = _users_from_dict(raw.get("users", {}), epoch, seed)
    grid_d = raw.get("grid", {})
    grid = GridSpec(
        altitude_bin_km=float(grid_d.get("altitude_bin", 25.0)),
        inclination_bin_deg=float(grid_d.get("inclination_bin", 5.0)),
        metrics=tuple(grid_d.get("metrics", GridSpec().metrics)),
    )
    out_dir = raw.get("output_dir")
    cfg = ScenarioConfig(
        epoch=epoch,
        duration_s=float(raw.get("duration", DEFAULT_DURATION_S)),
        step_s=float(raw.get("step", DEFAULT_STEP_S)),
        min_elevation_deg=float(raw.get("min_elevation", DEFAULT_MIN_ELEVATION_DEG)),
        carrier_frequency_hz=float(raw.get("carrier_frequency", DEFAULT_CARRIER_HZ)),
        constellations=constellations,
        users=users,
        policy=policy,
        reporting_mode=str(raw.get("reporting_mode", "all_visible")),
        seed=seed,
        output_dir=Path(out_dir) if out_dir else None,
        threads=int(raw.get("threads", 1)),
        cull=bool(raw.get("cull", True)),
        write_intervals=bool(raw.get("write_intervals", True)),
        grid=grid,
        users_echo=users_echo,
    )
    problems = [d for d in validate(cfg) if d[0] == "error"]
    if problems:
        raise ConfigError("; ".join(msg for _, msg in problems))
    return cfg


def validate(cfg: ScenarioConfig) -> list[tuple[str, str]]:
    """Diagnostics as (level, message); levels are 'error' and 'warning'."""
    out: list[tuple[str, str]] = []
    if cfg.step_s <= 0:
        out.append(("error", "step must be positive"))
        return out
    if cfg.duration_s < cfg.step_s:
        out.append(("error", "duration must be at least one step"))
    if not 0.0 <= cfg.min_elevation_deg < 90.0:
        # the horizon cull and the visibility kernel have no Earth-blockage
        # test, so below 0 they would count satellites behind the Earth
        out.append(
            ("error", f"min_elevation {cfg.min_elevation_deg} deg is outside [0, 90)")
        )
    if not cfg.constellations:
        out.append(("error", "at least one constellation is required"))
    if not cfg.users:
        out.append(("error", "at least one user is required"))
    if math.fmod(cfg.duration_s, cfg.step_s) > 1e-9:
        out.append(
            ("warning", f"step {cfg.step_s}s does not divide duration {cfg.duration_s}s; "
             "the last partial interval is dropped")
        )
    if not 1e9 <= cfg.carrier_frequency_hz <= 50e9:
        out.append(
            ("warning", f"carrier frequency {cfg.carrier_frequency_hz / 1e9:.3g} GHz "
             "is outside the 1-50 GHz RF band")
        )
    if cfg.reporting_mode not in ("all_visible", "serving_only"):
        out.append(("error", f"unknown reporting mode {cfg.reporting_mode!r}"))
    if cfg.constellations:
        top = max(c.max_altitude_km() for c in cfg.constellations)
        for u in cfg.users:
            if u.altitude_km > top:
                out.append(
                    ("warning", f"user {u.user_id} at {u.altitude_km:.0f} km is above every "
                     f"constellation shell (max {top:.0f} km): no coverage geometrically possible")
                )
    for c in cfg.constellations:
        if c.tles is None:
            continue
        worst = max(abs((cfg.epoch - t.epoch).total_seconds()) for t in c.tles) / 86400.0
        end = cfg.epoch + timedelta(seconds=cfg.duration_s)
        worst = max(worst, max(abs((end - t.epoch).total_seconds()) for t in c.tles) / 86400.0)
        if worst > 30.0:
            out.append(
                ("warning", f"constellation {c.name}: scenario runs {worst:.0f} days from the "
                 "TLE epochs, outside the propagator's ~30-day accuracy envelope")
            )
    return out
