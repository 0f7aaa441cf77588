"""Scenario configuration: schema, loading, resolution, validation.

The on-disk format is a single JSON document whose keys mirror
:class:`ScenarioConfig`. All defaults are resolved at load time and echoed
into the run manifest. :func:`config_from_dict` is the one place a raw
document becomes a :class:`ScenarioConfig`; the command line edits the raw
document before it gets there.
"""

from __future__ import annotations

import difflib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
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
from .fleets import BUILTIN_FLEETS, ConfigError, ConstellationConfig
from .geometry import BeamModel
from .metrics import CoverageSummary
from .policy import SelectionPolicy
from .population import UserSpec, generate_population, preset
from .timebase import format_utc, parse_utc
from .tle import load_tle_file
from .walker import ShellSpec


# The keys each level of a configuration document may hold. A key outside
# them is rejected, so a misspelt "duraton" fails instead of running the
# 24 h default.
_TOP_KEYS = (
    "epoch", "duration", "step", "min_elevation", "carrier_frequency", "constellations",
    "users", "policy", "reporting_mode", "seed", "output_dir", "threads", "cull", "grid",
)
_CONSTELLATION_KEYS = ("name", "beam", "source", "raan_offset", "anomaly_offset")
_BEAM_KEYS = ("kind", "half_cone", "service_elevation")
# by source kind, then by users mode: the first of these keys present
# decides which set applies
_SOURCE_KEYS = {"walker": ("walker",), "tle_file": ("tle_file", "strict")}
_SHELL_KEYS = (
    "altitude", "inclination", "plane_count", "sats_per_plane", "raan_span",
    "inter_plane_phase", "beam",
)
_USERS_KEYS = {
    "population": ("population",),
    "preset": ("preset", "raan", "mean_anomaly"),
    "explicit": ("explicit",),
}
_POPULATION_KEYS = ("n_main", "n_band", "seed")
_EXPLICIT_KEYS = ("altitude", "inclination", "eccentricity", "raan", "arg_perigee", "mean_anomaly")
_POLICY_KEYS = ("kind", "seed")
_GRID_KEYS = ("altitude_bin", "inclination_bin", "metrics")


def _check_keys(d, allowed, where: str) -> None:
    """Raise :class:`ConfigError` unless ``d`` is an object whose keys are
    all in ``allowed``, suggesting the closest allowed key for a stray one."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, not {type(d).__name__}")
    for key in d:
        if key not in allowed:
            close = difflib.get_close_matches(str(key), allowed, n=1)
            hint = f"did you mean {close[0]!r}?" if close else f"expected one of {sorted(allowed)}"
            raise ConfigError(f"unknown key {key!r} in {where}; {hint}")


_REQUIRED = object()


def _number(d: dict, key: str, where: str, default=_REQUIRED, kind=float):
    """``d[key]`` (``default`` when absent) converted by ``kind``, or a
    :class:`ConfigError` naming the key and its value. A boolean is not a
    number, a float key takes finite values only, and an ``int`` key
    integral ones."""
    if key not in d and default is _REQUIRED:
        raise ConfigError(f"{where} needs {key!r}")
    value = d.get(key, default)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key!r} in {where} must be an integer, not {value!r}")
    try:
        if isinstance(value, bool):  # kind() would read true as 1
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} in {where} must be a number, not {value!r}") from None
    if kind is float and not math.isfinite(number):  # JSON NaN and Infinity parse
        raise ConfigError(f"{key!r} in {where} must be a finite number, not {value!r}")
    return number


def _positive(d: dict, key: str, where: str, default: float) -> float:
    """:func:`_number`, and greater than zero."""
    number = _number(d, key, where, default)
    if number <= 0.0:
        raise ConfigError(f"{key!r} in {where} must be positive, not {number!r}")
    return number


def _grid_metrics(names) -> tuple[str, ...]:
    """The grid's metric names, each a scalar field of a coverage summary."""
    valid = CoverageSummary.grid_metrics()
    if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"'metrics' in grid must be a list of names, not {names!r}")
    for name in names:
        if name not in valid:
            raise ConfigError(
                f"'metrics' in grid: unknown metric {name!r}; valid metrics: {', '.join(valid)}"
            )
    return tuple(names)


def _flag(d: dict, key: str, where: str, default: bool) -> bool:
    """``d[key]`` (``default`` when absent) if it is a JSON boolean, else a
    :class:`ConfigError` naming the key: ``"false"`` is not false."""
    value = d.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} in {where} must be true or false, not {value!r}")
    return value


@contextmanager
def _naming(where: str):
    """Turn a model constructor's ``ValueError`` into a :class:`ConfigError`
    that names the configuration entry ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_epoch(value, key: str = "epoch") -> datetime:
    """An ISO-8601 UTC instant, or a :class:`ConfigError` naming the key."""
    try:
        return parse_utc(str(value))
    except ValueError:
        raise ConfigError(
            f"{key!r} must be an ISO-8601 UTC instant such as "
            f"'2021-03-20T09:37:29Z', not {value!r}"
        ) from None


def _mode_keys(d: dict, table: dict) -> tuple[str, ...]:
    """The keys allowed next to the first mode key of ``table`` in ``d``, or
    every key of the table when ``d`` names no mode."""
    mode = next((k for k in table if k in d), None)
    return table[mode] if mode else tuple(k for keys in table.values() for k in keys)


def whole_steps(duration_s: float, step_s: float) -> tuple[int, bool]:
    """(n, exact): the whole steps in a duration, and whether they fill it.
    A quotient within 1e-9 (relative) of an integer counts as that integer,
    so 33 s in steps of 1.1 s is 30 steps, not 29 and a remainder, though
    33 / 1.1 rounds to 29.999999999999996."""
    q = duration_s / step_s
    n = round(q)
    if abs(q - n) <= 1e-9 * max(n, 1):
        return n, True
    return math.floor(q), False


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
    capture_records: bool = False
    grid: GridSpec = field(default_factory=GridSpec)
    users_echo: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        # endpoint-inclusive time loop
        return whole_steps(self.duration_s, self.step_s)[0] + 1

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


def _beam_from_dict(d: dict | None, default: BeamModel, where: str) -> BeamModel:
    if d is None:
        return default
    _check_keys(d, _BEAM_KEYS, where)
    with _naming(where):
        return BeamModel(
            kind=d.get("kind", "earth_limb"),
            half_cone=d.get("half_cone"),
            service_elevation=d.get("service_elevation"),
        )


def _constellation_from_dict(d: dict, base_dir: Path) -> ConstellationConfig:
    _check_keys(d, _CONSTELLATION_KEYS, "a constellation entry")
    name = d.get("name")
    if not name:
        raise ConfigError("constellation entry needs a name")
    where = f"constellation {name!r}"
    offsets = dict(
        raan_offset_deg=_number(d, "raan_offset", where, 0.0),
        anomaly_offset_deg=_number(d, "anomaly_offset", where, 0.0),
    )
    source = d.get("source")
    if source is None:
        fleet = BUILTIN_FLEETS.get(name)
        if fleet is None:
            raise ConfigError(
                f"constellation {name!r} has no source and is not one of the "
                f"bundled fleets {sorted(BUILTIN_FLEETS)}"
            )
        if "beam" in d:
            # an entry's own beam replaces the per-shell beams as well
            beam = _beam_from_dict(d["beam"], fleet.beam, f"{where} beam")
            offsets.update(beam=beam, shell_beams=None)
        return replace(fleet, **offsets)
    _check_keys(source, _mode_keys(source, _SOURCE_KEYS), f"{where} source")
    beam = _beam_from_dict(d.get("beam"), BeamModel("earth_limb"), f"{where} beam")
    if "walker" in source:
        shells = []
        shell_beams = []
        for k, s in enumerate(source["walker"]):
            at = f"{where} walker shell {k}"
            _check_keys(s, _SHELL_KEYS, at)
            phase = s.get("inter_plane_phase")
            with _naming(at):
                shells.append(
                    ShellSpec(
                        altitude=_number(s, "altitude", at),
                        inclination=_number(s, "inclination", at),
                        plane_count=_number(s, "plane_count", at, kind=int),
                        sats_per_plane=_number(s, "sats_per_plane", at, kind=int),
                        raan_span=_number(s, "raan_span", at, 360.0),
                        inter_plane_phase=None if phase is None else _number(s, "inter_plane_phase", at),
                    )
                )
            shell_beams.append(
                _beam_from_dict(s["beam"], beam, f"{where} walker shell {k} beam")
                if "beam" in s
                else None
            )
        if all(b is None for b in shell_beams):
            shell_beams = None
        return ConstellationConfig(name, beam, shells=shells, shell_beams=shell_beams, **offsets)
    if "tle_file" in source:
        path = Path(source["tle_file"])
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ConfigError(f"constellation {name}: TLE file {path} does not exist")
        strict = _flag(source, "strict", f"{where} source", False)
        with _naming(f"{where} TLE file {path}"):
            tles = load_tle_file(path, strict=strict)
        return ConstellationConfig(name, beam, tles=tles, **offsets)
    raise ConfigError(f"constellation {name}: source must contain 'walker' or 'tle_file'")


def _users_from_dict(d: dict, epoch: datetime, seed: int) -> tuple[list[UserSpec], dict]:
    _check_keys(d, _mode_keys(d, _USERS_KEYS), "users")
    if "population" in d:
        p = d["population"] or {}
        _check_keys(p, _POPULATION_KEYS, "users population")
        n_main = _number(p, "n_main", "users population", 1000, int)
        n_band = _number(p, "n_band", "users population", 100, int)
        pop_seed = _number(p, "seed", "users population", seed, int)
        with _naming("users population"):
            users = generate_population(pop_seed, n_main=n_main, n_band=n_band, epoch=epoch)
        echo = {"population": {"n_main": n_main, "n_band": n_band, "seed": pop_seed}}
        return users, echo
    if "preset" in d:
        name = d["preset"]
        with _naming("users"):
            u = preset(
                name,
                epoch=epoch,
                raan_deg=_number(d, "raan", "users", 0.0),
                mean_anomaly_deg=_number(d, "mean_anomaly", "users", 0.0),
            )
        return [u], {"preset": name, "raan": u.elements.raan, "mean_anomaly": u.elements.mean_anomaly}
    if "explicit" in d:
        users = []
        for k, e in enumerate(d["explicit"]):
            at = f"explicit user {k}"
            _check_keys(e, _EXPLICIT_KEYS, at)
            with _naming(at):
                elements = KeplerianElements(
                    semi_major_axis=EARTH_RADIUS_KM + _number(e, "altitude", at),
                    eccentricity=_number(e, "eccentricity", at, 0.0),
                    inclination=_number(e, "inclination", at),
                    raan=_number(e, "raan", at, 0.0),
                    arg_perigee=_number(e, "arg_perigee", at, 0.0),
                    mean_anomaly=_number(e, "mean_anomaly", at, 0.0),
                    epoch=epoch,
                )
            users.append(UserSpec(user_id=k, elements=elements, tag="explicit"))
        return users, {"explicit": len(users)}
    raise ConfigError("users must contain 'population', 'preset', or 'explicit'")


def read_config(path: str | Path) -> dict:
    """The raw scenario document of a configuration file, unresolved."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    """Load and fully resolve a scenario configuration file."""
    return config_from_dict(read_config(path), base_dir=Path(path).parent)


def config_from_dict(raw: dict, base_dir: Path | None = None) -> ScenarioConfig:
    base_dir = base_dir or Path.cwd()
    _check_keys(raw, _TOP_KEYS, "the scenario")
    epoch = parse_epoch(raw.get("epoch", DEFAULT_EPOCH))
    seed = _number(raw, "seed", "the scenario", 0, int)
    policy_d = raw.get("policy", {"kind": "closest"})
    _check_keys(policy_d, _POLICY_KEYS, "policy")
    policy_seed = policy_d.get("seed")
    if policy_seed is not None:
        policy_seed = _number(policy_d, "seed", "policy", kind=int)
    with _naming("policy"):
        policy = SelectionPolicy(kind=policy_d.get("kind", "closest"), seed=policy_seed)

    constellations = [
        _constellation_from_dict(c, base_dir) for c in raw.get("constellations", [])
    ]
    users, users_echo = _users_from_dict(raw.get("users", {}), epoch, seed)
    grid_d = raw.get("grid", {})
    _check_keys(grid_d, _GRID_KEYS, "grid")
    grid = GridSpec(
        altitude_bin_km=_positive(grid_d, "altitude_bin", "grid", 25.0),
        inclination_bin_deg=_positive(grid_d, "inclination_bin", "grid", 5.0),
        metrics=_grid_metrics(grid_d.get("metrics", GridSpec().metrics)),
    )
    out_dir = raw.get("output_dir")
    cfg = ScenarioConfig(
        epoch=epoch,
        duration_s=_number(raw, "duration", "the scenario", DEFAULT_DURATION_S),
        step_s=_number(raw, "step", "the scenario", DEFAULT_STEP_S),
        min_elevation_deg=_number(raw, "min_elevation", "the scenario", DEFAULT_MIN_ELEVATION_DEG),
        carrier_frequency_hz=_number(raw, "carrier_frequency", "the scenario", DEFAULT_CARRIER_HZ),
        constellations=constellations,
        users=users,
        policy=policy,
        reporting_mode=str(raw.get("reporting_mode", "all_visible")),
        seed=seed,
        output_dir=Path(out_dir) if out_dir else None,
        threads=_number(raw, "threads", "the scenario", 1, int),
        cull=_flag(raw, "cull", "the scenario", True),
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
    # results are keyed by constellation name, "combined" for the whole fleet
    names = [c.name for c in cfg.constellations]
    for k, name in enumerate(names):
        if name == "combined" or name in names[:k]:
            why = ("reserved for the all-fleet summary" if name == "combined"
                   else f"already used by entry {names.index(name)}")
            out.append(("error", f"constellation {name!r} (entry {k}): the name is {why}"))
    if not cfg.users:
        out.append(("error", "at least one user is required"))
    if not whole_steps(cfg.duration_s, cfg.step_s)[1]:
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
