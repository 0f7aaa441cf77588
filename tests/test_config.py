import json

import pytest

from leolink.config import (
    ConfigError,
    ConstellationConfig,
    ScenarioConfig,
    config_from_dict,
    load_config,
    validate,
)
from leolink.geometry import BeamModel
from leolink.population import preset
from leolink.timebase import parse_utc
from leolink.walker import ShellSpec

EPOCH = parse_utc("2021-03-20T09:37:29Z")


def small_cfg(**over):
    base = dict(
        epoch=EPOCH,
        constellations=[
            ConstellationConfig(
                "mini", BeamModel("earth_limb"), shells=[ShellSpec(550.0, 53.0, 2, 2)]
            )
        ],
        users=[preset("iss", epoch=EPOCH)],
    )
    base.update(over)
    return ScenarioConfig(**base)


def test_defaults_resolved():
    cfg = config_from_dict(
        {
            "constellations": [{"name": "oneweb"}],
            "users": {"preset": "iss"},
        }
    )
    assert cfg.duration_s == 86400.0
    assert cfg.step_s == 10.0
    assert cfg.min_elevation_deg == 25.0
    assert cfg.carrier_frequency_hz == pytest.approx(11.5e9)
    assert cfg.n_steps == 8641
    echo = cfg.echo()
    assert echo["epoch"] == "2021-03-20T09:37:29Z"
    assert echo["constellations"][0]["satellites"] == 716
    assert echo["policy"]["kind"] == "closest"
    assert echo["n_steps"] == 8641


def test_endpoint_inclusive_instants():
    cfg = small_cfg(duration_s=10.0, step_s=10.0)
    assert cfg.n_steps == 2


def test_random_policy_without_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(
            {
                "constellations": [{"name": "starlink"}],
                "users": {"preset": "iss"},
                "policy": {"kind": "random"},
            }
        )


def test_unknown_bundled_fleet():
    with pytest.raises(ConfigError, match="bundled"):
        config_from_dict({"constellations": [{"name": "iridium"}], "users": {"preset": "iss"}})


def test_missing_tle_file():
    with pytest.raises(ConfigError, match="does not exist"):
        config_from_dict(
            {
                "constellations": [
                    {"name": "x", "source": {"tle_file": "/nonexistent/file.tle"}}
                ],
                "users": {"preset": "iss"},
            }
        )


def test_walker_source_with_per_shell_beam():
    cfg = config_from_dict(
        {
            "constellations": [
                {
                    "name": "custom",
                    "beam": {"kind": "ground_service", "service_elevation": 25.0},
                    "source": {
                        "walker": [
                            {"altitude": 550, "inclination": 53, "plane_count": 2, "sats_per_plane": 3},
                            {
                                "altitude": 560,
                                "inclination": 97.6,
                                "plane_count": 2,
                                "sats_per_plane": 2,
                                "beam": {"kind": "earth_limb"},
                            },
                        ]
                    },
                }
            ],
            "users": {"preset": "iss"},
        }
    )
    cc = cfg.constellations[0]
    assert cc.count == 10
    assert cc.beam_for_shell(0).kind == "ground_service"
    assert cc.beam_for_shell(1).kind == "earth_limb"


def test_explicit_users():
    cfg = config_from_dict(
        {
            "constellations": [{"name": "oneweb"}],
            "users": {"explicit": [{"altitude": 700, "inclination": 85, "raan": 12}]},
        }
    )
    assert len(cfg.users) == 1
    assert cfg.users[0].altitude_km == pytest.approx(700.0)
    assert cfg.users[0].tag == "explicit"


def test_population_users():
    cfg = config_from_dict(
        {
            "constellations": [{"name": "oneweb"}],
            "users": {"population": {"n_main": 20, "n_band": 2, "seed": 9}},
            "seed": 9,
        }
    )
    assert len(cfg.users) == 24
    assert cfg.users_echo["population"]["n_main"] == 20


def test_validate_above_all_shells_warning():
    cfg = config_from_dict(
        {
            "constellations": [{"name": "starlink"}],
            "users": {"explicit": [{"altitude": 1300, "inclination": 53}]},
        }
    )
    diags = validate(cfg)
    assert any("no coverage geometrically possible" in msg for _, msg in diags)


def test_validate_step_divisibility_warning():
    cfg = small_cfg(duration_s=86400.0, step_s=7.0)
    assert any("does not divide" in m for _, m in validate(cfg))


def test_validate_frequency_warning():
    cfg = small_cfg(carrier_frequency_hz=100e9)
    assert any("GHz" in m for _, m in validate(cfg))


def test_validate_stale_tle_warning():
    from leolink.fleets import BUILTIN_FLEETS

    geo = BUILTIN_FLEETS["eutelsat_geo"]
    cfg = small_cfg(
        epoch=parse_utc("2023-01-01T00:00:00Z"),
        constellations=[ConstellationConfig("eutelsat_geo", geo.beam, tles=geo.tles())],
    )
    assert any("accuracy envelope" in m for _, m in validate(cfg))
    fresh = small_cfg(
        constellations=[ConstellationConfig("eutelsat_geo", geo.beam, tles=geo.tles())]
    )
    assert not any("accuracy envelope" in m for _, m in validate(fresh))


def test_validate_errors():
    cfg = small_cfg(duration_s=5.0, step_s=10.0)
    assert any(lvl == "error" for lvl, _ in validate(cfg))
    cfg = small_cfg(users=[])
    assert any("user" in m for lvl, m in validate(cfg) if lvl == "error")


def test_min_elevation_outside_model_rejected():
    # below 0 the visibility model would count satellites behind the Earth
    for bad in (-5.0, -0.01, 90.0, 120.0):
        errors = [m for lvl, m in validate(small_cfg(min_elevation_deg=bad)) if lvl == "error"]
        assert any(f"min_elevation {bad} deg" in m for m in errors)
        with pytest.raises(ConfigError, match=f"min_elevation {bad} deg"):
            config_from_dict(
                {
                    "constellations": [{"name": "oneweb"}],
                    "users": {"preset": "iss"},
                    "min_elevation": bad,
                }
            )
    for ok in (0.0, 25.0, 89.9):
        assert not any(lvl == "error" for lvl, _ in validate(small_cfg(min_elevation_deg=ok)))


def test_load_config_file(tmp_path):
    doc = {
        "epoch": "2021-03-20T09:37:29Z",
        "duration": 600,
        "step": 10,
        "constellations": [{"name": "oneweb"}],
        "users": {"preset": "iss"},
        "policy": {"kind": "closest"},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.duration_s == 600
    assert cfg.output_dir is not None


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)
