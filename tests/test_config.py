import json
import re
from pathlib import Path

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


def test_bundled_fleet_entry_overrides():
    from leolink.fleets import BUILTIN_FLEETS

    def resolve(*entries):
        return config_from_dict({"constellations": list(entries), "users": {"preset": "iss"}})

    (plain,) = resolve({"name": "starlink"}).constellations
    own_beam, geo = resolve(
        {"name": "starlink", "beam": {"kind": "earth_limb"}, "raan_offset": 5},
        {"name": "eutelsat_geo", "anomaly_offset": 2},
    ).constellations
    assert plain == BUILTIN_FLEETS["starlink"]
    # an entry's own beam replaces the fleet beam and the per-shell beams
    assert own_beam.beam == BeamModel("earth_limb") and own_beam.shell_beams is None
    assert (own_beam.shells, own_beam.raan_offset_deg) == (plain.shells, 5.0)
    assert geo.tles == BUILTIN_FLEETS["eutelsat_geo"].tles and geo.anomaly_offset_deg == 2.0


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


@pytest.mark.parametrize(
    "duration, step, n_steps",
    [(33.0, 1.1, 31), (3600.0, 0.1, 36001), (60.0, 0.1, 601), (0.3, 0.1, 4), (7.0, 0.7, 11)],
)
def test_steps_that_divide_the_duration_to_rounding_count_whole(duration, step, n_steps):
    # 33 / 1.1 rounds to 29.999999999999996 and fmod(3600, 0.1) to 0.09999...:
    # a quotient within 1e-9 of an integer keeps the last sample and warns not
    cfg = small_cfg(duration_s=duration, step_s=step)
    assert cfg.n_steps == n_steps
    assert not any("does not divide" in m for _, m in validate(cfg))


@pytest.mark.parametrize(
    "duration, step, n_steps", [(20.0, 7.0, 3), (1.0, 0.3, 4), (33.0 + 1e-6, 1.1, 31)]
)
def test_steps_that_do_not_divide_the_duration_drop_the_partial_interval(duration, step, n_steps):
    cfg = small_cfg(duration_s=duration, step_s=step)
    assert cfg.n_steps == n_steps
    assert any("does not divide" in m for _, m in validate(cfg))


def test_validate_frequency_warning():
    cfg = small_cfg(carrier_frequency_hz=100e9)
    assert any("GHz" in m for _, m in validate(cfg))


def test_validate_stale_tle_warning():
    from leolink.fleets import BUILTIN_FLEETS

    geo = BUILTIN_FLEETS["eutelsat_geo"]
    cfg = small_cfg(epoch=parse_utc("2023-01-01T00:00:00Z"), constellations=[geo])
    assert any("accuracy envelope" in m for _, m in validate(cfg))
    fresh = small_cfg(constellations=[geo])
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


@pytest.mark.parametrize(
    "change, message",
    [
        ({"duraton": 5}, "unknown key 'duraton' in the scenario; did you mean 'duration'"),
        ({"policy": {"knd": "closest"}}, "'knd' in policy; did you mean 'kind'"),
        ({"grid": {"metric": []}}, "'metric' in grid; did you mean 'metrics'"),
        ({"users": {"preset": "iss", "ran": 3}}, "'ran' in users; did you mean 'raan'"),
        # a preset's phase keys mean nothing next to a population
        ({"users": {"population": {}, "raan": 3}}, "'raan' in users"),
        ({"users": {"population": {"nmain": 3}}}, "'nmain' in users population; did you mean 'n_main'"),
        (
            {"users": {"explicit": [{"altitude": 500, "inclination": 3, "eccentrcity": 0.1}]}},
            "'eccentrcity' in explicit user 0; did you mean 'eccentricity'",
        ),
        ({"constellations": [{"nme": "oneweb"}]}, "'nme' in a constellation entry; did you mean 'name'"),
        (
            {"constellations": [{"name": "oneweb", "beam": {"kind": "earth_limb", "halfcone": 3}}]},
            "'halfcone' in constellation 'oneweb' beam; did you mean 'half_cone'",
        ),
        (
            {"constellations": [{"name": "x", "source": {"walkr": []}}]},
            "'walkr' in constellation 'x' source; did you mean 'walker'",
        ),
        (
            {"constellations": [{"name": "x", "source": {"walker": [], "strict": True}}]},
            "'strict' in constellation 'x' source",
        ),
        (
            {
                "constellations": [
                    {
                        "name": "x",
                        "source": {
                            "walker": [
                                {"altitude": 550, "inclination": 53, "plane_count": 2,
                                 "sats_per_plane": 2, "beam": {"kindd": "earth_limb"}}
                            ]
                        },
                    }
                ]
            },
            "'kindd' in constellation 'x' walker shell 0 beam; did you mean 'kind'",
        ),
        (
            {
                "constellations": [
                    {"name": "x", "source": {"walker": [{"altitude": 550, "inclination": 53,
                                                         "plane_cnt": 2, "sats_per_plane": 2}]}}
                ]
            },
            "'plane_cnt' in constellation 'x' walker shell 0; did you mean 'plane_count'",
        ),
        ({"policy": "closest"}, "policy must be a JSON object"),
    ],
)
def test_unknown_keys_rejected(change, message):
    raw = {"constellations": [{"name": "oneweb"}], "users": {"preset": "iss"}, **change}
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(raw)


def test_readme_configuration_resolves(tmp_path):
    from leolink.fleets import BUILTIN_FLEETS
    from leolink.tle import dump_tle_file

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert blocks
    dump_tle_file(BUILTIN_FLEETS["eutelsat_geo"].tles[:2], tmp_path / "fleet.tle")
    for block in blocks:
        raw = json.loads(block)
        raw["users"]["population"].update(n_main=3, n_band=1)  # keep the draw small
        cfg = config_from_dict(raw, base_dir=tmp_path)
        assert [c.name for c in cfg.constellations] == [c["name"] for c in raw["constellations"]]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"epoch": "garbage"}, "'epoch' must be an ISO-8601 UTC instant"),
        ({"duration": "abc"}, "'duration' in the scenario must be a number, not 'abc'"),
        ({"seed": [1]}, "'seed' in the scenario must be a number, not [1]"),
        ({"grid": {"altitude_bin": None}}, "'altitude_bin' in grid must be a number, not None"),
        ({"users": {"preset": "iss", "raan": "east"}}, "'raan' in users must be a number"),
        ({"users": {"population": {"n_main": "many"}}}, "'n_main' in users population must be"),
        (
            {"users": {"explicit": [{"altitude": "x", "inclination": 55}]}},
            "'altitude' in explicit user 0 must be a number, not 'x'",
        ),
        ({"users": {"explicit": [{"altitude": 500}]}}, "explicit user 0 needs 'inclination'"),
        (
            {"constellations": [{"name": "oneweb", "raan_offset": "1o"}]},
            "'raan_offset' in constellation 'oneweb' must be a number, not '1o'",
        ),
        (
            {
                "constellations": [
                    {"name": "x", "source": {"walker": [{"altitude": 550, "inclination": 53,
                                                         "plane_count": "two", "sats_per_plane": 2}]}}
                ]
            },
            "'plane_count' in constellation 'x' walker shell 0 must be a number, not 'two'",
        ),
        # values the model constructors reject, named by their entry
        ({"users": {"preset": "isss"}}, "users: unknown preset 'isss'"),
        (
            {"constellations": [{"name": "oneweb", "beam": {"kind": "cone"}}]},
            "constellation 'oneweb' beam: unknown beam kind 'cone'",
        ),
        ({"policy": {"kind": "nearest"}}, "policy: unknown policy kind 'nearest'"),
        (
            {"constellations": [{"name": "x", "source": {"walker": [
                {"altitude": 550, "inclination": 53, "plane_count": 0, "sats_per_plane": 2}
            ]}}]},
            "constellation 'x' walker shell 0: plane_count and sats_per_plane must be >= 1",
        ),
        (
            {"users": {"explicit": [{"altitude": -10, "inclination": 55}]}},
            "explicit user 0: semi-major axis 6368.137 km is below the Earth radius",
        ),
        ({"users": {"population": {"seed": -1}}}, "users population: "),
        # strict types: JSON booleans for flags, integral numbers for counts
        ({"cull": "false"}, "'cull' in the scenario must be true or false, not 'false'"),
        ({"cull": 0}, "'cull' in the scenario must be true or false, not 0"),
        ({"threads": 2.9}, "'threads' in the scenario must be an integer, not 2.9"),
        ({"threads": True}, "'threads' in the scenario must be a number, not True"),
        ({"duration": float("nan")}, "'duration' in the scenario must be a finite number, not nan"),
        ({"step": float("inf")}, "'step' in the scenario must be a finite number, not inf"),
        ({"seed": 0.5}, "'seed' in the scenario must be an integer, not 0.5"),
        ({"policy": {"kind": "random", "seed": 2.5}}, "'seed' in policy must be an integer, not 2.5"),
        ({"users": {"population": {"n_main": 3.5}}}, "'n_main' in users population must be an integer"),
        ({"users": {"population": {"n_band": 1e-3}}}, "'n_band' in users population must be an integer"),
        ({"users": {"population": {"seed": 7.1}}}, "'seed' in users population must be an integer"),
        (
            {"constellations": [{"name": "x", "source": {"walker": [
                {"altitude": 550, "inclination": 53, "plane_count": 2, "sats_per_plane": 2.5}
            ]}}]},
            "'sats_per_plane' in constellation 'x' walker shell 0 must be an integer, not 2.5",
        ),
        (
            {"constellations": [{"name": "x", "source": {"walker": [
                {"altitude": 550, "inclination": 53, "plane_count": float("nan"), "sats_per_plane": 2}
            ]}}]},
            "'plane_count' in constellation 'x' walker shell 0 must be an integer, not nan",
        ),
        # the population grid, checked before the run rather than when it is written
        (
            {"grid": {"metrics": ["coverage"]}},
            "'metrics' in grid: unknown metric 'coverage'; valid metrics: total_steps, "
            "covered_steps, coverage_probability,",
        ),
        ({"grid": {"metrics": "coverage_probability"}}, "'metrics' in grid must be a list of names"),
        ({"grid": {"altitude_bin": -5}}, "'altitude_bin' in grid must be positive, not -5.0"),
        ({"grid": {"inclination_bin": 0}}, "'inclination_bin' in grid must be positive, not 0.0"),
        (
            {"grid": {"altitude_bin": float("inf")}},
            "'altitude_bin' in grid must be a finite number, not inf",
        ),
        # results are keyed by constellation name, "combined" for the whole fleet
        (
            {"constellations": [{"name": "oneweb"}, {"name": "starlink"}, {"name": "oneweb"}]},
            "constellation 'oneweb' (entry 2): the name is already used by entry 0",
        ),
        (
            {"constellations": [{"name": "combined", "source": {"walker": [
                {"altitude": 550, "inclination": 53, "plane_count": 2, "sats_per_plane": 2}
            ]}}]},
            "constellation 'combined' (entry 0): the name is reserved for the all-fleet summary",
        ),
    ],
)
def test_malformed_values_rejected(change, message):
    raw = {"constellations": [{"name": "oneweb"}], "users": {"preset": "iss"}, **change}
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(raw)


def test_integral_numbers_accepted_for_integer_keys():
    cfg = config_from_dict(
        {"constellations": [{"name": "oneweb"}], "users": {"preset": "iss"},
         "threads": 2.0, "seed": 3.0, "cull": False}
    )
    assert (cfg.threads, cfg.seed, cfg.cull) == (2, 3, False)
    assert type(cfg.threads) is int and type(cfg.seed) is int


def test_tle_source_strict_takes_a_boolean(tmp_path):
    from leolink.fleets import BUILTIN_FLEETS
    from leolink.tle import dump_tle_file

    dump_tle_file(BUILTIN_FLEETS["eutelsat_geo"].tles[:2], tmp_path / "fleet.tle")
    raw = {"constellations": [{"name": "x", "source": {"tle_file": "fleet.tle", "strict": True}}],
           "users": {"preset": "iss"}}
    assert config_from_dict(raw, base_dir=tmp_path).constellations[0].count == 2
    raw["constellations"][0]["source"]["strict"] = "yes"
    with pytest.raises(ConfigError, match="'strict' in constellation 'x' source must be true or false"):
        config_from_dict(raw, base_dir=tmp_path)
    (tmp_path / "bad.tle").write_text("not a record\n")
    raw["constellations"][0]["source"] = {"tle_file": "bad.tle"}
    with pytest.raises(ConfigError, match=re.escape(f"constellation 'x' TLE file {tmp_path / 'bad.tle'}: ")):
        config_from_dict(raw, base_dir=tmp_path)
