import json

import pytest

from leolink.cli import main
from leolink.metrics import CoverageSummary
from leolink.tle import load_tle_file


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "leolink" in capsys.readouterr().out


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_walker_writes_records(tmp_path):
    out = tmp_path / "shell.tle"
    rc = main(
        ["walker", "--alt", "1200", "--inc", "87.9", "--planes", "12",
         "--per-plane", "49", "--out", str(out)]
    )
    assert rc == 0
    records = load_tle_file(out)
    assert len(records) == 588
    assert records[0].inclination == pytest.approx(87.9)
    assert records[0].altitude_km == pytest.approx(1200.0, abs=5.0)


def test_walker_rejects_an_empty_shell(tmp_path, capsys):
    out = tmp_path / "shell.tle"
    rc = main(["walker", "--alt", "550", "--inc", "53", "--planes", "0", "--per-plane", "4",
               "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert "error: walker shell: plane_count and sats_per_plane must be >= 1" in capsys.readouterr().err


def test_report_missing_file(capsys):
    assert main(["report", "missing.json"]) == 1
    assert "not found" in capsys.readouterr().err


def _block(cov, acc, vmin, vmax, vavg, fmin, favg, fmax, dop):
    return {
        "coverage_probability": cov,
        "avg_access_min": acc,
        "visible_min": vmin,
        "visible_max": vmax,
        "visible_avg": vavg,
        "fspl_min_db": fmin,
        "fspl_avg_db": favg,
        "fspl_max_db": fmax,
        "max_doppler_khz": dop,
        "serving_fspl_min_db": None,
        "serving_fspl_avg_db": None,
        "serving_fspl_max_db": None,
        "serving_max_doppler_khz": None,
    }


FIXTURE_SUMMARY = {
    "config": {},
    "reporting_mode": "all_visible",
    "users": [
        {
            "user_id": 0,
            "tag": "iss_preset",
            "alt_km": 420.0,
            "inc_deg": 51.6,
            "summaries": {
                "oneweb": _block(0.9764, 21.97, 0, 8, 2.72, 170.84, 173.64, 175.88, 375.65),
                "starlink": _block(0.6852, 2.10, 0, 6, 1.25, 154.26, 158.94, 163.25, 506.2),
                "combined": _block(0.9875, 32.32, 0, 13, 3.97, 154.26, 169.01, 175.88, 496.92),
            },
        }
    ],
}

GOLDEN_TABLE = """\
                                     oneweb          starlink          combined
Coverage Probability [%]              97.64             68.52             98.75
Avg. Access [min]                     21.97              2.10             32.32
# Visible Satellites                 [0, 8]            [0, 6]           [0, 13]
Avg. # Visible Satellites              2.72              1.25              3.97
FSPL [dB]                  [170.84, 175.88]  [154.26, 163.25]  [154.26, 175.88]
Avg. FSPL [dB]                       173.64            158.94            169.01
Max. Doppler [kHz]                   375.65            506.20            496.92"""


def test_report_golden_table(tmp_path, capsys):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(FIXTURE_SUMMARY))
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out.rstrip("\n")
    assert out == GOLDEN_TABLE
    # pure function of the document: a second render is identical
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr().out.rstrip("\n") == GOLDEN_TABLE


def test_report_row_labels_match_reference_table(tmp_path, capsys):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(FIXTURE_SUMMARY))
    main(["report", str(path)])
    out = capsys.readouterr().out
    for label in [
        "Coverage Probability [%]",
        "Avg. Access [min]",
        "# Visible Satellites",
        "Avg. # Visible Satellites",
        "FSPL [dB]",
        "Avg. FSPL [dB]",
        "Max. Doppler [kHz]",
    ]:
        assert label in out


def test_validate_command(tmp_path, capsys):
    cfg = {
        "constellations": [{"name": "starlink"}],
        "users": {"explicit": [{"altitude": 1300, "inclination": 53}]},
        "duration": 86400,
        "step": 7,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    rc = main(["validate", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == 0  # warnings only
    assert "no coverage geometrically possible" in out
    assert "does not divide" in out


def test_validate_error_config(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"constellations": [], "users": {"preset": "iss"},
                                "policy": {"kind": "random"}}))
    rc = main(["validate", "--config", str(path)])
    assert rc == 1
    assert "seed" in capsys.readouterr().out


def test_grid_command(tmp_path, capsys):
    doc = {
        "config": {},
        "reporting_mode": "all_visible",
        "users": [
            {
                "user_id": k,
                "alt_km": 400.0 + 30 * k,
                "inc_deg": 50.0 + k,
                "summaries": {"combined": {"coverage_probability": 0.5 + 0.1 * k,
                                           "total_steps": 10, "covered_steps": 5}},
            }
            for k in range(3)
        ],
    }
    src = tmp_path / "summary.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "grid.csv"
    rc = main(["grid", str(src), "--metric", "coverage_probability",
               "--constellation", "combined", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alt_bin_low_km,inc_bin_low_deg,metric,value,count"
    assert len(lines) > 1


def test_grid_and_report_reject_bad_input_with_a_message(tmp_path, capsys):
    src = tmp_path / "summary.json"
    src.write_text(json.dumps({"users": [{"user_id": 0, "alt_km": 400.0, "inc_deg": 50.0,
                                          "summaries": {"combined": {"total_steps": 1}}}]}))
    out = str(tmp_path / "grid.csv")
    # a metric that is not a scalar summary field is an argparse error
    for metric in ("bogus", "pass_hist_min"):
        assert main(["grid", str(src), "--metric", metric, "--out", out]) == 2
        assert f"invalid choice: '{metric}'" in capsys.readouterr().err
    for flag, value in (("--alt-bin", "0"), ("--inc-bin", "-5"), ("--alt-bin", "nan")):
        assert main(["grid", str(src), flag, value, "--out", out]) == 1
        assert f"error: {flag} must be positive, not {float(value)!r}" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    for text, message in (("not json", "not valid JSON"), ("[1, 2]", "not a summary")):
        bad.write_text(text)
        for argv in (["grid", str(bad), "--out", out], ["report", str(bad)]):
            assert main(argv) == 1
            assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


def _summary_doc(**user):
    entry = {"user_id": 0, "alt_km": 400.0, "inc_deg": 50.0,
             "summaries": {"combined": {"total_steps": 1}}}
    entry.update(user)
    return {"users": [{k: v for k, v in entry.items() if v is not None}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_summary_doc(summaries={"combined": {"total_steps": 1, "bogus": 2}}),
         "users[0]: 'summaries' entry 'combined' has unknown key 'bogus'"),
        (_summary_doc(alt_km=None), "users[0] has no 'alt_km'"),
        (_summary_doc(inc_deg="50"), "users[0]: 'inc_deg' must be a number, not '50'"),
        (_summary_doc(summaries=None), "users[0]: 'summaries' must map constellation names"),
        ({"users": []}, "the summary's 'users' list is empty"),
        (_summary_doc(summaries={"combined": {"covered_steps": 2, "visible_min": 3}}),
         "users[0]: 'summaries' entry 'combined': visible-count statistics out of order"),
    ],
    ids=["unknown-field", "no-alt", "text-inc", "no-summaries", "no-users", "out-of-order"],
)
def test_grid_and_report_reject_entries_that_are_not_user_summaries(tmp_path, capsys, doc, message):
    # each entry of 'users' is checked before either command reads it, and
    # the message names the entry and the key instead of a traceback
    src = tmp_path / "summary.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "grid.csv"
    for argv in (["grid", str(src), "--out", str(out)], ["report", str(src)]):
        assert main(argv) == 1
        assert f"error: {src}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, what",
    [
        ("coverage_probability", "abc", "a number"),
        ("coverage_probability", True, "a number"),
        ("total_steps", 1.5, "an integer"),
        ("total_steps", False, "an integer"),
        ("fspl_min_db", "x", "a number or null"),
        ("visible_hist", [1, "x"], "a list of integers"),
        ("pass_hist_min", [True], "a list of integers"),
        ("pass_hist_min", 3, "a list of integers"),
        ("usage_fractions", {"a": "b"}, "an object of numbers"),
        ("usage_fractions", [0.5], "an object of numbers"),
    ],
)
def test_grid_and_report_reject_summary_values_of_the_wrong_type(tmp_path, capsys, field, value, what):
    # each field is checked against its CoverageSummary annotation, bools
    # not counted as numbers, and the message names the user, the set and
    # the field instead of a traceback from the table or the grid
    fine = {**CoverageSummary().to_dict(), "total_steps": 10, "covered_steps": 5,
            "coverage_probability": 0.5, "visible_hist": [5, 5], "usage_fractions": {"a": 1}}
    doc = _summary_doc(summaries={"combined": {**fine}, "a": {**fine, field: value}})
    src = tmp_path / "summary.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "grid.csv"
    for argv in (["grid", str(src), "--metric", "coverage_probability", "--out", str(out)],
                 ["report", str(src), "--user", "0"]):
        assert main(argv) == 1
        message = f"users[0]: 'summaries' entry 'a': {field!r} must be {what}, not {value!r}"
        assert f"error: {src}: {message}" in capsys.readouterr().err
    assert not out.exists()
    # the same values, each of its field's type, are read
    src.write_text(json.dumps(_summary_doc(summaries={"combined": fine, "a": fine})))
    assert main(["report", str(src), "--user", "0"]) == 0


def test_grid_command_reproduces_the_run_grid_files(tmp_path):
    # `leolink grid` on a run's summary.json writes the bytes of the run's
    # own grid file, for every set and metric the run grids
    out = tmp_path / "out"
    scenario = {
        "epoch": "2021-03-20T09:37:29Z",
        "duration": 300,
        "step": 10,
        "constellations": [
            {"name": "mini", "source": {"walker": [
                {"altitude": 1200, "inclination": 87.9, "plane_count": 3, "sats_per_plane": 8}
            ]}},
            {"name": "eutelsat_geo"},
        ],
        "users": {"population": {"n_main": 12, "n_band": 2}},
        "grid": {"altitude_bin": 100, "inclination_bin": 30,
                 "metrics": ["coverage_probability", "fspl_avg_db", "pass_count"]},
        "output_dir": str(out),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--config", str(path)]) == 0
    grids = sorted(out.glob("grid_*.csv"))
    assert len(grids) == 9
    for name in ("mini", "eutelsat_geo", "combined"):
        for metric in scenario["grid"]["metrics"]:
            got = tmp_path / "grid.csv"
            assert main(["grid", str(out / "summary.json"), "--metric", metric,
                         "--constellation", name, "--alt-bin", "100", "--inc-bin", "30",
                         "--out", str(got)]) == 0
            assert got.read_bytes() == (out / f"grid_{name}_{metric}.csv").read_bytes()


def test_report_shows_a_summary_that_holds_only_combined(tmp_path, capsys):
    path = tmp_path / "summary.json"
    doc = {"users": [{**FIXTURE_SUMMARY["users"][0],
                      "summaries": {"combined": FIXTURE_SUMMARY["users"][0]["summaries"]["combined"]}}]}
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["combined"]
    assert out[1].split()[-1] == "98.75"


def test_report_reads_a_partial_summary_as_grid_does(tmp_path, capsys):
    # a field missing from a summary takes CoverageSummary's default, in
    # the report table as in the grid
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(
        {"users": [{"alt_km": 500, "inc_deg": 53, "summaries": {"combined": {"total_steps": 1}}}]}
    ))
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["combined"]
    assert out[1].split()[-1] == "0.00"
    assert out[3].split()[-2:] == ["[0,", "0]"]
    assert out[6].split()[-1] == "-"
    assert main(["grid", str(path), "--out", str(tmp_path / "grid.csv")]) == 0


def test_report_serving_mode_renders_dashes(tmp_path, capsys):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(FIXTURE_SUMMARY))
    assert main(["report", str(path), "--mode", "serving_only"]) == 0
    out = capsys.readouterr().out
    assert "Max. Doppler [kHz]" in out
    assert "-" in out  # serving stats absent in the fixture


def test_preset_command_prints_reference_rows(tmp_path, capsys):
    rc = main(
        ["preset", "iss", "--constellations", "oneweb", "--duration", "60",
         "--step", "10", "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Coverage Probability [%]" in out
    assert "Avg. Access [min]" in out
    assert (tmp_path / "o" / "summary.json").exists()


def test_run_command_small_scenario(tmp_path, capsys):
    scenario = {
        "epoch": "2021-03-20T09:37:29Z",
        "duration": 600,
        "step": 10,
        "constellations": [
            {
                "name": "mini",
                "source": {
                    "walker": [
                        {"altitude": 1200, "inclination": 87.9, "plane_count": 3,
                         "sats_per_plane": 8, "raan_span": 180}
                    ]
                },
                "beam": {"kind": "earth_limb"},
            }
        ],
        "users": {"preset": "iss"},
        "policy": {"kind": "closest"},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    rc = main(["run", "--config", str(path)])
    assert rc == 0
    assert (tmp_path / "out" / "summary.json").exists()
    assert "run complete" in capsys.readouterr().out


def test_preset_fleets_resolve_like_config(monkeypatch):
    # the CLI and config files share one resolver, per-shell beams included
    from leolink import cli
    from leolink.config import config_from_dict
    from leolink.fleets import BUILTIN_FLEETS

    class Resolved(Exception):
        pass

    def stop(cfg):
        raise Resolved(cfg)

    monkeypatch.setattr(cli, "run", stop)
    names = sorted(BUILTIN_FLEETS)
    with pytest.raises(Resolved) as caught:
        main(["preset", "iss", "--constellations", " , ".join(names)])
    got = caught.value.args[0].constellations
    raw = {"constellations": [{"name": n} for n in names], "users": {"preset": "iss"}}
    assert got == config_from_dict(raw).constellations
    starlink = got[names.index("starlink")]
    assert starlink.shell_beams == BUILTIN_FLEETS["starlink"].shell_beams


def test_preset_matches_run_config(tmp_path):
    assert main(["preset", "iss", "--duration", "600", "--out", str(tmp_path / "a")]) == 0
    scenario = {
        "duration": 600,
        "constellations": [{"name": "oneweb"}, {"name": "starlink"}],
        "users": {"preset": "iss"},
        "output_dir": str(tmp_path / "b"),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--config", str(path)]) == 0
    assert "pass," in (tmp_path / "a" / "pass_access.csv").read_text()
    for name in ("summary.json", "pass_access.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_flags_override_file_values_only_when_given(tmp_path):
    out = tmp_path / "out"
    scenario = {
        "epoch": "2021-03-20T09:37:29Z",
        "duration": 60,
        "step": 10,
        "constellations": [
            {"name": "mini", "source": {"walker": [
                {"altitude": 1200, "inclination": 87.9, "plane_count": 3, "sats_per_plane": 8}
            ]}}
        ],
        "users": {"population": {"n_main": 3, "n_band": 1}},
        "seed": 7,
        "threads": 2,
        "output_dir": str(out),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))

    assert main(["run", "--config", str(path)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert (man["seed"], man["threads"]) == (7, 2)
    assert man["config"]["users"]["population"]["seed"] == 7
    assert man["config"]["epoch"] == "2021-03-20T09:37:29Z"

    assert main(["run", "--config", str(path), "--seed", "3",
                 "--epoch", "2021-03-21T00:00:00Z"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert (man["seed"], man["threads"]) == (3, 2)
    assert man["config"]["epoch"] == "2021-03-21T00:00:00Z"


def test_malformed_values_exit_with_a_message(tmp_path, capsys):
    assert main(["preset", "iss", "--epoch", "garbage"]) == 1
    err = capsys.readouterr().err
    assert "error: 'epoch' must be an ISO-8601 UTC instant" in err and "'garbage'" in err
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "constellations": [{"name": "eutelsat_geo"}],
        "users": {"explicit": [{"altitude": "x", "inclination": 55}]},
    }))
    assert main(["validate", "--config", str(path)]) == 1
    assert "error: 'altitude' in explicit user 0 must be a number, not 'x'" in capsys.readouterr().out
    # values the model constructors reject, and values of the wrong type, end
    # both commands with the entry named and no traceback
    for change, message in (
        ({"users": {"preset": "isss"}}, "users: unknown preset 'isss'"),
        ({"constellations": [{"name": "oneweb", "beam": {"kind": "cone"}}]},
         "constellation 'oneweb' beam: unknown beam kind 'cone'"),
        ({"policy": {"kind": "nearest"}}, "policy: unknown policy kind 'nearest'"),
        ({"constellations": [{"name": "x", "source": {"walker": [
            {"altitude": 550, "inclination": 53, "plane_count": 0, "sats_per_plane": 2}]}}]},
         "constellation 'x' walker shell 0: plane_count and sats_per_plane must be >= 1"),
        ({"users": {"explicit": [{"altitude": -10, "inclination": 55}]}},
         "explicit user 0: semi-major axis"),
        ({"cull": "false"}, "'cull' in the scenario must be true or false, not 'false'"),
        ({"threads": 2.9}, "'threads' in the scenario must be an integer, not 2.9"),
        ({"threads": 0}, "threads 0 must be at least 1"),
        ({"carrier_frequency": -1e9}, "carrier_frequency -1000000000.0 Hz must be positive"),
        ({"grid": {"metrics": ["coverage"]}}, "'metrics' in grid: unknown metric 'coverage'"),
        ({"grid": {"altitude_bin": -5}}, "'altitude_bin' in grid must be positive, not -5.0"),
        ({"constellations": [{"name": "eutelsat_geo"}, {"name": "eutelsat_geo"}]},
         "constellation 'eutelsat_geo' (entry 1): the name is already used by entry 0"),
        ({"constellations": [{"name": "combined", "source": {"walker": [
            {"altitude": 550, "inclination": 53, "plane_count": 2, "sats_per_plane": 2}]}}]},
         "constellation 'combined' (entry 0): the name is reserved for the all-fleet summary"),
    ):
        raw = {"constellations": [{"name": "eutelsat_geo"}], "users": {"preset": "iss"},
               "duration": 60, "output_dir": str(tmp_path / "out"), **change}
        path.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(path)]) == 1
        assert f"error: {message}" in capsys.readouterr().out
        assert main(["run", "--config", str(path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    # the same values given as flags
    for flags, message in (
        (["--freq", "0"], "carrier_frequency 0.0 Hz must be positive"),
        (["--threads", "-2"], "threads -2 must be at least 1"),
    ):
        path.write_text(json.dumps({
            "constellations": [{"name": "eutelsat_geo"}], "users": {"preset": "iss"},
            "duration": 60, "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(path), *flags]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert main(["preset", "iss", "--constellations", "eutelsat_geo", *flags]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
