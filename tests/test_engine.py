import errno
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.config import ConfigError, ConstellationConfig, ScenarioConfig
from leolink.elements import KeplerianElements
from leolink.engine import run
from leolink.geometry import BeamModel
from leolink.metrics import StepRecord, summarize
from leolink.policy import SelectionPolicy
from leolink.population import UserSpec, preset
from leolink.propagation import PropagationError
from leolink.timebase import parse_utc
from leolink.tle import TwoLineElementSet
from leolink.walker import ShellSpec

EPOCH = parse_utc("2021-03-20T09:37:29Z")
RE = 6378.137


def mini_cfg(**over):
    base = dict(
        epoch=EPOCH,
        duration_s=3600.0,
        step_s=10.0,
        constellations=[
            ConstellationConfig(
                "alpha",
                BeamModel("earth_limb"),
                shells=[ShellSpec(1200.0, 87.9, 3, 6, raan_span=180.0)],
            ),
            ConstellationConfig(
                "beta",
                BeamModel("ground_service", service_elevation=25.0),
                shells=[ShellSpec(550.0, 53.0, 4, 5)],
            ),
        ],
        users=[preset("iss", epoch=EPOCH)],
        policy=SelectionPolicy("closest"),
    )
    base.update(over)
    return ScenarioConfig(**base)


def random_users(n, seed):
    rng = np.random.default_rng(seed)
    users = []
    for k in range(n):
        users.append(
            UserSpec(
                k,
                KeplerianElements(
                    RE + rng.uniform(350, 1100),
                    0.0,
                    rng.uniform(0, 180),
                    rng.uniform(0, 360),
                    0.0,
                    rng.uniform(0, 360),
                    EPOCH,
                ),
                "explicit",
            )
        )
    return users


def summaries_payload(manifest):
    return json.dumps(
        {
            u.spec.user_id: {k: s.to_dict() for k, s in u.summaries.items()}
            for u in manifest.users
        },
        sort_keys=True,
    )


def test_degenerate_window_two_instants():
    m = run(mini_cfg(duration_s=10.0, step_s=10.0))
    assert m.n_steps == 2
    assert m.users[0].summaries["combined"].total_steps == 2


def test_constellation_counts():
    m = run(mini_cfg(duration_s=60.0))
    assert m.constellation_counts == {"alpha": 18, "beta": 20}


def test_validation_errors_abort():
    with pytest.raises(ConfigError):
        run(mini_cfg(users=[]))


def test_unwritable_output_dir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = mini_cfg(duration_s=60.0, output_dir=blocker / "sub")
    with pytest.raises(OSError):
        run(cfg)


def test_culling_equivalence_random_scenario():
    # 50 satellites, 5 users, 100 steps: culled and brute-force pair
    # evaluation must yield identical visibility outcomes
    shells = [ShellSpec(800.0, 70.0, 5, 10, raan_span=360.0)]
    cfg_a = mini_cfg(
        constellations=[ConstellationConfig("c", BeamModel("earth_limb"), shells=shells)],
        users=random_users(5, 3),
        duration_s=990.0,
        cull=True,
    )
    cfg_b = mini_cfg(
        constellations=[ConstellationConfig("c", BeamModel("earth_limb"), shells=shells)],
        users=random_users(5, 3),
        duration_s=990.0,
        cull=False,
    )
    assert summaries_payload(run(cfg_a)) == summaries_payload(run(cfg_b))


def test_thread_count_does_not_change_results(tmp_path):
    outs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        m = run(mini_cfg(users=random_users(3, 9), threads=threads, output_dir=out))
        outs.append((summaries_payload(m), (out / "summary.json").read_bytes(),
                     (out / "pass_access.csv").read_bytes()))
    assert outs[0] == outs[1] == outs[2]


def test_engine_matches_record_reference():
    cfg = mini_cfg(duration_s=1800.0, capture_records=True)
    m = run(cfg)
    u = m.users[0]
    ref = summarize(u.records, cfg.step_s, cfg.carrier_frequency_hz)
    got = u.summaries["combined"]
    assert got.covered_steps == ref.covered_steps
    assert got.pass_count == ref.pass_count
    assert got.pass_hist_min == ref.pass_hist_min
    assert got.access_count == ref.access_count
    assert got.avg_access_min == pytest.approx(ref.avg_access_min)
    assert got.visible_hist == ref.visible_hist
    assert got.fspl_min_db == pytest.approx(ref.fspl_min_db)
    assert got.fspl_avg_db == pytest.approx(ref.fspl_avg_db)
    assert got.fspl_max_db == pytest.approx(ref.fspl_max_db)
    assert got.max_doppler_khz == pytest.approx(ref.max_doppler_khz)
    assert got.serving_steps == ref.serving_steps > 0
    assert got.serving_fspl_avg_db == pytest.approx(ref.serving_fspl_avg_db)


def test_coverage_equals_access_time_fraction():
    m = run(mini_cfg(users=random_users(4, 11)))
    for u in m.users:
        for s in u.summaries.values():
            assert s.covered_steps == pytest.approx(
                s.coverage_probability * s.total_steps
            )
        acc = u.summaries["combined"]
        total_access_steps = sum(e - s0 + 1 for s0, e in u.accesses)
        assert total_access_steps == acc.covered_steps


def test_outputs_written(tmp_path):
    out = tmp_path / "run"
    cfg = mini_cfg(users=random_users(2, 5), output_dir=out)
    m = run(cfg)
    assert (out / "manifest.json").exists()
    assert (out / "summary.json").exists()
    assert (out / "pass_access.csv").exists()
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["n_steps"] == m.n_steps
    assert len(doc["users"]) == 2
    assert "combined" in doc["users"][0]["summaries"]
    man = json.loads((out / "manifest.json").read_text())
    assert man["constellation_counts"] == {"alpha": 18, "beta": 20}
    assert man["version"]
    header = (out / "pass_access.csv").read_text().splitlines()[0]
    assert header == "user_id,kind,sat_id,start_iso,end_iso,duration_min"


def test_population_outputs_grids(tmp_path):
    out = tmp_path / "mc"
    users = [
        UserSpec(0, KeplerianElements(RE + 500, 0.0, 53.0, 0.0, 0.0, 0.0, EPOCH), "montecarlo"),
        UserSpec(1, KeplerianElements(RE + 800, 0.0, 97.0, 10.0, 0.0, 0.0, EPOCH), "montecarlo"),
        UserSpec(2, KeplerianElements(RE + 520, 0.0, 53.0, 20.0, 0.0, 0.0, EPOCH), "shell_band"),
    ]
    m = run(mini_cfg(users=users, duration_s=600.0, output_dir=out))
    assert (out / "population.csv").exists()
    assert (out / "grid_combined_coverage_probability.csv").exists()
    grid_text = (out / "grid_alpha_coverage_probability.csv").read_text()
    assert grid_text.splitlines()[0] == "alt_bin_low_km,inc_bin_low_deg,metric,value,count"
    pop_lines = (out / "population.csv").read_text().splitlines()
    assert pop_lines[0] == "user_id,alt_km,inc_deg,raan_deg,ma_deg,tag"
    assert any("montecarlo" in ln for ln in pop_lines[1:])
    assert m.aggregate["montecarlo_users"] == 2
    assert "overall_coverage" in m.aggregate


def test_failed_write_keeps_earlier_summary(tmp_path, monkeypatch):
    # a second run into the same directory fills the disk halfway through
    # summary.json: the first run's summary survives whole and no
    # temporary file is left behind
    from leolink import engine

    out = tmp_path / "run"
    run(mini_cfg(duration_s=600.0, output_dir=out))
    before = (out / "summary.json").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "pass_access.csv", "summary.json"
    ]
    partial = []

    def disk_full_open(path, mode="r", **kw):
        fh = open(path, mode, **kw)
        if Path(path).name.startswith(".summary.json"):
            write = fh.write

            def half_write(text):
                partial.append(write(text[: len(text) // 2]))
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = half_write
        return fh

    monkeypatch.setattr(engine, "open", disk_full_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        run(mini_cfg(duration_s=1200.0, output_dir=out))
    assert partial and partial[0] > 0
    assert (out / "summary.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "pass_access.csv", "summary.json"
    ]


def test_serving_series_capture():
    # the per-step serving series is read from capture_records
    cfg = mini_cfg(duration_s=1200.0, capture_records=True)
    m = run(cfg)
    recs = m.users[0].records
    assert recs is not None
    assert [r.step_index for r in recs] == list(range(cfg.n_steps))
    served = [r for r in recs if r.serving is not None]
    for r in served:
        ranges = {sid: rng for sid, rng, _, _ in r.visible}
        assert r.serving in ranges
        assert np.isfinite(ranges[r.serving])
    assert len(served) == m.users[0].summaries["combined"].serving_steps > 0


def test_deep_space_fleet_in_engine():
    from leolink.fleets import BUILTIN_FLEETS

    cfg = mini_cfg(
        constellations=[BUILTIN_FLEETS["eutelsat_geo"]],
        users=[preset("iss", epoch=EPOCH)],
        duration_s=600.0,
    )
    m = run(cfg)
    s = m.users[0].summaries["eutelsat_geo"]
    # ISS sees some GEO arc through the 10.5-degree cones over 10 minutes
    assert s.total_steps == 61
    assert s.visible_max >= 1


def test_decay_error_names_scenario_step_and_instant():
    # a drag-heavy object decays about 36 min in: at 2 s steps that is past
    # the first 512-step block, so the step must count from the scenario start
    sinker = TwoLineElementSet(
        name="SINKER", epoch=EPOCH, inclination=53.0, raan=0.0, eccentricity=0.0,
        arg_perigee=0.0, mean_anomaly=0.0, mean_motion=16.4, bstar=0.09, catalog_id=11111,
    )
    cfg = mini_cfg(
        constellations=[ConstellationConfig("sink", BeamModel("earth_limb"), tles=[sinker])],
        duration_s=3000.0,
        step_s=2.0,
    )
    with pytest.raises(PropagationError, match="SINKER") as err:
        run(cfg)
    assert err.value.step > 512
    expected = EPOCH + timedelta(seconds=err.value.step * cfg.step_s)
    assert abs((err.value.utc - expected).total_seconds()) < 1e-3


def test_deep_space_user_matches_record_reference():
    # a user on a GNSS-altitude (12 h, deep-space) orbit goes through the
    # same batch propagator as the fleet, over two engine blocks
    from leolink.fleets import BUILTIN_FLEETS

    cfg = mini_cfg(
        constellations=[BUILTIN_FLEETS["eutelsat_geo"], mini_cfg().constellations[0]],
        users=[
            UserSpec(0, KeplerianElements(RE + 20200.0, 0.0, 55.0, 30.0, 0.0, 0.0, EPOCH), "explicit"),
            UserSpec(1, KeplerianElements(RE + 420.0, 0.0, 51.6, 0.0, 0.0, 0.0, EPOCH), "explicit"),
        ],
        duration_s=12 * 3600.0,
        step_s=60.0,
        capture_records=True,
    )
    m = run(cfg)
    assert m.users[0].summaries["eutelsat_geo"].covered_steps > 0
    for u in m.users:
        ref = summarize(u.records, cfg.step_s, cfg.carrier_frequency_hz)
        got = u.summaries["combined"]
        for key in ("covered_steps", "access_count", "pass_count", "visible_hist", "serving_steps"):
            assert getattr(got, key) == getattr(ref, key), key
        for key in ("fspl_min_db", "fspl_avg_db", "fspl_max_db", "max_doppler_khz"):
            assert getattr(got, key) == pytest.approx(getattr(ref, key), rel=1e-12), key
    assert summaries_payload(run(replace(cfg, cull=False))) == summaries_payload(m)


def test_deep_space_failure_names_scenario_step_and_instant(monkeypatch):
    # a GEO record whose mean eccentricity grows past 1 about 900 min after
    # epoch: at 60 s steps that is past the first 512-step block
    from leolink import engine, sgp4core
    from leolink.propagation import satrec_from_tle
    from leolink.sgp4batch import SatBatch
    from leolink.timebase import julian_date

    runaway = TwoLineElementSet(
        name="RUNAWAY", epoch=EPOCH, inclination=3.0, raan=0.0, eccentricity=2e-4,
        arg_perigee=0.0, mean_anomaly=0.0, mean_motion=1.00273791, bstar=0.0, catalog_id=22222,
    )

    def runaway_record(tle):
        rec = satrec_from_tle(tle)
        rec.dedt = 1.0 / 900.0
        return rec

    monkeypatch.setattr(engine, "satrec_from_tle", runaway_record)
    cfg = mini_cfg(
        constellations=[
            ConstellationConfig("geo", BeamModel("fixed_half_cone", half_cone=10.5), tles=[runaway])
        ],
        users=[preset("iss", epoch=EPOCH)],
        duration_s=1200 * 60.0,
        step_s=60.0,
    )
    with pytest.raises(PropagationError, match="RUNAWAY: mean eccentricity") as err:
        run(cfg)
    # the scalar reference fails at the same scenario step
    rec = runaway_record(runaway)
    jd0, fr0 = julian_date(EPOCH)
    tsince = SatBatch([rec]).tsince_minutes(jd0, fr0 + np.arange(cfg.n_steps) * (60.0 / 86400.0))
    errors = []
    for t in tsince[0]:
        sgp4core.propagate_record(rec, float(t))
        errors.append(rec.error)
    assert err.value.object_name == "RUNAWAY"
    assert err.value.step == errors.index(1) > 512
    expected = EPOCH + timedelta(seconds=err.value.step * cfg.step_s)
    assert abs((err.value.utc - expected).total_seconds()) < 1e-3


_beams = st.one_of(
    st.just(BeamModel("earth_limb")),
    st.builds(lambda e: BeamModel("ground_service", service_elevation=e), st.floats(0.0, 60.0)),
    st.builds(lambda h: BeamModel("fixed_half_cone", half_cone=h), st.floats(1.0, 90.0)),
)
_shells = st.builds(
    ShellSpec,
    altitude=st.floats(400.0, 2000.0),
    inclination=st.floats(0.0, 180.0),
    plane_count=st.integers(1, 5),
    sats_per_plane=st.integers(1, 6),
    raan_span=st.sampled_from([180.0, 360.0]),
)
_users = st.lists(
    st.tuples(  # altitude, inclination, raan, mean anomaly
        st.floats(300.0, 1500.0), st.floats(0.0, 180.0), st.floats(0.0, 360.0), st.floats(0.0, 360.0)
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(
    fleets=st.lists(st.tuples(_beams, _shells), min_size=1, max_size=3),
    users=_users,
    n_steps=st.integers(2, 60),
    step_s=st.sampled_from([10.0, 30.0, 60.0]),
    min_elevation=st.floats(0.0, 40.0),
    random_policy=st.booleans(),
)
def test_engine_properties_on_random_scenarios(
    fleets, users, n_steps, step_s, min_elevation, random_policy
):
    """The streamed summaries, combined and per constellation, match the
    record reference, and neither the cull nor the thread count changes any
    output byte."""
    cfg = mini_cfg(
        constellations=[
            ConstellationConfig(f"c{k}", beam, shells=[shell])
            for k, (beam, shell) in enumerate(fleets)
        ],
        users=[
            UserSpec(k, KeplerianElements(RE + alt, 0.0, inc, raan, 0.0, ma, EPOCH), "explicit")
            for k, (alt, inc, raan, ma) in enumerate(users)
        ],
        duration_s=(n_steps - 1) * step_s,
        step_s=step_s,
        min_elevation_deg=min_elevation,
        policy=SelectionPolicy("random", seed=7) if random_policy else SelectionPolicy("closest"),
    )

    m = run(replace(cfg, capture_records=True))
    owner = {}
    for name, count in m.constellation_counts.items():
        owner.update({sid: name for sid in range(len(owner), len(owner) + count)})
    for u in m.users:
        views = {"combined": u.records}
        for name in m.constellation_counts:
            views[name] = [
                StepRecord(
                    r.step_index,
                    [v for v in r.visible if owner[v[0]] == name],
                    r.serving if r.serving is not None and owner[r.serving] == name else None,
                )
                for r in u.records
            ]
        for name, records in views.items():
            ref = summarize(records, cfg.step_s, cfg.carrier_frequency_hz, owner)
            got = u.summaries[name]
            for key in ("covered_steps", "access_count", "pass_count", "pass_hist_min",
                        "visible_hist", "serving_steps"):
                assert getattr(got, key) == getattr(ref, key), (name, key)
            for key in ("avg_access_min", "max_access_min", "visible_avg", "fspl_min_db",
                        "fspl_avg_db", "fspl_max_db", "max_doppler_khz", "serving_fspl_min_db",
                        "serving_fspl_avg_db", "serving_fspl_max_db", "serving_max_doppler_khz"):
                assert getattr(got, key) == pytest.approx(getattr(ref, key), rel=1e-12), (name, key)
        # the engine also lists the constellations that never serve
        used = {k: v for k, v in u.summaries["combined"].usage_fractions.items() if v}
        assert used == pytest.approx(summarize(u.records, 1.0, 1e10, owner).usage_fractions)

    assert summaries_payload(run(replace(cfg, cull=False))) == summaries_payload(m)

    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for threads in (1, 3):
            out = Path(tmp) / f"t{threads}"
            run(replace(cfg, threads=threads, output_dir=out))
            outputs.append([(out / f).read_bytes() for f in ("summary.json", "pass_access.csv")])
    assert outputs[0] == outputs[1]


def test_engine_visibility_matches_scalar_predicate():
    # the visible sets the engine captures equal the scalar two-sided
    # predicate, with each satellite's BeamModel, on the same batch positions
    from leolink import engine
    from leolink.elements import StateVector
    from leolink.fleets import BUILTIN_FLEETS
    from leolink.geometry import is_visible, relative_geometry
    from leolink.policy import select_serving
    from leolink.sgp4batch import SatBatch
    from leolink.timebase import julian_date

    service = BeamModel("ground_service", service_elevation=25.0)
    limb = BeamModel("earth_limb")
    cfg = mini_cfg(
        constellations=[
            ConstellationConfig(
                "mixed",
                service,
                shells=[ShellSpec(550.0, 53.0, 4, 5), ShellSpec(1200.0, 87.9, 3, 6, raan_span=180.0),
                        ShellSpec(800.0, 97.0, 2, 4)],
                shell_beams=[None, limb, BeamModel("fixed_half_cone", half_cone=40.0)],
            ),
            ConstellationConfig("limb", limb, shells=[ShellSpec(1000.0, 60.0, 3, 4)]),
            replace(BUILTIN_FLEETS["eutelsat_geo"], beam=BeamModel("fixed_half_cone", half_cone=8.0)),
        ],
        users=[preset("iss", epoch=EPOCH), *random_users(2, 21)],
        duration_s=3600.0,
        step_s=60.0,
        capture_records=True,
    )
    m = run(cfg)

    beams = []
    for c in cfg.constellations:
        if c.shells is None:
            beams += [c.beam] * c.count
        else:
            for si, shell in enumerate(c.shells):
                beams += [c.beam_for_shell(si)] * shell.total
    jd0, fr0 = julian_date(EPOCH)
    fr = fr0 + np.arange(cfg.n_steps) * (cfg.step_s / 86400.0)
    sat_pos, sat_vel = engine._Fleet(cfg).propagate_block(jd0, fr)
    u_pos, u_vel = SatBatch(engine._user_records(cfg)).propagate_jd(jd0, fr)
    assert len(beams) == len(sat_pos)

    cone_cut = {}  # pairs above min elevation that the beam cone alone rejects
    visible = {}
    for ui, u in enumerate(m.users):
        for k, rec in enumerate(u.records):
            user = StateVector(EPOCH, u_pos[ui, k], u_vel[ui, k])
            expected = []
            for s, beam in enumerate(beams):
                g = relative_geometry(user, StateVector(EPOCH, sat_pos[s, k], sat_vel[s, k]))
                alt = float(np.linalg.norm(sat_pos[s, k])) - RE
                if is_visible(g, cfg.min_elevation_deg, beam, alt):
                    expected.append((s, g))
                    visible[beam.kind] = visible.get(beam.kind, 0) + 1
                elif g.los_clear and g.user_elevation_deg >= cfg.min_elevation_deg:
                    cone_cut[beam.kind] = cone_cut.get(beam.kind, 0) + 1
            assert [v[0] for v in rec.visible] == [s for s, _ in expected]
            assert rec.serving == select_serving(expected, cfg.policy, k, ui)
    # every beam kind both admits pairs and rejects some on its cone
    kinds = {"earth_limb", "ground_service", "fixed_half_cone"}
    assert set(visible) == kinds and set(cone_cut) == kinds


def test_non_finite_user_orbit_names_the_user():
    # a deep-space orbit with a subnormal inclination propagates to NaN with
    # no SGP4 error code; the run stops instead of never seeing a satellite
    user = UserSpec(
        0, KeplerianElements(RE + 20200.0, 0.0, 2.2e-311, 0.0, 0.0, 0.0, EPOCH), "explicit"
    )
    with pytest.raises(PropagationError, match="position or velocity is not finite") as err:
        run(mini_cfg(users=[user], duration_s=600.0))
    assert (err.value.object_name, err.value.step) == ("user-0", 0)
    assert abs((err.value.utc - EPOCH).total_seconds()) < 1e-3
