import errno
import json
import math
import sys
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


def test_subnormal_deep_space_inclination_fails_as_the_reference():
    # SGP4's deep-space terms divide by sin(inclination) whenever it is not
    # 0, so an inclination whose radian value is subnormal overflows to NaN
    from leolink import sgp4core
    from leolink.propagation import satrec_from_tle
    from leolink.tle import elements_to_tle
    from leolink.walker import build_walker

    shell = ShellSpec(20000.0, 1.1125369292536007e-308, 1, 1, raan_span=180.0)
    rec = satrec_from_tle(elements_to_tle(build_walker(shell, EPOCH)[0], catalog_id=1))
    assert all(math.isnan(x) for x in sgp4core.propagate_record(rec, 0.0)[0])
    cfg = mini_cfg(
        constellations=[ConstellationConfig("deep", BeamModel("earth_limb"), shells=[shell])],
        users=[UserSpec(0, KeplerianElements(RE + 300.0, 0.0, 0.0, 0.0, 0.0, 0.0, EPOCH), "explicit")],
        duration_s=10.0,
        step_s=10.0,
    )
    with pytest.raises(PropagationError, match="deep-0: position or velocity is not finite") as err:
        run(cfg)
    assert err.value.step == 0


_beams = st.one_of(
    st.just(BeamModel("earth_limb")),
    st.builds(lambda e: BeamModel("ground_service", service_elevation=e), st.floats(0.0, 60.0)),
    st.builds(lambda h: BeamModel("fixed_half_cone", half_cone=h), st.floats(1.0, 90.0)),
)


def _shells_at(altitude, inclination):
    return st.builds(
        ShellSpec,
        altitude=altitude,
        inclination=inclination,
        plane_count=st.integers(1, 5),
        sats_per_plane=st.integers(1, 6),
        raan_span=st.sampled_from([180.0, 360.0]),
    )


_shells = st.one_of(
    _shells_at(st.floats(400.0, 2000.0), st.floats(0.0, 180.0)),
    # deep-space shells make rows that may fail, propagated at every step,
    # among the rows the screen bounds between knots; their inclination is 0
    # or a normal float in radians, as a subnormal one gives NaN in the record
    # reference too (test_subnormal_deep_space_inclination_fails_as_the_reference)
    _shells_at(
        st.floats(20000.0, 36000.0),
        st.floats(0.0, 180.0).filter(lambda i: i == 0.0 or math.radians(i) >= sys.float_info.min),
    ),
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
    # a knot every 12, 4 and 2 steps, then at every step
    step_s=st.sampled_from([10.0, 30.0, 60.0, 120.0, 300.0]),
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


def _pairs_spy(monkeypatch):
    """The (S, B) masks of the satellite-steps each call of
    ``SatBatch.propagate_pairs`` propagates."""
    from leolink.sgp4batch import SatBatch

    masks = []
    pairs = SatBatch.propagate_pairs

    def spy(self, jd, fr, rows, steps):
        need = np.zeros((self.n, len(fr)), dtype=bool)
        need[rows, steps] = True
        masks.append(need)
        return pairs(self, jd, fr, rows, steps)

    monkeypatch.setattr(SatBatch, "propagate_pairs", spy)
    return masks


def test_screened_blocks_give_the_cull_off_bytes(tmp_path, monkeypatch):
    # the same scenario with the screen and gathered pairs between knots,
    # then with every step a knot and no cull, writes the same bytes and
    # captures the same records; with the screen each user's candidates
    # hold every pair at or above the elevation mask, hold on the rows that
    # may fail (the GEO rows, propagated at every step) no pair more than
    # the stated margin below the screen's elevation floor, and go to pair
    # geometry as they are: a mixed LEO + GEO fleet, 3 users, 2 blocks
    import math

    from leolink import engine
    from leolink.fleets import BUILTIN_FLEETS
    from leolink.sgp4batch import SatBatch
    from leolink.timebase import julian_date

    cfg = mini_cfg(
        constellations=[*mini_cfg().constellations, BUILTIN_FLEETS["eutelsat_geo"]],
        users=[preset("iss", epoch=EPOCH), *random_users(2, 4)],
        duration_s=700 * 10.0,
        capture_records=True,
    )
    # per user and block, as keys row * B + step: the elevation test of pair
    # geometry, sin(el) >= sin(min_elevation), and the pairs whose height
    # z = sat . û - |user| above the horizon plane is at least the floor
    # c = sin e (sqrt(r_s^2 - r_u^2 cos^2 e) - r_u sin e) at the block's
    # largest user radius and least satellite radius (at least the orbit's
    # r_lo), lowered by the margin of 1e-9 r_s + 1 mm (and 1 um for the
    # rounding of z)
    e = math.radians(cfg.min_elevation_deg)
    jd0, fr0 = julian_date(EPOCH)
    fleet, crew = engine._Fleet(cfg), SatBatch(engine._user_records(cfg))
    s_lo = fleet.bounds[0]
    exact, floor = [], []
    for t0 in (0, 512):
        fr = fr0 + np.arange(t0, min(t0 + 512, cfg.n_steps)) * (cfg.step_s / 86400.0)
        (sp, sv), (up, uv) = fleet.propagate_block(jd0, fr), crew.propagate_jd(jd0, fr)
        for p, v in zip(up, uv):
            _, _, sin_el, _, r_s = engine.pair_geometry_arrays(sp, sv, p, v)
            exact.append(np.flatnonzero(sin_el >= math.sin(e)))
            r_u = np.linalg.norm(p, axis=-1)
            z = np.einsum("sbk,bk->sb", sp, p / r_u[:, None]) - r_u
            r_u, r_s = r_u.max(), np.maximum(s_lo, r_s.min(axis=1))[:, None]
            c = math.sin(e) * (np.sqrt(np.maximum(r_s**2 - (r_u * math.cos(e)) ** 2, 0.0)) - r_u * math.sin(e))
            floor.append(np.flatnonzero(z >= c - (1e-9 * r_s + 1e-6) - 1e-9))
    block_states, geometry = engine._block_states, engine.pair_geometry_arrays

    def states(*args):
        out = block_states(*args)
        cands.extend(out[2])
        return out

    def counted(sat_pos, *args):
        sizes.append(len(sat_pos))
        return geometry(sat_pos, *args)

    monkeypatch.setattr(engine, "_block_states", states)
    monkeypatch.setattr(engine, "pair_geometry_arrays", counted)
    outputs = []
    for cull in (True, False):
        masks = _pairs_spy(monkeypatch)
        cands, sizes = [], []
        out = tmp_path / str(cull)
        m = run(replace(cfg, cull=cull, output_dir=out))
        summary = (out / "summary.json").read_bytes()
        # every candidate goes to pair geometry, no other pair
        assert sizes == [len(row) for row, _, _ in cands]
        if cull:
            # per block, one gathered-pair call for the knots after the first
            # (the GEO rows are taken at each) and one for the steps between
            # knots: the pairs the screen keeps and every such step of the
            # rows that may fail
            assert len(masks) == 2 * 2
            fail = np.flatnonzero(fleet.may_fail)
            assert len(fail) == 23
            blocks = [512] * 3 + [cfg.n_steps - 512] * 3
            for (row, step, _), want, top, b in zip(cands, exact, floor, blocks):
                assert np.isin(want, row * b + step).all()
                assert len(row) < fleet.n * b // 2  # and not every pair
                on_fail = np.isin(row, fail)
                assert np.isin((row * b + step)[on_fail], top).all()
            # the echoed option is the only difference in the outputs
            summary = summary.replace(b'"culling": true', b'"culling": false')
        else:
            blocks = (512, cfg.n_steps - 512)
            assert masks == [] and sizes == [fleet.n * b for b in blocks for _ in range(3)]
        outputs.append([summary, (out / "pass_access.csv").read_bytes(), [u.records for u in m.users]])
    assert outputs[0] == outputs[1]
    assert any(r.visible for u in outputs[0][2] for r in u)


def _counted_plans(monkeypatch):
    """Per block that plans its knots, the knot states taken (rows x knots
    if every row is taken at every knot) and the number of knots."""
    from leolink import engine

    knot_plan, plans = engine._knot_plan, []

    def counted(batch, may_fail, jd, fr, knots, *args):
        take = knot_plan(batch, may_fail, jd, fr, knots, *args)
        plans.append((batch.n * len(knots) if take is None else int(take.sum()), len(knots)))
        return take

    monkeypatch.setattr(engine, "_knot_plan", counted)
    return plans


def test_lazy_knots_give_the_cull_off_bytes(tmp_path, monkeypatch):
    # one ISS user against a Walker fleet over 2 blocks: rows are taken
    # only at the knots next to an interval where the user may see them, so
    # fewer than a quarter of rows x knots knot states are propagated, and
    # the run writes the bytes and captures the records of a run without
    # the cull
    cfg = mini_cfg(duration_s=700 * 10.0, capture_records=True)
    plans = _counted_plans(monkeypatch)
    outputs = []
    for cull in (True, False):
        out = tmp_path / str(cull)
        m = run(replace(cfg, cull=cull, output_dir=out))
        summary = (out / "summary.json").read_bytes().replace(b'"culling": true', b'"culling": false')
        outputs.append([summary, (out / "pass_access.csv").read_bytes(), [u.records for u in m.users]])
    n_sat = sum(m.constellation_counts.values())
    taken, knots = np.sum(plans, axis=0)
    assert len(plans) == 2  # both blocks, with the cull on only
    assert taken < n_sat * knots // 4
    assert outputs[0] == outputs[1]
    assert any(r.visible for u in outputs[0][2] for r in u)


@pytest.mark.parametrize("min_el", [0.0, 25.0])
def test_planned_knots_give_the_cull_off_bytes_on_a_mixed_fleet(tmp_path, monkeypatch, min_el):
    # Walker rows, a drag TLE row, an eccentric near-earth row (e = 0.1, a
    # margin of about 12 deg) and the GEO rows, against the ISS and two
    # other LEO users over 2 blocks: the blocks skip knots, and the cull on
    # and off write the same bytes and capture the same records
    from leolink.fleets import BUILTIN_FLEETS

    drag = TwoLineElementSet(
        name="DRAG", epoch=EPOCH, inclination=51.6, raan=40.0, eccentricity=0.0005,
        arg_perigee=0.0, mean_anomaly=10.0, mean_motion=15.5, bstar=2e-4, catalog_id=22222,
    )
    eccentric = TwoLineElementSet(
        name="ECC", epoch=EPOCH, inclination=63.0, raan=200.0, eccentricity=0.1,
        arg_perigee=90.0, mean_anomaly=0.0, mean_motion=13.0, bstar=0.0, catalog_id=33333,
    )
    cfg = mini_cfg(
        constellations=[
            *mini_cfg().constellations,
            ConstellationConfig("tles", BeamModel("earth_limb"), tles=[drag, eccentric]),
            BUILTIN_FLEETS["eutelsat_geo"],
        ],
        users=[preset("iss", epoch=EPOCH), *random_users(2, 11)],
        duration_s=700 * 10.0,
        min_elevation_deg=min_el,
        capture_records=True,
    )
    plans = _counted_plans(monkeypatch)
    outputs = []
    for cull in (True, False):
        out = tmp_path / str(cull)
        m = run(replace(cfg, cull=cull, output_dir=out))
        summary = (out / "summary.json").read_bytes().replace(b'"culling": true', b'"culling": false')
        outputs.append([summary, (out / "pass_access.csv").read_bytes(), [u.records for u in m.users]])
    n_sat = sum(m.constellation_counts.values())
    assert len(plans) == 2
    assert all(taken < n_sat * knots for taken, knots in plans)
    assert outputs[0] == outputs[1]
    assert any(r.visible for u in outputs[0][2] for r in u)


@pytest.mark.parametrize("min_el", [0.0, 10.0, 60.0])
def test_elevation_screen_gives_the_cull_off_bytes_with_a_deep_space_user(tmp_path, min_el):
    # a mixed LEO + GEO fleet and a Molniya user (deep space: no speed
    # bound, so the screen keeps its pairs at every step between knots)
    # among LEO users: the cull on and off write the same bytes, at the
    # mask 0 (a floor of 0) and above it
    from leolink.fleets import BUILTIN_FLEETS

    molniya = UserSpec(9, KeplerianElements(26560.0, 0.7, 63.4, 40.0, 270.0, 0.0, EPOCH), "explicit")
    cfg = mini_cfg(
        constellations=[*mini_cfg().constellations, BUILTIN_FLEETS["eutelsat_geo"]],
        users=[preset("iss", epoch=EPOCH), *random_users(2, 7), molniya],
        duration_s=700 * 10.0,
        min_elevation_deg=min_el,
    )
    outputs = []
    for cull in (True, False):
        out = tmp_path / str(cull)
        run(replace(cfg, cull=cull, output_dir=out))
        summary = (out / "summary.json").read_bytes().replace(b'"culling": true', b'"culling": false')
        outputs.append((summary, (out / "pass_access.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    # the Molniya user sees a satellite at every mask
    assert b"\n9,pass," in outputs[0][1]


def test_decay_in_a_sparse_block_raises_the_dense_error(monkeypatch):
    # a drag-heavy object decays about 36 min in (2 s steps), in the second
    # block; the rest of the fleet keeps that block on gathered pairs. The
    # run stops with the error a run without the screen raises, at the
    # scalar reference's first failing step
    from leolink import sgp4core
    from leolink.propagation import satrec_from_tle
    from leolink.sgp4batch import SatBatch
    from leolink.timebase import julian_date

    sinker = TwoLineElementSet(
        name="SINKER", epoch=EPOCH, inclination=53.0, raan=0.0, eccentricity=0.0,
        arg_perigee=0.0, mean_anomaly=0.0, mean_motion=16.4, bstar=0.09, catalog_id=11111,
    )
    cfg = mini_cfg(
        constellations=[
            *mini_cfg().constellations,
            ConstellationConfig("sink", BeamModel("earth_limb"), tles=[sinker]),
        ],
        duration_s=3000.0,
        step_s=2.0,
    )
    masks = _pairs_spy(monkeypatch)
    with pytest.raises(PropagationError, match="SINKER") as sparse:
        run(cfg)
    # the first block's steps between knots went through one gathered call,
    # after its later knots', with every such step of the row that may fail
    # and few of the others
    need = masks[1]
    assert need[-1].sum() == 512 - len(range(0, 512, 60)) - 1
    assert need[:-1].mean() < 0.2
    with pytest.raises(PropagationError, match="SINKER") as dense:
        run(replace(cfg, cull=False))
    got, want = sparse.value, dense.value
    assert (got.object_name, got.step, got.utc, str(got)) == (
        want.object_name, want.step, want.utc, str(want)
    )
    rec = satrec_from_tle(sinker)
    jd0, fr0 = julian_date(EPOCH)
    tsince = SatBatch([rec]).tsince_minutes(jd0, fr0 + np.arange(cfg.n_steps) * (2.0 / 86400.0))
    errors = []
    for t in tsince[0]:
        sgp4core.propagate_record(rec, float(t))
        errors.append(rec.error)
    assert got.step == next(k for k, e in enumerate(errors) if e) > 512


def test_catalog_offsets_shift_every_record(tmp_path):
    # raan_offset and anomaly_offset move a TLE catalog as they move a
    # Walker fleet: the run writes the passes of a catalog whose records
    # were shifted by hand, not those of the unshifted catalog
    from leolink.fleets import BUILTIN_FLEETS

    geo = BUILTIN_FLEETS["eutelsat_geo"]
    by_hand = replace(geo, tles=[
        replace(t, raan=(t.raan + 90.0) % 360.0, mean_anomaly=(t.mean_anomaly + 90.0) % 360.0)
        for t in geo.tles
    ])
    fleets = {
        "offset": replace(geo, raan_offset_deg=90.0, anomaly_offset_deg=90.0),
        "by_hand": by_hand,
        "none": geo,
    }
    out = {}
    for name, fleet in fleets.items():
        m = run(mini_cfg(constellations=[fleet], duration_s=7200.0, output_dir=tmp_path / name))
        out[name] = ((tmp_path / name / "pass_access.csv").read_bytes(), summaries_payload(m))
    assert b"pass," in out["offset"][0] and b"pass," in out["none"][0]
    assert out["offset"] == out["by_hand"]
    assert out["offset"][0] != out["none"][0]


def test_fleet_keeps_no_records_after_set_up():
    # the fleet's batch copies each record's constants into columns and
    # keeps no SatRecord: OneWeb + Starlink (5,124 satellites) leave about
    # 2 MB of columns, beams and names, against about 24 MB with the records
    import gc
    import tracemalloc

    from leolink import engine
    from leolink.fleets import BUILTIN_FLEETS

    cfg = mini_cfg(constellations=[BUILTIN_FLEETS["oneweb"], BUILTIN_FLEETS["starlink"]])
    engine._Fleet(cfg)  # warmed up
    tracemalloc.start()
    try:
        fleet = engine._Fleet(cfg)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fleet.n == 5124
    assert not hasattr(fleet.batch, "records")
    assert held < 4 * 2**20


def _records_per_row(cfg):
    """One scalar SGP4 record per fleet row, every Walker slot turned into a
    TLE of its own: the reference for the batch that _Fleet fills from one
    record per near-earth shell. Raises the first row's init error."""
    from leolink.propagation import satrec_from_tle
    from leolink.tle import elements_to_tle
    from leolink.walker import build_walker

    def shifted(cc, el):
        if not (cc.raan_offset_deg or cc.anomaly_offset_deg):
            return el
        return replace(
            el,
            raan=(el.raan + cc.raan_offset_deg) % 360.0,
            mean_anomaly=(el.mean_anomaly + cc.anomaly_offset_deg) % 360.0,
        )

    records = []
    for cc in cfg.constellations:
        n0 = len(records)
        if cc.tles is not None:
            records += [satrec_from_tle(shifted(cc, tle)) for tle in cc.tles]
            continue
        for shell in cc.shells:
            for el in build_walker(shell, cfg.epoch):
                k = len(records)
                tle = elements_to_tle(shifted(cc, el), catalog_id=k + 1, name=f"{cc.name}-{k - n0}")
                records.append(satrec_from_tle(tle))
    return records


_slot_shells = st.builds(
    ShellSpec,
    altitude=st.floats(300.0, 2000.0),
    inclination=st.floats(0.0, 180.0),
    plane_count=st.integers(1, 6),
    sats_per_plane=st.integers(1, 8),
    raan_span=st.one_of(st.just(360.0), st.floats(1.0, 360.0)),
    inter_plane_phase=st.one_of(st.none(), st.floats(-720.0, 720.0)),
)


@settings(max_examples=30, deadline=None)
@given(
    shells=st.lists(st.lists(_slot_shells, min_size=1, max_size=3), min_size=1, max_size=3),
    offsets=st.lists(st.tuples(st.floats(-400.0, 400.0), st.floats(-400.0, 400.0)), min_size=3, max_size=3),
)
def test_fleet_fills_slots_as_records_per_slot_would(shells, offsets):
    # the fleet gets one SGP4 record per near-earth shell and fills every
    # slot's row from it: each batch column equals the column of one
    # record per row, and so does every propagated bit. A deep-space
    # shell (8,000 km up) and a TLE catalog with drag ride along, one
    # record per row
    from leolink import engine
    from leolink.sgp4batch import SatBatch
    from leolink.timebase import julian_date

    draggy = TwoLineElementSet(
        name="DRAGGY", epoch=EPOCH - timedelta(hours=7), inclination=51.6, raan=123.4,
        eccentricity=0.0007, arg_perigee=88.1, mean_anomaly=272.0, mean_motion=15.49,
        bstar=3.1e-4, catalog_id=25544,
    )
    fleets = [
        ConstellationConfig(
            f"c{i}", BeamModel("earth_limb"), shells=s, raan_offset_deg=ro, anomaly_offset_deg=mo
        )
        for i, (s, (ro, mo)) in enumerate(zip(shells, offsets))
    ]
    fleets[0] = replace(fleets[0], shells=[*fleets[0].shells, ShellSpec(8000.0, 55.0, 2, 3)])
    cfg = mini_cfg(
        constellations=[*fleets, ConstellationConfig("cat", BeamModel("earth_limb"), tles=[draggy])]
    )
    inits = []
    counted = engine.satrec_from_tle

    def counting(tle):
        inits.append(tle.name)
        return counted(tle)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "satrec_from_tle", counting)
        fleet = engine._Fleet(cfg)
    want = SatBatch(_records_per_row(cfg))
    got = fleet.batch
    assert got.names == want.names
    assert got._cols.keys() == want._cols.keys()
    for key, column in want._cols.items():
        assert np.array_equal(got._cols[key], column), key
    for key in ("epoch_jd", "epoch_fr", "deep"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    assert got._runs == want._runs
    # one record per near-earth shell, its first slot's; one per deep slot
    expected = []
    for f in fleets:
        i = 0
        for shell in f.shells:
            slots = range(i, i + (shell.total if shell.altitude == 8000.0 else 1))
            expected += [f"{f.name}-{k}" for k in slots]
            i += shell.total
    assert inits == expected + ["DRAGGY"]
    jd, fr = julian_date(EPOCH)
    fr = fr + np.array([0.0, 0.013, 0.5, 1.7])
    for a, b in zip(got.propagate_jd(jd, fr), want.propagate_jd(jd, fr)):
        assert np.array_equal(a, b)


_FAILING = ShellSpec(5.0, 53.0, 4, 9)  # 7 of its 36 slots fail scalar init
_SUB_ORBITAL = TwoLineElementSet(
    name="SUB", epoch=EPOCH, inclination=53.0, raan=0.0, eccentricity=0.0, arg_perigee=0.0,
    mean_anomaly=0.0, mean_motion=17.5, bstar=0.0, catalog_id=33333,
)


@pytest.mark.parametrize(
    "fleets",
    [
        [("low", [ShellSpec(550.0, 53.0, 2, 2), _FAILING])],
        [("ok", [ShellSpec(550.0, 53.0, 2, 2)]), ("low", [_FAILING]), ("sub", [_SUB_ORBITAL])],
        [("sub", [_SUB_ORBITAL]), ("low", [_FAILING])],
    ],
    ids=["shell", "shell-then-catalog", "catalog-then-shell"],
)
def test_shell_failing_init_raises_the_per_slot_error(fleets):
    # a shell whose slots fail init at epoch one by one (its first slot
    # does not) stops the run with the error of the first failing row that
    # a record per row raises, and a catalog row that fails after that
    # shell does not go first
    cfg = mini_cfg(
        constellations=[
            ConstellationConfig(
                name, BeamModel("earth_limb"),
                **({"tles": src} if isinstance(src[0], TwoLineElementSet) else {"shells": src}),
            )
            for name, src in fleets
        ],
        duration_s=60.0,
    )
    with pytest.raises(PropagationError) as want:
        _records_per_row(cfg)
    with pytest.raises(PropagationError) as got:
        run(cfg)
    assert (str(got.value), got.value.object_name, got.value.step, got.value.utc) == (
        str(want.value), want.value.object_name, None, None
    )
    assert "init failed" in str(got.value)
    assert got.value.object_name in ("low-6", "low-2", "SUB")
