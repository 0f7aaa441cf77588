import pytest

from leolink.fleets import BUILTIN_FLEETS, ONEWEB_SHELLS, STARLINK_SHELLS


def test_bundled_fleet_totals():
    assert sum(s.total for s in ONEWEB_SHELLS) == 716
    assert sum(s.total for s in STARLINK_SHELLS) == 4408


def test_table_rows():
    polar = ONEWEB_SHELLS[0]
    assert (polar.altitude, polar.inclination, polar.plane_count, polar.sats_per_plane) == (
        1200.0,
        87.9,
        12,
        49,
    )
    assert polar.total == 588
    alts = sorted({s.altitude for s in STARLINK_SHELLS})
    assert alts == [540.0, 550.0, 560.0, 570.0]


def test_eutelsat_catalog():
    fleet = BUILTIN_FLEETS["eutelsat_geo"]
    tles = fleet.tles
    assert len(tles) == 23
    names = {t.name for t in tles}
    assert "EUTELSAT 7 WEST A" in names
    assert "EUTELSAT QUANTUM" in names
    for t in tles:
        # geosynchronous mean motion, near-circular, low inclination bar one
        assert t.mean_motion == pytest.approx(1.0027, abs=0.001)
        assert t.eccentricity < 0.01
    assert fleet.beam.kind == "fixed_half_cone"
    assert fleet.beam.half_cone == 10.5


def test_leo_fleet_beams():
    assert BUILTIN_FLEETS["oneweb"].beam.kind == "ground_service"
    sl = BUILTIN_FLEETS["starlink"]
    assert sl.beam.kind == "ground_service"
    # sun-synchronous shells carry the wide beams
    assert sl.shell_beams[2].kind == "earth_limb"
    assert sl.shell_beams[0] is None


def test_walker_fleet_has_no_tles():
    assert BUILTIN_FLEETS["oneweb"].tles is None
