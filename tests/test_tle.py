import warnings
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.elements import KeplerianElements
from leolink.fleets import BUILTIN_FLEETS
from leolink.timebase import parse_utc
from leolink.tle import (
    TleParseError,
    _checksum,
    _implied_decimal,
    elements_to_tle,
    format_tle,
    parse_tle,
    round_trip,
)

EPOCH = parse_utc("2021-03-20T09:37:29Z")

VER_TLE_5 = (
    "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753\n"
    "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667"
)


def test_parse_verification_tle_fields():
    t = parse_tle(VER_TLE_5, strict=True)
    assert t.catalog_id == 5
    assert t.intl_designator == "58002B"
    assert t.inclination == 34.2682
    assert t.raan == 348.7242
    assert t.eccentricity == 0.1859667
    assert t.arg_perigee == 331.7664
    assert t.mean_anomaly == 19.3264
    assert t.mean_motion == 10.82419157
    assert t.bstar == pytest.approx(0.28098e-4)
    assert t.epoch.year == 2000


def test_parse_named_record_from_bundled_catalog():
    records = BUILTIN_FLEETS["eutelsat_geo"].tles
    by_name = {r.name: r for r in records}
    assert "EUTELSAT 7 WEST A" in by_name
    rec = by_name["EUTELSAT 7 WEST A"]
    assert rec.catalog_id == 17810
    assert len(records) == 23


def test_round_trip_synthesized():
    el = KeplerianElements(6378.137 + 550.0, 0.0, 53.0, 120.5, 0.0, 42.25, EPOCH)
    t = elements_to_tle(el, 1234, name="TEST SAT")
    t2 = round_trip(t)
    assert t2.name == "TEST SAT"
    assert t2.inclination == pytest.approx(t.inclination, abs=1e-4)
    assert t2.raan == pytest.approx(t.raan, abs=1e-4)
    assert t2.eccentricity == pytest.approx(t.eccentricity, abs=1e-7)
    assert t2.arg_perigee == pytest.approx(t.arg_perigee, abs=1e-4)
    assert t2.mean_anomaly == pytest.approx(t.mean_anomaly, abs=1e-4)
    assert t2.mean_motion == pytest.approx(t.mean_motion, abs=1e-8)


def test_elements_to_tle_550km_mean_motion():
    # n = 86400 / (2*pi*sqrt(a^3/mu)), a = 6928.137 km -> about 15.05 rev/day
    el = KeplerianElements(6378.137 + 550.0, 0.0, 53.0, 0.0, 0.0, 0.0, EPOCH)
    t = elements_to_tle(el, 1)
    assert t.mean_motion == pytest.approx(15.05, abs=0.01)


def test_zero_eccentricity_field():
    el = KeplerianElements(6378.137 + 550.0, 0.0, 53.0, 0.0, 0.0, 0.0, EPOCH)
    line2 = format_tle(elements_to_tle(el, 1)).splitlines()[-1]
    assert line2[26:33] == "0000000"


def test_iss_inclination_field():
    el = KeplerianElements(6378.137 + 420.0, 0.0, 51.6, 0.0, 0.0, 0.0, EPOCH)
    line2 = format_tle(elements_to_tle(el, 1)).splitlines()[-1]
    assert line2[8:16] == " 51.6000"


def test_line_lengths_and_checksums():
    el = KeplerianElements(6378.137 + 1200.0, 0.0, 87.9, 15.0, 0.0, 300.0, EPOCH)
    lines = format_tle(elements_to_tle(el, 77)).splitlines()
    for ln in lines:
        assert len(ln) == 69 or not ln.startswith(("1 ", "2 "))
    parse_tle(lines, strict=True)  # checksums must verify


def test_checksum_mismatch_strict_vs_lenient():
    l1, l2 = VER_TLE_5.splitlines()
    bad = l1[:-1] + ("0" if l1[-1] != "0" else "1")
    with pytest.raises(TleParseError):
        parse_tle([bad, l2], strict=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = parse_tle([bad, l2], strict=False)
    assert t.catalog_id == 5
    assert any("checksum" in str(w.message) for w in caught)


def _checksum_by_character(line):
    """The checksum of a line that holds only ASCII, one character at a
    time: the reference for tle._checksum."""
    s = 0
    for ch in line[:68]:
        if ch.isdigit():
            s += int(ch)
        elif ch == "-":
            s += 1
    return s % 10


def test_checksum_counts_only_ascii_digits():
    # '²' is a digit to str.isdigit, but not to the checksum, which counts
    # it as 0: the line warns (or, strict, raises) as any checksum mismatch
    # does, naming its line and both checksums
    l1, l2 = VER_TLE_5.splitlines()
    sup = l1[:65] + "²" + l1[66:]  # the element number's 4
    with pytest.raises(TleParseError, match="line 1 checksum"):
        parse_tle([sup, l2], strict=True)
    with pytest.warns(UserWarning, match="line 1 checksum 3 != computed 9"):
        assert parse_tle([sup, l2]).catalog_id == 5
    # nor is a '²' in column 69 a checksum digit to compare with
    parse_tle([l1[:68] + "²", l2], strict=True)


def test_checksum_matches_the_character_loop_on_the_bundled_catalog():
    text = (resources.files("leolink") / "data" / "eutelsat_geo.tle").read_text()
    lines = [ln for ln in text.splitlines() if ln.startswith(("1 ", "2 "))]
    assert len(lines) == 46
    for ln in lines:
        assert _checksum(ln) == _checksum_by_character(ln) == int(ln[68])


def test_malformed_line_names_field():
    l1, l2 = VER_TLE_5.splitlines()
    garbled = l2[:8] + "xx.yyyy " + l2[16:]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # garbling also breaks the checksum
        with pytest.raises(TleParseError, match="inclination"):
            parse_tle([l1, garbled])


def test_short_line_rejected():
    with pytest.raises(TleParseError, match="columns"):
        parse_tle(["1 00005U 58002B", "2 00005  34.2682"])


def test_implied_decimal_cases():
    assert _implied_decimal(" 28098-4") == pytest.approx(0.28098e-4)
    assert _implied_decimal("-11606-4") == pytest.approx(-0.11606e-4)
    assert _implied_decimal(" 00000-0") == 0.0
    assert _implied_decimal(" 00000+0") == 0.0
    assert _implied_decimal("        ") == 0.0


def test_below_earth_semi_major_axis_rejected():
    with pytest.raises(ValueError):
        KeplerianElements(6000.0, 0.0, 53.0, 0.0, 0.0, 0.0, EPOCH)


@settings(max_examples=60, deadline=None)
@given(
    alt=st.floats(200.0, 40000.0),
    ecc=st.floats(0.0, 0.2),
    inc=st.floats(0.0, 180.0),
    raan=st.floats(0.0, 359.99),
    argp=st.floats(0.0, 359.99),
    ma=st.floats(0.0, 359.99),
)
def test_round_trip_property(alt, ecc, inc, raan, argp, ma):
    el = KeplerianElements(6378.137 + alt, ecc, inc, raan, argp, ma, EPOCH)
    t = elements_to_tle(el, 42)
    t2 = round_trip(t)
    assert t2.inclination == pytest.approx(t.inclination, abs=1e-4)
    assert t2.raan == pytest.approx(t.raan, abs=1e-4)
    assert t2.eccentricity == pytest.approx(t.eccentricity, abs=1e-7)
    assert t2.arg_perigee == pytest.approx(t.arg_perigee, abs=1e-4)
    assert t2.mean_anomaly == pytest.approx(t.mean_anomaly, abs=1e-4)
    assert t2.mean_motion == pytest.approx(t.mean_motion, abs=1e-8)
    for ln in format_tle(t).splitlines():
        assert _checksum(ln) == _checksum_by_character(ln)
