"""Two-line element set parsing, formatting, and element conversion.

Implements the standard 69-column TLE layout including the implied-decimal
eccentricity/bstar fields. Parsing is lenient about checksums by default
(``strict=True`` enforces them); malformed columns always raise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import datetime

from .constants import EARTH_RADIUS_KM, MU_EARTH
from .elements import KeplerianElements, mean_motion_rev_day
from .timebase import datetime_to_tle_epoch, tle_epoch_to_datetime


class TleParseError(ValueError):
    """Raised for malformed TLE records; message names the offending field."""


@dataclass(frozen=True)
class TwoLineElementSet:
    """Parsed mean elements of one TLE record (angles deg, n in rev/day)."""

    name: str
    epoch: datetime
    inclination: float
    raan: float
    eccentricity: float
    arg_perigee: float
    mean_anomaly: float
    mean_motion: float
    bstar: float
    catalog_id: int
    ndot: float = 0.0
    nddot: float = 0.0
    classification: str = "U"
    intl_designator: str = ""

    def __post_init__(self):
        if not 0.0 <= self.eccentricity < 1.0:
            raise TleParseError(f"eccentricity {self.eccentricity} outside [0, 1)")
        if not 0.0 <= self.inclination <= 180.0:
            raise TleParseError(f"inclination {self.inclination} outside [0, 180]")
        if self.mean_motion <= 0.0:
            raise TleParseError(f"mean motion {self.mean_motion} not positive")
        for name in ("raan", "arg_perigee", "mean_anomaly", "mean_motion", "bstar", "ndot", "nddot"):
            if not math.isfinite(getattr(self, name)):
                raise TleParseError(f"{name.replace('_', ' ')} {getattr(self, name)} is not finite")

    @property
    def semi_major_axis_km(self) -> float:
        n_rad_s = self.mean_motion * 2.0 * math.pi / 86400.0
        return (MU_EARTH / n_rad_s**2) ** (1.0 / 3.0)

    @property
    def altitude_km(self) -> float:
        return self.semi_major_axis_km - EARTH_RADIUS_KM


def _checksum(line: str) -> int:
    """The modulo-10 checksum of a line's first 68 columns: the sum of its
    ASCII digits, with 1 for each minus sign. Other characters count 0,
    among them digits of other scripts, such as '²', which ``str.isdigit``
    accepts."""
    count = line[:68].count
    return (
        count("-") + count("1") + 2 * count("2") + 3 * count("3") + 4 * count("4")
        + 5 * count("5") + 6 * count("6") + 7 * count("7") + 8 * count("8") + 9 * count("9")
    ) % 10


def _field(line: str, lineno: int, lo: int, hi: int, name: str, conv, default=None):
    raw = line[lo:hi]
    if default is not None and not raw.strip():
        return default
    try:
        return conv(raw)
    except (ValueError, TypeError):
        raise TleParseError(
            f"line {lineno} field '{name}' (columns {lo + 1}-{hi}): cannot parse {raw!r}"
        ) from None


def _implied_decimal(raw: str) -> float:
    """Decode fields like ' 28098-4' -> 0.28098e-4 (implied leading decimal)."""
    s = raw.strip()
    if not s or s in {"00000-0", "00000+0", "+00000-0", "+00000+0", "0"}:
        return 0.0
    sign = 1.0
    if s[0] in "+-":
        sign = -1.0 if s[0] == "-" else 1.0
        s = s[1:]
    if s and s[-2] in "+-":
        mant, exp = s[:-2], s[-2:]
    elif s and s[-1].isdigit() and ("+" in s or "-" in s):
        idx = max(s.rfind("+"), s.rfind("-"))
        mant, exp = s[:idx], s[idx:]
    else:
        return sign * float("0." + s)
    return sign * float("0." + mant) * 10.0 ** int(exp)


def _encode_implied(value: float) -> str:
    """Inverse of :func:`_implied_decimal`; 8-character field."""
    if value == 0.0:
        return " 00000+0"
    sign = "-" if value < 0.0 else " "
    v = abs(value)
    exp = int(math.floor(math.log10(v))) + 1
    digits = round(v / 10.0**exp * 1e5)
    if digits >= 100000:
        digits //= 10
        exp += 1
    exp = max(-9, min(9, exp))
    exp_str = f"{exp:+d}"
    return f"{sign}{digits:05d}{exp_str}"


def parse_tle(text: str | list[str], strict: bool = False) -> TwoLineElementSet:
    """Parse a 2- or 3-line TLE record.

    Column/length problems raise :class:`TleParseError`; checksum mismatches
    raise only when ``strict`` is set, otherwise they warn.
    """
    lines = text.splitlines() if isinstance(text, str) else list(text)
    lines = [ln.rstrip("\r\n") for ln in lines if ln.strip()]
    if len(lines) == 2:
        name, l1, l2 = "", lines[0], lines[1]
    elif len(lines) == 3:
        name, l1, l2 = lines[0].strip(), lines[1], lines[2]
        if name.startswith("0 "):  # 3LE convention
            name = name[2:].strip()
    else:
        raise TleParseError(f"expected a 2- or 3-line record, got {len(lines)} lines")

    for lineno, ln, lead in ((1, l1, "1"), (2, l2, "2")):
        if len(ln) < 69:
            raise TleParseError(f"line {lineno} is {len(ln)} columns, need 69")
        if not ln.startswith(lead + " "):
            raise TleParseError(f"line {lineno} does not start with '{lead} '")
        expect = _checksum(ln)
        got = ln[68]
        if got in "0123456789" and int(got) != expect:
            msg = f"line {lineno} checksum {got} != computed {expect}"
            if strict:
                raise TleParseError(msg)
            warnings.warn(msg, stacklevel=2)

    catalog_id = _field(l1, 1, 2, 7, "catalog number", lambda s: int(s))
    classification = l1[7].strip() or "U"
    intl = l1[9:17].strip()
    epoch_yy = _field(l1, 1, 18, 20, "epoch year", lambda s: int(s))
    epoch_day = _field(l1, 1, 20, 32, "epoch day", lambda s: float(s))
    ndot = _field(l1, 1, 33, 43, "mean motion derivative", lambda s: float(s), 0.0)
    nddot = _field(l1, 1, 44, 52, "mean motion 2nd derivative", _implied_decimal, 0.0)
    bstar = _field(l1, 1, 53, 61, "bstar", _implied_decimal, 0.0)

    cat2 = _field(l2, 2, 2, 7, "catalog number", lambda s: int(s))
    if cat2 != catalog_id:
        msg = f"catalog number mismatch between lines: {catalog_id} vs {cat2}"
        if strict:
            raise TleParseError(msg)
        warnings.warn(msg, stacklevel=2)
    inclination = _field(l2, 2, 8, 16, "inclination", lambda s: float(s))
    raan = _field(l2, 2, 17, 25, "raan", lambda s: float(s))
    ecc = _field(l2, 2, 26, 33, "eccentricity", lambda s: float("0." + s.strip()))
    argp = _field(l2, 2, 34, 42, "argument of perigee", lambda s: float(s))
    ma = _field(l2, 2, 43, 51, "mean anomaly", lambda s: float(s))
    mm = _field(l2, 2, 52, 63, "mean motion", lambda s: float(s))

    return TwoLineElementSet(
        name=name,
        epoch=tle_epoch_to_datetime(epoch_yy, epoch_day),
        inclination=inclination,
        raan=raan,
        eccentricity=ecc,
        arg_perigee=argp,
        mean_anomaly=ma,
        mean_motion=mm,
        bstar=bstar,
        catalog_id=catalog_id,
        ndot=ndot,
        nddot=nddot,
        classification=classification,
        intl_designator=intl,
    )


def _encode_ndot(value: float) -> str:
    """First-derivative field: sign column plus 8 implied decimals."""
    digits = min(round(abs(value) * 1e8), 99999999)
    return f"{'-' if value < 0 else ' '}.{digits:08d}"


def format_tle(tle: TwoLineElementSet) -> str:
    """Render the record in standard 69-column form (name line if present)."""
    yy, doy = datetime_to_tle_epoch(tle.epoch)
    l1 = (
        f"1 {tle.catalog_id:5d}{tle.classification:1.1s} "
        f"{tle.intl_designator:<8.8s} {yy:02d}{doy:012.8f} {_encode_ndot(tle.ndot)} "
        f"{_encode_implied(tle.nddot)} {_encode_implied(tle.bstar)} 0 {0:4d}"
    )
    ecc_field = f"{tle.eccentricity:.7f}"[2:9]
    l2 = (
        f"2 {tle.catalog_id:5d} {tle.inclination:8.4f} {tle.raan:8.4f} "
        f"{ecc_field} {tle.arg_perigee:8.4f} {tle.mean_anomaly:8.4f} "
        f"{tle.mean_motion:11.8f}{0:5d}"
    )
    l1 += str(_checksum(l1))
    l2 += str(_checksum(l2))
    lines = [l1, l2]
    if tle.name:
        lines.insert(0, tle.name)
    return "\n".join(lines)


def elements_to_tle(elements: KeplerianElements, catalog_id: int, name: str = "") -> TwoLineElementSet:
    """Bridge mean Keplerian elements to a drag-free TLE record (bstar = 0).

    Mean motion follows Kepler's third law; the record round-trips through
    :func:`parse_tle` at printed precision.
    """
    if elements.epoch is None:
        raise ValueError("elements need an epoch to become a TLE")
    tle = TwoLineElementSet(
        name=name,
        epoch=elements.epoch,
        inclination=elements.inclination % 360.0,
        raan=elements.raan % 360.0,
        eccentricity=elements.eccentricity,
        arg_perigee=elements.arg_perigee % 360.0,
        mean_anomaly=elements.mean_anomaly % 360.0,
        mean_motion=mean_motion_rev_day(elements.semi_major_axis),
        bstar=0.0,
        catalog_id=catalog_id,
    )
    return tle


def load_tle_file(path, strict: bool = False) -> list[TwoLineElementSet]:
    """Read a sequence of (optionally named) TLE records from a text file."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    records = []
    buf: list[str] = []
    for ln in lines:
        buf.append(ln)
        if ln.startswith("2 ") and len(buf) >= 2:
            records.append(parse_tle(buf, strict=strict))
            buf = []
    if buf:
        raise TleParseError(f"trailing lines do not form a record: {buf!r}")
    return records


def dump_tle_file(records: list[TwoLineElementSet], path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(format_tle(rec) + "\n")


def round_trip(tle: TwoLineElementSet) -> TwoLineElementSet:
    """parse(format(tle)); useful for printed-precision identity checks."""
    return parse_tle(format_tle(tle))
