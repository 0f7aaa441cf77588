"""Physical constants and simulation defaults.

Geometry (elevation, occlusion, Walker shell radii) uses the WGS-84
equatorial radius on a spherical Earth; the SGP4 core carries its own
WGS-72 gravity constants internally for self-consistency with the
standard propagator.
"""

# Spherical Earth radius for visibility geometry and shell construction [km]
EARTH_RADIUS_KM = 6378.137

# Gravitational parameter used for Kepler conversions outside SGP4 [km^3/s^2]
MU_EARTH = 398600.4418

# J2 zonal coefficient (sun-synchronous inclination solve)
J2_EARTH = 1.08263e-3

SPEED_OF_LIGHT = 299792458.0  # m/s

# Scenario defaults
DEFAULT_EPOCH = "2021-03-20T09:37:29Z"
DEFAULT_DURATION_S = 86400.0
DEFAULT_STEP_S = 10.0
DEFAULT_MIN_ELEVATION_DEG = 25.0
DEFAULT_CARRIER_HZ = 11.5e9  # Ku-band FSS downlink, upper segment

# Fixed half-cone adopted for wide-beam GEO platforms [deg]
GEO_HALF_CONE_DEG = 10.5

SECONDS_PER_DAY = 86400.0

VERSION = "0.1.0"
