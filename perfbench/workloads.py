"""The three benchmark scenarios, built from a seed.

Each function returns the raw config dict that ``leolink.config_from_dict``
resolves. The seed only chooses inputs (user orbit phases, the population
draw, the random-policy key); the size of every workload is fixed, so
``users x satellites x steps`` does not depend on the seed.

``small=True`` shrinks a workload to a few steps (and, for the population,
a few users) for the benchmark's own tests; the layers it exercises stay
the same.
"""

from __future__ import annotations

import numpy as np

EPOCH = "2021-03-20T09:37:29Z"
STEP_S = 10.0

# Explicit LEO users for geo_deep: altitude [km], inclination [deg].
GEO_DEEP_USERS = ((420.0, 51.6), (550.0, 0.0), (800.0, 87.9), (1100.0, 98.0))


def _phases(seed: int, n: int) -> list[tuple[float, float]]:
    """Seed-determined (raan, mean anomaly) pairs in degrees."""
    rng = np.random.default_rng(seed)
    return [(float(a), float(b)) for a, b in rng.uniform(0.0, 360.0, (n, 2))]


def iss_leo(seed: int, out_dir: str, small: bool = False) -> dict:
    # 2 h at 10 s is 721 steps: two engine blocks of up to 512 steps, so
    # passes are carried across a block boundary.
    (raan, ma), = _phases(seed, 1)
    return {
        "epoch": EPOCH,
        "duration": 3 * STEP_S if small else 7200.0,
        "step": STEP_S,
        "constellations": [{"name": "oneweb"}, {"name": "starlink"}],
        "users": {"preset": "iss", "raan": raan, "mean_anomaly": ma},
        "policy": {"kind": "closest"},
        "seed": seed,
        "threads": 1,
        "output_dir": out_dir,
    }


def population_mc(seed: int, out_dir: str, small: bool = False) -> dict:
    # 20 min rather than a full hour keeps several runs inside one measured
    # window; per-user work and shared propagation both scale with the steps.
    # One thread: on a 2-vCPU host shared with other tenants, the wall time
    # of a 2-thread run measured how much of the second vCPU the host lent.
    return {
        "epoch": EPOCH,
        "duration": 3 * STEP_S if small else 1200.0,
        "step": STEP_S,
        "constellations": [{"name": "oneweb"}, {"name": "starlink"}, {"name": "eutelsat_geo"}],
        "users": {
            "population": {"n_main": 4, "n_band": 1, "seed": seed}
            if small
            else {"n_main": 100, "n_band": 5, "seed": seed}
        },
        "policy": {"kind": "random", "seed": seed},
        "seed": seed,
        "threads": 1,
        "output_dir": out_dir,
    }


def geo_deep(seed: int, out_dir: str, small: bool = False) -> dict:
    users = [
        {"altitude": alt, "inclination": inc, "raan": raan, "mean_anomaly": ma}
        for (alt, inc), (raan, ma) in zip(GEO_DEEP_USERS, _phases(seed, len(GEO_DEEP_USERS)))
    ]
    return {
        "epoch": EPOCH,
        "duration": 3 * STEP_S if small else 86400.0,
        "step": STEP_S,
        "constellations": [{"name": "eutelsat_geo"}],
        "users": {"explicit": users},
        "policy": {"kind": "closest"},
        "seed": seed,
        "threads": 1,
        "output_dir": out_dir,
    }


WORKLOADS = {"iss_leo": iss_leo, "population_mc": population_mc, "geo_deep": geo_deep}
