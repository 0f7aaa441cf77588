"""Output identity of scenario runs across threads, the cull and other
variants that must not change a result.

Results depend only on the resolved config. Each group of :data:`GROUPS`
runs one benchmark workload (``perfbench/workloads.py``) at one seed in
each of its variants, and every variant must write the same files: every
file but ``manifest.json``, which holds the run's wall time, with the
``culling`` flag that ``summary.json`` echoes taken as on. Each run's
``summary.json``, formatted by leolink's own fixed-schema writer, must also
be the text ``json.dumps(..., indent=2)`` gives for the document it holds.

The groups: at seeds 0 and 5 (seed 5 draws other user orbits, population
and policy key) every workload with 1 thread, 3 threads and the cull off.
At seed 0, a mask of 0 degrees, the screen's widest cap, with the cull on
and off. The population at paper scale (1,100 users, 20 min), whose block
takes several chunks of users where the benchmark's fit in one, with 1
and 3 threads. iss_leo and population_mc with one TLE catalog for their
fleet: the 716 OneWeb slots written as TLEs with drag (bstar 1e-4), as
every row of a real catalog has; iss_leo also with the 5,124 OneWeb and
Starlink slots written as a drag-free catalog, whose rows cannot fail. At seeds 0 and 5 population_mc with
every block's knots planned (``engine._CLEAR_SHARE`` 0, where its blocks
otherwise take every knot dense) and with the cull off. iss_leo over
5,120 s (513 steps: a last block of one knot) with the cull on and off.
geo_deep with its epoch 28 days after and 28 days before its GEO
catalog's, where its blocks grow the deep-space resonance table forwards
or backwards. iss_leo and population_mc with beams the bundled fleets do
not use, which the screen bounds too: at seed 0 OneWeb with a fixed
50-degree cone and Starlink with the limb cone, at seed 5 OneWeb with a
60-degree and Starlink with a 0-degree ground-service cone.

It prints one line per group with the digests of its files, and exits 1
if the variants of some group differ or a summary.json is not canonical.
The lines depend only on the outputs, so running the script on two
checkouts and diffing what they print compares their outputs.

    python tools/identity.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent

_ALL = ("iss_leo", "population_mc", "geo_deep")
_MASK_0 = {"min_elevation": 0}
_PAPER = {"users": {"population": {"n_main": 1000, "n_band": 50, "seed": 0}}}
# TLE catalogs written for the runs into their temporary directory: the
# 716 OneWeb slots with drag, and the 5,124 OneWeb and Starlink slots without
_CATALOG, _FREE_CATALOG = "oneweb_drag.tle", "oneweb_starlink.tle"
_DRAG = {"constellations": [{"name": "oneweb_drag", "source": {"tle_file": _CATALOG}}]}
_FREE = {"constellations": [{"name": "catalog", "source": {"tle_file": _FREE_CATALOG}}]}
_ONE_KNOT = {"duration": 5120.0}
_AHEAD, _BEHIND = {"epoch": "2021-04-17T09:37:29Z"}, {"epoch": "2021-02-20T09:37:29Z"}
# the beam of each named constellation of the workload
_BEAMS_0 = {"beams": {"oneweb": {"kind": "fixed_half_cone", "half_cone": 50},
                      "starlink": {"kind": "earth_limb"}}}
_BEAMS_5 = {"beams": {"oneweb": {"kind": "ground_service", "service_elevation": 60},
                      "starlink": {"kind": "ground_service", "service_elevation": 0}}}


def _on_and_off(label, change):
    return ((label, change), (f"{label} cull off", {**change, "cull": False}))


def _threads(label, change):
    return ((label, change), (f"{label} 3 threads", {**change, "threads": 3}))


def _threads_and_off(label, change):
    return _threads(label, change) + _on_and_off(label, change)[1:]


_MAIN = (("1 thread", {}), ("3 threads", {"threads": 3}), ("cull off", {"cull": False}))
_PLANNED = (("every block planned", {}), ("planned cull off", {"cull": False}))

# (seed, workloads, engine._CLEAR_SHARE or None for the engine's own,
# variants as (label, change to the workload's config))
GROUPS = (
    (0, _ALL, None, _MAIN),
    (5, _ALL, None, _MAIN),
    (0, _ALL, None, _on_and_off("mask 0", _MASK_0)),
    (0, ("population_mc",), None, _threads("1,100 users", _PAPER)),
    (0, ("iss_leo", "population_mc"), None, _threads_and_off("drag catalog", _DRAG)),
    (0, ("iss_leo",), None, _threads_and_off("drag-free catalog", _FREE)),
    (0, ("population_mc",), 0.0, _PLANNED),
    (5, ("population_mc",), 0.0, _PLANNED),
    (0, ("iss_leo",), None, _on_and_off("one-knot block", _ONE_KNOT)),
    (0, ("geo_deep",), None, _threads_and_off("epoch +28 d", _AHEAD)),
    (0, ("geo_deep",), None, _threads_and_off("epoch -28 d", _BEHIND)),
    (0, ("iss_leo",), None, _on_and_off("beams", _BEAMS_0)),
    (0, ("population_mc",), None, _on_and_off("beams", _BEAMS_0)),
    (5, ("iss_leo",), None, _on_and_off("beams", _BEAMS_5)),
    (5, ("population_mc",), None, _on_and_off("beams", _BEAMS_5)),
)


def digests(out: Path) -> tuple[dict[str, str], list[str]]:
    """(digests, problems) of one run's output directory: each file's
    sha256 (16 hex digits) by name, manifest.json left out and summary.json
    with its echoed ``culling`` flag taken as on, and a line if summary.json
    is not canonical JSON."""
    found, problems = {}, []
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            continue
        data = path.read_bytes()
        if path.name == "summary.json":
            text = data.decode()
            if json.dumps(json.loads(text), indent=2) + "\n" != text:
                problems.append(f"{out.name}: summary.json is not canonical JSON")
            data = data.replace(b'"culling": false', b'"culling": true')
        found[path.name] = hashlib.sha256(data).hexdigest()[:16]
    return found, problems


def compare(outs: dict[str, Path]) -> tuple[dict[str, str], list[str]]:
    """(digests, problems) of one group, from each variant's output
    directory by label: the first variant's file digests, and a line for
    each summary.json that is not canonical JSON and for each variant
    whose files differ from the first's."""
    problems, first = [], None
    for label, out in outs.items():
        found, bad = digests(out)
        problems += bad
        if first is None:
            first = found
        elif found != first:
            problems.append(f"{label}: differs: {found}")
    return first or {}, problems


def _config(build, seed, out, change, tmp):
    """The workload's config at ``seed`` into ``out``, with ``change``: its
    ``beams`` set the beam of each named constellation, and a TLE file
    source is a file in ``tmp`` (the workloads name none)."""
    beams = change.get("beams", {})
    cfg = {**build(seed, str(out)), **{k: v for k, v in change.items() if k != "beams"}}
    fleet = []
    for c in cfg["constellations"]:
        if "source" in c:
            c = {**c, "source": {"tle_file": str(Path(tmp, c["source"]["tle_file"]))}}
        fleet.append({**c, "beam": beams[c["name"]]} if c["name"] in beams else c)
    return {**cfg, "constellations": fleet}


def _write_catalog(path, epoch, fleets, bstar):
    from leolink.fleets import BUILTIN_FLEETS
    from leolink.timebase import parse_utc
    from leolink.tle import dump_tle_file, elements_to_tle
    from leolink.walker import build_walker

    slots = [el for fleet in fleets for shell in BUILTIN_FLEETS[fleet].shells
             for el in build_walker(shell, parse_utc(epoch))]
    dump_tle_file([
        replace(elements_to_tle(el, catalog_id=k + 1, name=f"{fleets[0]}-{k}"), bstar=bstar)
        for k, el in enumerate(slots)
    ], path)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from leolink import config_from_dict, engine
    from workloads import EPOCH, WORKLOADS

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        _write_catalog(Path(tmp, _CATALOG), EPOCH, ("oneweb",), 1e-4)
        _write_catalog(Path(tmp, _FREE_CATALOG), EPOCH, ("oneweb", "starlink"), 0.0)
        for seed, names, share, variants in GROUPS:
            for name in names:
                outs = {}
                for label, change in variants:
                    out = Path(tmp, f"{name}_{seed}", label.replace(" ", "_"))
                    cfg = _config(WORKLOADS[name], seed, out, change, tmp)
                    with mock.patch.object(engine, "_CLEAR_SHARE",
                                           engine._CLEAR_SHARE if share is None else share):
                        engine.run(config_from_dict(cfg))
                    outs[label] = out
                found, problems = compare(outs)
                files = " ".join(f"{f}={d}" for f, d in found.items())
                verdict = "; ".join(problems) if problems else f"{len(found)} files identical"
                print(name, f"seed {seed}", variants[0][0] + ":", verdict, files, flush=True)
                failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
