#!/usr/bin/env python3
"""Store the reference outputs the benchmark compares runs against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload (all by default) once at the reference seed and writes
``reference/<workload>/`` beside this file. Regenerate only when a change
is meant to alter ``summary.json`` or ``pass_access.csv``.
"""

import sys

from checks import REFERENCE_DIR, REFERENCE_SEED, write_reference
from run import OUT, import_leolink
from workloads import WORKLOADS


def main(names: list[str]) -> None:
    import_leolink()
    from leolink import config_from_dict, engine

    for name in names or sorted(WORKLOADS):
        out_dir = OUT / name / "reference"
        engine.run(config_from_dict(WORKLOADS[name](REFERENCE_SEED, str(out_dir))))
        write_reference(out_dir, REFERENCE_DIR / name)
        print(f"{name}: reference written to {REFERENCE_DIR / name}")


if __name__ == "__main__":
    main(sys.argv[1:])
