"""tools/identity.py: its comparison of a group's output directories."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parent.parent / "tools" / "identity.py"
)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def _outputs(path, summary, table=b"step,access\n0,1\n"):
    path.mkdir()
    (path / "summary.json").write_text(summary)
    (path / "pass_access.csv").write_bytes(table)
    (path / "manifest.json").write_text(json.dumps({"wall_s": str(path)}))
    return path


def test_compare_flags_a_byte_that_differs_and_a_summary_that_is_not_canonical(tmp_path):
    doc = {"culling": True, "users": [1, 2]}
    summary = json.dumps(doc, indent=2) + "\n"
    off = summary.replace('"culling": true', '"culling": false')
    # the same files, the culling echo and manifest.json apart
    same = {
        "on": _outputs(tmp_path / "on", summary),
        "off": _outputs(tmp_path / "off", off),
    }
    found, problems = identity.compare(same)
    assert problems == []
    assert sorted(found) == ["pass_access.csv", "summary.json"]
    # one byte of one file differs
    found, problems = identity.compare(
        {**same, "byte": _outputs(tmp_path / "byte", summary, b"step,access\n0,2\n")}
    )
    assert len(problems) == 1 and problems[0].startswith("byte: differs")
    # the same document, written without json.dumps(..., indent=2)'s layout,
    # flagged also where no other run is compared with it
    found, problems = identity.compare(
        {"compact": _outputs(tmp_path / "compact", json.dumps(doc) + "\n")}
    )
    assert problems == ["compact: summary.json is not canonical JSON"]


def test_the_groups_are_those_of_the_determinism_check():
    # the printed list: one line per (group, workload), 22 in all
    lines = [
        f"{name} seed {seed} {variants[0][0]}"
        for seed, names, _, variants in identity.GROUPS
        for name in names
    ]
    assert len(lines) == len(set(lines)) == 22
