"""The fixed-schema writers give the standard library's bytes."""

import csv
import io
import json
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.metrics import BinGrid, CoverageSummary, Results
from leolink.writer import grid_text, pass_access_text, summary_text

_FIELDS = {f.name: f.type for f in fields(CoverageSummary)}
_META = ("user_id", "tag", "alt_km", "inc_deg", "raan_deg", "ma_deg")

_text = st.text(st.characters(codec="utf-8"), max_size=8)
_ints = st.integers(-(2**63), 2**63 - 1)
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1e300, 5e-324])
_json = st.recursive(
    st.none() | st.booleans() | _ints | st.integers() | _floats | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=12,
)
_VALUES = {
    "int": _ints,
    "float": _floats,
    "float | None": st.none() | _floats,
    "list[int]": st.lists(_ints, max_size=4),
    "dict[str, float]": st.dictionaries(_text, _floats, max_size=3),
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_summary_text_is_json_dumps(data):
    sets = data.draw(st.lists(_text, min_size=1, max_size=3, unique=True))
    n_users = data.draw(st.integers(0, 3))
    n = n_users * len(sets)
    columns = {
        name: data.draw(st.lists(_VALUES[kind], min_size=n, max_size=n))
        for name, kind in _FIELDS.items()
    }
    meta = {
        "user_id": data.draw(st.lists(_ints, min_size=n_users, max_size=n_users)),
        "tag": data.draw(st.lists(_text, min_size=n_users, max_size=n_users)),
        **{k: data.draw(st.lists(_floats, min_size=n_users, max_size=n_users)) for k in _META[2:]},
    }
    head = {
        "config": data.draw(st.dictionaries(_text, _json, max_size=4)),
        "reporting_mode": data.draw(_text),
        "aggregate": data.draw(st.dictionaries(_text, _json, max_size=3)),
    }
    empty = np.zeros((4, 0), dtype=np.int64)
    results = Results(sets, columns, empty, empty[:3])
    doc = {
        **head,
        "users": [
            {
                **{k: v[u] for k, v in meta.items()},
                "summaries": {
                    name: {f: col[u * len(sets) + k] for f, col in columns.items()}
                    for k, name in enumerate(sets)
                },
            }
            for u in range(n_users)
        ],
    }
    assert summary_text(head, meta, results) == json.dumps(doc, indent=2) + "\n"


def _csv(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def test_grid_text_is_csv_writer():
    rng = np.random.default_rng(3)
    for alt_bin, inc_bin, shape in ((25.0, 5.0, (34, 36)), (0.1, 1e-3, (3, 1)), (100.0, 30.0, (1, 1))):
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, shape)
        values[rng.random(shape) < 0.5] = np.nan
        values.ravel()[:1] = -0.0
        grid = BinGrid(
            "fspl_avg_db", alt_bin, inc_bin,
            np.arange(-1, shape[0] - 1) * alt_bin, np.arange(shape[1]) * inc_bin,
            values, rng.integers(0, 10**12, shape),
        )
        assert grid_text(grid) == _csv([BinGrid.HEADER, *grid.to_rows()])


def test_pass_access_text_is_csv_writer():
    rng = np.random.default_rng(5)
    step_s = 7.3
    n_users = 4
    starts = rng.integers(0, 500, 60)
    rows = np.stack((rng.integers(0, n_users, 60), rng.integers(0, 5000, 60), starts,
                     starts + rng.integers(0, 300, 60)))
    passes = rows[:, np.argsort(rows[0], kind="stable")]
    accesses = passes[[0, 2, 3], ::3]
    user_ids = [10, 3, 999, 0]
    results = Results(["combined"], {}, passes, accesses)

    def stamp(step):
        return f"T+{step}"

    want = [["user_id", "kind", "sat_id", "start_iso", "end_iso", "duration_min"]]
    for u in range(n_users):
        for _, sat, s, e in passes.T[passes[0] == u].tolist():
            want.append([user_ids[u], "pass", sat, stamp(s), stamp(e), f"{(e - s + 1) * step_s / 60.0:.4f}"])
        for _, s, e in accesses.T[accesses[0] == u].tolist():
            want.append([user_ids[u], "access", "", stamp(s), stamp(e), f"{(e - s + 1) * step_s / 60.0:.4f}"])
    assert pass_access_text(user_ids, results, stamp, step_s) == _csv(want)
