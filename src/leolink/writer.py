"""Fixed-schema text of the output files.

Each function gives, byte for byte, the text the standard library writes
for the same document (``json.dumps(doc, indent=2)`` for ``summary.json``,
``csv.writer`` for the CSV files), formatted a column at a time from
:class:`metrics.Results` and :class:`metrics.BinGrid` arrays instead of a
value at a time.
"""

from __future__ import annotations

import json
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .metrics import BinGrid, CoverageSummary, Results

_KINDS = {f.name: f.type for f in fields(CoverageSummary)}


def _scalars(values: list) -> list[str]:
    """json's text of each value: a number, a bool, None or a str."""
    if any(isinstance(v, str) for v in values):
        return [json.dumps(v) for v in values]
    return _numbers(values)


def _numbers(values: list) -> list[str]:
    """json's text of each value: a number, a bool or None."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _nested(items: list[str], depth: int, brackets: str = "[]") -> str:
    """json's indented text of a list, or of an object, at nesting ``depth``
    whose items (values, or "key": value) have the text ``items``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _template(keys, depth: int) -> str:
    """The text of an object at ``depth`` with ``keys``, a %s for each value."""
    return _nested([_string(k).replace("%", "%%") + ": %s" for k in keys], depth, "{}")


def _field_texts(name: str, column: list, depth: int) -> list[str]:
    """The text of each value of a :class:`CoverageSummary` field, at
    nesting ``depth``."""
    kind = _KINDS[name]
    inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if kind == "list[int]":
        sep = "," + inner
        return [f"[{inner}{sep.join(map(str, v))}{close}]" if v else "[]" for v in column]
    if kind == "dict[str, float]":
        values = iter(_numbers([x for d in column for x in d.values()]))
        return [_nested([f"{_string(k)}: {next(values)}" for k in d], depth, "{}") for d in column]
    return _numbers(column)


def summary_text(head: dict, meta: dict[str, list], results: Results) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for the summary document
    ``doc``: the entries of ``head``, then "users", whose entry u holds the
    u-th value of each ``meta`` key (there is at least one) and then
    "summaries", user u's :meth:`Results.summaries` as dicts."""
    summary = _template(results.columns, 4)
    texts = [_field_texts(name, column, 5) for name, column in results.columns.items()]
    summaries = [summary % row for row in zip(*texts)]
    sets = [_string(name) + ": " for name in results.sets]
    n_sets = len(sets)
    user = _template([*meta, "summaries"], 2)
    rows = zip(*(_scalars(v) for v in meta.values()))
    users = [
        user % (*row, _nested([s + t for s, t in zip(sets, summaries[at : at + n_sets])], 3, "{}"))
        for at, row in zip(range(0, len(summaries), n_sets), rows)
    ]
    parts = [
        f"{_string(k)}: {json.dumps(v, indent=2)}".replace("\n", "\n  ") for k, v in head.items()
    ]
    return _nested([*parts, '"users": ' + _nested(users, 1)], 0, "{}") + "\n"


def grid_text(grid: BinGrid) -> str:
    """``csv.writer``'s text of a grid's header and rows
    (:meth:`BinGrid.to_rows`); each cell label is formatted once."""
    incs = [f"{i!r},{grid.metric}," for i in grid.inc_lows.tolist()]
    labels = [f"{a!r},{i}" for a in grid.alt_lows.tolist() for i in incs]
    values = ["" if v != v else repr(v) for v in grid.values.ravel().tolist()]
    rows = zip(labels, values, grid.counts.ravel().tolist())
    return ",".join(BinGrid.HEADER) + "\r\n" + "".join([f"{a}{v},{n}\r\n" for a, v, n in rows])


def pass_access_text(user_ids: list[int], results: Results, stamp, step_s: float) -> str:
    """``csv.writer``'s text of ``pass_access.csv``: per user, whose id is
    ``user_ids[u]``, its passes, then its whole-fleet accesses, in the order
    found. ``stamp(step)``: the time of a step, asked once per step."""
    p_user, p_sat, p_start, p_end = results.passes.tolist()
    a_user, a_start, a_end = results.accesses.tolist()
    stamps = {s: stamp(s) for s in {*p_start, *p_end, *a_start, *a_end}}
    lengths = {e - s + 1 for s, e in zip(p_start + a_start, p_end + a_end)}
    minutes = {n: f"{n * step_s / 60.0:.4f}" for n in lengths}
    uid = [str(u) for u in user_ids]
    lines = [
        f"{uid[u]},pass,{sat},{stamps[s]},{stamps[e]},{minutes[e - s + 1]}\r\n"
        for u, sat, s, e in zip(p_user, p_sat, p_start, p_end)
    ] + [
        f"{uid[u]},access,,{stamps[s]},{stamps[e]},{minutes[e - s + 1]}\r\n"
        for u, s, e in zip(a_user, a_start, a_end)
    ]
    order = np.argsort(np.r_[2 * results.passes[0], 2 * results.accesses[0] + 1], kind="stable")
    return "user_id,kind,sat_id,start_iso,end_iso,duration_min\r\n" + "".join(
        [lines[i] for i in order.tolist()]
    )
