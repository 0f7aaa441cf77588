"""Outside-in tracing of one scenario run.

:func:`instrument` wraps each layer's public entry points, as the engine
looks them up, with spans recorded in memory by a :class:`Tracer`. Nothing
under ``src/`` is edited: names the engine imports (``pair_geometry_arrays``,
``serving_rows``, ...) are patched on ``leolink.engine``, names it calls
through a module (``sgp4core.propagate_record``) on that module, and
methods on their classes. Everything is restored on exit.

Two spans are synthetic, because the per-user work is a closure inside
``engine.run`` that cannot be wrapped:

* ``engine.users`` covers one block's per-user phase on the main thread,
  from the end of the users' SGP4 batch call to the start of the next
  block (or of the first ``finalize``);
* ``engine.user`` covers one ``process_user`` call on a pool worker, when
  the scenario runs with more than one thread.

A span's self time is its duration minus the union of its children's
intervals. On one thread the self times of all spans add up to the root's
duration; with worker threads they add up to the thread-summed busy time.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

ROOT = 0


class Tracer:
    """Spans (sid, name, start, end, parent, thread id) and counters."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._ids = itertools.count(ROOT + 1)
        self._local = threading.local()
        self._phase: tuple[int, float] | None = None
        self._count_lock = threading.Lock()
        self.root_start = self.root_end = 0.0

    def stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = [ROOT]
        return st

    def record(self, name: str, fn, args, kwargs, parent: int | None = None):
        st = self.stack()
        if parent is not None:
            st.append(parent)
        sid = next(self._ids)
        par = st[-1]
        st.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
            if parent is not None:
                st.pop()
            self.spans.append((sid, name, t0, t1, par, threading.get_ident()))

    def count(self, key: str, value) -> None:
        # pool workers count too, and += on a dict entry is not atomic
        with self._count_lock:
            self.counters[key] += value

    def open_phase(self) -> None:
        sid = next(self._ids)
        self._phase = (sid, time.perf_counter())
        self.stack().append(sid)

    def close_phase(self) -> None:
        if self._phase is None:
            return
        sid, t0 = self._phase
        self._phase = None
        st = self.stack()
        st.pop()
        self.spans.append((sid, "engine.users", t0, time.perf_counter(), st[-1], threading.get_ident()))

    @contextmanager
    def root(self):
        self.root_start = time.perf_counter()
        try:
            yield self
        finally:
            self.close_phase()
            self.root_end = time.perf_counter()


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(tracer: Tracer) -> defaultdict[str, float]:
    """Summed self time per span name; the root is named ``engine.run``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, t0, t1, par, _ in tracer.spans:
        children[par].append((t0, t1))
    out: dict[str, float] = defaultdict(float)
    for sid, name, t0, t1, _, _ in tracer.spans:
        out[name] += (t1 - t0) - _union_length(children.get(sid, []), t0, t1)
    lo, hi = tracer.root_start, tracer.root_end
    out["engine.run"] += (hi - lo) - _union_length(children.get(ROOT, []), lo, hi)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, work counters and ratios of one traced run."""
    st = self_times(tracer)
    c = tracer.counters
    n = defaultdict(int)
    for _, name, *_ in tracer.spans:
        n[name] += 1
    wall = tracer.root_end - tracer.root_start

    def ratio(a, b):
        return a / b if b else 0.0

    user_self = st["engine.users"] + st["engine.user"]
    return {
        "config.resolve_s": st["config.resolve"],
        "walker.build_s": st["walker.build"],
        "tle.format_s": st["tle.format"],
        "propagation.init_s": st["propagation.init"],
        "propagation.records": n["propagation.init"],
        "sgp4batch.init_s": st["sgp4batch.init"],
        "sgp4batch.fleet_s": st["sgp4batch.fleet"],
        "sgp4batch.fleet_sat_steps": int(c["fleet_sat_steps"]),
        "sgp4batch.ns_per_sat_step": 1e9 * ratio(st["sgp4batch.fleet"], c["fleet_sat_steps"]),
        "sgp4batch.users_s": st["sgp4batch.users"],
        "sgp4core.deep_s": st["sgp4core.deep"],
        "sgp4core.deep_calls": n["sgp4core.deep"],
        "sgp4core.us_per_call": 1e6 * ratio(st["sgp4core.deep"], n["sgp4core.deep"]),
        "engine.block_self_s": st["engine.block"],
        "engine.self_s": st["engine.run"] + user_self,
        "engine.user_self_s": user_self,
        "engine.busy_s": sum(st.values()),
        "engine.write_s": st["engine.write"],
        "engine.write_bytes": int(c["write_bytes"]),
        "geometry.s": st["geometry"],
        "geometry.pairs_dense": int(c["pairs_dense"]),
        "geometry.pairs_evaluated": int(c["pairs_evaluated"]),
        "geometry.cull_keep_ratio": ratio(c["pairs_evaluated"], c["pairs_dense"]),
        "geometry.visible_ratio": ratio(c["visible_pairs"], c["pairs_evaluated"]),
        "policy.s": st["policy"],
        "policy.served_ratio": ratio(c["served_steps"], c["user_steps"]),
        "metrics.update_s": st["metrics.update"],
        "metrics.finalize_s": st["metrics.finalize"],
        "metrics.visible_pairs": int(c["visible_pairs"]),
        "metrics.passes": int(c["passes"]),
        "metrics.accesses": int(c["accesses"]),
        "trace.wall_s": wall,
    }


# The unit of each metric layer_metrics returns.
TRACED_UNITS = {
    "config.resolve_s": "s",
    "walker.build_s": "s",
    "tle.format_s": "s",
    "propagation.init_s": "s",
    "propagation.records": "count",
    "sgp4batch.init_s": "s",
    "sgp4batch.fleet_s": "s",
    "sgp4batch.fleet_sat_steps": "count",
    "sgp4batch.ns_per_sat_step": "ns",
    "sgp4batch.users_s": "s",
    "sgp4core.deep_s": "s",
    "sgp4core.deep_calls": "count",
    "sgp4core.us_per_call": "us",
    "engine.block_self_s": "s",
    "engine.self_s": "s",
    "engine.user_self_s": "s",
    "engine.busy_s": "s",
    "engine.write_s": "s",
    "engine.write_bytes": "bytes",
    "geometry.s": "s",
    "geometry.pairs_dense": "count",
    "geometry.pairs_evaluated": "count",
    "geometry.cull_keep_ratio": "ratio",
    "geometry.visible_ratio": "ratio",
    "policy.s": "s",
    "policy.served_ratio": "ratio",
    "metrics.update_s": "s",
    "metrics.finalize_s": "s",
    "metrics.visible_pairs": "count",
    "metrics.passes": "count",
    "metrics.accesses": "count",
    "trace.wall_s": "s",
}
# Every per-layer metric: the traced ones plus two the runner derives from
# the untraced runs it makes alongside the traced ones.
LAYER_UNITS = {**TRACED_UNITS, "engine.cpu_util": "ratio", "trace.overhead_s": "s"}


# Layer times whose sum, with engine.self_s, is the thread-summed busy time.
SELF_TIME_KEYS = (
    "config.resolve_s", "walker.build_s", "tle.format_s", "propagation.init_s",
    "sgp4batch.init_s", "sgp4batch.fleet_s", "sgp4batch.users_s", "sgp4core.deep_s",
    "engine.block_self_s", "engine.write_s", "geometry.s", "policy.s",
    "metrics.update_s", "metrics.finalize_s",
)


def _patch(saved: list, owner, attr: str, new) -> None:
    saved.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


@contextmanager
def instrument(tracer: Tracer):
    """Patch every layer entry point the engine uses; restore on exit."""
    from leolink import engine, metrics, sgp4batch, sgp4core

    saved: list = []

    def span(name, fn, after=None, closes_phase=False):
        def wrapper(*args, **kwargs):
            if closes_phase:
                tracer.close_phase()
            out = tracer.record(name, fn, args, kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    count = tracer.count

    batch_propagate = sgp4batch.SatBatch.propagate_jd

    def propagate_jd(self, jd, fr):
        # the fleet's batch call is made inside engine.block; the users' call
        # is made by engine.run itself and starts the per-user phase
        if tracer.stack()[-1] != ROOT:
            count("fleet_sat_steps", self.n * len(fr))
            return tracer.record("sgp4batch.fleet", batch_propagate, (self, jd, fr), {})
        out = tracer.record("sgp4batch.users", batch_propagate, (self, jd, fr), {})
        tracer.open_phase()
        return out

    def after_policy(srv, vis, *_):
        count("pairs_dense", vis.size)
        count("user_steps", srv.size)
        count("served_steps", int(np.count_nonzero(srv >= 0)))

    def after_update(_, acc, t0, vis, *rest, **kw):
        count("visible_pairs", int(np.count_nonzero(vis)))

    def after_finalize(_, acc, *rest):
        count("passes", len(acc.combined.passes.intervals))
        count("accesses", len(acc.combined.accesses.intervals))

    def after_write(_, cfg, manifest, out_dir):
        # manifest.json holds the run's wall time, so its size is not a count
        count("write_bytes", sum(
            p.stat().st_size for p in out_dir.iterdir() if p.is_file() and p.name != "manifest.json"
        ))

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            parent = tracer.stack()[-1]
            return super().submit(tracer.record, "engine.user", fn, args, kwargs, parent)

    try:
        _patch(saved, engine, "build_walker", span("walker.build", engine.build_walker))
        _patch(saved, engine, "elements_to_tle", span("tle.format", engine.elements_to_tle))
        _patch(saved, engine, "satrec_from_tle", span("propagation.init", engine.satrec_from_tle))
        _patch(saved, sgp4batch.SatBatch, "__init__", span("sgp4batch.init", sgp4batch.SatBatch.__init__))
        _patch(saved, sgp4batch.SatBatch, "propagate_jd", propagate_jd)
        _patch(saved, sgp4core, "propagate_record", span("sgp4core.deep", sgp4core.propagate_record))
        _patch(
            saved, engine._Fleet, "propagate_block",
            span("engine.block", engine._Fleet.propagate_block, closes_phase=True),
        )
        _patch(
            saved, engine, "pair_geometry_arrays",
            span(
                "geometry", engine.pair_geometry_arrays,
                after=lambda _, sat_pos, *a: count("pairs_evaluated", sat_pos.size // 3),
            ),
        )
        _patch(saved, engine, "serving_rows", span("policy", engine.serving_rows, after=after_policy))
        _patch(
            saved, metrics.UserAccumulator, "update_block",
            span("metrics.update", metrics.UserAccumulator.update_block, after=after_update),
        )
        _patch(
            saved, metrics.UserAccumulator, "finalize",
            span("metrics.finalize", metrics.UserAccumulator.finalize, after=after_finalize,
                 closes_phase=True),
        )
        _patch(
            saved, engine, "_write_outputs",
            span("engine.write", engine._write_outputs, after=after_write, closes_phase=True),
        )
        _patch(saved, engine, "ThreadPoolExecutor", TracedPool)
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def write_spans(tracer: Tracer, path) -> None:
    """Spans as gzipped CSV, times in seconds from the root span's start."""
    t0 = tracer.root_start
    lines = ["sid,name,start_s,end_s,parent,thread"]
    lines.append(f"{ROOT},engine.run,0.0,{tracer.root_end - t0:.9f},,{threading.main_thread().ident}")
    lines += [
        f"{sid},{name},{s - t0:.9f},{e - t0:.9f},{par},{tid}"
        for sid, name, s, e, par, tid in tracer.spans
    ]
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("\n".join(lines) + "\n")
