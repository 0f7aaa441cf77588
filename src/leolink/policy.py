"""Serving-satellite selection policies.

Random selection draws from a counter-style keyed generator (splitmix64
finalizer over ``(seed, user_index, step_index)``) so any execution order,
blocking, or thread count reproduces the same choice stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RelativeGeometry

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class SelectionPolicy:
    kind: str = "closest"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("closest", "random"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random policy requires a seed")


_M64 = (1 << 64) - 1


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on python ints (wraps mod 2^64)."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    # array form of _mix_int; uint64 arithmetic wraps by design
    z = z + _C1
    z = (z ^ (z >> np.uint64(30))) * _C2
    z = (z ^ (z >> np.uint64(27))) * _C3
    return z ^ (z >> np.uint64(31))


def keyed_uniform(seed: int, user_index, step_index) -> np.ndarray | float:
    """Uniform [0, 1) draw(s) fully determined by (seed, user, step): a
    number for one user and step, else an array over the users and steps
    broadcast against each other."""
    if np.isscalar(user_index) and np.isscalar(step_index):
        key = _mix_int(_mix_int(seed & _M64) + (user_index & _M64))
        return (_mix_int((key + int(step_index)) & _M64) >> 11) * (2.0**-53)
    key = _mix(np.uint64(_mix_int(seed & _M64)) + np.atleast_1d(user_index).astype(np.uint64))
    h = _mix(key + np.asarray(step_index, dtype=np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def select_serving(
    visible: list[tuple[int, RelativeGeometry]],
    policy: SelectionPolicy,
    step_index: int,
    user_index: int,
) -> int | None:
    """Pick the serving satellite id among the visible set, or None.

    Closest: minimum range, ties to the lowest id. Random: uniform draw
    keyed by (seed, user, step) over the set sorted by id, so the result
    does not depend on list order.
    """
    if not visible:
        return None
    if policy.kind == "closest":
        return min(visible, key=lambda sv: (sv[1].range_km, sv[0]))[0]
    ids = sorted(sid for sid, _ in visible)
    u = keyed_uniform(policy.seed, user_index, step_index)
    return ids[min(int(u * len(ids)), len(ids) - 1)]


def serving_rows(
    vis: np.ndarray,
    user: np.ndarray,
    step: np.ndarray,
    rng_km: np.ndarray,
    policy: SelectionPolicy,
    users: range,
    step_indices: np.ndarray,
) -> np.ndarray:
    """Vector form over the candidate pairs of one block and of whole users.

    vis, user, step, rng_km: aligned arrays over the candidate pairs in
    (user, row, step) order, with rows ordered by satellite id, ``user``
    one of the consecutive ``users`` and ``step`` the position in
    ``step_indices``. Returns (len(users), len(step_indices)): per user and
    step, the index of the serving pair among the candidate pairs, -1 when
    the step has no visible pair. Each serving pair's satellite matches
    :func:`select_serving` for its user and step.
    """
    n_steps = len(step_indices)
    pair = np.flatnonzero(vis)
    seg = (user[pair] - users[0]) * n_steps + step[pair]
    out = np.full(len(users) * n_steps, -1, dtype=np.int64)
    if policy.kind == "closest":
        # by segment, then range; the sort is stable, so ties keep row order
        # and each segment's first entry is the minimum range with the lowest id
        order = np.lexsort((rng_km[pair], seg))
        first = order[np.diff(seg[order], prepend=-1) != 0]
        out[seg[first]] = pair[first]
    else:
        counts = np.bincount(seg, minlength=len(out))
        served = np.flatnonzero(counts)
        u, k = np.divmod(served, n_steps)
        draw = keyed_uniform(policy.seed, users[0] + u, step_indices[k])
        j = np.minimum((draw * counts[served]).astype(np.int64), counts[served] - 1)
        # (user, step, row) order: segment k holds its visible pairs by id
        by_seg = pair[np.argsort(seg, kind="stable")]
        out[served] = by_seg[(np.cumsum(counts) - counts)[served] + j]
    return out.reshape(len(users), n_steps)
