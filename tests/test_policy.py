import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.geometry import RelativeGeometry
from leolink.policy import SelectionPolicy, keyed_uniform, select_serving, serving_rows


def geom(rng_km: float) -> RelativeGeometry:
    return RelativeGeometry(rng_km, 0.0, 45.0, 10.0, True)


def test_empty_visible_returns_none():
    assert select_serving([], SelectionPolicy("closest"), 0, 0) is None
    assert select_serving([], SelectionPolicy("random", seed=1), 0, 0) is None


def test_closest_strict_minimum():
    visible = [(10, geom(1200.0)), (4, geom(500.0))]
    assert select_serving(visible, SelectionPolicy("closest"), 0, 0) == 4


def test_closest_tie_lowest_id():
    visible = [(9, geom(500.0)), (2, geom(500.0)), (5, geom(500.0))]
    assert select_serving(visible, SelectionPolicy("closest"), 0, 0) == 2


def test_random_requires_seed():
    with pytest.raises(ValueError):
        SelectionPolicy("random")
    with pytest.raises(ValueError):
        SelectionPolicy("roundrobin")


def test_random_law_of_large_numbers():
    # two satellites always visible: each drawn 50% +- 2% over 1e4 steps
    policy = SelectionPolicy("random", seed=99)
    visible = [(1, geom(100.0)), (2, geom(200.0))]
    picks = [select_serving(visible, policy, step, 7) for step in range(10_000)]
    share = picks.count(1) / len(picks)
    assert 0.48 <= share <= 0.52


def test_random_deterministic_and_member():
    policy = SelectionPolicy("random", seed=5)
    visible = [(3, geom(100.0)), (8, geom(50.0)), (11, geom(70.0))]
    first = [select_serving(visible, policy, s, 2) for s in range(50)]
    second = [select_serving(visible, policy, s, 2) for s in range(50)]
    assert first == second
    assert set(first) <= {3, 8, 11}


@settings(max_examples=50, deadline=None)
@given(
    ranges=st.lists(st.floats(100.0, 3000.0), min_size=1, max_size=8, unique=True),
    perm_seed=st.integers(0, 1000),
    step=st.integers(0, 10_000),
    user=st.integers(0, 100),
)
def test_selection_permutation_invariant(ranges, perm_seed, step, user):
    visible = [(i, geom(r)) for i, r in enumerate(ranges)]
    rng = np.random.default_rng(perm_seed)
    shuffled = [visible[i] for i in rng.permutation(len(visible))]
    for policy in (SelectionPolicy("closest"), SelectionPolicy("random", seed=3)):
        assert select_serving(visible, policy, step, user) == select_serving(
            shuffled, policy, step, user
        )


def test_keyed_uniform_vector_matches_scalar():
    steps = np.arange(100)
    vec = keyed_uniform(123, 45, steps)
    for s in (0, 1, 50, 99):
        assert vec[s] == keyed_uniform(123, 45, int(s))
    assert np.all((vec >= 0.0) & (vec < 1.0))


def test_serving_rows_matches_scalar_selection():
    rng = np.random.default_rng(0)
    n_sats, n_steps = 12, 200
    vis = rng.random((n_sats, n_steps)) < 0.3
    ranges = rng.uniform(100.0, 2000.0, (n_sats, n_steps))
    steps = np.arange(1000, 1000 + n_steps)
    # candidate pairs in (row, step) order: every visible pair plus some that are not
    row, step = np.nonzero(vis | (rng.random((n_sats, n_steps)) < 0.3))
    # coarse ranges tie often: the closest policy must break ties to the lowest id
    for rng_km, policy in (
        (ranges, SelectionPolicy("closest")),
        (np.round(ranges, -2), SelectionPolicy("closest")),
        (ranges, SelectionPolicy("random", seed=17)),
    ):
        pairs = serving_rows(
            vis[row, step], step, rng_km[row, step], policy, user_index=4, step_indices=steps
        )
        for k in range(n_steps):
            visible = [(s, geom(rng_km[s, k])) for s in range(n_sats) if vis[s, k]]
            expected = select_serving(visible, policy, int(steps[k]), 4)
            got = int(row[pairs[k]]) if pairs[k] >= 0 else None
            assert got == expected
            if got is not None:
                assert step[pairs[k]] == k
