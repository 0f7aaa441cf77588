import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.fleets import ONEWEB_SHELLS, STARLINK_SHELLS
from leolink.timebase import parse_utc
from leolink.walker import ShellSpec, build_walker, shell_angles

EPOCH = parse_utc("2021-03-20T09:37:29Z")


def test_oneweb_polar_shell_count():
    shell = ShellSpec(1200.0, 87.9, 12, 49)
    els = build_walker(shell, EPOCH)
    assert len(els) == 588


def test_degenerate_shell():
    els = build_walker(ShellSpec(550.0, 53.0, 1, 1), EPOCH)
    assert len(els) == 1
    assert els[0].raan == 0.0
    assert els[0].mean_anomaly == 0.0
    assert els[0].eccentricity == 0.0


def test_starlink_total():
    total = sum(len(build_walker(s, EPOCH)) for s in STARLINK_SHELLS)
    assert total == 1584 + 1584 + 348 + 172 + 720 == 4408


def test_bundled_totals():
    assert sum(s.total for s in ONEWEB_SHELLS) == 716
    assert sum(s.total for s in STARLINK_SHELLS) == 4408


def test_raan_and_anomaly_formulas():
    shell = ShellSpec(1200.0, 87.9, 4, 3, raan_span=360.0, inter_plane_phase=10.0)
    els = build_walker(shell, EPOCH)
    by_plane = [els[i * 3 : (i + 1) * 3] for i in range(4)]
    for p, plane in enumerate(by_plane):
        for s, el in enumerate(plane):
            assert el.raan == pytest.approx((p * 360.0 / 4) % 360.0)
            assert el.mean_anomaly == pytest.approx((s * 120.0 + p * 10.0) % 360.0)
            assert el.semi_major_axis == pytest.approx(6378.137 + 1200.0)
            assert el.inclination == 87.9


def test_default_phase_is_delta():
    shell = ShellSpec(550.0, 53.0, 72, 22)
    assert shell.phase_deg == pytest.approx(360.0 / (72 * 22))


def test_invalid_shells():
    with pytest.raises(ValueError):
        ShellSpec(550.0, 53.0, 0, 10)
    with pytest.raises(ValueError):
        ShellSpec(550.0, 53.0, 10, 10, raan_span=0.0)
    with pytest.raises(ValueError):
        ShellSpec(-5.0, 53.0, 10, 10)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 20), s=st.integers(1, 30), span=st.floats(30.0, 360.0))
def test_count_invariant(p, s, span):
    els = build_walker(ShellSpec(800.0, 60.0, p, s, raan_span=span), EPOCH)
    assert len(els) == p * s
    assert all(0.0 <= e.raan < 360.0 and 0.0 <= e.mean_anomaly < 360.0 for e in els)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 40),
    s=st.integers(1, 60),
    span=st.floats(0.5, 360.0),
    phase=st.one_of(st.none(), st.floats(-720.0, 720.0)),
)
def test_shell_angles_are_the_slot_loop(p, s, span, phase):
    # the arrays hold, bit for bit, the angles of a loop over planes and
    # slots in Python floats, and build_walker's elements carry them
    shell = ShellSpec(550.0, 53.0, p, s, raan_span=span, inter_plane_phase=phase)
    want = [
        ((i * (span / p)) % 360.0, (k * (360.0 / s) + i * shell.phase_deg) % 360.0)
        for i in range(p)
        for k in range(s)
    ]
    raan, mean_anomaly = shell_angles(shell)
    assert list(zip(raan.tolist(), mean_anomaly.tolist())) == want
    assert [(e.raan, e.mean_anomaly) for e in build_walker(shell, EPOCH)] == want
    assert [(e.raan, e.mean_anomaly) for e in build_walker(shell, EPOCH, 1)] == want[:1]
