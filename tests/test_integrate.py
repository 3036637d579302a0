"""Fixed-step integrators: determinism, order, co-cycle, noise statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronotax import (
    BlowUpError,
    CartesianState,
    DriveSchedule,
    NoiseSpec,
    OscillatorParams,
    Schedule,
    Trajectory,
    cocycle_check,
    integrate_det,
    integrate_sde,
    pullback,
    time_grid,
)
from chronotax.integrate import TAPE_BLOCK, em_path, make_lab_field, rk4_path

P = OscillatorParams(7.0, 1.0, 1.0)
D17 = DriveSchedule.constant(1.7, 0.5)
D03 = DriveSchedule.constant(0.3, 0.5)
FREE = DriveSchedule.constant(0.0, 0.5)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def test_time_grid_exact_endpoints():
    g = time_grid(0.0, 1.0, 0.1)
    assert g.size == 11
    assert g[0] == 0.0 and g[-1] == 1.0
    g = time_grid(2.0, 2.55, 0.1)  # remainder step appended
    assert g[-1] == 2.55
    assert g.size == 7
    np.testing.assert_allclose(np.diff(g)[:-1], 0.1, rtol=1e-12)


def test_time_grid_degenerate():
    g = time_grid(3.0, 3.0, 0.1)
    assert g.size == 1 and g[0] == 3.0
    with pytest.raises(Exception):
        time_grid(0.0, -1.0, 0.1)


def test_free_oscillator_returns_after_one_period():
    # without drive the unit circle is traversed at omega0
    traj = integrate_det(CartesianState(1.0, 0.0), 0.0, 2.0 * math.pi, 1e-3, P, FREE)
    fin = traj.final_state
    assert math.hypot(fin.x - 1.0, fin.y - 0.0) < 1e-6


def test_rk4_fourth_order():
    ref = integrate_det(CartesianState(1.3, -0.4), 0.0, 2.0, 1e-3 / 16, P, FREE).final_state
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        fin = integrate_det(CartesianState(1.3, -0.4), 0.0, 2.0, dt, P, FREE).final_state
        errs.append(math.hypot(fin.x - ref.x, fin.y - ref.y))
    for a, b in zip(errs, errs[1:]):
        order = math.log2(a / b)
        assert 3.7 < order < 4.3, (errs, order)


def test_cocycle_split():
    s0 = CartesianState(1.3, -0.4)
    for t_mid in (3.0, 7.25):
        assert cocycle_check(s0, 0.0, t_mid, 10.0, 1e-3, P, D17) <= 1e-9
    # degenerate split: restart at the start
    assert cocycle_check(s0, 0.0, 0.0, 5.0, 1e-3, P, D17) <= 1e-9


def test_cocycle_with_scheduled_drive():
    d = DriveSchedule(
        Schedule.sampled([0.0, 4.0, 8.0], [1.6, 3.0, 2.0]),
        Schedule.sampled([0.0, 8.0], [0.4, 0.7]),
        alpha0=0.2,
    )
    assert cocycle_check(CartesianState(0.9, 0.1), 0.0, 4.0, 8.0, 1e-3, P, d) <= 1e-9


def test_trajectory_shape_and_csv(tmp_path):
    traj = integrate_det(CartesianState(1.0, 0.0), 0.0, 0.5, 0.01, P, D17)
    assert traj.states.shape == (51, 2)
    assert traj.times[0] == 0.0 and traj.times[-1] == 0.5
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.dtype.names == ("t", "x", "y")
    np.testing.assert_allclose(data["x"], traj.states[:, 0], rtol=1e-12)


def test_to_rotating_preserves_radius(tmp_path):
    traj = integrate_det(CartesianState(1.1, 0.2), 0.0, 3.0, 1e-3, P, D17)
    rot = traj.to_rotating(D17)
    assert rot.frame == "rotating"
    r_lab = np.hypot(traj.states[:, 0], traj.states[:, 1])
    np.testing.assert_allclose(rot.states[:, 0], r_lab, atol=1e-12)
    path = tmp_path / "rot.csv"
    rot.to_csv(path)
    assert open(path).readline().strip() == "t,r,psi"


def test_sde_seed_determinism():
    a = integrate_sde(CartesianState(1.0, 0.0), 0.0, 2.0, 0.01, P, D17, NoiseSpec(0.3, 42))
    b = integrate_sde(CartesianState(1.0, 0.0), 0.0, 2.0, 0.01, P, D17, NoiseSpec(0.3, 42))
    c = integrate_sde(CartesianState(1.0, 0.0), 0.0, 2.0, 0.01, P, D17, NoiseSpec(0.3, 43))
    np.testing.assert_array_equal(a.states, b.states)
    assert np.max(np.abs(a.states - c.states)) > 1e-3


def test_sde_zero_noise_matches_euler_not_rk4():
    # sigma = 0 reduces to deterministic Euler: close to RK4 but not identical
    det = integrate_det(CartesianState(1.0, 0.0), 0.0, 1.0, 1e-3, P, D17)
    em = integrate_sde(CartesianState(1.0, 0.0), 0.0, 1.0, 1e-3, P, D17, NoiseSpec(0.0, 1))
    diff = np.max(np.abs(det.states - em.states))
    assert 0.0 < diff < 1e-2


def test_sde_increment_statistics():
    # against a motionless field the increments are pure noise
    def still(t, x, y):
        return (0.0, 0.0)

    rng = np.random.default_rng(1234)
    times = time_grid(0.0, 1000.0, 0.01)  # 1e5 steps
    path = em_path(still, 0.0, 0.0, times, 0.4, rng)
    inc = np.diff(path, axis=0)
    n = inc.shape[0]
    expected = 0.4**2 * 0.01
    se = expected * math.sqrt(2.0 / (n - 1))
    assert abs(inc[:, 0].var() - expected) < 3 * se
    assert abs(inc[:, 1].var() - expected) < 3 * se
    assert abs(np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]) < 0.02
    assert abs(inc.mean()) < 4 * 0.4 * math.sqrt(0.01) / math.sqrt(2 * n)


def test_forward_merge_when_strongly_driven():
    # two starts forget their history under a strong drive
    a = integrate_det(CartesianState(2.0, 0.0), 0.0, 30.0, 1e-3, P, D17).final_state
    b = integrate_det(CartesianState(-1.5, 0.7), 0.0, 30.0, 1e-3, P, D17).final_state
    assert math.hypot(a.x - b.x, a.y - b.y) < 1e-6


def test_no_merge_without_chronotaxicity():
    # weak drive: phases on the attracting circle never synchronize
    a = integrate_det(CartesianState(1.0, 0.0), 0.0, 30.0, 1e-3, P, D03).final_state
    b = integrate_det(CartesianState(-1.0, 0.0), 0.0, 30.0, 1e-3, P, D03).final_state
    assert math.hypot(a.x - b.x, a.y - b.y) > 1e-3


def test_pullback_converges():
    starts = [-7.5, -15.0, -22.5, -30.0]
    states = pullback(CartesianState(2.0, 0.0), starts, 0.0, 1e-3, P, D17)
    gaps = [
        math.hypot(s1.x - s2.x, s1.y - s2.y)
        for s1, s2 in zip(states, states[1:])
    ]
    assert gaps[0] < 1e-4
    assert gaps[-1] < 1e-10
    assert gaps == sorted(gaps, reverse=True) or gaps[-1] < 1e-14


def test_pullback_requires_decreasing_starts():
    with pytest.raises(Exception):
        pullback(CartesianState(1.0, 0.0), [-5.0, -3.0, -10.0], 0.0, 1e-3, P, D17)


def test_blow_up_detected():
    wild = OscillatorParams(7.0, 1.0, 1.0)
    with pytest.raises(BlowUpError) as err:
        integrate_det(CartesianState(8e5, 0.0), 0.0, 10.0, 0.5, wild, D17)
    assert err.value.time >= 0.0


def test_non_finite_state_is_blow_up():
    # from 1e150 the first RK4 stages overflow to inf - inf = NaN
    with pytest.raises(BlowUpError) as err:
        pullback(CartesianState(1e150, 0.0), [-1.0], 0.0, 1e-3, P, D17)
    assert -1.0 < err.value.time <= 0.0
    rng = np.random.Generator(np.random.Philox(0))
    with pytest.raises(BlowUpError) as err:
        em_path(lambda t, x, y: (math.nan, 0.0), 1.0, 0.0, time_grid(0.0, 1.0, 0.1), 0.1, rng)
    assert err.value.time == pytest.approx(0.1)


def test_trajectory_validation():
    with pytest.raises(Exception):
        Trajectory(0.0, 0.1, np.array([0.0, 0.1]), np.zeros((3, 2)), "lab")


# --- drive tape against the per-call reference ---


def reference_field(p, d):
    """The lab field with both schedules evaluated at every call, run through
    the generic integrator loops: the reference the drive tape must match."""
    eg, w0, rp = p.eps_gamma, p.omega0, p.r_p

    def field(t, x, y):
        r = math.sqrt(x * x + y * y)
        g = eg * (rp - r)
        ea = float(d.eps_a(t))
        a = float(d.alpha_p(t))
        return (
            g * x - w0 * y - ea * (x - rp * math.cos(a)),
            g * y + w0 * x - ea * (y - rp * math.sin(a)),
        )

    return field


@st.composite
def schedules(draw, lo, hi):
    kind = draw(st.sampled_from(["constant", "linear", "previous"]))
    if kind == "constant":
        return Schedule.constant(draw(st.floats(lo, hi)))
    n = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1))
    knots = draw(st.floats(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    values = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    return Schedule.sampled(knots, values, kind)


@st.composite
def drives(draw):
    return DriveSchedule(draw(schedules(0.0, 6.0)), draw(schedules(-1.0, 2.0)),
                         draw(st.floats(-10.0, 10.0)))


@st.composite
def grids(draw):
    """``(t0, t1, dt)`` with a step that does not divide the span (a short last
    step), over up to two tape blocks and a part of a third."""
    dt = draw(st.floats(1e-3, 0.05))
    steps = draw(st.integers(1, 2 * TAPE_BLOCK + 300))
    t0 = draw(st.floats(-4.0, 4.0))
    return t0, t0 + dt * (steps + draw(st.floats(0.1, 0.9))), dt


starts = st.tuples(st.floats(0.5, 2.0), st.floats(-math.pi, math.pi))


@PROPERTY
@given(d=drives(), grid=grids(), start=starts, record=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(d=DriveSchedule(Schedule.sampled([0.0, 1.0, 2.5], [1.6, 3.0, 0.2], "previous"),
                         Schedule.sampled([-1.0, 3.0], [0.4, 0.9]), alpha0=2.0),
         grid=(-0.3, 2.2537, 1e-3), start=(1.3, 0.4), record=True, seed=7)
def test_tape_matches_per_call_reference(d, grid, start, record, seed):
    times = time_grid(*grid)
    x0, y0 = start[0] * math.cos(start[1]), start[0] * math.sin(start[1])
    lab = make_lab_field(P, d)
    ref = reference_field(P, d)
    assert lab(times[-1], x0, y0) == ref(times[-1], x0, y0)
    tape = rk4_path(lab, x0, y0, times, record=record)
    assert np.array_equal(tape, rk4_path(ref, x0, y0, times, record=record))
    tape = em_path(lab, x0, y0, times, 0.3, np.random.Generator(np.random.Philox(seed)),
                   record=record)
    assert np.array_equal(tape, em_path(ref, x0, y0, times, 0.3,
                                        np.random.Generator(np.random.Philox(seed)),
                                        record=record))


def test_tape_takes_integer_parameters():
    times = time_grid(0.0, 1.0, 0.01)
    assert rk4_path(make_lab_field(OscillatorParams(7, 1, 1), D17), 1.0, 0.0, times) \
        .tolist() == rk4_path(make_lab_field(P, D17), 1.0, 0.0, times).tolist()


@PROPERTY
@given(d=drives(), t0=st.floats(-4.0, 4.0), dt=st.floats(1e-3, 0.02),
       steps=st.integers(2, 3000), split=st.floats(0.0, 1.0), start=starts)
def test_cocycle_at_random_grid_splits(d, t0, dt, steps, split, start):
    t2 = t0 + dt * (steps + 0.5)
    t1 = t0 + dt * int(split * steps)
    s0 = CartesianState(start[0] * math.cos(start[1]), start[0] * math.sin(start[1]))
    assert cocycle_check(s0, t0, t1, t2, dt, P, d) <= 1e-9


@PROPERTY
@given(d=drives(), grid=grids(), start=starts, phi=st.floats(-math.pi, math.pi))
def test_rotation_equivariance_under_alpha0_shift(d, grid, start, phi):
    r, th = start
    base = integrate_det(CartesianState(r * math.cos(th), r * math.sin(th)), *grid, P, d)
    turned = integrate_det(CartesianState(r * math.cos(th + phi), r * math.sin(th + phi)),
                           *grid, P, DriveSchedule(d.eps_a, d.omega_p, d.alpha0 + phi))
    c, s = math.cos(phi), math.sin(phi)
    x, y = base.states[:, 0], base.states[:, 1]
    assert np.max(np.hypot(c * x - s * y - turned.states[:, 0],
                           s * x + c * y - turned.states[:, 1])) <= 1e-12
