"""Fixed-step integrators: determinism, order, co-cycle, noise statistics."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronotax import (
    BlowUpError,
    CartesianState,
    DriveSchedule,
    FrozenParams,
    InvalidInputError,
    NoiseSpec,
    OscillatorParams,
    Schedule,
    Trajectory,
    cocycle_check,
    integrate_det,
    integrate_sde,
    pullback,
    steady_state,
    time_grid,
)
from chronotax import integrate as integrate_module
from chronotax.integrate import (
    TAPE_BLOCK,
    LabField,
    _rk4_ensemble,
    em_path,
    rk4_path,
)
from chronotax.model import field_lab, field_lab_array
from reference_steppers import em_reference, reference_field, rk4_reference

P = OscillatorParams(7.0, 1.0, 1.0)
D17 = DriveSchedule.constant(1.7, 0.5)
D03 = DriveSchedule.constant(0.3, 0.5)
FREE = DriveSchedule.constant(0.0, 0.5)
#: from t = 3 this pull puts dt = 0.01 just outside RK4's stability region
#: (and far outside Euler's), so runs blow up inside the second tape block
BLOW_UP_DRIVE = DriveSchedule(Schedule.sampled([0.0, 3.0], [0.0, 290.0], "previous"),
                              Schedule.constant(0.5))


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


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None])
def test_noise_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(InvalidInputError):
        NoiseSpec(0.3, seed)
    assert NoiseSpec(0.3, np.int64(3)).seed == 3


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
    path = em_reference(still, 0.0, 0.0, times, 0.4, rng)
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
    # one RK4 step of 1e15 from inside the guard radius overflows to inf
    with pytest.raises(BlowUpError) as err:
        pullback(CartesianState(9e5, 0.0), [-1e15], 0.0, 1e15, P, D17)
    assert err.value.time == 0.0
    # ... and so does one Euler-Maruyama step of 1e300
    rng = np.random.Generator(np.random.Philox(0))
    with pytest.raises(BlowUpError) as err:
        em_path(LabField(P, D17), 9e5, 0.0, np.array([0.0, 1e300]), 0.0, rng)
    assert err.value.time == 1e300


@pytest.mark.parametrize("x0", [1.5e6, 1e150, math.inf, math.nan])
def test_start_outside_guard_radius_is_blow_up(x0):
    # refused at the first sample time, before any step, also on a
    # one-point grid that takes no step at all
    field = LabField(P, D17)
    rng = np.random.Generator(np.random.Philox(0))
    for times in (time_grid(2.0, 3.0, 1e-3), np.array([2.0])):
        with pytest.raises(BlowUpError) as err:
            rk4_path(field, x0, 0.0, times)
        assert err.value.time == 2.0
        with pytest.raises(BlowUpError) as err:
            rk4_path(field, 0.0, x0, times, record=False)
        assert err.value.time == 2.0
        with pytest.raises(BlowUpError) as err:
            em_path(field, x0, 0.0, times, 0.1, rng)
        assert err.value.time == 2.0
    # ... and so is the start of trace_gamma's march, at time 0
    with pytest.raises(BlowUpError) as err:
        steady_state._march(steady_state._frozen_lab_field(FrozenParams(1.7, 0.5, P)),
                            (x0, 0.0), 1e-3, 1.0, 1, 0.0, lambda *block: None, "no arrival")
    assert err.value.time == 0.0
    if math.isfinite(x0):  # CartesianState refuses the others as bad input
        with pytest.raises(BlowUpError) as err:
            pullback(CartesianState(x0, 0.0), [-1.0], 0.0, 1e-3, P, D17)
        assert err.value.time == -1.0


def test_trajectory_validation():
    with pytest.raises(Exception):
        Trajectory(0.0, 0.1, np.array([0.0, 0.1]), np.zeros((3, 2)), "lab")


def test_integrators_run_only_a_lab_field():
    times = time_grid(0.0, 1.0, 0.1)
    rng = np.random.Generator(np.random.Philox(0))
    for field in (reference_field(P, D17), lambda t, x, y: (0.0, 0.0)):
        with pytest.raises(InvalidInputError):
            rk4_path(field, 1.0, 0.0, times)
        with pytest.raises(InvalidInputError):
            rk4_path(field, 1.0, 0.0, times, record=False)
        with pytest.raises(InvalidInputError):
            em_path(field, 1.0, 0.0, times, 0.1, rng)


# --- drive tape against the per-call reference ---


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


@settings(max_examples=40)
@given(d=drives(), grid=grids(), start=starts, record=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(d=DriveSchedule(Schedule.sampled([0.0, 1.0, 2.5], [1.6, 3.0, 0.2], "previous"),
                         Schedule.sampled([-1.0, 3.0], [0.4, 0.9]), alpha0=2.0),
         grid=(-0.3, 2.2537, 1e-3), start=(1.3, 0.4), record=True, seed=7)
def test_tape_matches_per_call_reference(d, grid, start, record, seed):
    times = time_grid(*grid)
    x0, y0 = start[0] * math.cos(start[1]), start[0] * math.sin(start[1])
    lab = LabField(P, d)
    ref = reference_field(P, d)
    tape = rk4_path(lab, x0, y0, times, record=record)
    assert np.array_equal(tape, rk4_reference(ref, x0, y0, times, record=record))
    tape = em_path(lab, x0, y0, times, 0.3, np.random.Generator(np.random.Philox(seed)))
    assert np.array_equal(tape, em_reference(ref, x0, y0, times, 0.3,
                                             np.random.Generator(np.random.Philox(seed))))


#: (angle, step width) pairs that draws seldom hit: signed zeros, subnormals,
#: the largest turn a noisy-readout record makes (about 250 rad) and ±1e6 rad
EDGE_ANGLES = [(0.0, 0.0), (-0.0, 0.0), (5e-324, 0.0), (-5e-324, 1e-320),
               (2.2250738585072009e-308, 0.0), (-1e-310, 5e-324), (250.0, 0.01),
               (1e6, 0.5), (-1e6, 1e-3)]


@settings(max_examples=60)
@given(stages=st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1.0)),
                       min_size=1, max_size=40),
       r_p=st.floats(0.1, 10.0))
@example(stages=EDGE_ANGLES, r_p=1.0)
@example(stages=EDGE_ANGLES, r_p=0.7)
def test_tape_drive_point_is_libm_cos_and_sin(stages, r_p):
    # the tape takes the drive point from numpy's float64 cos and sin; it must
    # hold r_p * math.cos(alpha) and r_p * math.sin(alpha), as the per-call
    # reference does, bit for bit.  With alpha0 = -0.0 and a unit drive
    # frequency the drive angle is the stage time itself, signed zeros kept.
    d = DriveSchedule(Schedule.constant(1.0), Schedule.constant(1.0), alpha0=-0.0)
    lab = LabField(OscillatorParams(7.0, 1.0, r_p), d)
    t = np.array([a for a, _ in stages])
    h = np.array([w for _, w in stages])

    def expected(angles):
        return ([(r_p * math.cos(a)).hex() for a in angles],
                [(r_p * math.sin(a)).hex() for a in angles])

    def got(cos_entries, sin_entries):
        return [c.hex() for c in cos_entries], [s.hex() for s in sin_entries]

    tape = lab.rk4_tape(t, h)
    for k, angles in enumerate([t, t + 0.5 * h, t + h]):
        angles = [float(d.alpha_p(a)) for a in angles.tolist()]
        assert got(tape[3 * k + 2], tape[3 * k + 3]) == expected(angles)
    tape = lab.em_tape(t, h)
    assert got(tape[2], tape[3]) == expected([float(d.alpha_p(a)) for a in t.tolist()])


def raised_blow_up(run, *args, **kwargs):
    """The :class:`BlowUpError` that ``run(*args, **kwargs)`` raises."""
    with pytest.raises(BlowUpError) as err:
        run(*args, **kwargs)
    return err.value


@pytest.mark.parametrize("start", [(1.0, 0.0), (0.0, 1.0), (-0.6, 0.8)])
def test_mid_block_blow_up_matches_the_reference(start):
    # the kernels' guard test, whose square is also the next step's radius,
    # stops the run at the step the per-call reference stops at
    lab = LabField(P, BLOW_UP_DRIVE)
    ref = reference_field(P, BLOW_UP_DRIVE)
    times = time_grid(0.0, 6.0, 0.01)
    pairs = [(raised_blow_up(rk4_path, lab, *start, times, record=record),
              raised_blow_up(rk4_reference, ref, *start, times, record=record))
             for record in (False, True)]
    pairs.append((raised_blow_up(em_path, lab, *start, times, 0.1,
                                 np.random.Generator(np.random.Philox(3))),
                  raised_blow_up(em_reference, ref, *start, times, 0.1,
                                 np.random.Generator(np.random.Philox(3)))))
    for got, want in pairs:
        assert got.time == want.time
        assert str(got) == str(want)
        # the failing step lies inside a tape block, at neither of its ends
        step = int(np.searchsorted(times, got.time)) - 1
        assert times[step + 1] == got.time
        assert 0 < step % TAPE_BLOCK < TAPE_BLOCK - 1


@settings(max_examples=60)
@given(d=drives(), t=st.floats(-6.0, 6.0),
       points=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                       min_size=1, max_size=12),
       spacing=st.floats(-1.0, 1.0))
@example(d=DriveSchedule.constant(1.7, 0.5), t=0.3, points=[(0.0, 0.0), (1.0, -0.0)],
         spacing=0.37)
def test_field_lab_is_the_per_call_reference_bit_for_bit(d, t, points, spacing):
    # field_lab rounds the radius as the kernels do, and field_lab_array is
    # field_lab point by point, at one instant and at an instant per point
    ref = reference_field(P, d)
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    ts = t + spacing * np.arange(len(points))
    gx, gy = field_lab_array(xs, ys, t, P, d)
    hx, hy = field_lab_array(xs, ys, ts, P, d)
    for (x, y), ti, ax, ay, bx, by in zip(points, ts.tolist(), gx.tolist(), gy.tolist(),
                                          hx.tolist(), hy.tolist()):
        got = [v.hex() for v in field_lab(CartesianState(x, y), t, P, d)]
        assert got == [v.hex() for v in ref(t, x, y)]
        assert [ax.hex(), ay.hex()] == got
        own = [v.hex() for v in field_lab(CartesianState(x, y), ti, P, d)]
        assert [bx.hex(), by.hex()] == own


@settings(max_examples=40)
@given(d=drives(), grid=grids(), members=st.lists(starts, min_size=1, max_size=9),
       record=st.booleans())
def test_shared_tape_equals_per_member_runs(d, grid, members, record):
    times = time_grid(*grid)
    lab = LabField(P, d)
    xy = [(r * math.cos(a), r * math.sin(a)) for r, a in members]
    shared = _rk4_ensemble(lab, xy, times, record)
    assert len(shared) == len(xy)
    for got, (x0, y0) in zip(shared, xy):
        assert np.array_equal(got, rk4_path(lab, x0, y0, times, record=record))


@pytest.mark.parametrize("record", [False, True])
def test_shared_tape_raises_the_first_members_blow_up(record):
    # members blow up in the second block, each at a time set by its phase;
    # the second member starts far enough out to blow up in the first
    lab = LabField(P, BLOW_UP_DRIVE)
    times = time_grid(0.0, 6.0, 0.01)
    xy = [(1.0, 0.0), (1e3, 0.0), (0.0, 1.0)]
    errors = []
    for x0, y0 in xy:
        with pytest.raises(BlowUpError) as err:
            rk4_path(lab, x0, y0, times, record=record)
        errors.append(err.value)
    assert (errors[1].time < times[TAPE_BLOCK] < errors[2].time < errors[0].time
            < times[2 * TAPE_BLOCK])
    with pytest.raises(BlowUpError) as err:
        _rk4_ensemble(lab, xy, times, record)
    assert err.value.time == errors[0].time
    assert str(err.value) == str(errors[0])
    # a start refused at the first sample time stops the members after it
    with pytest.raises(BlowUpError) as err:
        _rk4_ensemble(lab, [(1.0, 0.0), (2e6, 0.0), (0.0, 1.0)], times, record)
    assert err.value.time == errors[0].time
    with pytest.raises(BlowUpError) as err:
        _rk4_ensemble(lab, [(2e6, 0.0), (1.0, 0.0)], times, record)
    assert err.value.time == 0.0


# --- twin starts: repeated, or one ulp apart ---


@contextmanager
def counted_steps():
    """Lengths of the step lists that ``_rk4_steps`` returns inside the block."""
    lengths = []
    real = integrate_module._rk4_steps

    def counted(f, x, y, tape):
        xs, ys = real(f, x, y, tape)
        lengths.append(len(xs))
        return xs, ys

    integrate_module._rk4_steps = counted
    try:
        yield lengths
    finally:
        integrate_module._rk4_steps = real


def same_bits(a, b):
    """Equal results, sign of zero included: a state array or a final pair."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def twin_starts(draw):
    """Starts drawn, with repeats, from up to three distinct ones, each taken
    as it is or moved one ulp in x or in y."""
    base = [(r * math.cos(a), r * math.sin(a))
            for r, a in draw(st.lists(starts, min_size=1, max_size=3))]
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                    st.sampled_from(["same", "ulp x", "ulp y"])),
                          min_size=2, max_size=9))
    out = []
    for i, how in picks:
        x, y = base[i]
        if how == "ulp x":
            x = math.nextafter(x, math.inf)
        elif how == "ulp y":
            y = math.nextafter(y, -math.inf)
        out.append((x, y))
    return out


@settings(max_examples=40)
@given(d=drives(), grid=grids(), xy=twin_starts(), record=st.booleans())
@example(d=DriveSchedule.constant(1.7, 0.5), grid=(0.0, 3.02, 0.01),
         xy=[(1.0, 0.0), (1.0, 0.0), (math.nextafter(1.0, 2.0), 0.0), (1.0, 0.0)],
         record=True)
def test_twin_starts_equal_per_member_runs(d, grid, xy, record):
    times = time_grid(*grid)
    lab = LabField(P, d)
    with counted_steps() as lengths:
        shared = _rk4_ensemble(lab, xy, times, record)
    assert len(shared) == len(xy)
    for got, (x0, y0) in zip(shared, xy):
        assert same_bits(got, rk4_path(lab, x0, y0, times, record=record))
    # every member, repeated or not, runs every step of the grid
    assert sum(lengths) == len(xy) * (times.size - 1)


#: starts under BLOW_UP_DRIVE, over [0, t1] at dt = 0.01: the first
#: and third leave the guard radius at t = 3.08 and 3.06 (in the second tape
#: block), the second at t = 0.01 and the fourth is refused at t = 0
BLOW_UP_STARTS = [(1.0, 0.0), (1e3, 0.0), (0.0, 1.0), (2e6, 0.0)]


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(0, len(BLOW_UP_STARTS) - 1), min_size=1, max_size=7),
       t1=st.sampled_from([2.0, 4.0, 6.0]), record=st.booleans())
@example(picks=[2, 1, 2], t1=6.0, record=False)  # the first to blow up has a twin
@example(picks=[1, 0, 1], t1=6.0, record=True)   # ... that blows up first in time
@example(picks=[0, 0, 1, 1, 2, 2], t1=2.0, record=True)
def test_twin_starts_keep_the_first_members_blow_up(picks, t1, record):
    # the ensemble raises what running the members one after another raises
    # first: the lowest-index member's error at its own time, also where a
    # twin of that member, or a later member, blows up earlier in time
    lab = LabField(P, BLOW_UP_DRIVE)
    times = time_grid(0.0, t1, 0.01)
    xy = [BLOW_UP_STARTS[i] for i in picks]
    expected, first = [], None
    for x0, y0 in xy:
        try:
            expected.append(rk4_path(lab, x0, y0, times, record=record))
        except BlowUpError as exc:
            first = exc
            break
    if first is None:
        got = _rk4_ensemble(lab, xy, times, record)
        assert all(same_bits(a, b) for a, b in zip(got, expected))
        return
    with pytest.raises(BlowUpError) as err:
        _rk4_ensemble(lab, xy, times, record)
    assert err.value.time == first.time
    assert str(err.value) == str(first)


def test_tape_takes_integer_parameters():
    times = time_grid(0.0, 1.0, 0.01)
    assert rk4_path(LabField(OscillatorParams(7, 1, 1), D17), 1.0, 0.0, times) \
        .tolist() == rk4_path(LabField(P, D17), 1.0, 0.0, times).tolist()


@settings(max_examples=40)
@given(d=drives(), t0=st.floats(-4.0, 4.0), dt=st.floats(1e-3, 0.02),
       steps=st.integers(2, 3000), split=st.floats(0.0, 1.0), start=starts)
def test_cocycle_at_random_grid_splits(d, t0, dt, steps, split, start):
    t2 = t0 + dt * (steps + 0.5)
    t1 = t0 + dt * int(split * steps)
    s0 = CartesianState(start[0] * math.cos(start[1]), start[0] * math.sin(start[1]))
    assert cocycle_check(s0, t0, t1, t2, dt, P, d) <= 1e-9


@settings(max_examples=40)
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
