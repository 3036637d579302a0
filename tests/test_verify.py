"""Trapping-region, attraction, and invariance certificates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronotax import (
    CartesianState,
    ChronotaxError,
    DriveSchedule,
    FrozenParams,
    InvalidInputError,
    OscillatorParams,
    Schedule,
    TrappingCandidate,
    VerificationReport,
    attractor_track,
    classify,
    find_fixed_points,
    offending_intervals,
    select_trapping_radius,
    steady_state,
    sym_eigs_radial,
    verify_attraction,
    verify_invariance,
    verify_schedule,
    verify_trapping,
)
from chronotax import integrate
from chronotax.integrate import LabField, Trajectory, rk4_path, time_grid
from chronotax.verify import (
    DEFAULT_FORWARD_TOL,
    DEFAULT_INVARIANCE_TOL,
    DEFAULT_PULLBACK_TOL,
    DEFAULT_RADIUS_LADDER,
    _sample_indices,
)

P = OscillatorParams(7.0, 1.0, 1.0)
D17 = DriveSchedule.constant(1.7, P.omega0 - 0.5)
D03 = DriveSchedule.constant(0.3, P.omega0 - 0.5)
FREQ = Schedule.constant(P.omega0 - 0.5)
#: a pull schedule that classifies chronotaxic throughout [0, 15]
PULL = DriveSchedule(Schedule.sampled([0.0, 5.0, 10.0, 15.0], [2.5, 4.0, 3.0, 5.5]), FREQ)
#: the same pull with a dip to 0.3 over [6, 8]
DIPPED = DriveSchedule(
    Schedule.sampled([0.0, 5.0, 5.5, 6.0, 8.0, 8.5, 15.0],
                     [2.5, 4.0, 3.8, 0.3, 0.3, 3.2, 5.5]),
    FREQ,
)


def track17(t1=5.0):
    return attractor_track(D17, P, 0.0, t1, 1e-3)


def test_candidate_validation():
    track = track17()
    with pytest.raises(InvalidInputError):
        TrappingCandidate(track, -0.1)
    with pytest.raises(InvalidInputError):
        TrappingCandidate(track, 0.1, boundary_samples=8)
    rot = track.to_rotating(D17)
    with pytest.raises(InvalidInputError):
        TrappingCandidate(rot, 0.1)


def test_trapping_holds_on_small_tube():
    cand = TrappingCandidate(track17(), 0.1)
    max_lam, max_flux = verify_trapping(cand, P, D17)
    assert max_lam < -1e-3
    assert max_flux < 0.0


def test_trapping_fails_on_huge_tube():
    # a radius-1.5 tube reaches into the divergence region near the origin
    cand = TrappingCandidate(track17(), 1.5)
    max_lam, _ = verify_trapping(cand, P, D17)
    assert max_lam > 0.0


def test_trapping_needs_enough_samples():
    track = track17()
    short = Trajectory(track.t0, track.dt, track.times[:2], track.states[:2], "lab")
    with pytest.raises(InvalidInputError):
        verify_trapping(TrappingCandidate(short, 0.1), P, D17)


@settings(max_examples=60)
@given(
    eps_a=st.floats(0.0, 8.0),
    radius=st.floats(0.01, 1.0),
    cx=st.floats(-1.5, 1.5),
    cy=st.floats(-1.5, 1.5),
    amp=st.floats(0.0, 1.0),
    omega=st.floats(0.1, 3.0),
)
@example(eps_a=1.7, radius=0.5, cx=0.0, cy=0.0, amp=0.2, omega=1.0)  # covers the origin
@example(eps_a=1.7, radius=0.16, cx=0.9, cy=0.1, amp=0.05, omega=0.5)
def test_trapping_eigenvalue_is_the_disk_supremum(eps_a, radius, cx, cy, amp, omega):
    dt = 0.01
    times = np.linspace(0.0, 1.0, 101)
    states = np.column_stack([cx + amp * np.cos(omega * times),
                              cy + amp * np.sin(omega * times)])
    track = Trajectory(0.0, dt, times, states, "lab")
    d = DriveSchedule.constant(eps_a, P.omega0 - 0.5)
    lam, _ = verify_trapping(TrappingCandidate(track, radius, 64), P, d)

    # every sampled disk, on 6 rings (centre to boundary) of 8192 angles,
    # the first angle of each pointing from the centre towards the origin
    centers = states[_sample_indices(times.size, dt, 0.1)]
    c = centers[:, 0] + 1j * centers[:, 1]
    theta = np.angle(-c)[:, None] + np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
    rings = radius * np.linspace(0.0, 1.0, 6)[:, None]
    pts = c[:, None, None] + rings * np.exp(1j * theta)[:, None, :]
    dense = sym_eigs_radial(np.abs(pts), eps_a, P)[0].max()
    # never below a sample (up to the rounding of a sample's radius)
    assert lam >= dense - 1e-12
    if np.any(np.abs(c) <= radius):
        # the disk covers the origin, where the eigenvalue peaks
        assert lam == P.eps_gamma * P.r_p - eps_a
    else:
        # the samples hold each disk's point nearest the origin
        assert lam - dense <= 1e-6


def test_radius_ladder_picks_largest_certified_rung():
    track = track17()
    radius = select_trapping_radius(track, P, D17)
    assert radius == pytest.approx(0.16)
    # the next rung up must genuinely fail the eigenvalue bound
    max_lam, _ = verify_trapping(TrappingCandidate(track, 0.32), P, D17)
    assert max_lam > -1e-3


def test_forward_and_pullback_defects_vanish_when_contracting():
    fwd, pb = verify_attraction(P, D17, 0.0, 30.0, 1e-3)
    assert fwd < 1e-9
    assert pb < 1e-9


def per_member_forward_defect(p, d, t0, t1, dt, ensemble_size=8, seed=2026,
                              start_radius=2.0):
    """The forward defect with one ``rk4_path`` run, and so one set of drive
    tapes, per ensemble member: the reference the shared tape must match."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, ensemble_size)
    radii = rng.uniform(0.25 * start_radius, start_radius, ensemble_size)
    field = LabField(p, d)
    grid = time_grid(t0, t1, dt)
    finals = np.array(
        [
            rk4_path(field, r * math.cos(a), r * math.sin(a), grid, record=False)
            for a, r in zip(angles, radii)
        ]
    )
    diff = finals[:, None, :] - finals[None, :, :]
    return float(np.max(np.hypot(diff[..., 0], diff[..., 1])))


@pytest.mark.parametrize("drive", [D17, PULL], ids=["constant", "sampled"])
def test_forward_defect_equals_per_member_runs(drive):
    forward, _ = verify_attraction(P, drive, 0.0, 15.0, 1e-3)
    assert forward == per_member_forward_defect(P, drive, 0.0, 15.0, 1e-3)


def test_attraction_builds_one_tape_per_block(monkeypatch):
    # 15000 steps are 59 blocks of TAPE_BLOCK = 256, built once for the
    # whole ensemble, plus 44 + 59 blocks for the two pullback runs from
    # t = -11.25 and t = -15; tapes per member would make 8 x 59 + 103 = 575
    builds = []
    real = LabField.rk4_tape

    def counted(self, t, h):
        builds.append(t.size)
        return real(self, t, h)

    monkeypatch.setattr(LabField, "rk4_tape", counted)
    verify_attraction(P, PULL, 0.0, 15.0, 1e-3)
    assert len(builds) == 59 + 44 + 59
    assert sum(builds) == 15000 + 11250 + 15000  # every step on one tape


#: the pull of the scheduled benchmark verification at seed 1: five knots over
#: [0, 15], values uniform in [1.5, 6]
BENCH_PULL = DriveSchedule(
    Schedule.sampled(np.linspace(0.0, 15.0, 5),
                     np.random.default_rng(1).uniform(1.5, 6.0, size=5)),
    FREQ,
)


@pytest.mark.parametrize("drive, steps", [(BENCH_PULL, 155_490), (PULL, 169_314)],
                         ids=["bench-seed-1", "pull"])
def test_verification_work_counts(monkeypatch, drive, steps):
    # RK4 steps as counted by the kernel, and drive tapes.  Separate runs
    # would take 201,250 steps: the track's 10,000 warm-up and 15,000
    # recorded steps, 8 x 15,000 for the forward ensemble, 11,250 + 15,000
    # for the pullback and 30,000 for the invariance re-run at dt/2.  The
    # recorded stretch runs as member 0 of the ensemble, and the members
    # retire once they equal it bit for bit, so they stop short of 8 x 15,000.
    # Tapes: 40 (warm-up) + 59 (track and ensemble) + 44 + 59 (pullback)
    # + 118 (invariance) = 320, where separate runs build 379
    lengths = []
    real_steps = integrate._rk4_steps

    def counted_steps(f, x, y, tape):
        xs, ys = real_steps(f, x, y, tape)
        lengths.append(len(xs))
        return xs, ys

    builds = []
    real_tape = LabField.rk4_tape

    def counted_tape(self, t, h):
        builds.append(t.size)
        return real_tape(self, t, h)

    monkeypatch.setattr(integrate, "_rk4_steps", counted_steps)
    monkeypatch.setattr(LabField, "rk4_tape", counted_tape)
    report = verify_schedule(drive, P, 0.0, 15.0)
    assert report.chronotaxic and report.forward_defect == 0.0
    assert sum(lengths) == steps
    assert len(builds) == 320
    assert sum(builds) == 10_000 + 15_000 + 11_250 + 15_000 + 30_000


def test_forward_defect_survives_without_drive():
    # undriven: ensemble phases never collapse
    d0 = DriveSchedule.constant(0.0, P.omega0 - 0.5)
    fwd, _ = verify_attraction(P, d0, 0.0, 30.0, 1e-2)
    assert fwd > 0.1


def test_invariance_defect_detects_tampering():
    track = track17()
    defect = verify_invariance(track, P, D17)
    assert defect < 1e-6
    bent = track.states.copy()
    bent[len(bent) // 2:, 0] += 0.01
    fake = Trajectory(track.t0, track.dt, track.times, bent, "lab")
    assert verify_invariance(fake, P, D17) > 5e-3


@pytest.mark.parametrize("refine", [0, 1, -2, 2.0, True])
def test_invariance_refuses_a_refine_below_two(refine):
    # refine = 1 would retrace the track's own arithmetic and read exactly 0
    with pytest.raises(InvalidInputError):
        verify_invariance(track17(1.0), P, D17, refine=refine)


def test_offending_intervals_cover_bad_windows():
    ea = Schedule.sampled([0.0, 9.9, 10.0, 20.0, 20.1, 30.0],
                          [1.7, 1.7, 0.3, 0.3, 1.7, 1.7])
    d = DriveSchedule(ea, Schedule.constant(P.omega0 - 0.5), 0.0)
    n, intervals = offending_intervals(d, P, 0.0, 30.0)
    assert n >= 61  # half-unit grid plus the off-grid schedule knots
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert 9.5 <= lo <= 10.5
    assert 19.5 <= hi <= 20.5


def test_verify_schedule_chronotaxic():
    report = verify_schedule(D17, P, 0.0, 30.0)
    assert report.chronotaxic
    assert report.radius == pytest.approx(0.16)
    assert report.forward_defect < 1e-6
    assert report.pullback_defect < 1e-6
    assert report.invariance_defect < 1e-4
    assert report.failures == []
    assert report.max_lambda_on_A < 0.0
    assert report.max_inward_defect < 0.0


def test_verify_schedule_rejects_weak_drive():
    report = verify_schedule(D03, P, 0.0, 30.0)
    assert not report.chronotaxic
    assert report.offending_intervals == [(0.0, 30.0)]
    assert report.failures


def test_verify_schedule_flags_dip():
    tk = [0.0, 19.0, 20.0, 40.0, 41.0, 60.0]
    vk = [2.5, 2.5, 0.3, 0.3, 2.5, 2.5]
    d = DriveSchedule(Schedule.sampled(tk, vk), Schedule.constant(P.omega0 - 0.5), 0.0)
    report = verify_schedule(d, P, 0.0, 60.0)
    assert not report.chronotaxic
    assert len(report.offending_intervals) == 1
    lo, hi = report.offending_intervals[0]
    assert 17.0 <= lo <= 23.0
    assert 37.0 <= hi <= 43.0
    assert hi - lo >= 15.0


def test_report_serialization(tmp_path):
    report = verify_schedule(D17, P, 0.0, 10.0)
    doc = report.to_dict()
    assert set(doc) >= {
        "chronotaxic", "window", "radius", "forward_defect",
        "pullback_defect", "invariance_defect", "thresholds",
    }
    path = tmp_path / "report.json"
    report.save(path)
    import json

    loaded = json.loads(path.read_text())
    assert loaded["chronotaxic"] == report.chronotaxic
    assert loaded["window"] == [0.0, 10.0]


def test_verdict_matches_frozen_classification():
    # the trajectory-level certificate must agree with the spectral
    # classification on frozen parameters (drawn away from the margins)
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 10:
        eps_a = rng.uniform(0.05, 8.0)
        dw = rng.uniform(0.0, 1.2)
        fp = FrozenParams(eps_a, dw, P)
        stable = [q for q in find_fixed_points(fp) if q.is_stable]
        lam = min(q.lambda_max_sym for q in stable) if stable else math.inf
        if abs(lam) < 0.8 and lam != math.inf:
            continue  # marginal contraction: window needed is too long
        is_chrono = classify(fp).value.startswith("type")
        d = fp.drive()
        t1 = 30.0 if is_chrono else 5.0
        report = verify_schedule(d, P, 0.0, t1)
        assert report.chronotaxic == is_chrono, (eps_a, dw, lam, report.to_dict())
        checked += 1


@pytest.fixture
def fixed_point_solves(monkeypatch):
    """Frozen parameter sets passed to ``find_fixed_points`` while the test runs."""
    calls = []
    real = steady_state.find_fixed_points

    def counted(fp, *args, **kwargs):
        calls.append(fp)
        return real(fp, *args, **kwargs)

    monkeypatch.setattr(steady_state, "find_fixed_points", counted)
    return calls


def test_verify_schedule_solves_each_instant_once(fixed_point_solves):
    # one solve per sample instant, plus the start of the pullback window
    report = verify_schedule(PULL, P, 0.0, 15.0)
    assert report.chronotaxic
    assert len(fixed_point_solves) == report.times_checked + 1
    fixed_point_solves.clear()
    report = verify_schedule(DIPPED, P, 0.0, 15.0)
    assert report.offending_intervals
    assert len(fixed_point_solves) == report.times_checked


@pytest.mark.parametrize("window, kwargs", [
    ((5.0, 5.0), {}),
    ((5.0, 1.0), {}),
    ((0.0, math.inf), {}),
    ((math.nan, 3.0), {}),
    ((0.0, 3.0), {"check_interval": 0.0}),
    ((0.0, 3.0), {"check_interval": math.nan}),
    ((0.0, 3.0), {"dt": 0.0}),
    ((0.0, 3.0), {"dt": -1e-3}),
    ((0.0, 3.0), {"sample_interval": math.nan}),
    ((0.0, 3.0), {"sample_interval": 0.0}),
    ((0.0, 3.0), {"beta": 0.0}),
    ((0.0, 3.0), {"beta": math.inf}),
    ((0.0, 3.0), {"ladder": ()}),
    ((0.0, 3.0), {"ladder": (math.nan,)}),
    ((0.0, 3.0), {"ladder": (0.02, -0.1)}),
    ((0.0, 3.0), {"ladder": (0.02, math.inf)}),
])
def test_verify_schedule_refuses_bad_input_before_any_work(fixed_point_solves,
                                                           window, kwargs):
    with pytest.raises(InvalidInputError):
        verify_schedule(D17, P, *window, **kwargs)
    assert fixed_point_solves == []


@pytest.mark.parametrize("t0, t1, check_interval", [
    (5.0, 5.0, 0.5), (5.0, 1.0, 0.5), (0.0, 3.0, 0.0), (0.0, 3.0, -0.5),
])
def test_scans_refuse_a_bad_window_or_interval(fixed_point_solves, t0, t1,
                                               check_interval):
    with pytest.raises(InvalidInputError):
        offending_intervals(D17, P, t0, t1, check_interval)
    with pytest.raises(InvalidInputError):
        attractor_track(D17, P, t0, t1, 1e-3, check_interval)
    assert fixed_point_solves == []


@pytest.mark.parametrize("drive", [PULL, DIPPED], ids=["pull", "dip"])
def test_verify_schedule_equals_staged_report(drive):
    t0, t1, dt, beta = 0.0, 15.0, 1e-3, 1e-3
    n, intervals = offending_intervals(drive, P, t0, t1, 0.5, beta)
    staged = dict(
        window=(t0, t1), dt=dt, beta=beta, times_checked=n,
        offending_intervals=intervals,
        thresholds={"forward": DEFAULT_FORWARD_TOL, "pullback": DEFAULT_PULLBACK_TOL,
                    "invariance": DEFAULT_INVARIANCE_TOL},
    )
    if intervals:
        expected = VerificationReport(
            chronotaxic=False,
            failures=["classification prescan found non-chronotaxic instants"],
            **staged,
        )
    else:
        track = attractor_track(drive, P, t0, t1, dt, 0.5, beta)
        radius = select_trapping_radius(track, P, drive, beta=beta)
        max_lam, max_flux = verify_trapping(TrappingCandidate(track, radius, 720), P, drive)
        forward, pb = verify_attraction(P, drive, t0, t1, dt)
        expected = VerificationReport(
            chronotaxic=True, radius=radius, max_lambda_on_A=max_lam,
            max_inward_defect=max_flux, forward_defect=forward, pullback_defect=pb,
            invariance_defect=verify_invariance(track, P, drive), **staged,
        )
    assert verify_schedule(drive, P, t0, t1, dt, 0.5, beta).to_dict() == expected.to_dict()


def staged_failures(drive, t0, t1, dt, ensemble_size):
    """Report fields of the certificate's stages run one after another, each
    failure recorded as ``verify_schedule`` records it."""
    failures = []
    out = dict(radius=None, max_lambda_on_A=None, max_inward_defect=None,
               forward_defect=None, pullback_defect=None, invariance_defect=None)
    try:
        track = attractor_track(drive, P, t0, t1, dt)
    except ChronotaxError as exc:
        return dict(out, failures=[f"attractor tracking failed: {exc}"])
    try:
        radius = select_trapping_radius(track, P, drive)
        probe = radius if radius is not None else min(DEFAULT_RADIUS_LADDER)
        out["radius"] = radius
        out["max_lambda_on_A"], out["max_inward_defect"] = verify_trapping(
            TrappingCandidate(track, probe, 720), P, drive)
        if radius is None:
            failures.append("no ladder radius stays inside the contraction region")
        elif out["max_inward_defect"] >= 0.0:
            failures.append("boundary flux is not strictly inward")
    except ChronotaxError as exc:
        failures.append(f"trapping check failed: {exc}")
    try:
        out["forward_defect"], out["pullback_defect"] = verify_attraction(
            P, drive, t0, t1, dt, ensemble_size)
    except ChronotaxError as exc:
        failures.append(f"attraction check failed: {exc}")
    try:
        out["invariance_defect"] = verify_invariance(track, P, drive)
    except ChronotaxError as exc:
        failures.append(f"invariance check failed: {exc}")
    return dict(out, failures=failures)


@pytest.mark.parametrize("dt, ensemble_size", [
    (0.25, 8),   # the pullback leaves the guard radius
    (0.3, 8),    # forward members leave it, the track does not
    (0.4, 8),    # the track leaves it in its recorded stretch
    (0.5, 8),    # ... and in its warm-up
    (0.3, 1),    # too small an ensemble, beside a failing trapping check
    (0.4, 1),    # ... behind a failing track, where it is never reported
])
def test_failures_equal_the_separate_stages(dt, ensemble_size):
    # the track runs inside the forward ensemble, yet a member's blow-up
    # costs neither the track nor the stages after it, and the failures keep
    # their order: tracking, trapping, attraction, invariance
    report = verify_schedule(PULL, P, 0.0, 15.0, dt, ensemble_size=ensemble_size).to_dict()
    expected = staged_failures(PULL, 0.0, 15.0, dt, ensemble_size)
    assert report["failures"]
    assert {k: report[k] for k in expected} == expected
