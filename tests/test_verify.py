"""Trapping-region, attraction, and invariance certificates."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chronotax import (
    CartesianState,
    ChronotaxError,
    DriveSchedule,
    FrozenParams,
    InvalidInputError,
    NotChronotaxicError,
    OscillatorParams,
    Schedule,
    TrappingCandidate,
    VerificationReport,
    attractor_track,
    classify,
    contraction_map,
    find_fixed_points,
    linear_system_report,
    offending_intervals,
    region_map,
    select_trapping_radius,
    steady_state,
    sym_eigs_radial,
    verify_attraction,
    verify_invariance,
    verify_schedule,
    verify_trapping,
)
from chronotax import integrate, verify
from chronotax.contraction import classify_eigs
from chronotax.integrate import LabField, Trajectory, rk4_path, time_grid
from chronotax.model import field_lab, field_lab_array
from chronotax.verify import (
    DEFAULT_FORWARD_TOL,
    DEFAULT_INVARIANCE_TOL,
    DEFAULT_PULLBACK_TOL,
    DEFAULT_RADIUS_LADDER,
    DEFAULT_VERIFY_DT,
    _refined_nodes,
    _run_error,
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
    for samples in (8, 63, 100.5, "720", True):
        with pytest.raises(InvalidInputError, match="boundary_samples"):
            TrappingCandidate(track, 0.1, boundary_samples=samples)
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
    # no interior sample of a track of 1 or 2 has a central-difference
    # velocity; both checks refuse it, where the radius selection crashed on
    # the empty sample list
    track = track17()
    for samples in (1, 2):
        short = Trajectory(track.t0, track.dt, track.times[:samples],
                           track.states[:samples], "lab")
        with pytest.raises(InvalidInputError, match="at least 3 samples"):
            select_trapping_radius(short, P, D17)
        with pytest.raises(InvalidInputError, match="at least 3 samples"):
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


def per_instant_boundary_flux(c, p, d, sample_interval=0.1):
    """The largest outward boundary flux of ``verify_trapping``, one sample
    instant at a time: the reference its chunked arrays must equal."""
    track = c.track
    theta = np.linspace(0.0, 2.0 * math.pi, c.boundary_samples, endpoint=False)
    normal = np.column_stack([np.cos(theta), np.sin(theta)])
    max_flux = -math.inf
    for i in _sample_indices(track.times.size, track.dt, sample_interval):
        span = track.times[i + 1] - track.times[i - 1]
        vcx = (track.states[i + 1, 0] - track.states[i - 1, 0]) / span
        vcy = (track.states[i + 1, 1] - track.states[i - 1, 1]) / span
        bx = track.states[i, 0] + c.radius * normal[:, 0]
        by = track.states[i, 1] + c.radius * normal[:, 1]
        gx, gy = field_lab_array(bx, by, float(track.times[i]), p, d)
        max_flux = max(max_flux,
                       float(np.max((gx - vcx) * normal[:, 0] + (gy - vcy) * normal[:, 1])))
    return max_flux


@pytest.mark.parametrize("drive, radius, samples", [
    (D17, 0.16, 720), (D17, 1.5, 64), (PULL, 0.32, 720), (PULL, 0.02, 100),
])
def test_boundary_flux_equals_per_instant_reference(drive, radius, samples):
    # 151 sample instants over [0, 15]: nine full chunks and a partial one
    track = attractor_track(drive, P, 0.0, 15.0, 1e-3)
    cand = TrappingCandidate(track, radius, samples)
    _, max_flux = verify_trapping(cand, P, drive)
    assert max_flux == per_instant_boundary_flux(cand, P, drive)


@pytest.mark.parametrize("dt", [0.0035, 0.0049])
def test_last_sampled_velocity_follows_the_field(dt):
    # 15 is no multiple of dt, so the track's last step is shorter (0.0025
    # and 0.0011).  A disk of radius 1e-9 sampled at its first and last
    # interior instants reads, as its largest flux, about the larger gap
    # between the field at the centre and the centre's sampled velocity.
    track = attractor_track(PULL, P, 0.0, 15.0, dt)
    assert track.times[-1] - track.times[-2] < dt
    cand = TrappingCandidate(track, 1e-9, 720)
    _, max_flux = verify_trapping(cand, P, PULL, sample_interval=30.0)
    assert _sample_indices(track.times.size, track.dt, 30.0) == [1, track.times.size - 2]
    assert abs(max_flux) < 1e-3
    assert max_flux == per_instant_boundary_flux(cand, P, PULL, sample_interval=30.0)


@pytest.mark.parametrize("check, kwargs", [
    (check, kwargs)
    for check in ("verify_trapping", "select_trapping_radius")
    for kwargs in ({"sample_interval": math.nan}, {"sample_interval": math.inf},
                   {"sample_interval": 0.0}, {"sample_interval": -1.0})
] + [
    ("candidate", {"radius": radius}) for radius in (math.nan, math.inf)
], ids=str)
def test_trapping_checks_refuse_bad_sampling(check, kwargs):
    # a bad interval or radius is refused as bad input, never certified
    track = track17(1.0)
    with pytest.raises(InvalidInputError):
        if check == "verify_trapping":
            verify_trapping(TrappingCandidate(track, 0.1), P, D17, **kwargs)
        elif check == "select_trapping_radius":
            select_trapping_radius(track, P, D17, **kwargs)
        else:
            TrappingCandidate(track, **kwargs)


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


def forward_starts():
    """The forward ensemble's starts: eight drawn with seed 2026 in the
    annulus 0.5 <= r <= 2."""
    rng = np.random.default_rng(2026)
    angles = rng.uniform(0.0, 2.0 * math.pi, 8)
    radii = rng.uniform(0.5, 2.0, 8)
    return [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]


def spread(states):
    """Largest pairwise distance between the states ``(x, y)``."""
    states = np.array(states)
    diff = states[:, None, :] - states[None, :, :]
    return float(np.max(np.hypot(diff[..., 0], diff[..., 1])))


def per_member_forward_defect(p, d, t0, t1, dt):
    """The forward defect with one ``rk4_path`` run, and so one set of drive
    tapes, per ensemble member: the reference the shared tape must match."""
    field = LabField(p, d)
    grid = time_grid(t0, t1, dt)
    return spread([rk4_path(field, x, y, grid, record=False) for x, y in forward_starts()])


def tube_defect(p, d, states, times, centers, radius, rate, tol, errors=None):
    """The spread at ``times[-1]`` of ``states`` run on ``times``, and the time
    it is bounded from, with one recorded ``rk4_path`` run per member and
    tape block: given a tube (``radius`` not None) around ``centers``, each
    member's error bound E (:func:`reference_run_error`, from ``errors``,
    zero by default) is carried block by block, and at the first block end
    t_i before the end where every member is inside the tube by more than
    its E and (spread(t_i) + 2 max E) * exp(rate * (t1 - t_i)) <= tol, that
    bound; else the spread at t1."""
    field = LabField(p, d)
    errors = [0.0] * len(states) if errors is None else list(errors)
    last = times.size - 1
    for i0 in range(0, last, integrate.TAPE_BLOCK):
        i1 = min(i0 + integrate.TAPE_BLOCK, last)
        paths = [rk4_path(field, x, y, times[i0:i1 + 1]) for x, y in states]
        states = [tuple(path[-1].tolist()) for path in paths]
        if radius is not None and i1 < last:
            errors = [reference_run_error(times[i0:i1 + 1], path, p, d, e=e)[0]
                      for path, e in zip(paths, errors)]
            off = np.array(states) - centers[i1]
            bound = (spread(states) + 2.0 * max(errors)) * math.exp(
                rate * (times[-1] - times[i1]))
            if np.all(np.hypot(off[:, 0], off[:, 1]) + errors < radius) and bound <= tol:
                return bound, float(times[i1])
    return spread(states), None


def probe_stride(p, d, t0, t1, dt, beta=1e-3):
    """How many track steps the probe runs of ``verify_schedule`` over
    [t0, t1] take at once: the largest k <= 4 with k dt L <= 1/2, else 1.
    L = eps_gamma (r_p + 2 max(r_p, 2)) + |omega0| + the largest pull at
    the ends of [t0 - max(span, window), t1] and the pull's knots inside,
    the window being the warm-up's: ten contraction times of the slowest
    scanned instant, within [10, 500]."""
    scan = steady_state._scan(d, p, t0, t1, 0.5, beta)
    window = min(max(10.0 / min(-a.lambda_max_sym for _, _, a in scan), 10.0), 500.0)
    start = t0 - max(t1 - t0, window)
    knots = [] if d.eps_a.is_constant else [s for s in d.eps_a.times.tolist()
                                           if start < s < t1]
    pull = max(float(d.eps_a(s)) for s in [start, t1] + knots)
    lip = p.eps_gamma * (p.r_p + 2.0 * max(p.r_p, 2.0)) + pull + abs(p.omega0)
    k = 1
    for candidate in (2, 3, 4):
        if candidate * dt * lip <= 0.5:
            k = candidate
    return k


def tube_forward_defect(track, radius, rate, p, d, tol=DEFAULT_FORWARD_TOL, k=1):
    """The forward defect and the time it is bounded from, as ``verify_schedule``
    takes them from a certified tube around ``track`` (or measures them at
    t1 for ``radius`` None), the members running on every ``k``-th node of
    the track's grid and its last."""
    nodes = list(range(0, track.times.size - 1, k)) + [track.times.size - 1]
    return tube_defect(p, d, forward_starts(), track.times[nodes],
                       track.states[nodes], radius, rate, tol)


def warmed_track(d, t0, t1, dt=DEFAULT_VERIFY_DT, beta=1e-3, k=1, p=P):
    """The track's warm-up at ``k dt`` over ``[t0, t1]``, recorded from
    ``t0 - (t1 - t0)`` on, and the track at ``dt`` from its last sample."""
    scan = steady_state._scan(d, p, t0, t1, 0.5, beta)
    return steady_state._track(d, p, t0, t1, dt, scan, warmup_dt=k * dt)


def recorded_warmup(d, t0, t1, dt=DEFAULT_VERIFY_DT, beta=1e-3, k=1, p=P):
    """The track's warm-up at ``k dt`` over ``[t0, t1]``, recorded from
    ``t0 - (t1 - t0)`` on."""
    return warmed_track(d, t0, t1, dt, beta, k, p)[0]


def warmup_tube(warmup, d, beta=1e-3, p=P):
    """Radius and eigenvalue bound of the certified tube around ``warmup``,
    or ``(None, None)``."""
    radius = select_trapping_radius(warmup, p, d, beta=beta)
    if radius is None:
        return None, None
    max_lam, max_flux = verify_trapping(TrappingCandidate(warmup, radius, 720), p, d)
    return (radius, max_lam) if max_lam < 0.0 and max_flux < 0.0 else (None, None)


def tube_pullback_defect(d, t0, t1, dt=DEFAULT_VERIFY_DT, beta=1e-3,
                         tol=DEFAULT_PULLBACK_TOL, k=1, p=P):
    """The pullback defect and the time it is bounded from, as ``verify_schedule``
    takes them from the warm-up at ``k dt`` of the track over ``[t0, t1]``
    (grid G): the runs from (2, 0) at t0 - 0.75 span and t0 - span step at
    ``k dt`` to the first node of G at or after their start, then along G
    to its first node at or after t0 - 0.75 span; from there on,
    :func:`tube_defect` around the warm-up with its certified tube, each
    run's E starting from the error bound of its recorded way there."""
    field = LabField(p, d)
    warmup = recorded_warmup(d, t0, t1, dt, beta, k, p)
    radius, rate = warmup_tube(warmup, d, beta, p)
    times = warmup.times
    span = t1 - t0
    j = int(np.flatnonzero(times >= t0 - 0.75 * span)[0])
    states, errors = [], []
    for s in (t0 - 0.75 * span, t0 - span):
        i = int(np.flatnonzero(times >= s)[0])
        grid = time_grid(s, times[i], k * dt)
        lead = rk4_path(field, 2.0, 0.0, grid)
        path = rk4_path(field, *lead[-1].tolist(), times[i:j + 1])
        states.append(tuple(path[-1].tolist()))
        e = reference_run_error(grid, lead, p, d)[0]
        errors.append(reference_run_error(times[i:j + 1], path, p, d, e=e)[0])
    return tube_defect(p, d, states, times[j:], warmup.states[j:], radius, rate, tol, errors)


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


def bench_pull(seed):
    """The pull of the scheduled benchmark verification at ``seed``: five knots
    over [0, 15], values uniform in [1.5, 6]."""
    return DriveSchedule(
        Schedule.sampled(np.linspace(0.0, 15.0, 5),
                         np.random.default_rng(seed).uniform(1.5, 6.0, size=5)),
        FREQ,
    )


def verification_work(monkeypatch, drive, **kwargs):
    """``verify_schedule(drive, P, 0, 15, **kwargs)``, with the lengths of
    the RK4 step runs of the kernel and the sizes of the drive tapes built."""
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
    return verify_schedule(drive, P, 0.0, 15.0, **kwargs), lengths, builds


@pytest.mark.parametrize("drive, steps, blocks, pullback_blocks", [
    (bench_pull(1), 21_623, 1, 1),
    (bench_pull(7919), 23_671, 2, 1),
    (PULL, 31_351, 5, 4),
], ids=["bench-seed-1", "bench-seed-7919", "pull"])
def test_verification_work_counts(monkeypatch, drive, steps, blocks, pullback_blocks):
    # RK4 steps as counted by the kernel, and drive tapes, at dt = 1e-3,
    # where the probe runs step at 4 dt.  Separate runs at dt would take
    # 201,250 steps: the track's 10,000 warm-up and 15,000 recorded steps,
    # 8 x 15,000 for the forward ensemble, 11,250 + 15,000 for the pullback
    # and 30,000 for the invariance re-run at dt/2.  The warm-up takes 2,500
    # steps of 4 dt and the track 15,000.  The forward members run on every
    # 4th node of the track's grid and stop after the first `blocks` tape
    # blocks, where all are inside the certified tube and its contraction
    # bound meets the forward tolerance: 8 x 256 x blocks steps.  The
    # invariance defect is a bound, so no re-run at dt/2 runs.  The two
    # pullback runs step at 4 dt from t = -11.25 and -15 to the warm-up's
    # first node at t = -10 (313 + 1,250 steps, the first closing on a
    # short step), then run on the warm-up's grid and stop after the
    # first `pullback_blocks` blocks, where both are
    # inside its certified tube and its bound meets the pullback tolerance:
    # 2 x 256 x pullback_blocks steps.
    # Tapes: 10 (warm-up) + 59 (track) + blocks (ensemble) + 2 + 5
    # (pullback to t = -10) + pullback_blocks = 76 + blocks +
    # pullback_blocks, where separate runs build 379
    assert probe_stride(P, drive, 0.0, 15.0, 1e-3) == 4
    report, lengths, builds = verification_work(monkeypatch, drive, dt=1e-3)
    assert report.chronotaxic
    assert 0.0 < report.forward_defect <= report.thresholds["forward"]
    assert report.forward_bound_from == pytest.approx(blocks * 256 * 4e-3)
    assert 0.0 < report.pullback_defect <= report.thresholds["pullback"]
    assert report.pullback_bound_from == pytest.approx(-10.0 + pullback_blocks * 256 * 4e-3)
    assert sum(lengths) == steps
    assert steps == (2_500 + 15_000 + 8 * 256 * blocks + 313 + 1_250
                     + 2 * 256 * pullback_blocks)
    assert len(builds) == 76 + blocks + pullback_blocks
    assert sum(builds) == (2_500 + 15_000 + blocks * 256 + 313 + 1_250
                           + pullback_blocks * 256)


@pytest.mark.parametrize("drive", [bench_pull(1), bench_pull(7919)],
                         ids=["bench-seed-1", "bench-seed-7919"])
def test_verification_work_counts_at_the_default_step(monkeypatch, drive):
    # at dt = 2.5e-3 the probe runs step at 4 dt = 0.01: the warm-up takes
    # 1,000 steps and the track 6,000 at dt; the forward members and the
    # pullback runs stop after 1 block each, at the block ends t = 2.56 and
    # -7.44, and the way to t = -10 takes 125 + 500 steps.
    # Tapes: 4 + 24 + 1 + 1 + 2 + 1
    assert probe_stride(P, drive, 0.0, 15.0, DEFAULT_VERIFY_DT) == 4
    report, lengths, builds = verification_work(monkeypatch, drive)
    assert report.dt == DEFAULT_VERIFY_DT == 2.5e-3
    assert report.chronotaxic
    assert report.forward_bound_from == pytest.approx(256 * 4 * DEFAULT_VERIFY_DT)
    assert report.pullback_bound_from == pytest.approx(-10.0 + 256 * 4 * DEFAULT_VERIFY_DT)
    assert sum(lengths) == 10_185 == 1_000 + 6_000 + 8 * 256 + 125 + 500 + 2 * 256
    assert len(builds) == 33
    assert sum(builds) == 1_000 + 6_000 + 256 + 125 + 500 + 256


#: a stiff oscillator whose probes cannot step beyond the track's step, and a
#: pull under which it certifies both tubes
STIFF = OscillatorParams(100.0, 1.0, 1.0)
STIFF_DRIVE = DriveSchedule.constant(20.0, STIFF.omega0 - 0.5)


@pytest.mark.parametrize("p, drive, t1, dt, k", [
    (P, bench_pull(1), 15.0, DEFAULT_VERIFY_DT, 4),
    (P, bench_pull(7919), 15.0, DEFAULT_VERIFY_DT, 4),
    (P, PULL, 15.0, 1e-3, 4),
    (P, D17, 5.0, 0.0049, 2),
    (OscillatorParams(1.0, 1.0, 1.0), DriveSchedule.constant(1.7, 0.5), 0.5, 0.4, 1),
    (STIFF, STIFF_DRIVE, 15.0, DEFAULT_VERIFY_DT, 1),
], ids=["bench-seed-1", "bench-seed-7919", "pull-1e-3", "d17-short", "gentle-0.4", "stiff"])
def test_probe_stride_equals_the_scalar_reference(p, drive, t1, dt, k):
    scan = steady_state._scan(drive, p, 0.0, t1, 0.5, 1e-3)
    start = -max(t1, steady_state._warmup_window(scan))
    assert verify._probe_stride(p, drive, start, t1, dt) == probe_stride(p, drive, 0.0, t1, dt)
    assert probe_stride(p, drive, 0.0, t1, dt) == k


def test_a_stiff_set_probes_at_the_track_step():
    # k = 1: the warm-up and every probe run step at dt, which is the
    # report of the stages run at one step throughout, bit for bit
    assert probe_stride(STIFF, STIFF_DRIVE, 0.0, 15.0, DEFAULT_VERIFY_DT) == 1
    report = verify_schedule(STIFF_DRIVE, STIFF, 0.0, 15.0)
    assert report.chronotaxic
    expected = staged_report(STIFF_DRIVE, 0.0, 15.0, DEFAULT_VERIFY_DT, 1e-3, STIFF)
    assert report.to_dict() == expected.to_dict()


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(1.5, 6.0), min_size=5, max_size=5),
       st.sampled_from([DEFAULT_VERIFY_DT, 1e-3]))
@example(np.random.default_rng(1).uniform(1.5, 6.0, size=5).tolist(), DEFAULT_VERIFY_DT)
@example(np.random.default_rng(7919).uniform(1.5, 6.0, size=5).tolist(), 1e-3)
def test_the_probe_stride_keeps_the_verdict(pulls, dt):
    # pull schedules of the scheduled benchmark verification: the verdict,
    # the failures and the radius equal those with every probe at dt
    drive = DriveSchedule(Schedule.sampled(np.linspace(0.0, 15.0, 5), pulls), FREQ)
    report = verify_schedule(drive, P, 0.0, 15.0, dt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_MAX_PROBE_STRIDE", 1)
        single = verify_schedule(drive, P, 0.0, 15.0, dt)
    assert ((report.chronotaxic, report.failures, report.radius)
            == (single.chronotaxic, single.failures, single.radius))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(1.5, 6.0), min_size=5, max_size=5))
@example(np.random.default_rng(1).uniform(1.5, 6.0, size=5).tolist())
def test_forward_bound_holds_past_the_tube_entry(pulls):
    # pull schedules of the scheduled benchmark verification
    drive = DriveSchedule(Schedule.sampled(np.linspace(0.0, 15.0, 5), pulls), FREQ)
    report = verify_schedule(drive, P, 0.0, 15.0)
    assume(report.forward_bound_from is not None)
    bound = report.forward_defect
    # the measured spread at t1 stays under the bound
    measured, _ = verify_attraction(P, drive, 0.0, 15.0, 1e-3)
    assert measured <= bound
    # and at every later block end the spread decays at least at the rate
    # max_lambda_on_A from its value where the bound was taken, which the
    # bound holds together with twice the members' error bound
    rate = report.max_lambda_on_A
    times = time_grid(0.0, 15.0, report.dt)
    last = times.size - 1
    states = forward_starts()
    entry = None
    for i0 in range(0, last, integrate.TAPE_BLOCK):
        i1 = min(i0 + integrate.TAPE_BLOCK, last)
        states = integrate._rk4_ensemble(LabField(P, drive), states, times[i0:i1 + 1], False)
        t = float(times[i1])
        if t == report.forward_bound_from:
            entry = spread(states)
            assert entry * math.exp(rate * (15.0 - t)) <= bound
        elif entry is not None:
            assert spread(states) <= entry * math.exp(rate * (t - report.forward_bound_from))
    assert entry is not None


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(1.5, 6.0), min_size=5, max_size=5))
@example(np.random.default_rng(1).uniform(1.5, 6.0, size=5).tolist())
def test_pullback_bound_holds_over_the_measured_gap(pulls):
    # pull schedules of the scheduled benchmark verification; wherever the
    # warm-up's tube gives the bound, the runs from t0 - 0.75 span and
    # t0 - span measured to t0 on their own grids stay under it
    drive = DriveSchedule(Schedule.sampled(np.linspace(0.0, 15.0, 5), pulls), FREQ)
    report = verify_schedule(drive, P, 0.0, 15.0)
    assume(report.pullback_bound_from is not None)
    _, measured = verify_attraction(P, drive, 0.0, 15.0, 1e-3)
    assert measured <= report.pullback_defect


@settings(max_examples=3, deadline=None)
@given(st.lists(st.floats(1.5, 6.0), min_size=5, max_size=5))
@example(np.random.default_rng(1).uniform(1.5, 6.0, size=5).tolist())
@example(np.random.default_rng(7919).uniform(1.5, 6.0, size=5).tolist())
def test_defect_bounds_hold_over_re_runs_at_an_eighth_of_the_step(pulls):
    # pull schedules of the scheduled benchmark verification at the default
    # step; the forward and pullback bounds count the members' own error, so
    # they bound the exact flow, for which runs at dt/8 stand in: the spread
    # at t1 of the same forward members and the gap at t0 of the two
    # pullback runs
    drive = DriveSchedule(Schedule.sampled(np.linspace(0.0, 15.0, 5), pulls), FREQ)
    report = verify_schedule(drive, P, 0.0, 15.0)
    assert report.dt == DEFAULT_VERIFY_DT
    assume(report.forward_bound_from is not None or report.pullback_bound_from is not None)
    forward, pullback = verify_attraction(P, drive, 0.0, 15.0, report.dt / 8)
    if report.forward_bound_from is not None:
        assert forward <= report.forward_defect
    if report.pullback_bound_from is not None:
        assert pullback <= report.pullback_defect


@pytest.mark.parametrize("t1", [10.0, 5.0])
def test_pullback_runs_join_the_warm_up_mid_grid(t1):
    # D17's warm-up window (10) is longer than 0.75 span: the run from
    # t0 - span steps along the warm-up's grid, recorded from t0 - span on,
    # to its first node at or after t0 - 0.75 span, where the other run joins
    span = t1
    k = probe_stride(P, D17, 0.0, t1, DEFAULT_VERIFY_DT)
    assert k == 4
    warmup = recorded_warmup(D17, 0.0, t1, k=k)
    assert warmup.times[0] == pytest.approx(-span)
    assert warmup.times[0] < -0.75 * span
    report = verify_schedule(D17, P, 0.0, t1)
    expected = tube_pullback_defect(D17, 0.0, t1, k=k)
    assert (report.pullback_defect, report.pullback_bound_from) == expected
    # no block end meets the tolerance over so short a window: measured at
    # t0, within rounding of the runs on their own grids at the probe step
    assert report.pullback_bound_from is None
    _, measured = verify_attraction(P, D17, 0.0, t1, k * report.dt)
    assert abs(report.pullback_defect - measured) <= 1e-12
    assert report.pullback_defect > DEFAULT_PULLBACK_TOL
    assert not report.chronotaxic


#: a pull of 3 that stops over [-9, -8.7], before the verified window [0, 15]:
#: at zero pull the leading eigenvalue on the unit circle is 0, so no ladder
#: rung certifies a tube around the warm-up
STALL_BEFORE_WINDOW = DriveSchedule(
    Schedule.sampled([-20.0, -9.2, -9.0, -8.7, -8.5, 15.0], [3.0, 3.0, 0.0, 0.0, 3.0, 3.0]),
    FREQ,
)


def test_pullback_is_measured_without_a_warm_up_tube():
    k = probe_stride(P, STALL_BEFORE_WINDOW, 0.0, 15.0, DEFAULT_VERIFY_DT)
    assert warmup_tube(recorded_warmup(STALL_BEFORE_WINDOW, 0.0, 15.0, k=k),
                       STALL_BEFORE_WINDOW) == (None, None)
    report = verify_schedule(STALL_BEFORE_WINDOW, P, 0.0, 15.0)
    assert report.pullback_bound_from is None
    assert report.pullback_defect == tube_pullback_defect(STALL_BEFORE_WINDOW, 0.0, 15.0,
                                                          k=k)[0]
    _, measured = verify_attraction(P, STALL_BEFORE_WINDOW, 0.0, 15.0, k * report.dt)
    assert abs(report.pullback_defect - measured) <= 1e-12
    # the verdict of the measured pullback, and of every other stage
    assert report.chronotaxic
    assert report.failures == []


def test_a_warm_up_of_two_samples_has_no_tube():
    # a gentle oscillator stays stable at dt = 0.4, where the warm-up of a
    # window of 0.5 is recorded from t = -0.4 on: two samples, too few for
    # the trapping check's central differences, so the pullback is measured
    p = OscillatorParams(1.0, 1.0, 1.0)
    d = DriveSchedule.constant(1.7, 0.5)
    scan = steady_state._scan(d, p, 0.0, 0.5, 0.5, 1e-3)
    assert steady_state._track(d, p, 0.0, 0.5, 0.4, scan, 0.4)[0].times.size == 2
    report = verify_schedule(d, p, 0.0, 0.5, 0.4)
    assert report.failures == []
    assert report.pullback_bound_from is None
    assert report.pullback_defect > DEFAULT_PULLBACK_TOL


def test_a_warm_up_without_a_stable_start_is_a_tracking_failure():
    # chronotaxic over [0, 15], but the pull is too weak before t = -1, and
    # the warm-up starts from the frozen attractor at t = -10, which is none:
    # the report records the failed track, and the track raises
    d = DriveSchedule(Schedule.sampled([-20.0, -1.0, 0.0, 15.0], [0.3, 0.3, 3.0, 3.0]), FREQ)
    report = verify_schedule(d, P, 0.0, 15.0)
    assert report.offending_intervals == []
    assert not report.chronotaxic
    assert len(report.failures) == 1
    assert report.failures[0].startswith("attractor tracking failed: ")
    with pytest.raises(NotChronotaxicError) as exc:
        attractor_track(d, P, 0.0, 15.0, 1e-3)
    assert exc.value.time == -10.0


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


def reference_run_error(times, states, p, d, e=0.0):
    """The error bound of a recorded run, step by step with the scalar field:
    the residual r = p' - f(p, t) of the run's cubic Hermite interpolant at
    the Gauss-Legendre points and the midpoint of each step, rho_i the
    largest; mu_i = eps_gamma (r_p - r) - eps_a at r, the smallest radius of
    p at the step ends and those points less e_i + h_i rho_i (at least 0),
    and eps_a, the smallest pull at the step ends and the knots inside;
    e_{i+1} = exp(mu_i h_i) e_i + h_i rho_i from ``e``.  Returns e at the
    last node and the largest e_i + h_i rho_i."""
    def f(x, y, t):
        return field_lab(CartesianState(x, y), t, p, d)

    times = np.asarray(times).tolist()
    xs = states[:, 0].tolist()
    ys = states[:, 1].tolist()
    knots = [] if d.eps_a.is_constant else d.eps_a.times.tolist()
    thetas = (0.5 - math.sqrt(3.0) / 6.0, 0.5, 0.5 + math.sqrt(3.0) / 6.0)
    worst = 0.0
    for i in range(len(times) - 1):
        t, x, y = times[i], xs[i], ys[i]
        h = times[i + 1] - t
        ex = xs[i + 1] - x
        ey = ys[i + 1] - y
        fx0, fy0 = f(x, y, t)
        fx1, fy1 = f(xs[i + 1], ys[i + 1], times[i + 1])
        rho = 0.0
        radius = min(math.sqrt(x * x + y * y),
                     math.sqrt(xs[i + 1] * xs[i + 1] + ys[i + 1] * ys[i + 1]))
        for th in thetas:
            # Hermite basis h01, h10, h11 and their derivatives
            w = th * th * (3.0 - 2.0 * th)
            a0 = th * (1.0 - th) * (1.0 - th)
            a1 = th * th * (th - 1.0)
            dw = 6.0 * th * (1.0 - th)
            da0 = (1.0 - th) * (1.0 - 3.0 * th)
            da1 = th * (3.0 * th - 2.0)
            px = x + w * ex + h * (a0 * fx0 + a1 * fx1)
            py = y + w * ey + h * (a0 * fy0 + a1 * fy1)
            gx, gy = f(px, py, t + th * h)
            rx = dw * ex / h + da0 * fx0 + da1 * fx1 - gx
            ry = dw * ey / h + da0 * fy0 + da1 * fy1 - gy
            rho = max(rho, math.sqrt(rx * rx + ry * ry))
            radius = min(radius, math.sqrt(px * px + py * py))
        worst = max(worst, e + h * rho)
        pull = min(float(d.eps_a(s)) for s in
                   [t, times[i + 1]] + [k for k in knots if t < k < times[i + 1]])
        mu = p.eps_gamma * (p.r_p - max(radius - (e + h * rho), 0.0)) - pull
        e = math.exp(mu * h) * e + h * rho
    return e, worst


def test_invariance_bound_equals_the_scalar_reference():
    # 5,000 steps: the bound's residual arrays run in chunks of 1,024
    track = track17()
    _, (bound,) = _run_error(track.times, track.states[:, 0], track.states[:, 1], P, D17)
    assert bound == reference_run_error(track.times, track.states, P, D17)[1]
    assert 0.0 < bound < 1e-9


@pytest.mark.parametrize("drive", [
    D17,
    DriveSchedule(Schedule.sampled([0.0, 0.33351, 0.7, 2.0], [3.0, 1.0, 4.0, 2.0]), FREQ),
    DriveSchedule(Schedule.sampled([0.0, 0.33351, 0.7, 2.0], [3.0, 1.0, 4.0, 2.0],
                                   "previous"), FREQ),
], ids=["constant", "linear", "previous"])
def test_member_error_bound_equals_the_scalar_reference(drive):
    # the forward members and one from the origin, where the nearest radius
    # is 0, over 1,500 steps (the residual arrays run in chunks of 1,024)
    # from a start error of 1e-9; the pull's knots at 0.33351 and 0.7 fall
    # inside steps, where they are the smallest pull of a step
    times = time_grid(0.0, 1.5, 1e-3)
    field = LabField(P, drive)
    runs = [rk4_path(field, x, y, times) for x, y in forward_starts() + [(0.0, 0.0)]]
    e, worst = _run_error(times, np.array([r[:, 0] for r in runs]),
                          np.array([r[:, 1] for r in runs]), P, drive, e=[1e-9] * len(runs))
    assert list(zip(e, worst)) == [reference_run_error(times, r, P, drive, e=1e-9)
                                   for r in runs]
    assert all(0.0 < b < math.inf for b in e)


def test_invariance_bound_detects_tampering():
    # the bent track of test_invariance_defect_detects_tampering, and the
    # clean track moved by 0.01 throughout, its first sample included; the
    # re-run at dt/2 starts from that moved sample, so the bound is what
    # tells it from a solution
    track = track17()
    bent = track.states.copy()
    bent[len(bent) // 2:, 0] += 0.01
    moved = track.states + 0.01
    for states in (bent, moved):
        assert _run_error(track.times, states[:, 0], states[:, 1], P, D17)[1][0] > 5e-3


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(1.5, 6.0), min_size=5, max_size=5), st.just(DEFAULT_VERIFY_DT))
@example(np.random.default_rng(1).uniform(1.5, 6.0, size=5).tolist(), DEFAULT_VERIFY_DT)
# PULL, whose tube certifies at dt = 0.1 and 0.2 and not at 0.3
@example([2.5, 4.0, 3.0, 5.5], 0.1)
@example([2.5, 4.0, 3.0, 5.5], 0.2)
@example([2.5, 4.0, 3.0, 5.5], 0.3)
def test_invariance_bound_holds_over_the_re_runs(pulls, dt):
    # pull schedules of the scheduled benchmark verification, knots evenly
    # spaced over [0, 15]; with or without a certified tube, the reported
    # defect bounds the distance from the report's own track to the exact
    # solution through its first sample, for which re-runs at dt/2 and dt/8
    # stand in
    drive = DriveSchedule(Schedule.sampled(np.linspace(0.0, 15.0, len(pulls)), pulls), FREQ)
    report = verify_schedule(drive, P, 0.0, 15.0, dt)
    _, track = warmed_track(drive, 0.0, 15.0, dt, k=probe_stride(P, drive, 0.0, 15.0, dt))
    assert verify_invariance(track, P, drive, refine=8) <= report.invariance_defect
    assert verify_invariance(track, P, drive) <= report.invariance_defect


def test_a_bound_that_is_not_finite_is_a_failure():
    # PULL's tube does not certify at dt = 0.25; the track's residual puts
    # the closed-form rate at the origin, where it is positive, and over
    # 4,000 steps the bound overflows.  It is recorded as a failure, and the
    # report holds no inf
    report = verify_schedule(PULL, P, 0.0, 1000.0, 0.25, check_interval=5.0)
    assert report.failures == ["boundary flux is not strictly inward",
                               "invariance check failed: the bound is not finite"]
    assert report.invariance_defect is None
    assert not report.chronotaxic

    def refuse(constant):
        raise ValueError(f"{constant} in a report")

    assert json.loads(report.to_json(), parse_constant=refuse) == report.to_dict()


def nearest_nodes(fine, times):
    """Indices of the nodes of ``fine`` nearest to ``times``, ties to the
    later one, after checking that each lies within 1e-6 dt of its time:
    the reference for where a re-run on the refined grid is read."""
    pos = np.clip(np.searchsorted(fine, times), 0, fine.size - 1)
    nearer_left = (pos > 0) & (np.abs(fine[np.maximum(pos - 1, 0)] - times)
                               < np.abs(fine[pos] - times))
    pos[nearer_left] -= 1
    dt = times[1] - times[0]
    assert np.max(np.abs(fine[pos] - times)) <= 1e-6 * dt
    return pos


@settings(max_examples=300)
@given(t0=st.floats(-1e4, 1e4), dt=st.sampled_from([1e-3, 0.0035, 0.0049, 0.01, 0.1, 0.3]),
       steps=st.integers(2, 200), refine=st.sampled_from([2, 3, 8]),
       rest=st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-2e-9, 2e-9),
                      st.floats(0.0, 1.0)))
@example(t0=0.0, dt=0.0035, steps=4285, refine=2, rest=5.0 / 7.0)  # [0, 15]
@example(t0=0.0, dt=1e-3, steps=15000, refine=8, rest=0.0)
@example(t0=1e4, dt=1e-3, steps=7, refine=3, rest=1e-9)
@example(t0=-1e4, dt=0.0049, steps=7, refine=8, rest=-1e-9)
def test_refined_nodes_are_the_nearest_nodes(t0, dt, steps, refine, rest):
    # windows whose span is a whole number of steps up to rounding, within
    # 1e-9 dt of one either way, or anywhere between two nodes
    t1 = t0 + (steps + rest) * dt
    assume(t1 > t0)
    times = time_grid(t0, t1, dt)
    fine = time_grid(t0, t1, dt / refine)
    nodes = _refined_nodes(times.size, refine, fine.size)
    assert nodes.tolist() == nearest_nodes(fine, times).tolist()


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
    ((0.0, 0.5), {"dt": 0.5}),      # a track grid of two samples
    ((0.0, 3.0), {"check_interval": math.inf}),
    ((0.0, 3.0), {"check_interval": -1.0}),
    ((0.0, 3.0), {"beta": 0.0}),
    ((0.0, 3.0), {"beta": math.inf}),
])
def test_verify_schedule_refuses_bad_input_before_any_work(fixed_point_solves,
                                                           window, kwargs):
    with pytest.raises(InvalidInputError):
        verify_schedule(D17, P, *window, **kwargs)
    assert fixed_point_solves == []


#: the entry points that take a contraction margin, called with ``beta``
#: (verify_schedule refuses a bad one in the test above)
BETA_CALLS = {
    "classify": lambda beta: classify(FrozenParams(1.7, 0.5, P), beta=beta),
    "region_map": lambda beta: region_map((0.0, 1.0), (0.0, 2.0), 3, P, beta=beta),
    "attractor_track": lambda beta: attractor_track(D17, P, 0.0, 1.0, 1e-3, beta=beta),
    "offending_intervals": lambda beta: offending_intervals(D17, P, 0.0, 1.0, beta=beta),
    "select_trapping_radius": lambda beta: select_trapping_radius(
        Trajectory(0.0, 0.1, time_grid(0.0, 1.0, 0.1), np.tile([0.6, 0.0], (11, 1))),
        P, D17, beta=beta),
    "contraction_map": lambda beta: contraction_map((-2.0, 2.0), 5, 0.0, P, D17, beta=beta),
    "linear_system_report": lambda beta: linear_system_report(np.diag([-1.0, -2.0]), beta),
    "classify_eigs": lambda beta: classify_eigs([-1.0, 2.0], [-3.0, -1.0], beta),
}


@pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(BETA_CALLS))
def test_a_bad_beta_is_refused_before_any_work(fixed_point_solves, entry, beta):
    with pytest.raises(InvalidInputError, match="beta"):
        BETA_CALLS[entry](beta)
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


def staged_report(drive, t0, t1, dt, beta, p=P):
    """The report of ``verify_schedule(drive, p, t0, t1, dt, 0.5, beta)``
    from its stages run one after another, for a drive that either fails
    the prescan or certifies both tubes; the warm-up and the probe runs step
    at :func:`probe_stride` times ``dt``."""
    n, intervals = offending_intervals(drive, p, t0, t1, 0.5, beta)
    staged = dict(
        window=(t0, t1), dt=dt, beta=beta, times_checked=n,
        offending_intervals=intervals,
        thresholds={"forward": DEFAULT_FORWARD_TOL, "pullback": DEFAULT_PULLBACK_TOL,
                    "invariance": DEFAULT_INVARIANCE_TOL},
    )
    if intervals:
        return VerificationReport(
            chronotaxic=False,
            failures=["classification prescan found non-chronotaxic instants"],
            **staged,
        )
    k = probe_stride(p, drive, t0, t1, dt, beta)
    # the track starts from the warm-up at k dt
    _, track = warmed_track(drive, t0, t1, dt, beta, k, p)
    radius = select_trapping_radius(track, p, drive, beta=beta)
    max_lam, max_flux = verify_trapping(TrappingCandidate(track, radius, 720), p, drive)
    forward, bound_from = tube_forward_defect(track, radius, max_lam, p, drive, k=k)
    assert bound_from is not None
    pb, pb_from = tube_pullback_defect(drive, t0, t1, dt, beta, k=k, p=p)
    assert pb_from is not None
    # the measured gap of the runs from t0 - 0.75 span and t0 - span
    _, measured = verify_attraction(p, drive, t0, t1, dt)
    assert measured <= pb
    return VerificationReport(
        chronotaxic=True, radius=radius, max_lambda_on_A=max_lam,
        max_inward_defect=max_flux, forward_defect=forward,
        forward_bound_from=bound_from, pullback_defect=pb, pullback_bound_from=pb_from,
        invariance_defect=reference_run_error(track.times, track.states, p, drive)[1],
        **staged,
    )


@pytest.mark.parametrize("drive", [PULL, DIPPED, bench_pull(1), bench_pull(7919)],
                         ids=["pull", "dip", "bench-seed-1", "bench-seed-7919"])
def test_verify_schedule_equals_staged_report(drive):
    t0, t1, dt, beta = 0.0, 15.0, 1e-3, 1e-3
    expected = staged_report(drive, t0, t1, dt, beta)
    assert verify_schedule(drive, P, t0, t1, dt, 0.5, beta).to_dict() == expected.to_dict()


def test_both_tubes_are_certified_through_the_public_checks(monkeypatch):
    # the track's tube and the warm-up's, each by one radius selection and
    # one trapping check, made through the names a tracer can wrap
    calls = []
    for name in ("select_trapping_radius", "verify_trapping"):
        def counted(*args, _real=getattr(verify, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    report = verify_schedule(bench_pull(1), P, 0.0, 15.0)
    assert report.chronotaxic
    assert report.pullback_bound_from is not None
    assert calls == ["select_trapping_radius", "verify_trapping"] * 2


def staged_failures(drive, t0, t1, dt):
    """Report fields of the certificate's stages run one after another, each
    failure recorded as ``verify_schedule`` records it; where the tube
    certifies, the forward defect is the reference bound, the pullback
    defect is :func:`tube_pullback_defect` throughout, and the invariance
    defect is the reference bound at the closed-form rate in every case."""
    failures = []
    out = dict(radius=None, max_lambda_on_A=None, max_inward_defect=None,
               forward_defect=None, forward_bound_from=None, pullback_defect=None,
               pullback_bound_from=None, invariance_defect=None)
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
    tube_ok = (out["radius"] is not None and out["max_lambda_on_A"] is not None
               and out["max_lambda_on_A"] < 0.0 and out["max_inward_defect"] < 0.0)
    try:
        forward = tube_forward_defect(track, out["radius"] if tube_ok else None,
                                      out["max_lambda_on_A"], P, drive)
        pullback = tube_pullback_defect(drive, t0, t1, dt)
        out["forward_defect"], out["forward_bound_from"] = forward
        out["pullback_defect"], out["pullback_bound_from"] = pullback
    except ChronotaxError as exc:
        failures.append(f"attraction check failed: {exc}")
    out["invariance_defect"] = reference_run_error(track.times, track.states, P, drive)[1]
    return dict(out, failures=failures)


@pytest.mark.parametrize("dt", [
    0.25,   # the pullback leaves the guard radius
    0.3,    # forward members leave it, the track does not
    0.4,    # the track leaves it in its recorded stretch
    0.5,    # ... and in its warm-up
])
def test_failures_equal_the_separate_stages(dt):
    # a member's blow-up costs neither the track nor the stages after it,
    # and the failures keep their order: tracking, trapping, attraction,
    # invariance
    report = verify_schedule(PULL, P, 0.0, 15.0, dt).to_dict()
    expected = staged_failures(PULL, 0.0, 15.0, dt)
    assert report["failures"]
    assert {k: report[k] for k in expected} == expected
