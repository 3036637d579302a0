"""Numerical certificate of chronotaxicity for a drive schedule.

The certificate assembles four sampling-based checks over a time window:
every sampled instant classifies chronotaxic; a moving disk around the
tracked attractor (a tube) stays inside the contraction region and traps the
flow; forward ensembles collapse and pullback runs converge; and the track
lies near the exact solution through its first sample.  Where a tube
certifies, the attraction defects are contraction bounds taken from it
rather than measurements.  The invariance defect is always a bound, at the
closed-form contraction rate, with or without a tube.  The README's design
notes derive them.

Verdicts are sampling-based in time, not proofs.  The report carries every
margin; :func:`verify_schedule` samples at fixed settings, and a caller
tightens the sampling through the stage functions: ``sample_interval`` of
:func:`verify_trapping` and :func:`select_trapping_radius`,
``boundary_samples`` of :class:`TrappingCandidate` and ``refine`` of
:func:`verify_invariance`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field as dataclass_field
from itertools import groupby

import numpy as np

from .contraction import DEFAULT_BETA, _check_beta, sym_eigs_radial
from .errors import ChronotaxError, InvalidInputError
from .integrate import (
    TAPE_BLOCK,
    LabField,
    Trajectory,
    _rk4_ensemble,
    pullback,
    rk4_path,
    time_grid,
)
from .model import CartesianState, DriveSchedule, OscillatorParams, field_lab_array
from .steady_state import _scan, _track, _warmup_window

#: geometric radius ladder for the auto-selected trapping disk, ascending
DEFAULT_RADIUS_LADDER = tuple(0.02 * 2.0**k for k in range(8))

#: step of the attractor track of :func:`verify_schedule`.  Its error is part
#: of the forward, pullback and invariance bounds, so it need not be the
#: integrators' finer default step.
DEFAULT_VERIFY_DT = 2.5e-3
#: most track steps a probe run of :func:`verify_schedule` takes at once
#: (:func:`_probe_stride`)
_MAX_PROBE_STRIDE = 4

#: the report's ``thresholds``
DEFAULT_FORWARD_TOL = 1e-6
DEFAULT_PULLBACK_TOL = 1e-6
DEFAULT_INVARIANCE_TOL = 1e-4
#: outer radius of the annulus the forward ensemble starts in
DEFAULT_START_RADIUS = 2.0
#: size and seed of the forward ensemble
_ENSEMBLE_SIZE = 8
_ENSEMBLE_SEED = 2026

MIN_BOUNDARY_SAMPLES = 64

#: sample instants per chunk of the boundary-flux arrays
_FLUX_CHUNK = 16
#: steps per chunk of the invariance bound's residual arrays
_RESIDUAL_CHUNK = 1024
#: where the residual of the Hermite interpolant is sampled in each step, as
#: fractions of the step: its slope error peaks at the outer two points (the
#: Gauss-Legendre points) and its value error at the midpoint
_RESIDUAL_THETAS = (0.5 - math.sqrt(3.0) / 6.0, 0.5, 0.5 + math.sqrt(3.0) / 6.0)


@dataclass(frozen=True)
class TrappingCandidate:
    """A moving disk of fixed radius around a tracked center path."""

    track: Trajectory
    radius: float
    boundary_samples: int = 720

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise InvalidInputError(f"trapping radius must be finite and positive, "
                                    f"got {self.radius!r}")
        if not (_integer(self.boundary_samples)
                and self.boundary_samples >= MIN_BOUNDARY_SAMPLES):
            raise InvalidInputError(f"boundary_samples must be an integer of at least "
                                    f"{MIN_BOUNDARY_SAMPLES}, got {self.boundary_samples!r}")
        if self.track.frame != "lab":
            raise InvalidInputError("trapping candidates live in the lab frame")


@dataclass(frozen=True)
class VerificationReport:
    chronotaxic: bool
    window: tuple[float, float]
    dt: float
    beta: float
    times_checked: int
    offending_intervals: list[tuple[float, float]] = dataclass_field(default_factory=list)
    radius: float | None = None
    max_lambda_on_A: float | None = None
    max_inward_defect: float | None = None
    forward_defect: float | None = None
    forward_bound_from: float | None = None
    pullback_defect: float | None = None
    #: where the warm-up's tube bounds ``pullback_defect``, the time from which
    #: (before ``window[0]``); ``None`` where it is measured
    pullback_bound_from: float | None = None
    invariance_defect: float | None = None
    thresholds: dict[str, float] = dataclass_field(default_factory=dict)
    failures: list[str] = dataclass_field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(asdict(self), window=list(self.window),
                    offending_intervals=[list(iv) for iv in self.offending_intervals])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def _integer(v) -> bool:
    """Whether ``v`` is an integer, ``bool`` excluded."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_sampling(sample_interval: float) -> None:
    """Refuse a ``sample_interval`` that is not finite and positive."""
    if not (math.isfinite(sample_interval) and sample_interval > 0.0):
        raise InvalidInputError(
            f"sample_interval must be finite and positive, got {sample_interval!r}")


def _sample_indices(n: int, dt: float, sample_interval: float) -> list[int]:
    """Interior indices (central-differentiable) roughly sample_interval apart
    on a track of ``n`` samples; refuses a track of fewer than 3."""
    if n < 3:
        raise InvalidInputError(
            "center track needs at least 3 samples for a finite-difference velocity"
        )
    stride = max(1, int(round(sample_interval / dt)))
    idx = list(range(1, n - 1, stride))
    if idx[-1] != n - 2:
        idx.append(n - 2)
    return idx


def verify_trapping(c: TrappingCandidate, p: OscillatorParams, d: DriveSchedule,
                    sample_interval: float = 0.1) -> tuple[float, float]:
    """Eigenvalue and inward-flux margins of a moving-disk candidate.

    At each sampled time the eigenvalue check takes the exact supremum of
    the largest symmetrized-Jacobian eigenvalue over the disk (it must be
    negative for the disk to sit inside the contraction region), and the
    flux check probes the disk's boundary (the field relative to the moving
    center, projected on the outward normal, must be negative everywhere
    for trapping).  Returns ``(max_lambda, max_inward_defect)`` — both
    maxima over all samples, so trapping holds when both are < 0.  Refuses
    a ``sample_interval`` that is not finite and positive, and a track of
    fewer than 3 samples.
    """
    _check_sampling(sample_interval)
    track = c.track
    indices = _sample_indices(track.times.size, track.dt, sample_interval)
    theta = np.linspace(0.0, 2.0 * math.pi, c.boundary_samples, endpoint=False)
    nx = np.cos(theta)
    ny = np.sin(theta)
    rx = c.radius * nx
    ry = c.radius * ny

    # a few instants at a time, each a row against the boundary's columns
    max_flux = -math.inf
    for k0 in range(0, len(indices), _FLUX_CHUNK):
        i = np.array(indices[k0:k0 + _FLUX_CHUNK])
        cx = track.states[i, 0][:, None]
        cy = track.states[i, 1][:, None]
        # over the true spacing: the last step is shorter when dt does not
        # divide the window
        span = track.times[i + 1] - track.times[i - 1]
        vcx = ((track.states[i + 1, 0] - track.states[i - 1, 0]) / span)[:, None]
        vcy = ((track.states[i + 1, 1] - track.states[i - 1, 1]) / span)[:, None]
        bx = cx + rx
        by = cy + ry
        gx, gy = field_lab_array(bx, by, track.times[i][:, None], p, d)
        max_flux = max(max_flux, float(np.max((gx - vcx) * nx + (gy - vcy) * ny)))
    return _tube_max_lambda(track, p, d, c.radius, indices), max_flux


def _tube_max_lambda(track: Trajectory, p: OscillatorParams, d: DriveSchedule,
                     radius: float, indices: list[int]) -> float:
    """Exact supremum of the leading eigenvalue over the moving disk.

    The eigenvalue depends only on the distance from the origin and decreases
    with it, so the supremum over a disk sits at the point nearest the
    origin; no angular sampling needed.
    """
    times = track.times[indices]
    centers = track.states[indices]
    rmin = np.maximum(np.hypot(centers[:, 0], centers[:, 1]) - radius, 0.0)
    lam1, _ = sym_eigs_radial(rmin, np.asarray(d.eps_a(times), dtype=float), p)
    return float(np.max(lam1))


def select_trapping_radius(track: Trajectory, p: OscillatorParams, d: DriveSchedule,
                           beta: float = DEFAULT_BETA,
                           sample_interval: float = 0.1) -> float | None:
    """Largest rung of :data:`DEFAULT_RADIUS_LADDER` whose disk stays inside
    the contraction region.

    Returns None when even the smallest rung pokes out of the region at some
    sampled time.  Refuses a ``sample_interval`` or ``beta`` that is not
    finite and positive, and a track of fewer than 3 samples.
    """
    _check_sampling(sample_interval)
    _check_beta(beta)
    indices = _sample_indices(track.times.size, track.dt, sample_interval)
    best = None
    for radius in DEFAULT_RADIUS_LADDER:
        if _tube_max_lambda(track, p, d, radius, indices) <= -beta:
            best = radius
        else:
            break
    return best


def verify_attraction(p: OscillatorParams, d: DriveSchedule, t0: float, t1: float,
                      dt: float) -> tuple[float, float]:
    """Forward and pullback attraction defects over ``[t0, t1]``.

    Forward: integrates the forward ensemble (:func:`_forward_starts`) and
    returns the largest pairwise distance at ``t1``.  The members share
    one grid, so each block's drive tape is built once for all of them
    (:func:`chronotax.integrate._rk4_ensemble`).
    Pullback: runs the fixed start ``(DEFAULT_START_RADIUS, 0)`` from two
    receding start times, ``t0 - 0.75 span`` and ``t0 - span``, and returns
    the gap between their evaluations at ``t0`` (the Cauchy defect).
    """
    finals = _rk4_ensemble(LabField(p, d), _forward_starts(), time_grid(t0, t1, dt),
                           record=False)
    span = t1 - t0
    prev, last = pullback(CartesianState(DEFAULT_START_RADIUS, 0.0),
                          [t0 - span * 0.75, t0 - span], t0, dt, p, d)
    return _spread(finals), math.hypot(last.x - prev.x, last.y - prev.y)


def _forward_starts():
    """The forward ensemble's starts: :data:`_ENSEMBLE_SIZE` points drawn with
    seed :data:`_ENSEMBLE_SEED`, scattered in the annulus between a quarter
    of :data:`DEFAULT_START_RADIUS` and all of it."""
    rng = np.random.default_rng(_ENSEMBLE_SEED)
    angles = rng.uniform(0.0, 2.0 * math.pi, _ENSEMBLE_SIZE)
    radii = rng.uniform(0.25 * DEFAULT_START_RADIUS, DEFAULT_START_RADIUS, _ENSEMBLE_SIZE)
    return [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]


def _spread(finals) -> float:
    """Largest pairwise distance between the final states ``finals``."""
    finals = np.array(finals)
    diff = finals[:, None, :] - finals[None, :, :]
    return float(np.max(np.hypot(diff[..., 0], diff[..., 1])))


def _probe_stride(p: OscillatorParams, d: DriveSchedule, start: float, t1: float,
                  dt: float) -> int:
    """How many track steps of ``dt`` a probe run takes at once: the largest
    k <= :data:`_MAX_PROBE_STRIDE` with k dt L <= 1/2, or 1.

    L = eps_gamma (r_p + 2R) + eps_a + |omega0|, with R = max(r_p,
    :data:`DEFAULT_START_RADIUS`) and eps_a the largest pull over ``[start,
    t1]`` (at its ends and the pull's knots inside, exact for constant,
    linear and ``previous`` schedules), bounds the norm of the lab-frame
    Jacobian over the disk of radius R in which the probes start.  At
    k dt L <= 1/2 RK4 stays far inside its stability interval (Hairer,
    Norsett & Wanner, *Solving ODEs II*, section IV.2).
    """
    sched = d.eps_a
    pulls = [float(sched(start)), float(sched(t1))]
    if not sched.is_constant:
        pulls.extend(sched.values[(sched.times > start) & (sched.times < t1)].tolist())
    radius = max(p.r_p, DEFAULT_START_RADIUS)
    lip = p.eps_gamma * (p.r_p + 2.0 * radius) + max(pulls) + abs(p.omega0)
    return next((k for k in range(_MAX_PROBE_STRIDE, 1, -1) if k * dt * lip <= 0.5), 1)


@dataclass(frozen=True)
class _Tube:
    """A moving disk around the recorded lab-frame ``run``.

    ``radius`` is the largest ladder rung inside the contraction region, or
    ``None`` where no rung fits; ``rate`` and ``flux`` are the
    ``(max_lambda, max_inward_defect)`` of :func:`verify_trapping` at that
    radius, or at the smallest rung where none fits.  All three are ``None``
    for a run too short to check.  ``rate`` decays only the forward and
    pullback spreads (:func:`_tube_defect`); every error bound
    (:func:`_run_error`) takes the closed-form rate instead.
    """

    run: Trajectory
    radius: float | None = None
    rate: float | None = None
    flux: float | None = None

    @property
    def certified(self) -> bool:
        """Whether the disk is contracting (leading symmetric eigenvalue at
        most ``rate`` < 0) and trapping (inward boundary flux)."""
        return self.radius is not None and self.rate < 0.0 and self.flux < 0.0


def _certify_tube(run: Trajectory, p: OscillatorParams, d: DriveSchedule,
                  beta: float) -> _Tube:
    """The tube around ``run``: :func:`select_trapping_radius`, then
    :func:`verify_trapping` at the radius found or at the smallest rung,
    both at their default sampling."""
    if run.times.size < 3:
        return _Tube(run)
    radius = select_trapping_radius(run, p, d, beta)
    probe = radius if radius is not None else DEFAULT_RADIUS_LADDER[0]
    rate, flux = verify_trapping(TrappingCandidate(run, probe), p, d)
    return _Tube(run, radius, rate, flux)


def _tube_defect(p: OscillatorParams, d: DriveSchedule, starts, tube: _Tube, tol: float,
                 nodes, errors=None) -> tuple[float, float | None]:
    """Spread at the end of ``tube.run`` of the members ``starts`` run on the
    nodes ``nodes`` of its grid (ascending indices, ending on its last), and
    the time from which it is a bound (``None`` when it is measured).

    The members run one tape block (:data:`chronotax.integrate.TAPE_BLOCK`
    steps) at a time, recorded, each block by one
    :func:`chronotax.integrate._rk4_ensemble` call, so a blow-up raises that
    of the lowest-index member in the first block where any member blows
    up.  Where the tube certifies, each member's distance from the exact
    solution through its start is bounded block by block on the members'
    own grid (:func:`_run_error`), from ``errors`` at the first node (zero
    by default), as E_m.  The run stops at the first block end ``t_i``
    before the end ``t1`` where ``|x_m - c(t_i)| + E_m`` is below
    ``tube.radius`` for every member, c being the run, and ``(spread(t_i) +
    2 max E_m) * exp(tube.rate * (t1 - t_i))`` is at most ``tol``; that
    bound, which holds for the exact members, is the defect.  Otherwise the
    members run to ``t1`` and their spread there, a measurement, is the
    defect.
    """
    run = tube.run
    times = run.times[nodes]
    last = times.size - 1
    field = LabField(p, d)
    heads = starts  # the members' states at the start of the block
    errors = [0.0] * len(heads) if errors is None else errors
    for i0 in range(0, last, TAPE_BLOCK):
        i1 = min(i0 + TAPE_BLOCK, last)
        paths = np.array(_rk4_ensemble(field, heads, times[i0:i1 + 1], True))
        heads = paths[:, -1].tolist()
        if tube.certified and i1 < last:
            errors = _run_error(times[i0:i1 + 1], paths[..., 0], paths[..., 1], p, d,
                                e=errors)[0]
            cx, cy = run.states[nodes[i1]]
            b = (_spread(heads) + 2.0 * max(errors)) * math.exp(
                tube.rate * float(times[last] - times[i1]))
            if b <= tol and all(math.hypot(x - cx, y - cy) + e < tube.radius
                                for (x, y), e in zip(heads, errors)):
                return b, float(times[i1])
    return _spread(heads), None


def _pullback_tube_defect(p: OscillatorParams, d: DriveSchedule, tube: _Tube,
                          span: float) -> tuple[float, float | None]:
    """The pullback Cauchy defect at the end ``t0`` of the warm-up ``tube.run``,
    and the time from which it is a bound (``None`` when it is measured),
    against :data:`DEFAULT_PULLBACK_TOL`.

    The runs from ``(DEFAULT_START_RADIUS, 0)`` at ``t0 - 0.75 span`` and
    ``t0 - span`` each step at the warm-up's step to the first node of its grid at
    or after their start, then along that grid to ``G_j``, its first node
    at or after ``t0 - 0.75 span``.  From there they run as members of
    :func:`_tube_defect` in the warm-up's tube.  The stretches to ``G_j``
    are recorded, and where the tube certifies their error bounds
    (:func:`_run_error`) start the members' E_m.  A blow-up on the way to
    ``G_j`` raises at once, the later start's run going first, as in
    :func:`chronotax.integrate.pullback`; one after ``G_j`` raises as in
    :func:`_tube_defect`.
    """
    warmup = tube.run
    times = warmup.times
    t0 = float(times[-1])
    j = int(np.searchsorted(times, t0 - 0.75 * span))
    field = LabField(p, d)
    members = []
    errors = []
    for s in (t0 - 0.75 * span, t0 - span):
        i = int(np.searchsorted(times, s))
        grid = np.concatenate([time_grid(s, float(times[i]), warmup.dt), times[i + 1:j + 1]])
        path = rk4_path(field, DEFAULT_START_RADIUS, 0.0, grid)
        members.append(path[-1].tolist())
        if tube.certified:
            errors.extend(_run_error(grid, path[:, 0], path[:, 1], p, d)[0])
    return _tube_defect(p, d, members, tube, DEFAULT_PULLBACK_TOL, np.arange(j, times.size),
                        errors or None)


def verify_invariance(track: Trajectory, p: OscillatorParams, d: DriveSchedule,
                      refine: int = 2) -> float:
    """Deviation between the track and a re-integration from its first sample.

    A stage function and a measured reference, like
    :func:`verify_attraction`: :func:`verify_schedule` does not call it, and
    bounds its ``invariance_defect`` by :func:`_run_error` instead.  The
    re-integration runs at ``dt/refine`` so it is an independent solve (the
    same step size would retrace the identical arithmetic); the defect is
    the largest state distance at the track's own sample times.  A track
    that is a solution keeps this at integrator-error level; one that is
    not, such as a bent one, shows its departure here.  A track offset from
    the true attractor from its first sample on is re-integrated from that
    offset start and follows it, so this check does not see the offset.
    The track's samples are those of ``time_grid(t0, t1, dt)``, as
    :func:`attractor_track` records them, and the re-run is read at its
    node ``refine * k`` for the track's ``k``-th (:func:`_refined_nodes`).
    ``refine`` must be an integer of at least 2.
    """
    if not (_integer(refine) and refine >= 2):
        raise InvalidInputError(f"refine must be an integer >= 2, got {refine!r}")
    if track.frame != "lab":
        raise InvalidInputError("invariance check expects a lab-frame track")
    fine = time_grid(track.t0, track.final_time, track.dt / refine)
    states = rk4_path(LabField(p, d), float(track.states[0, 0]),
                      float(track.states[0, 1]), fine, record=True)
    d_states = states[_refined_nodes(track.times.size, refine, fine.size)] - track.states
    return float(np.max(np.hypot(d_states[:, 0], d_states[:, 1])))


def _refined_nodes(n: int, refine: int, m: int):
    """Where the ``n`` nodes of ``time_grid(t0, t1, dt)`` sit among the ``m``
    of ``time_grid(t0, t1, dt / refine)``: node ``refine * k`` for the
    ``k``-th, and the last for the last, since both grids end on ``t1``
    exactly."""
    return np.append(refine * np.arange(n - 1), m - 1)


def _run_error(times, xs, ys, p: OscillatorParams, d: DriveSchedule, e=None):
    """Bounds on the distance from recorded lab-frame runs to the exact
    solutions through their first samples: ``(at the last node, largest
    within the run)``, one of each per run.

    ``xs`` and ``ys`` hold one run per row (or one run as a 1-D array) at
    ``times``.  On each step the run's cubic Hermite interpolant p has the
    samples as nodes and the lab field there as slopes.  Its residual
    r = p' - f(p, t) is sampled at :data:`_RESIDUAL_THETAS` of every step;
    rho_i is the largest of the three.  Where the leading symmetric
    eigenvalue is at most mu_i around p on step i, the distance e(t) from p
    to the solution obeys e' <= mu_i e + |r| (Lohmiller & Slotine,
    Automatica 34, 1998; Söderlind, "The logarithmic norm", BIT 46, 2006),
    so from ``e`` at the first sample (zero by default),
    ``e_{i+1} <= exp(mu_i h_i) e_i + h_i rho_i`` and e <= ``e_i + h_i rho_i``
    within step i.  mu_i is the closed form
    lambda_1 = eps_gamma (r_p - r) - eps_a, which holds anywhere and needs
    no tube: r is the smallest radius of p on the step, sampled at the step
    ends and the residual points, less ``e_i + h_i rho_i``, and eps_a the
    smallest pull over the step, from its ends and the pull's knots inside
    it (exact for constant, linear and ``previous`` schedules).  With rho_i
    at most rho and mu_i at most mu < 0 throughout the bound is at most
    about rho / |mu|, and a residual confined to a few steps, as at a
    drive-schedule knot between samples, costs only those steps'
    h_i rho_i.  Where mu_i > 0 the bound grows, without limit over a long
    run.  The residual arrays span :data:`_RESIDUAL_CHUNK` steps at a time.
    """
    xs = np.atleast_2d(xs)
    ys = np.atleast_2d(ys)
    e = [0.0] * xs.shape[0] if e is None else list(e)
    worst = [0.0] * xs.shape[0]
    eg = float(p.eps_gamma)
    rp = float(p.r_p)
    last = times.size - 1
    for i0 in range(0, last, _RESIDUAL_CHUNK):
        i1 = min(i0 + _RESIDUAL_CHUNK, last)
        t = times[i0:i1 + 1]
        x = xs[:, i0:i1 + 1]
        y = ys[:, i0:i1 + 1]
        fx, fy = field_lab_array(x, y, t, p, d)
        fx0, fy0, fx1, fy1 = fx[:, :-1], fy[:, :-1], fx[:, 1:], fy[:, 1:]
        h = t[1:] - t[:-1]
        ex = x[:, 1:] - x[:, :-1]
        ey = y[:, 1:] - y[:, :-1]
        r = np.sqrt(x * x + y * y)
        rmin = np.minimum(r[:, :-1], r[:, 1:])
        t, x, y = t[:-1], x[:, :-1], y[:, :-1]
        rho = np.zeros(ex.shape)
        for th in _RESIDUAL_THETAS:
            # Hermite basis: value weights of the far node and of the two
            # slopes, and their derivatives in theta
            w = th * th * (3.0 - 2.0 * th)
            a0 = th * (1.0 - th) * (1.0 - th)
            a1 = th * th * (th - 1.0)
            dw = 6.0 * th * (1.0 - th)
            da0 = (1.0 - th) * (1.0 - 3.0 * th)
            da1 = th * (3.0 * th - 2.0)
            px = x + w * ex + h * (a0 * fx0 + a1 * fx1)
            py = y + w * ey + h * (a0 * fy0 + a1 * fy1)
            gx, gy = field_lab_array(px, py, t + th * h, p, d)
            rx = dw * ex / h + da0 * fx0 + da1 * fx1 - gx
            ry = dw * ey / h + da0 * fy0 + da1 * fy1 - gy
            rho = np.maximum(rho, np.sqrt(rx * rx + ry * ry))
            rmin = np.minimum(rmin, np.sqrt(px * px + py * py))
        hs = h.tolist()
        pulls = _step_min_pull(d, times[i0:i1 + 1]).tolist()
        for m, steps in enumerate((h * rho).tolist()):
            em, wm = e[m], worst[m]
            for hi, si, ri, ai in zip(hs, steps, rmin[m].tolist(), pulls):
                reach = em + si
                if reach > wm:
                    wm = reach
                near = ri - reach if ri > reach else 0.0  # smallest radius within reach
                em = math.exp((eg * (rp - near) - ai) * hi) * em + si
            e[m], worst[m] = em, wm
    return e, worst


def _step_min_pull(d: DriveSchedule, t):
    """The smallest pull over each step between the instants ``t``: at the
    step's ends and at the pull's knots inside it, which is exact for
    constant, linear and ``previous`` schedules."""
    ea = np.asarray(d.eps_a(t), dtype=float)
    low = np.minimum(ea[:-1], ea[1:])
    sched = d.eps_a
    if not sched.is_constant:
        inside = (sched.times > t[0]) & (sched.times < t[-1])
        np.minimum.at(low, np.searchsorted(t, sched.times[inside]) - 1,
                      sched.values[inside])
    return low


def _offending(scan) -> list[tuple[float, float]]:
    """Runs of consecutive non-chronotaxic instants of a scan, as ``(first, last)``."""
    intervals = []
    for bad, run in groupby(scan, key=lambda s: s[2] is None):
        if bad:
            run = list(run)
            intervals.append((run[0][0], run[-1][0]))
    return intervals


def offending_intervals(d: DriveSchedule, p: OscillatorParams, t0: float, t1: float,
                        check_interval: float = 0.5,
                        beta: float = DEFAULT_BETA) -> tuple[int, list[tuple[float, float]]]:
    """Sampled classification prescan: (sample count, intervals failing it).

    Consecutive failing samples merge into one interval ``(first, last)``.
    """
    scan = _scan(d, p, t0, t1, check_interval, beta)
    return len(scan), _offending(scan)


def verify_schedule(d: DriveSchedule, p: OscillatorParams, t0: float, t1: float,
                    dt: float = DEFAULT_VERIFY_DT, check_interval: float = 0.5,
                    beta: float = DEFAULT_BETA) -> VerificationReport:
    """Full chronotaxicity certificate for a drive schedule over ``[t0, t1]``.

    The attractor track steps by ``dt`` (:data:`DEFAULT_VERIFY_DT` by
    default, where :func:`attractor_track` and the integrators default to
    1e-3).  The probe runs (the track's warm-up, the forward ensemble and
    both pullback runs) step by k ``dt``, k the largest integer of at most
    4 whose k ``dt`` keeps RK4 far inside its stability interval on the
    disk the probes start in, and at least 1 (:func:`_probe_stride`); each
    bound counts their own integration error at that step.  The forward
    members run on every k-th node of the track's grid and its last; the
    warm-up on ``time_grid(t0 - window, t0, k dt)``.
    ``check_interval`` spaces the classification
    scan (the schedule knots inside the window join it) and ``beta`` is the
    contraction margin of the scan and of the trapping radius.  A tube is
    sized from :data:`DEFAULT_RADIUS_LADDER` and checked at the default
    sampling of :func:`verify_trapping` (instants 0.1 apart, 720 boundary
    points), around the track and around its warm-up (the run that brings
    the frozen attractor before the window to the track's start).  The
    forward ensemble is :func:`_forward_starts`, and the thresholds are
    :data:`DEFAULT_FORWARD_TOL`, :data:`DEFAULT_PULLBACK_TOL` and
    :data:`DEFAULT_INVARIANCE_TOL`.  The README's design notes derive each
    bound.

    Report fields:

    - ``times_checked`` and ``offending_intervals``: the scan's instants and
      its runs of non-chronotaxic ones; any offending instant ends the
      verification there.
    - ``radius``: the largest ladder rung whose disk around the track stays
      in the contraction region, or ``None``; ``max_lambda_on_A`` and
      ``max_inward_defect``: the largest leading symmetric eigenvalue and
      boundary flux of that disk (of the smallest rung's where no rung
      fits).  The tube certifies where there is a radius and both are < 0.
    - ``forward_defect``: the spread of the forward ensemble at ``t1``.
      Where the track's tube certifies it is a contraction bound taken from
      ``forward_bound_from`` on, which counts the members' own integration
      error and so holds for the exact flow; otherwise it is the spread of
      the numerical members at their step k ``dt``, measured, and
      ``forward_bound_from`` is ``None``.
    - ``pullback_defect``: the gap at ``t0`` of the runs from ``(2, 0)`` at
      ``t0 - 0.75 span`` and ``t0 - span``, likewise a bound for the exact
      flow from ``pullback_bound_from`` on where the warm-up's tube
      certifies, and otherwise measured on the runs at k ``dt``.
    - ``invariance_defect``: a bound on the distance from the track to the
      exact solution through its first sample, at the closed-form
      contraction rate (:func:`_run_error`), whether or not the tube
      certifies; ``None`` where the bound is not finite.
    - ``thresholds``: the three tolerances, by defect.
    - ``chronotaxic``: no failure, a certified tube and every defect within
      its threshold.

    Stage failures are recorded in ``failures``, never raised, in this
    order: the prescan, the tracking, the trapping check (no rung fits, the
    flux is not inward, or it raised), the attraction check and the
    invariance check (a bound that is not finite).  A member's blow-up
    fails the attraction check and leaves the track standing.  Bad input
    is refused with :class:`InvalidInputError` before any work: the window
    must be finite with ``t1 > t0``, ``dt``, ``check_interval`` and
    ``beta`` must be finite and positive, and the track's grid
    ``time_grid(t0, t1, dt)`` must hold at least 3 samples.
    """
    _check_beta(beta)
    samples = time_grid(t0, t1, dt).size
    if samples < 3:
        raise InvalidInputError(f"the track over [{t0!r}, {t1!r}] at dt={dt!r} has "
                                f"{samples} samples; it needs at least 3")
    scan = _scan(d, p, t0, t1, check_interval, beta)
    intervals = _offending(scan)
    failures = ["classification prescan found non-chronotaxic instants"] if intervals else []
    forward = pullback = (None, None)
    invariance = track = None
    if not intervals:
        # the probes run from t0 - span (pullback) or t0 - window (warm-up)
        k = _probe_stride(p, d, t0 - max(t1 - t0, _warmup_window(scan)), t1, dt)
        try:
            warmup, track = _track(d, p, t0, t1, dt, scan, warmup_dt=k * dt)
        except ChronotaxError as exc:
            failures.append(f"attractor tracking failed: {exc}")

    tube = _Tube(track)
    if track is not None:
        try:
            tube = _certify_tube(track, p, d, beta)
            if tube.radius is None:
                failures.append("no ladder radius stays inside the contraction region")
            elif tube.flux >= 0.0:
                failures.append("boundary flux is not strictly inward")
        except ChronotaxError as exc:
            failures.append(f"trapping check failed: {exc}")
        try:
            # every k-th node of the track's grid, and its last
            n = track.times.size
            defect = _tube_defect(p, d, _forward_starts(), tube, DEFAULT_FORWARD_TOL,
                                  np.append(np.arange(0, n - 1, k), n - 1))
            warm = _certify_tube(warmup, p, d, beta)
            # set together, so that a pullback blow-up leaves both unset
            forward, pullback = defect, _pullback_tube_defect(p, d, warm, t1 - t0)
        except ChronotaxError as exc:
            failures.append(f"attraction check failed: {exc}")
        invariance = _run_error(track.times, track.states[:, 0], track.states[:, 1], p, d)[1][0]
        if not math.isfinite(invariance):
            failures.append("invariance check failed: the bound is not finite")
            invariance = None

    return VerificationReport(
        chronotaxic=(not failures and tube.certified and forward[0] <= DEFAULT_FORWARD_TOL
                     and pullback[0] <= DEFAULT_PULLBACK_TOL
                     and invariance <= DEFAULT_INVARIANCE_TOL),
        window=(t0, t1), dt=dt, beta=beta, times_checked=len(scan),
        offending_intervals=intervals, radius=tube.radius, max_lambda_on_A=tube.rate,
        max_inward_defect=tube.flux, forward_defect=forward[0],
        forward_bound_from=forward[1], pullback_defect=pullback[0],
        pullback_bound_from=pullback[1], invariance_defect=invariance,
        thresholds={"forward": DEFAULT_FORWARD_TOL, "pullback": DEFAULT_PULLBACK_TOL,
                    "invariance": DEFAULT_INVARIANCE_TOL},
        failures=failures,
    )
