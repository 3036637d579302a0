"""Numerical certificate of chronotaxicity for a drive schedule.

The certificate assembles four sampling-based checks over a time window:

1. every sampled instant classifies chronotaxic (offending intervals are
   reported otherwise); one scan of the instants classifies each once and
   hands its attractors to the tracking,
2. a moving disk around the tracked attractor stays inside the contraction
   region (the exact supremum of the leading symmetric eigenvalue over the
   disk, at each sampled time) and traps the flow (boundary flux relative
   to the moving center points inward),
3. forward ensembles collapse and pullback evaluations form a Cauchy
   sequence,
4. the track is invariant: re-integrating from its first sample at half the
   step stays on it.

Verdicts are sampling-based in time, not proofs; the report carries every
margin so callers can tighten the sampling.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from itertools import groupby

import numpy as np

from .contraction import DEFAULT_BETA, sym_eigs_radial
from .errors import BlowUpError, ChronotaxError, InvalidInputError
from .integrate import (
    LabField,
    Trajectory,
    _rk4_ensemble,
    _rk4_members,
    pullback,
    rk4_path,
    time_grid,
)
from .model import CartesianState, DriveSchedule, OscillatorParams, field_lab_array
from .steady_state import _scan, _track_start

#: geometric radius ladder for the auto-selected trapping disk
DEFAULT_RADIUS_LADDER = tuple(0.02 * 2.0**k for k in range(8))

DEFAULT_FORWARD_TOL = 1e-6
DEFAULT_PULLBACK_TOL = 1e-6
DEFAULT_INVARIANCE_TOL = 1e-4
#: outer radius of the annulus the forward ensemble starts in
DEFAULT_START_RADIUS = 2.0

MIN_BOUNDARY_SAMPLES = 64


@dataclass(frozen=True)
class TrappingCandidate:
    """A moving disk of fixed radius around a tracked center path."""

    track: Trajectory
    radius: float
    boundary_samples: int = 720

    def __post_init__(self):
        if self.radius <= 0.0:
            raise InvalidInputError("trapping radius must be positive")
        if self.boundary_samples < MIN_BOUNDARY_SAMPLES:
            raise InvalidInputError(
                f"need at least {MIN_BOUNDARY_SAMPLES} boundary samples"
            )
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
    pullback_defect: float | None = None
    invariance_defect: float | None = None
    thresholds: dict[str, float] = dataclass_field(default_factory=dict)
    failures: list[str] = dataclass_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "chronotaxic": self.chronotaxic,
            "window": list(self.window),
            "dt": self.dt,
            "beta": self.beta,
            "times_checked": self.times_checked,
            "offending_intervals": [list(iv) for iv in self.offending_intervals],
            "radius": self.radius,
            "max_lambda_on_A": self.max_lambda_on_A,
            "max_inward_defect": self.max_inward_defect,
            "forward_defect": self.forward_defect,
            "pullback_defect": self.pullback_defect,
            "invariance_defect": self.invariance_defect,
            "thresholds": dict(self.thresholds),
            "failures": list(self.failures),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def _sample_indices(n: int, dt: float, sample_interval: float) -> list[int]:
    """Interior indices (central-differentiable) roughly sample_interval apart."""
    stride = max(1, int(round(sample_interval / dt)))
    idx = list(range(1, n - 1, stride))
    if not idx:
        idx = [n // 2] if n >= 3 else []
    elif idx[-1] != n - 2:
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
    maxima over all samples, so trapping holds when both are < 0.
    """
    track = c.track
    n = track.times.size
    if n < 3:
        raise InvalidInputError(
            "center track needs at least 3 samples for a finite-difference velocity"
        )
    indices = _sample_indices(n, track.dt, sample_interval)
    theta = np.linspace(0.0, 2.0 * math.pi, c.boundary_samples, endpoint=False)
    normal = np.column_stack([np.cos(theta), np.sin(theta)])
    two_dt = 2.0 * track.dt

    max_flux = -math.inf
    for i in indices:
        t = float(track.times[i])
        cx, cy = track.states[i]
        vcx = (track.states[i + 1, 0] - track.states[i - 1, 0]) / two_dt
        vcy = (track.states[i + 1, 1] - track.states[i - 1, 1]) / two_dt
        bx = cx + c.radius * normal[:, 0]
        by = cy + c.radius * normal[:, 1]
        gx, gy = field_lab_array(bx, by, t, p, d)
        flux = np.max((gx - vcx) * normal[:, 0] + (gy - vcy) * normal[:, 1])
        if flux > max_flux:
            max_flux = float(flux)
    return _tube_max_lambda(track, p, d, c.radius, indices), float(max_flux)


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
                           ladder=DEFAULT_RADIUS_LADDER, beta: float = DEFAULT_BETA,
                           sample_interval: float = 0.1) -> float | None:
    """Largest ladder radius whose disk stays inside the contraction region.

    Returns None when even the smallest rung pokes out of the region at some
    sampled time.
    """
    indices = _sample_indices(track.times.size, track.dt, sample_interval)
    best = None
    for radius in sorted(ladder):
        if _tube_max_lambda(track, p, d, radius, indices) <= -beta:
            best = radius
        else:
            break
    return best


def verify_attraction(p: OscillatorParams, d: DriveSchedule, t0: float, t1: float,
                      dt: float, ensemble_size: int = 8, seed: int = 2026,
                      start_radius: float = DEFAULT_START_RADIUS) -> tuple[float, float]:
    """Forward and pullback attraction defects over ``[t0, t1]``.

    Forward: integrates a seeded ensemble of starts scattered in an annulus
    and returns the largest pairwise distance at ``t1``.  The members share
    one grid, so each block's drive tape is built once for all of them, and
    a member whose state equals an earlier member's bit for bit retires
    into it (:func:`chronotax.integrate._rk4_members`).  That is exact
    equality, never a tolerance: the defect is still measured from every
    member's own final state, not bounded.  In :func:`verify_schedule` the
    attractor track runs as member 0 of the same ensemble, so members also
    retire once they meet the track.
    Pullback: runs the same fixed start from two receding start times,
    ``t0 - 0.75 span`` and ``t0 - span``, and returns the gap between their
    evaluations at ``t0`` (the Cauchy defect).
    """
    starts = _forward_starts(ensemble_size, seed, start_radius)
    finals = _rk4_ensemble(LabField(p, d), starts, time_grid(t0, t1, dt), record=False)
    return _spread(finals), _pullback_defect(p, d, t0, t1, dt, start_radius)


def _forward_starts(ensemble_size: int, seed: int, start_radius: float):
    """The forward ensemble's seeded starts, scattered in an annulus."""
    if ensemble_size < 2:
        raise InvalidInputError("need an ensemble of at least 2 starts")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, ensemble_size)
    radii = rng.uniform(0.25 * start_radius, start_radius, ensemble_size)
    return [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]


def _spread(finals) -> float:
    """Largest pairwise distance between the final states ``finals``."""
    finals = np.array(finals)
    diff = finals[:, None, :] - finals[None, :, :]
    return float(np.max(np.hypot(diff[..., 0], diff[..., 1])))


def _pullback_defect(p: OscillatorParams, d: DriveSchedule, t0: float, t1: float,
                     dt: float, start_radius: float) -> float:
    """The pullback Cauchy defect of :func:`verify_attraction`."""
    span = t1 - t0
    prev, last = pullback(CartesianState(start_radius, 0.0),
                          [t0 - span * 0.75, t0 - span], t0, dt, p, d)
    return math.hypot(last.x - prev.x, last.y - prev.y)


def verify_invariance(track: Trajectory, p: OscillatorParams, d: DriveSchedule,
                      refine: int = 2) -> float:
    """Deviation between the track and a re-integration from its first sample.

    The re-integration runs at ``dt/refine`` so it is an independent solve
    (the same step size would retrace the identical arithmetic); the defect
    is the largest state distance at the track's own sample times.  An
    invariant track keeps this at integrator-error level; a track offset
    from the true attractor shows its offset here undiminished.  ``refine``
    must be an integer of at least 2.
    """
    if not (isinstance(refine, numbers.Integral) and refine >= 2):
        raise InvalidInputError(f"refine must be an integer >= 2, got {refine!r}")
    if track.frame != "lab":
        raise InvalidInputError("invariance check expects a lab-frame track")
    t0 = track.t0
    t1 = track.final_time
    fine = time_grid(t0, t1, track.dt / refine)
    states = rk4_path(LabField(p, d), float(track.states[0, 0]),
                      float(track.states[0, 1]), fine, record=True)
    pos = np.searchsorted(fine, track.times)
    pos = np.clip(pos, 0, fine.size - 1)
    # snap to the nearer neighbor; the grids share t0 + k*dt up to rounding
    left_ok = pos > 0
    nearer_left = np.where(
        left_ok & (np.abs(fine[np.maximum(pos - 1, 0)] - track.times)
                   < np.abs(fine[pos] - track.times))
    )
    pos[nearer_left] = pos[nearer_left] - 1
    if np.max(np.abs(fine[pos] - track.times)) > 1e-6 * track.dt:
        raise InvalidInputError("refined grid failed to align with the track")
    d_states = states[pos] - track.states
    return float(np.max(np.hypot(d_states[:, 0], d_states[:, 1])))


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
                    dt: float = 1e-3, check_interval: float = 0.5,
                    beta: float = DEFAULT_BETA, boundary_samples: int = 720,
                    sample_interval: float = 0.1, ladder=DEFAULT_RADIUS_LADDER,
                    ensemble_size: int = 8, seed: int = 2026,
                    forward_tol: float = DEFAULT_FORWARD_TOL,
                    pullback_tol: float = DEFAULT_PULLBACK_TOL,
                    invariance_tol: float = DEFAULT_INVARIANCE_TOL) -> VerificationReport:
    """Full chronotaxicity certificate for a drive schedule over ``[t0, t1]``.

    Composes the classification prescan, attractor tracking, the auto-sized
    trapping disk, attraction defects, and the invariance defect into one
    report.  One scan classifies each sample instant once; the prescan and
    the tracking both read it.  The track's recorded stretch runs as member
    0 of the forward ensemble of :func:`verify_attraction`, on one drive
    tape per block; members retire once they equal it, or an earlier
    member, bit for bit, so the report equals that of the separate stages.
    Stage failures are recorded in the report, never raised; a member's
    blow-up fails the attraction check and leaves the track standing.
    Bad input is refused before any work: the window must be finite with
    ``t1 > t0``, ``dt``, ``check_interval``, ``sample_interval`` and
    ``beta`` finite and positive, and ``ladder`` must hold finite positive
    radii.
    """
    for name, value in (("dt", dt), ("sample_interval", sample_interval), ("beta", beta)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")
    if not (len(ladder) > 0 and all(math.isfinite(r) and r > 0.0 for r in ladder)):
        raise InvalidInputError(f"ladder must hold finite positive radii, got {ladder!r}")
    thresholds = {
        "forward": forward_tol,
        "pullback": pullback_tol,
        "invariance": invariance_tol,
    }
    scan = _scan(d, p, t0, t1, check_interval, beta)
    times_checked = len(scan)
    intervals = _offending(scan)
    if intervals:
        return VerificationReport(
            chronotaxic=False, window=(t0, t1), dt=dt, beta=beta,
            times_checked=times_checked, offending_intervals=intervals,
            thresholds=thresholds,
            failures=["classification prescan found non-chronotaxic instants"],
        )

    failures: list[str] = []
    radius = None
    max_lam = max_flux = None
    forward = pullback_defect = invariance = None
    track = None
    try:
        start = _track_start(d, p, t0, dt, scan)
        try:
            starts = _forward_starts(ensemble_size, seed, DEFAULT_START_RADIUS)
            starts_error = None
        except Exception as exc:
            # raised where the attraction check runs, so that a failing track
            # is still the one failure reported
            starts, starts_error = [], exc
        # the track's recorded stretch runs as member 0 of the forward ensemble
        times = time_grid(t0, t1, dt)
        outcomes = _rk4_members(LabField(p, d), [start, *starts], times, recorded=1)
        if isinstance(outcomes[0], BlowUpError):
            raise outcomes[0]
        track = Trajectory(t0, dt, times, outcomes[0], frame="lab")
    except ChronotaxError as exc:
        failures.append(f"attractor tracking failed: {exc}")

    if track is not None:
        try:
            radius = select_trapping_radius(track, p, d, ladder, beta, sample_interval)
            probe = radius if radius is not None else min(ladder)
            max_lam, max_flux = verify_trapping(
                TrappingCandidate(track, probe, boundary_samples), p, d, sample_interval
            )
            if radius is None:
                failures.append("no ladder radius stays inside the contraction region")
            elif max_flux >= 0.0:
                failures.append("boundary flux is not strictly inward")
        except ChronotaxError as exc:
            failures.append(f"trapping check failed: {exc}")
        try:
            if starts_error is not None:
                raise starts_error
            if isinstance(outcomes[-1], BlowUpError):
                raise outcomes[-1]
            forward, pullback_defect = (
                _spread(outcomes[1:]),
                _pullback_defect(p, d, t0, t1, dt, DEFAULT_START_RADIUS),
            )
        except ChronotaxError as exc:
            failures.append(f"attraction check failed: {exc}")
        try:
            invariance = verify_invariance(track, p, d)
        except ChronotaxError as exc:
            failures.append(f"invariance check failed: {exc}")

    defects_ok = (
        radius is not None
        and max_flux is not None and max_flux < 0.0
        and max_lam is not None and max_lam < 0.0
        and forward is not None and forward <= forward_tol
        and pullback_defect is not None and pullback_defect <= pullback_tol
        and invariance is not None and invariance <= invariance_tol
    )
    return VerificationReport(
        chronotaxic=bool(defects_ok and not failures),
        window=(t0, t1), dt=dt, beta=beta, times_checked=times_checked,
        offending_intervals=[], radius=radius, max_lambda_on_A=max_lam,
        max_inward_defect=max_flux, forward_defect=forward,
        pullback_defect=pullback_defect, invariance_defect=invariance,
        thresholds=thresholds, failures=failures,
    )
