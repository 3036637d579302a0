"""Fixed-step time integration for the driven oscillator.

Deterministic runs use the classical 4th-order Runge-Kutta scheme on a fixed
grid; stochastic runs use Euler-Maruyama with additive isotropic white noise.
Both land on the requested end time exactly (the last step may be shorter
than ``dt``).  A pullback helper and a two-stage composition check cover the
nonautonomous bookkeeping.

The integrators run one field, the laboratory-frame field of
:class:`LabField`, and evaluate its drive schedules once per block of steps,
as a drive tape, not once per stage.  The tests hold per-call reference
steppers that the tape runs must equal bit for bit.
Runs from several starts on one grid share one tape per block.

Random increments come from a counter-based Philox generator keyed by the
caller's seed, one independent stream per trajectory, so runs are
reproducible bit-for-bit across platforms and process layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import export
from .errors import BlowUpError, InvalidInputError
from .model import (
    CartesianState,
    DriveSchedule,
    FloatArray,
    OscillatorParams,
    PolarState,
)

#: default integrator step
DEFAULT_DT = 1e-3

#: trajectories reaching this radius abort with a blow-up error
BLOWUP_RADIUS = 1e6

_BLOWUP_SQ = BLOWUP_RADIUS * BLOWUP_RADIUS


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white-noise settings: intensity and RNG seed."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise InvalidInputError(f"sigma must be finite and non-negative, got {self.sigma}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution path.

    ``states`` holds rows ``(x, y)`` in the lab frame or ``(r, psi)`` in the
    rotating frame (``psi`` unwrapped).  Sample times are uniform with
    spacing ``dt`` except possibly the final sample, which lands on the
    requested end time exactly.
    """

    t0: float
    dt: float
    times: FloatArray
    states: FloatArray
    frame: str = "lab"

    def __post_init__(self):
        if self.frame not in ("lab", "rotating"):
            raise InvalidInputError(f"unknown frame {self.frame!r}")
        if self.times.ndim != 1 or self.times.size == 0:
            raise InvalidInputError("trajectory must hold at least one sample")
        if self.states.shape != (self.times.size, 2):
            raise InvalidInputError("states must be (n, 2) matching times")
        if self.dt <= 0.0:
            raise InvalidInputError("dt must be positive")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0.0):
            raise InvalidInputError("times must be strictly increasing")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.states))):
            raise InvalidInputError("trajectory samples must be finite")

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self):
        if self.frame == "lab":
            return CartesianState(float(self.states[-1, 0]), float(self.states[-1, 1]))
        return PolarState(float(self.states[-1, 0]), float(self.states[-1, 1]))

    def to_rotating(self, d: DriveSchedule) -> "Trajectory":
        """Convert a lab-frame path to (r, psi) with a continuous unwrapped phase."""
        if self.frame != "lab":
            raise InvalidInputError("to_rotating expects a lab-frame trajectory")
        x = self.states[:, 0]
        y = self.states[:, 1]
        r = np.hypot(x, y)
        phase = np.unwrap(np.arctan2(y, x)) - np.asarray(d.alpha_p(self.times), dtype=float)
        return Trajectory(self.t0, self.dt, self.times, np.column_stack([r, phase]),
                          frame="rotating")

    def to_csv(self, path) -> None:
        """Write ``t,x,y`` or ``t,r,psi`` rows with 15 significant digits."""
        header = "t,x,y" if self.frame == "lab" else "t,r,psi"
        export.write_csv(path, header, [self.times, self.states])


# --- grids and raw steppers ---


def time_grid(t0: float, t1: float, dt: float) -> FloatArray:
    """Sample times ``t0 + k*dt`` closed with ``t1`` exactly."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 >= t0):
        raise InvalidInputError(f"need finite t1 >= t0, got [{t0!r}, {t1!r}]")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInputError(f"dt must be positive and finite, got {dt!r}")
    if t1 == t0:
        return np.array([t0])
    span = t1 - t0
    n = int(math.floor(span / dt + 1e-9))
    times = t0 + dt * np.arange(n + 1, dtype=float)
    if t1 - times[-1] > 1e-9 * dt:
        times = np.append(times, t1)
    else:
        times[-1] = t1
    return times


def rk4_path(field: LabField, x0: float, y0: float, times: FloatArray,
             record: bool = True):
    """Classical Runge-Kutta sweep of ``field`` over ``times``, on its drive tape.

    Returns the full (n, 2) state array when ``record`` is set, otherwise
    only the final ``(x, y)`` pair.  Aborts with :class:`BlowUpError` when
    the state leaves the guard radius or stops being finite.  Any field but
    a :class:`LabField` is refused.
    """
    if not isinstance(field, LabField):
        raise InvalidInputError(f"rk4_path runs a LabField, not {type(field).__name__}")
    return _rk4_ensemble(field, [(x0, y0)], times, record)[0]


def _rk4_ensemble(field: LabField, starts, times: FloatArray, record: bool, stop=None):
    """:func:`rk4_path` of ``field`` from each of ``starts`` over one grid ``times``.

    Returns one result per start, as :func:`rk4_path` returns it.  Each
    block's drive tape is built once and serves every member, so memory
    stays at one block.

    Raises the error that running the members one after another would
    raise: that of the lowest-index member leaving the guard radius, at its
    own time.  Members after it stop there, as their results can no longer
    matter; the members before it run to the end.

    ``stop``, where given, is called after every block but the last while
    no member has left the guard radius, with the grid indices of the
    block's start and end and each member's states at the block's nodes
    after its start, as lists ``(xs, ys)``.  The first value it returns
    that is not ``None`` ends the run and is returned in place of the
    results.
    """
    n = times.size
    states = []
    failed = None
    for x0, y0 in starts:
        try:
            states.append(_start(x0, y0, times[0]))
        except BlowUpError as exc:
            failed = exc
            break
    outs = []
    if record:
        for x, y in states:
            out = np.empty((n, 2), dtype=float)
            out[0, 0] = x
            out[0, 1] = y
            outs.append(out)
    for i0 in range(0, n - 1, TAPE_BLOCK):
        if not states:
            break
        i1 = min(i0 + TAPE_BLOCK, n - 1)
        t = times[i0:i1]
        h = times[i0 + 1:i1 + 1] - t
        tape = field.rk4_tape(t, h)
        paths = []
        for j, (x, y) in enumerate(states):
            xs, ys = _rk4_steps(field, x, y, tape)
            if len(xs) < i1 - i0:
                failed = _blow_up(t[len(xs)] + h[len(xs)])
                del states[j:]
                break
            states[j] = xs[-1], ys[-1]
            paths.append((xs, ys))
            if record:
                outs[j][i0 + 1:i1 + 1, 0] = xs
                outs[j][i0 + 1:i1 + 1, 1] = ys
        if stop is not None and failed is None and i1 < n - 1:
            result = stop(i0, i1, paths)
            if result is not None:
                return result
    if failed is not None:
        raise failed
    return outs if record else states


def em_path(field: LabField, x0: float, y0: float, times: FloatArray, sigma: float,
            rng: np.random.Generator):
    """Euler-Maruyama sweep: drift step plus independent N(0, sigma^2 h) kicks.

    The noise increments for the whole sweep are drawn up front from ``rng``
    in a single shape-(n-1, 2) block, so equal seeds give equal paths.  The
    drift runs on the drive tape of ``field``, a :class:`LabField`, as in
    :func:`rk4_path`.  Returns the (n, 2) state array.
    """
    if not isinstance(field, LabField):
        raise InvalidInputError(f"em_path runs a LabField, not {type(field).__name__}")
    n = times.size
    h = np.diff(times)
    kicks = rng.standard_normal((n - 1, 2)) * (sigma * np.sqrt(h))[:, None]
    out = np.empty((n, 2), dtype=float)
    x, y = _start(x0, y0, times[0])
    out[0, 0] = x
    out[0, 1] = y
    for i0 in range(0, n - 1, TAPE_BLOCK):
        i1 = min(i0 + TAPE_BLOCK, n - 1)
        xs, ys = _em_steps(field, x, y, field.em_tape(times[i0:i1], h[i0:i1]),
                           kicks[i0:i1, 0].tolist(), kicks[i0:i1, 1].tolist())
        if len(xs) < i1 - i0:
            raise _blow_up(times[i0 + len(xs) + 1])
        x, y = xs[-1], ys[-1]
        out[i0 + 1:i1 + 1, 0] = xs
        out[i0 + 1:i1 + 1, 1] = ys
    return out


def _start(x0, y0, t):
    """The start state as floats; refused as a blow-up at ``t`` outside the guard radius."""
    x = float(x0)
    y = float(y0)
    if not (x * x + y * y <= _BLOWUP_SQ):  # NaN fails this test too
        raise _blow_up(t)
    return x, y


def _blow_up(t):
    """The :class:`BlowUpError` of a state leaving the guard radius at ``t``."""
    return BlowUpError(f"trajectory left radius {BLOWUP_RADIUS:g} or became "
                       f"non-finite at t={t:g}", time=float(t))


# --- the laboratory-frame field and its drive tape ---

#: steps per drive-tape block.  It bounds the tape's memory for any run
#: length; at 256 peak RSS stays at the level of per-call drive evaluation,
#: where 1024 raised it by up to about 0.6 MB.
TAPE_BLOCK = 256


class LabField:
    """Laboratory-frame field of the driven oscillator, as the integrators run it.

    The integrators read the drive from a tape: ``eps_a``, ``r_p cos(alpha_p)``
    and ``r_p sin(alpha_p)`` at every stage time of a block of steps, from one
    vectorised schedule evaluation, and step on Python floats with the
    arithmetic of :func:`chronotax.model.pulled_field` inlined.  The steps
    equal, bit for bit, those of the tests' per-call reference steppers with
    the schedules evaluated at every stage.  The drive point comes from
    numpy's float64 ``cos`` and ``sin``, which return libm's values, those of
    ``math.cos`` and ``math.sin``, on the tested platforms;
    ``test_tape_drive_point_is_libm_cos_and_sin`` checks it.
    """

    __slots__ = ("eps_gamma", "omega0", "r_p", "drive")

    def __init__(self, p: OscillatorParams, d: DriveSchedule):
        self.eps_gamma = float(p.eps_gamma)
        self.omega0 = float(p.omega0)
        self.r_p = float(p.r_p)
        self.drive = d

    def _tape(self, t: FloatArray):
        """``(eps_a, r_p cos alpha_p, r_p sin alpha_p)`` at instants ``t`` as float lists."""
        # numpy's float64 cos and sin equal libm's on the tested platforms
        # (test_tape_drive_point_is_libm_cos_and_sin)
        a = np.asarray(self.drive.alpha_p(t), dtype=float)
        rp = self.r_p
        return (
            np.asarray(self.drive.eps_a(t), dtype=float).tolist(),
            (rp * np.cos(a)).tolist(),
            (rp * np.sin(a)).tolist(),
        )

    def rk4_tape(self, t: FloatArray, h: FloatArray):
        """Step widths and the drive at the RK4 stage times ``t``, ``t + h/2``, ``t + h``."""
        m = t.size
        ea, c, s = self._tape(np.concatenate([t, t + 0.5 * h, t + h]))
        m2 = 2 * m
        return (h.tolist(), ea[:m], c[:m], s[:m], ea[m:m2], c[m:m2], s[m:m2],
                ea[m2:], c[m2:], s[m2:])

    def em_tape(self, t: FloatArray, h: FloatArray):
        """Step widths and the drive at the step starts ``t``."""
        return (h.tolist(), *self._tape(t))


def _rk4_steps(f: LabField, x: float, y: float, tape):
    """RK4 steps of ``f`` from ``(x, y)`` along ``tape`` (see :meth:`LabField.rk4_tape`).

    Returns the new states as lists ``(xs, ys)``.  They stop short of the
    tape at the first state that leaves the guard radius or stops being
    finite.  Each step's first-stage radius reuses the square that the
    previous step's guard test computed.
    """
    eg = f.eps_gamma
    w0 = f.omega0
    rp = f.r_p
    sqrt = math.sqrt
    blowup_sq = _BLOWUP_SQ
    xs = []
    ys = []
    rr = x * x + y * y
    for h, e1, c1, s1, e2, c2, s2, e4, c4, s4 in zip(*tape):
        hh = 0.5 * h
        r = sqrt(rr)
        g = eg * (rp - r)
        k1x = g * x - w0 * y - e1 * (x - c1)
        k1y = g * y + w0 * x - e1 * (y - s1)
        ax = x + hh * k1x
        ay = y + hh * k1y
        r = sqrt(ax * ax + ay * ay)
        g = eg * (rp - r)
        k2x = g * ax - w0 * ay - e2 * (ax - c2)
        k2y = g * ay + w0 * ax - e2 * (ay - s2)
        ax = x + hh * k2x
        ay = y + hh * k2y
        r = sqrt(ax * ax + ay * ay)
        g = eg * (rp - r)
        k3x = g * ax - w0 * ay - e2 * (ax - c2)
        k3y = g * ay + w0 * ax - e2 * (ay - s2)
        ax = x + h * k3x
        ay = y + h * k3y
        r = sqrt(ax * ax + ay * ay)
        g = eg * (rp - r)
        k4x = g * ax - w0 * ay - e4 * (ax - c4)
        k4y = g * ay + w0 * ax - e4 * (ay - s4)
        h6 = h / 6.0
        x += h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        rr = x * x + y * y
        if not (rr <= blowup_sq):  # NaN fails this test too
            break
        xs.append(x)
        ys.append(y)
    return xs, ys


def _em_steps(f: LabField, x: float, y: float, tape, kx, ky):
    """Euler-Maruyama steps of ``f`` along ``tape`` (see :meth:`LabField.em_tape`)
    with kicks ``kx``/``ky``; returns the new states as :func:`_rk4_steps` does."""
    eg = f.eps_gamma
    w0 = f.omega0
    rp = f.r_p
    sqrt = math.sqrt
    blowup_sq = _BLOWUP_SQ
    xs = []
    ys = []
    rr = x * x + y * y
    for h, e, c, s, dx, dy in zip(*tape, kx, ky):
        r = sqrt(rr)
        g = eg * (rp - r)
        x, y = (x + (h * (g * x - w0 * y - e * (x - c)) + dx),
                y + (h * (g * y + w0 * x - e * (y - s)) + dy))
        rr = x * x + y * y
        if not (rr <= blowup_sq):  # NaN fails this test too
            break
        xs.append(x)
        ys.append(y)
    return xs, ys


# --- public operations ---


def integrate_det(x0: CartesianState, t0: float, t1: float, dt: float,
                  p: OscillatorParams, d: DriveSchedule) -> Trajectory:
    """Deterministic lab-frame run from ``t0`` to ``t1`` with fixed step ``dt``."""
    times = time_grid(t0, t1, dt)
    states = rk4_path(LabField(p, d), x0.x, x0.y, times, record=True)
    return Trajectory(t0, dt, times, states, frame="lab")


def integrate_sde(x0: CartesianState, t0: float, t1: float, dt: float,
                  p: OscillatorParams, d: DriveSchedule, noise: NoiseSpec) -> Trajectory:
    """Stochastic lab-frame run; drift as in :func:`integrate_det`, additive noise.

    Each step adds an independent ``N(0, sigma^2 * h)`` increment to both
    coordinates after the drift update.  The generator is Philox keyed by
    ``noise.seed``: one seed, one stream, one trajectory.
    """
    times = time_grid(t0, t1, dt)
    rng = np.random.Generator(np.random.Philox(noise.seed))
    states = em_path(LabField(p, d), x0.x, x0.y, times, noise.sigma, rng)
    return Trajectory(t0, dt, times, states, frame="lab")


def pullback(x0: CartesianState, t_start_list: Sequence[float], t_eval: float,
             dt: float, p: OscillatorParams, d: DriveSchedule) -> list[CartesianState]:
    """States at ``t_eval`` of runs launched from ``x0`` at receding start times.

    ``t_start_list`` must be strictly decreasing with every entry below
    ``t_eval``; the returned list is index-aligned with it.
    """
    starts = [float(s) for s in t_start_list]
    if len(starts) == 0:
        raise InvalidInputError("t_start_list must be non-empty")
    if any(s >= t_eval for s in starts):
        raise InvalidInputError("every start time must precede t_eval")
    if any(b >= a for a, b in zip(starts, starts[1:])):
        raise InvalidInputError("start times must be strictly decreasing")
    field = LabField(p, d)
    out = []
    for s in starts:
        times = time_grid(s, t_eval, dt)
        x, y = rk4_path(field, x0.x, x0.y, times, record=False)
        out.append(CartesianState(x, y))
    return out


def cocycle_check(x0: CartesianState, t0: float, t1: float, t2: float, dt: float,
                  p: OscillatorParams, d: DriveSchedule) -> float:
    """Defect of running ``t0 -> t2`` against ``t0 -> t1`` then ``t1 -> t2``.

    For ``t1`` on the step grid of the direct run the two step sequences
    coincide and the defect is at rounding level; off-grid ``t1`` introduces
    one truncated step and the defect is bounded by the one-step error.
    """
    if not (t0 <= t1 <= t2 and t0 < t2):
        raise InvalidInputError("need t0 <= t1 <= t2 with t0 < t2")
    field = LabField(p, d)
    xa, ya = rk4_path(field, x0.x, x0.y, time_grid(t0, t2, dt), record=False)
    xm, ym = rk4_path(field, x0.x, x0.y, time_grid(t0, t1, dt), record=False)
    xb, yb = rk4_path(field, xm, ym, time_grid(t1, t2, dt), record=False)
    return math.hypot(xa - xb, ya - yb)
