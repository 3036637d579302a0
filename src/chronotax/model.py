"""Driven Poincare oscillator: parameters, states, drive schedules, vector fields.

The system is a planar isochronous limit-cycle oscillator pulled toward a
point that moves on a circle of radius ``r_p`` with instantaneous angular
velocity ``omega_p(t)`` and time-dependent pull strength ``eps_a(t)``.  In
the frame co-rotating with the drive point the same dynamics reads as a
radius / relative-phase system.

Everything in this module is a pure function of its arguments: the drive
angle is an exact running integral of the frequency schedule, never an
accumulator tied to an integration grid, so restarting an integration at an
intermediate time reproduces the same drive.  Time stepping itself lives in
:mod:`chronotax.integrate`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError, SingularityError

FloatArray = NDArray[np.float64]

#: guard radius below which polar-form expressions are treated as singular
R_MIN = 1e-9

_TWO_PI = 2.0 * math.pi


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidInputError(f"{name} must be finite, got {v!r}")


# --- States ---


@dataclass(frozen=True)
class CartesianState:
    """Point of the plane in laboratory coordinates."""

    x: float
    y: float

    def __post_init__(self):
        _require_finite("state component", self.x, self.y)

    @property
    def radius(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class PolarState:
    """Radius and relative phase in the co-rotating frame.

    ``psi`` is kept as given (it may be unwrapped beyond one turn); only the
    radius is constrained.
    """

    r: float
    psi: float

    def __post_init__(self):
        _require_finite("state component", self.r, self.psi)
        if self.r < 0.0:
            raise InvalidInputError(f"radius must be non-negative, got {self.r}")


def to_polar(s: CartesianState) -> PolarState:
    """Cartesian to polar; the origin maps to (r=0, psi=0)."""
    r = math.hypot(s.x, s.y)
    psi = math.atan2(s.y, s.x) if r > 0.0 else 0.0
    return PolarState(r, psi)


def to_cartesian(s: PolarState) -> CartesianState:
    return CartesianState(s.r * math.cos(s.psi), s.r * math.sin(s.psi))


# --- Parameters ---


@dataclass(frozen=True)
class OscillatorParams:
    """Static coefficients of the oscillator.

    eps_gamma
        Radial relaxation stiffness toward the unperturbed cycle radius.
    omega0
        Natural angular velocity of the autonomous oscillator.
    r_p
        Radius of the unperturbed cycle and of the drive-point circle.
    """

    eps_gamma: float
    omega0: float
    r_p: float

    def __post_init__(self):
        _require_finite("parameter", self.eps_gamma, self.omega0, self.r_p)
        if self.eps_gamma <= 0.0:
            raise InvalidInputError(f"eps_gamma must be positive, got {self.eps_gamma}")
        if self.r_p <= 0.0:
            raise InvalidInputError(f"r_p must be positive, got {self.r_p}")


class Schedule:
    """Scalar function of time: a constant, or samples plus an interpolation rule.

    Sampled schedules clamp to their end values outside the sampled range and
    expose :meth:`integral`, the exact running integral of the interpolant
    from time 0.  Exactness matters: the drive angle is accumulated from the
    frequency schedule and must not depend on any integrator grid.
    """

    __slots__ = ("times", "values", "interp", "_cum")

    def __init__(self, times, values, interp: str = "linear"):
        if times is None:
            v = float(values)
            _require_finite("schedule value", v)
            self.times = None
            self.values = v
            self.interp = "constant"
            self._cum = None
            return
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
            raise InvalidInputError(
                "sampled schedule needs matching 1-D times/values with >= 2 samples"
            )
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise InvalidInputError("schedule samples must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise InvalidInputError("schedule times must be strictly increasing")
        if interp not in ("linear", "previous"):
            raise InvalidInputError(f"unknown interpolation rule {interp!r}")
        self.times = t
        self.values = v
        self.interp = interp
        dt = np.diff(t)
        if interp == "linear":
            seg = 0.5 * (v[1:] + v[:-1]) * dt
        else:
            seg = v[:-1] * dt
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])

    # construction -----------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "Schedule":
        return cls(None, value)

    @classmethod
    def sampled(cls, times, values, interp: str = "linear") -> "Schedule":
        return cls(times, values, interp)

    @property
    def is_constant(self) -> bool:
        return self.times is None

    # evaluation -------------------------------------------------------

    def __call__(self, t):
        if self.times is None:
            if np.ndim(t) == 0:
                return self.values
            return np.full(np.shape(t), self.values, dtype=float)
        if self.interp == "linear":
            out = np.interp(t, self.times, self.values)
        else:
            idx = np.searchsorted(self.times, t, side="right") - 1
            idx = np.clip(idx, 0, self.times.size - 1)
            out = self.values[idx]
        if np.ndim(t) == 0:
            return float(out)
        return out

    def _antiderivative(self, t):
        """F(t) with F(times[0]) = 0, exact for the clamped interpolant."""
        ts, vs, cum = self.times, self.values, self._cum
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)

        below = vs[0] * (np.minimum(t_arr, ts[0]) - ts[0])
        above = vs[-1] * (np.maximum(t_arr, ts[-1]) - ts[-1])

        t_in = np.clip(t_arr, ts[0], ts[-1])
        idx = np.clip(np.searchsorted(ts, t_in, side="right") - 1, 0, ts.size - 2)
        off = t_in - ts[idx]
        if self.interp == "linear":
            slope = (vs[idx + 1] - vs[idx]) / (ts[idx + 1] - ts[idx])
            inside = cum[idx] + vs[idx] * off + 0.5 * slope * off * off
        else:
            inside = cum[idx] + vs[idx] * off

        out = below + inside + above
        return float(out[0]) if scalar else out

    def integral(self, t):
        """Exact integral of the schedule from time 0 to ``t`` (``t`` may be negative)."""
        if self.times is None:
            if np.ndim(t) == 0:
                return self.values * float(t)
            return self.values * np.asarray(t, dtype=float)
        return self._antiderivative(t) - self._antiderivative(0.0)

    def __repr__(self):
        if self.times is None:
            return f"Schedule.constant({self.values!r})"
        return (
            f"Schedule.sampled(<{self.times.size} samples on "
            f"[{self.times[0]:g}, {self.times[-1]:g}]>, interp={self.interp!r})"
        )


ScheduleLike = Union[Schedule, float, int]


def as_schedule(value: ScheduleLike) -> Schedule:
    """Coerce a number to a constant schedule; pass schedules through."""
    if isinstance(value, Schedule):
        return value
    try:
        return Schedule.constant(float(value))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInputError):
            raise
        raise InvalidInputError(f"cannot read {value!r} as a schedule") from exc


@dataclass(frozen=True)
class DriveSchedule:
    """Time course of the drive: pull strength, drive frequency, initial drive angle.

    The drive point sits at angle ``alpha_p(t) = alpha0 + integral of
    omega_p`` on the circle of radius ``r_p``.
    """

    eps_a: Schedule
    omega_p: Schedule
    alpha0: float = 0.0

    def __post_init__(self):
        _require_finite("alpha0", self.alpha0)
        ea = self.eps_a
        if ea.is_constant:
            if ea.values < 0.0:
                raise InvalidInputError("eps_a must be non-negative")
        elif np.any(ea.values < 0.0):
            raise InvalidInputError("eps_a schedule has negative samples")

    @classmethod
    def constant(cls, eps_a: float, omega_p: float, alpha0: float = 0.0) -> "DriveSchedule":
        return cls(Schedule.constant(eps_a), Schedule.constant(omega_p), alpha0)

    def alpha_p(self, t):
        """Accumulated drive angle at time ``t``."""
        return self.alpha0 + self.omega_p.integral(t)

    def drive_point(self, t, r_p: float):
        """Laboratory coordinates of the drive point at time ``t``."""
        a = self.alpha_p(t)
        return r_p * np.cos(a), r_p * np.sin(a)


@dataclass(frozen=True)
class FrozenParams:
    """Constant-parameter snapshot used by the steady-state analysis.

    Only the detuning ``delta_omega = omega0 - omega_p`` and the pull
    strength enter the co-rotating dynamics, so a snapshot carries exactly
    those two numbers next to the static coefficients.
    """

    eps_a: float
    delta_omega: float
    params: OscillatorParams

    def __post_init__(self):
        _require_finite("frozen parameter", self.eps_a, self.delta_omega)
        if self.eps_a < 0.0:
            raise InvalidInputError(f"eps_a must be non-negative, got {self.eps_a}")

    def drive(self, alpha0: float = 0.0) -> DriveSchedule:
        """Constant drive realizing this snapshot in the laboratory frame."""
        return DriveSchedule.constant(
            self.eps_a, self.params.omega0 - self.delta_omega, alpha0
        )


# --- Vector fields ---


def pulled_field(x, y, r, eps_gamma, omega, r_p, eps_a, cx, cy):
    """Cartesian velocity of the oscillator pulled toward the point ``(cx, cy)``.

    The one body of the field: ``g x - omega y - eps_a (x - cx)``,
    ``g y + omega x - eps_a (y - cy)`` with ``g = eps_gamma (r_p - r)``.  The
    caller passes the radius ``r`` as ``sqrt(x*x + y*y)`` (``math`` for
    floats, ``numpy`` for arrays), the rounding of the integrators' inlined
    kernels.  The laboratory frame passes ``omega0`` and the drive point
    ``r_p (cos alpha_p, sin alpha_p)``; the frozen co-rotating frame passes
    the detuning and the drive point pinned at ``(r_p, 0)``.
    """
    g = eps_gamma * (r_p - r)
    return g * x - omega * y - eps_a * (x - cx), g * y + omega * x - eps_a * (y - cy)


def pulled_jacobian(x: float, y: float, eps_gamma: float, omega: float, r_p: float,
                    eps_a: float) -> tuple[float, float, float, float]:
    """Jacobian of :func:`pulled_field` at ``(x, y)`` as the entries ``(a, b, c, d)``
    of ``[[a, b], [c, d]]``, with its continuous limit at the origin.

    The drive point does not enter: the pull is linear in the state.
    """
    r = math.hypot(x, y)
    if r == 0.0:
        base = eps_gamma * r_p - eps_a
        return base, -omega, omega, base
    base = eps_gamma * (r_p - r)
    cross = eps_gamma * x * y / r
    return (base - eps_gamma * x * x / r - eps_a, -cross - omega,
            -cross + omega, base - eps_gamma * y * y / r - eps_a)


def field_lab(s: CartesianState, t: float, p: OscillatorParams, d: DriveSchedule):
    """Velocity of the driven oscillator in laboratory Cartesian coordinates."""
    _require_finite("time", t)
    a = float(d.alpha_p(t))
    return pulled_field(s.x, s.y, math.sqrt(s.x * s.x + s.y * s.y), p.eps_gamma,
                        p.omega0, p.r_p, float(d.eps_a(t)), p.r_p * math.cos(a),
                        p.r_p * math.sin(a))


def field_lab_array(x: FloatArray, y: FloatArray, t, p: OscillatorParams,
                    d: DriveSchedule):
    """Vectorized :func:`field_lab` over arrays of positions at instants ``t``
    that broadcast with them (one instant, or one per position).  Each value
    is :func:`field_lab`'s bit for bit: numpy's float64 cos and sin of the
    drive point equal libm's on the tested platforms
    (``test_tape_drive_point_is_libm_cos_and_sin``)."""
    return pulled_field(x, y, np.sqrt(x * x + y * y), p.eps_gamma, p.omega0, p.r_p,
                        d.eps_a(t), *d.drive_point(t, p.r_p))


def field_rotating(s: PolarState, t: float, p: OscillatorParams, d: DriveSchedule,
                   r_min: float = R_MIN):
    """Velocity (dr/dt, dpsi/dt) in the frame co-rotating with the drive point.

    Raises :class:`SingularityError` within ``r_min`` of the origin, where
    the phase rate is undefined.
    """
    _require_finite("time", t)
    if s.r <= r_min:
        raise SingularityError(
            f"rotating-frame field undefined at r={s.r!r} (guard radius {r_min:g})"
        )
    eps_a = float(d.eps_a(t))
    d_omega = p.omega0 - float(d.omega_p(t))
    rdot = -p.eps_gamma * (s.r - p.r_p) * s.r - eps_a * (s.r - p.r_p * math.cos(s.psi))
    psidot = d_omega - eps_a * (p.r_p / s.r) * math.sin(s.psi)
    return rdot, psidot


# --- JSON serialization ---

_PARAM_KEYS = {"eps_gamma", "omega0", "r_p", "eps_a", "omega_p", "alpha0"}
_SCHEDULE_KEYS = {"t", "v", "interp"}


def _schedule_to_obj(s: Schedule):
    if s.is_constant:
        return s.values
    obj = {"t": [float(x) for x in s.times], "v": [float(x) for x in s.values]}
    if s.interp != "linear":
        obj["interp"] = s.interp
    return obj


def _schedule_from_obj(obj, name: str) -> Schedule:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return Schedule.constant(float(obj))
    if isinstance(obj, dict):
        unknown = set(obj) - _SCHEDULE_KEYS
        if unknown:
            raise InvalidInputError(f"unknown keys in {name} schedule: {sorted(unknown)}")
        if "t" not in obj or "v" not in obj:
            raise InvalidInputError(f"{name} schedule needs both 't' and 'v'")
        return Schedule.sampled(obj["t"], obj["v"], obj.get("interp", "linear"))
    raise InvalidInputError(f"{name} must be a number or a {{t, v}} object")


def params_to_dict(p: OscillatorParams, d: DriveSchedule) -> dict:
    """Serializable document holding a parameter set and its drive."""
    return {
        "eps_gamma": p.eps_gamma,
        "omega0": p.omega0,
        "r_p": p.r_p,
        "eps_a": _schedule_to_obj(d.eps_a),
        "omega_p": _schedule_to_obj(d.omega_p),
        "alpha0": d.alpha0,
    }


def params_from_dict(doc: dict) -> tuple[OscillatorParams, DriveSchedule]:
    if not isinstance(doc, dict):
        raise InvalidInputError("parameter document must be a JSON object")
    unknown = set(doc) - _PARAM_KEYS
    if unknown:
        raise InvalidInputError(f"unknown parameter keys: {sorted(unknown)}")
    missing = {"eps_gamma", "omega0", "r_p", "eps_a", "omega_p"} - set(doc)
    if missing:
        raise InvalidInputError(f"missing parameter keys: {sorted(missing)}")
    p = OscillatorParams(float(doc["eps_gamma"]), float(doc["omega0"]), float(doc["r_p"]))
    d = DriveSchedule(
        _schedule_from_obj(doc["eps_a"], "eps_a"),
        _schedule_from_obj(doc["omega_p"], "omega_p"),
        float(doc.get("alpha0", 0.0)),
    )
    return p, d


def save_params(path, p: OscillatorParams, d: DriveSchedule) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(p, d), fh, indent=2)
        fh.write("\n")


def load_params(path) -> tuple[OscillatorParams, DriveSchedule]:
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))
