"""Rotating-frame steady states of the driven oscillator at frozen parameters.

Covers: fixed points of the co-rotating flow, saddle-node continuation along
the pull strength, tracing of the attracting closed curve, chronotaxicity
classification, parameter-plane region maps, and tracking of the
time-dependent point attractor by pullback integration.

In co-rotating Cartesian coordinates (u, v) the frozen field is

    du/dt = eps_gamma (r_p - r) u - delta_omega v - eps_a (u - r_p)
    dv/dt = eps_gamma (r_p - r) v + delta_omega u - eps_a v

with the drive point pinned at (r_p, 0).  Write k = eps_gamma (r_p - r) -
eps_a for the net radial rate.  A fixed point solves the linear system
k u - delta_omega v = -eps_a r_p, delta_omega u + k v = 0, so

    (u, v) = eps_a r_p (-k, delta_omega) / (k^2 + delta_omega^2),

and its radius eps_a r_p / q, q = sqrt(k^2 + delta_omega^2), must equal
(b - k) / eps_gamma with b = eps_gamma r_p - eps_a.  So the fixed points
are the roots k < b of

    G(k) = (b - k) q - eps_gamma eps_a r_p,

each mapping to exactly one point.  Squaring would give the radius quartic
(b - k)^2 (k^2 + delta_omega^2) = (eps_gamma eps_a r_p)^2, which has the
sign of G on k < b; G itself squares nothing, so no detuning or pull is
too small for it.  dG/dk = (b k - 2 k^2 - delta_omega^2) / q, so for b > 0
and b^2 >= 8 delta_omega^2 G falls, rises and falls between the turning
points

    c2 = (b + sqrt(b^2 - 8 delta_omega^2)) / 4,   c1 = delta_omega^2 / (2 c2),

and falls throughout otherwise.  G(-2 eps_a) >= eps_a (eps_gamma r_p +
2 eps_a) > 0 and G(b) < 0 bracket all roots; there are three when
G(c1) < 0 < G(c2) and one otherwise.

Folds.  Write A = eps_gamma r_p.  With b - k = eps_gamma r > 0 the equation
G = 0 solves for the pull, so the fixed points at pull eps_a are the
solutions k < A of

    eps_a = E(k) = (A - k) q / (A + q).

A fold, the double root G = dG/dk = 0 (the turning point c1 or c2 on the
axis), is a critical point of E, because dG/d(eps_a) = -(q + A) < 0.
dE/dk has the sign of

    D(k) = A k (A - k) - q^2 (A + q),   D'(k) = A^2 - 4 A k - 3 k q,

which is negative for k <= 0 and strictly concave on (0, A), where
D(0) <= 0 and D(A) < 0.  So there are two folds or none: the zeros
k1 < k2 of D on either side of the zero of D'.  E has a minimum at k1,
where a saddle-node pair is born as the pull rises (eps_c1 = E(k1)), and a
maximum at k2, where the saddle meets the inner point (eps_c2 = E(k2)).
At delta_omega = 0 the birth sits at zero pull.  E is stationary at both
zeros, so rounding in k barely moves the thresholds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import export, integrate
from .contraction import DEFAULT_BETA, _check_beta, global_contraction_threshold, sym_eigs_radial
from .errors import (
    InvalidInputError,
    NotChronotaxicError,
    TraceFailureError,
)
from .integrate import LabField, Trajectory, rk4_path, time_grid
from .model import (
    DriveSchedule,
    FloatArray,
    FrozenParams,
    OscillatorParams,
    PolarState,
    pulled_jacobian,
)

log = logging.getLogger(__name__)

_TWO_PI = 2.0 * math.pi


class PointKind(str, Enum):
    STABLE_NODE = "stable-node"
    STABLE_FOCUS = "stable-focus"
    SADDLE = "saddle"
    UNSTABLE_NODE = "unstable-node"
    UNSTABLE_FOCUS = "unstable-focus"


_STABLE_KINDS = (PointKind.STABLE_NODE, PointKind.STABLE_FOCUS)


class ChronotaxicClass(str, Enum):
    NOT_CHRONOTAXIC = "not-chronotaxic"
    TYPE_I = "type-I"
    TYPE_II = "type-II"
    TYPE_III = "type-III"
    APPROX_GAMMA = "approx-gamma"
    APPROX_NO_GAMMA = "approx-no-gamma"


#: fixed integer codes for grid storage and CSV round trips
CLASS_CODES = {c: i for i, c in enumerate(ChronotaxicClass)}
CLASSES_BY_CODE = tuple(ChronotaxicClass)

CHRONOTAXIC_CLASSES = frozenset(
    {ChronotaxicClass.TYPE_I, ChronotaxicClass.TYPE_II, ChronotaxicClass.TYPE_III}
)


@dataclass(frozen=True)
class FixedPoint:
    """Equilibrium of the frozen co-rotating flow."""

    location: PolarState
    kind: PointKind
    full_jacobian_eigs: tuple[complex, complex]
    lambda_max_sym: float

    @property
    def uv(self) -> tuple[float, float]:
        return (
            self.location.r * math.cos(self.location.psi),
            self.location.r * math.sin(self.location.psi),
        )

    @property
    def is_stable(self) -> bool:
        return self.kind in _STABLE_KINDS


@dataclass(frozen=True)
class GammaCurve:
    """Attracting closed curve of the frozen rotating flow, when it exists.

    ``points`` is a closed polyline (first row repeated last) in co-rotating
    Cartesian coordinates, oriented so it encircles the origin exactly once.
    A curve through a saddle and a node starts and ends at the saddle and
    has the node as a vertex.  The vertices that :func:`trace_gamma`
    records between the ends of a run are states of its RK4 run, each at
    least sqrt(8 reach_tol r_p) from the one before it.  Chords of that
    length sag at most ``reach_tol`` from the run; the longer chords of fast
    stretches sag more (up to about 5e-5 at the defaults, see
    :func:`trace_gamma`).
    """

    exists: bool
    points: FloatArray | None = None

    def __post_init__(self):
        if self.exists:
            if self.points is None or self.points.shape[0] < 4:
                raise InvalidInputError("an existing curve needs a closed polyline")
            gap = float(np.hypot(*(self.points[0] - self.points[-1])))
            if gap > 1e-6:
                raise InvalidInputError(f"curve endpoints do not close (gap {gap:g})")

    def winding_number(self) -> int:
        if not self.exists:
            return 0
        ang = np.arctan2(self.points[:, 1], self.points[:, 0])
        total = np.sum(np.diff(np.unwrap(ang)))
        return int(round(total / _TWO_PI))

    def to_csv(self, path) -> None:
        export.write_csv(path, "u,v", [self.points[:, 0], self.points[:, 1]])


@dataclass(frozen=True)
class BifurcationResult:
    """Saddle-node thresholds along the pull strength at fixed detuning.

    ``eps_c1``: birth of a saddle plus node pair on the attracting curve;
    ``eps_c2``: annihilation of the saddle with the inner unstable point;
    ``eps_c3``: onset of global contraction.  Absent thresholds are None.
    """

    eps_c1: float | None
    eps_c2: float | None
    eps_c3: float
    delta_omega: float

    def __post_init__(self):
        seq = [v for v in (self.eps_c1, self.eps_c2, self.eps_c3) if v is not None]
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise InvalidInputError(
                f"thresholds out of order: c1={self.eps_c1} c2={self.eps_c2} c3={self.eps_c3}"
            )

    def to_dict(self) -> dict:
        return {
            "eps_c1": self.eps_c1,
            "eps_c2": self.eps_c2,
            "eps_c3": self.eps_c3,
            "delta_omega": self.delta_omega,
        }


def _point_from_uv(fp: FrozenParams, u: float, v: float) -> FixedPoint:
    """The fixed point at ``(u, v)``, its kind and eigenvalues in closed form.

    The net radial rate is k = b - eps_gamma r.  That difference cancels
    where eps_gamma r is near b, which is where |k| is small; there the
    fixed-point identity k = -eps_a r_p u / r^2 keeps its digits.  With
    s = eps_gamma r / 2 the Jacobian has trace 2 (k - s), determinant
    k^2 + delta_omega^2 - 2 s k and discriminant s^2 - delta_omega^2, so its
    eigenvalues are k - s +- sqrt(s^2 - delta_omega^2).  The smaller in
    magnitude is taken as the determinant over the larger, free of
    cancellation, so its sign holds at weak pull, where |k| is far below s.
    """
    p = fp.params
    dw = abs(fp.delta_omega)
    r = math.hypot(u, v)
    b = p.eps_gamma * p.r_p - fp.eps_a
    k = b - p.eps_gamma * r
    if p.eps_gamma * r > 0.5 * b:
        k = -(fp.eps_a * p.r_p / r) * (u / r)
    half = 0.5 * p.eps_gamma * r
    mid = k - half
    disc = (half - dw) * (half + dw)
    if disc >= 0.0:
        root = math.sqrt(disc)
        big = mid + math.copysign(root, mid)
        small = (k * (k - 2.0 * half) + dw * dw) / big if root else mid
        e1, e2 = max(big, small), min(big, small)
        eigs = (complex(e1), complex(e2))
        if e1 < 0.0:
            kind = PointKind.STABLE_NODE
        elif e2 > 0.0:
            kind = PointKind.UNSTABLE_NODE
        else:
            kind = PointKind.SADDLE
    else:
        root = math.sqrt(-disc)
        eigs = (complex(mid, root), complex(mid, -root))
        kind = PointKind.STABLE_FOCUS if mid < 0.0 else PointKind.UNSTABLE_FOCUS
    psi = math.atan2(v, u) if r > 0.0 else 0.0
    lam1, _ = sym_eigs_radial(r, fp.eps_a, fp.params)
    return FixedPoint(PolarState(r, psi), kind, eigs, lam1)


def _frozen(fp: FrozenParams):
    """``(eps_gamma, omega, r_p, eps_a)`` of the frozen co-rotating field: the lab
    field with omega0 -> delta_omega, its drive point pinned at ``(r_p, 0)``."""
    p = fp.params
    return p.eps_gamma, fp.delta_omega, p.r_p, fp.eps_a


def find_fixed_points(fp: FrozenParams) -> list[FixedPoint]:
    """All equilibria of the frozen co-rotating flow.

    Roots G(k) = (b - k) q - eps_gamma eps_a r_p of the module docstring on
    its monotone pieces: G falls on k < c1, rises on (c1, c2) and falls on
    (c2, b), with both turning points in closed form (no turning points:
    one falling piece).  From G(-2 eps_a) > 0 > G(b), the signs at the
    turning points place the roots: one on (c2, b) if G(c1) >= 0, one on
    (-2 eps_a, c1) if G(c2) <= 0, else one on each piece.  A double root
    at a fold is one point, so the count stays odd.  Each root is bisected
    to adjacent floats and mapped to its point
    (u, v) = (eps_a r_p / q) (-k / q, delta_omega / q).  The roots are
    taken in k, not r: under a weak pull the node and saddle near r_p have
    radii within ~sqrt(eps) of each other but well separated rates.
    delta_omega = 0 takes the same path, with c1 = 0.
    Zero pull is the degenerate uncoupled case: the origin is the only
    isolated equilibrium and is reported as unstable.

    Every equilibrium has r <= r_p, so no radius needs a cap: with psi the
    angle from the drive point, the radial balance reads
    eps_gamma (r_p - r) r - eps_a (r - r_p cos psi) = 0, and for r > r_p
    both terms are negative.
    """
    p = fp.params
    ea = fp.eps_a
    dw = fp.delta_omega

    if ea == 0.0:
        return [_point_from_uv(fp, 0.0, 0.0)]

    pull = ea * p.r_p
    b = p.eps_gamma * p.r_p - ea
    gap = p.eps_gamma * pull

    def g(k: float) -> float:  # G(k), the sign of the quartic for k < b
        return (b - k) * math.hypot(k, dw) - gap

    cuts = [-2.0 * ea, b]
    disc = b * b - 8.0 * dw * dw
    if b > 0.0 and disc >= 0.0:
        c2 = 0.25 * (b + math.sqrt(disc))
        c1 = dw * dw / (2.0 * c2)
        if g(c1) >= 0.0:
            cuts = [c2, b]
        elif g(c2) <= 0.0:
            cuts = [-2.0 * ea, c1]
        else:
            cuts = [-2.0 * ea, c1, c2, b]

    points = []
    for lo, hi in zip(cuts, cuts[1:]):
        k = _bisect(g, lo, hi) or math.ulp(0.0)  # 0 brackets a root in (0, ulp(0)]
        q = math.hypot(k, dw)
        r = pull / q
        points.append(_point_from_uv(fp, r * (-k / q), r * (dw / q)))
    points.sort(key=lambda q: q.location.r)
    return points


# --- continuation ---


def _bisect(f, lo: float, hi: float) -> float:
    """A sign change of ``f`` between ``lo`` and ``hi``, narrowed to adjacent floats."""
    up = f(lo) > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if (f(mid) > 0.0) == up:
            lo = mid
        else:
            hi = mid


def _folds(p: OscillatorParams, delta_omega: float) -> tuple[float, float] | None:
    """Pull strengths of the birth and the annihilation fold, or None without folds.

    The zeros of D on either side of its maximum, the zero of D'; see the
    module docstring.
    """
    a = p.eps_gamma * p.r_p
    dw = abs(delta_omega)

    def rise(k: float) -> float:  # D(k), the sign of dE/dk
        q = math.hypot(k, dw)
        return a * k * (a - k) - q * q * (a + q)

    def pull(k: float) -> float:  # E(k)
        q = math.hypot(k, dw)
        return (a - k) * q / (a + q)

    top = _bisect(lambda k: a * a - 4.0 * a * k - 3.0 * k * math.hypot(k, dw), 0.0, a)
    if not rise(top) > 0.0:
        return None
    birth = pull(_bisect(rise, 0.0, top))
    death = pull(_bisect(rise, top, a))
    # near the cusp the two can round to one value: no pair survives
    return (birth, death) if birth < death else None


def continuation_sweep(delta_omega: float, eps_a_range: tuple[float, float],
                       step: float, p: OscillatorParams) -> BifurcationResult:
    """Saddle-node thresholds along the pull strength at fixed detuning.

    The pair-creation (1 -> 3 points) and annihilation (3 -> 1) thresholds
    are the folds of the module docstring, exact to rounding; the
    global-contraction threshold is analytic.  Thresholds outside
    ``eps_a_range`` come back as None.  ``step`` is unused; it is still
    checked (positive and below the range) for the callers that pass it.
    """
    lo, hi = (float(eps_a_range[0]), float(eps_a_range[1]))
    if not (0.0 < lo < hi < math.inf):
        raise InvalidInputError("eps_a_range must satisfy 0 < lo < hi < inf")
    if not (0.0 < step < (hi - lo)):
        raise InvalidInputError("step must be positive and smaller than the range")
    if not math.isfinite(delta_omega):
        raise InvalidInputError(f"delta_omega must be finite, got {delta_omega!r}")

    folds = _folds(p, delta_omega) or (None, None)
    eps_c1, eps_c2 = (e if e is not None and lo <= e <= hi else None for e in folds)
    return BifurcationResult(eps_c1, eps_c2, global_contraction_threshold(p), delta_omega)


# --- attracting closed curve ---


def _frozen_lab_field(fp: FrozenParams) -> LabField:
    """The frozen co-rotating field as a lab field: omega0 -> delta_omega, drive at angle 0.

    ``r_p cos(0) == r_p`` and ``r_p sin(0) == 0`` exactly, so the integrators'
    kernel computes with it the numbers of :func:`pulled_field` at the drive
    point ``(r_p, 0)``.
    """
    eg, dw, rp, ea = _frozen(fp)
    return LabField(OscillatorParams(eg, dw, rp), DriveSchedule.constant(ea, 0.0))


#: bounds on the distance from a saddle or node within which a manifold
#: branch is taken to follow its eigenline: no branch starts closer than
#: 1e-6 to the saddle, and no straight end segment is longer than 1e-2
_LINEAR_REACH = (1e-6, 1e-2)


def _eigvec(jac, lam: float) -> tuple[float, float]:
    """Unit eigenvector of the 2x2 matrix ``jac = (a, b, c, d)`` (row-major) for
    its real eigenvalue ``lam``.

    Both rows of ``jac - lam I`` give a candidate; the longer one is kept.
    """
    a, b, c, d = jac
    x, y = b, lam - a
    x2, y2 = lam - d, c
    if math.hypot(x2, y2) > math.hypot(x, y):
        x, y = x2, y2
    n = math.hypot(x, y)
    return x / n, y / n


def _linear_reach(fp: FrozenParams, point: FixedPoint, along: int,
                  tol: float) -> tuple[float, tuple[float, float]]:
    """How far from ``point`` its invariant curve tangent to an eigenvector stays
    within ``tol`` of that eigenline, and the unit eigenvector.

    ``along`` indexes the point's eigenvalue whose eigenvector is followed.
    Writing the curve as x = x0 + s e + c s^2 f over the unit eigenvectors e
    (eigenvalue lam_e) and f (lam_f), invariance gives c = B / 2 (2 lam_e -
    lam_f), where B is the f-component of the frozen field's second
    derivative D2F[e, e] = -eps_gamma [(1 - (x^.e)^2) x^ + 2 (x^.e) e], x^
    the unit radius vector.  Only the x^ term has an f-component:
    |B| = eps_gamma (1 - (x^.e)^2)^(3/2) / |e x f|.  The curve stays within
    |c| s^2 <= tol of its eigenline for s <= sqrt(tol / |c|), clamped to
    :data:`_LINEAR_REACH`.
    """
    lam_e = point.full_jacobian_eigs[along].real
    lam_f = point.full_jacobian_eigs[1 - along].real
    u, v = point.uv
    eg, dw, rp, ea = _frozen(fp)
    jac = pulled_jacobian(u, v, eg, dw, rp, ea)
    ex, ey = _eigvec(jac, lam_e)
    fx, fy = _eigvec(jac, lam_f)
    r = math.hypot(u, v)
    s = (u * ex + v * ey) / r
    half_b = 0.5 * fp.params.eps_gamma * max(0.0, 1.0 - s * s) ** 1.5
    den = abs(ex * fy - ey * fx) * abs(2.0 * lam_e - lam_f)  # |c| = half_b / den
    lo, hi = _LINEAR_REACH
    reach = math.sqrt(tol * den / half_b) if half_b > 0.0 else hi
    return min(max(reach, lo), hi), (ex, ey)


def _march(field: LabField, start, dt: float, max_time: float, stride: int,
           spacing: float, arrive, what: str):
    """The polyline of an RK4 run with step ``dt`` of the stand-still ``field``
    from ``start`` until ``arrive`` says so.

    The run steps one drive-tape block at a time.  ``arrive(u, v, xs, ys)``
    sees a block's states and the state ``(u, v)`` before them, and returns
    ``None`` or ``(j, end)``: the block index of the arrival state and the
    last vertex.  Before it, every ``stride``-th state is recorded when it
    lies at least ``spacing`` from the last recorded one.  A run that has
    not arrived within ``max_time / dt`` states (rounded up) fails as
    ``what``.
    """
    x, y = integrate._start(start[0], start[1], 0.0)
    tape = field.rk4_tape(np.zeros(integrate.TAPE_BLOCK),
                          np.full(integrate.TAPE_BLOCK, float(dt)))
    limit = max_time / dt  # the states allowed are those before this index
    gap2 = spacing * spacing
    lu, lv = x, y
    pts = [start]
    k = 0  # states before the block
    while True:
        xs, ys = integrate._rk4_steps(field, x, y, tape)
        if len(xs) < integrate.TAPE_BLOCK:
            raise integrate._blow_up((k + len(xs) + 1) * dt)
        if k + len(xs) > limit:
            xs, ys = xs[:math.ceil(limit) - k], ys[:math.ceil(limit) - k]
        end = arrive(x, y, xs, ys)
        for i in range(-(k + 1) % stride, len(xs) if end is None else end[0], stride):
            u, v = xs[i], ys[i]
            if (u - lu) ** 2 + (v - lv) ** 2 >= gap2:
                pts.append((u, v))
                lu, lv = u, v
        if end is not None:
            pts.append(end[1])
            return np.array(pts)
        if len(xs) < integrate.TAPE_BLOCK:  # cut short by the time limit
            raise TraceFailureError(f"{what} within {max_time:g} time units")
        k += len(xs)
        x, y = xs[-1], ys[-1]


def _node_arrival(node, reach_tol: float, slow):
    """Arrival test of a manifold branch for :func:`_march`: the first state
    within ``reach_tol`` of ``node`` or, given the node's slow eigenline as
    ``slow = (radius, (ex, ey))``, within that radius of the node and within
    ``reach_tol / 4`` of the line.  A zero radius leaves only the first test."""
    tu, tv = node
    rho, (ex, ey) = slow

    def arrive(u, v, xs, ys):
        du = np.array(xs) - tu
        dv = np.array(ys) - tv
        d2 = du * du + dv * dv
        on_line = np.abs(du * ey - dv * ex) < 0.25 * reach_tol
        hits = np.flatnonzero((d2 < reach_tol * reach_tol) | ((d2 < rho * rho) & on_line))
        if hits.size == 0:
            return None
        j = int(hits[0])
        return j, (xs[j], ys[j])

    return arrive


def _turn_arrival(start):
    """Arrival test of the invariant circle for :func:`_march`: the state
    at which the accumulated polar angle from ``start`` passes one full
    turn, ending on the interpolated crossing."""
    prev = math.atan2(start[1], start[0])
    acc = 0.0

    def arrive(u, v, xs, ys):
        nonlocal prev, acc
        for j, (un, vn) in enumerate(zip(xs, ys)):
            theta = math.atan2(vn, un)
            dth = theta - prev
            if dth > math.pi:
                dth -= _TWO_PI
            elif dth < -math.pi:
                dth += _TWO_PI
            if abs(acc) < _TWO_PI <= abs(acc + dth):
                frac = (_TWO_PI - abs(acc)) / abs(dth)
                return j, (u + frac * (un - u), v + frac * (vn - v))
            acc += dth
            prev = theta
            u, v = un, vn
        return None

    return arrive


def trace_gamma(fp: FrozenParams, dt: float = 1e-3, max_time: float = 1e4,
                close_tol: float = 1e-6, reach_tol: float = 1e-7) -> GammaCurve:
    """Trace the attracting closed curve of the frozen rotating flow.

    Strategy by fixed-point structure: with three equilibria the curve is the
    closure of the saddle's unstable manifold (both branches end at the
    node); with a single unstable equilibrium it is the attracting invariant
    circle reached by forward integration; with a single stable equilibrium
    no such curve exists.  Zero pull gives the unperturbed circle exactly.

    Both ends of a manifold branch are linear (stable and unstable manifold
    theorem).  Each branch starts on the saddle's unstable eigenline, as far
    out as the manifold stays within ``reach_tol / 4`` of it, and stops once
    it is that close to the node's slow eigenline and inside the matching
    radius (or within ``reach_tol`` of a node without a slow line, a
    focus); the saddle and the node are vertices, joined to the branches by
    straight segments.  The invariant circle is approached for 30 e-folds of
    its radial rate eps_gamma r_p, then followed for one turn, which must
    close within ``close_tol`` (the transient doubles on a retry).  Both
    shapes run one fixed-step RK4 march; only its arrival test differs.

    ``max_time`` bounds each run, a branch or a turn, to ``max_time / dt``
    RK4 steps (rounded up, the transient not counted): a run that has not
    arrived by then raises :class:`TraceFailureError`.

    Every ``0.01 / dt``-th state of a run becomes a vertex when it lies at
    least sqrt(8 reach_tol r_p) from the previous vertex.  ``reach_tol``
    bounds the linear ends and the short chords: on a curve whose curvature
    stays below 1 / r_p a chord of that minimum length sags at most
    ``reach_tol``.  It does not bound the longer chords of the fast
    stretches, where 0.01 time units cover more than the minimum gap; at
    the defaults these sag up to about 5e-5 from the RK4 path (measured
    5.4e-5 just below eps_c2 at delta_omega = 0.5, eps_gamma = 7, r_p = 1).
    ``dt``, ``max_time``, ``close_tol`` and ``reach_tol`` must be finite and
    positive, and ``reach_tol`` at most r_p / 8: beyond that the minimum gap
    exceeds r_p, where the chord bound no longer holds.
    """
    for name, value in (("dt", dt), ("max_time", max_time), ("close_tol", close_tol),
                        ("reach_tol", reach_tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")
    p = fp.params
    if reach_tol > p.r_p / 8.0:
        raise InvalidInputError(
            f"reach_tol must be at most r_p / 8 = {p.r_p / 8.0:g}, got {reach_tol!r}"
        )
    if fp.eps_a == 0.0:
        ang = np.linspace(0.0, _TWO_PI, 257)
        pts = np.column_stack([p.r_p * np.cos(ang), p.r_p * np.sin(ang)])
        pts[-1] = pts[0]
        return GammaCurve(True, pts)

    points = find_fixed_points(fp)
    stable = [q for q in points if q.is_stable]
    saddles = [q for q in points if q.kind == PointKind.SADDLE]
    field = _frozen_lab_field(fp)
    stride = max(1, int(round(0.01 / dt)))
    spacing = math.sqrt(8.0 * reach_tol * p.r_p)

    if len(points) == 3 and saddles and stable:
        saddle = saddles[0]
        node = min(stable, key=lambda q: q.lambda_max_sym)
        su, sv = saddle.uv
        nu, nv = node.uv
        # eigenvalues come largest first: the saddle's unstable one, then a
        # stable node's slow one; a focus has no slow line
        delta, (eu, ev) = _linear_reach(fp, saddle, 0, 0.25 * reach_tol)
        slow = (_linear_reach(fp, node, 0, 0.25 * reach_tol)
                if node.kind == PointKind.STABLE_NODE else (0.0, (0.0, 0.0)))
        arrive = _node_arrival((nu, nv), reach_tol, slow)
        first, second = (
            _march(field, (su + sgn * delta * eu, sv + sgn * delta * ev), dt, max_time,
                   stride, spacing, arrive, "manifold branch did not reach the node")
            for sgn in (1.0, -1.0))
        pts = np.vstack([[[su, sv]], first, [[nu, nv]], second[::-1], [[su, sv]]])
        curve = GammaCurve(True, pts)
    elif len(points) == 1 and not stable:
        # transient onto the attracting circle, then one full turn
        u, v = 1.2 * p.r_p, 0.0
        transient = 30.0 / (p.eps_gamma * p.r_p)
        last_err = None
        curve = None
        for _ in range(3):
            times = time_grid(0.0, transient, dt)
            u, v = rk4_path(field, u, v, times, record=False)
            try:
                pts = _march(field, (u, v), dt, max_time, stride, spacing,
                             _turn_arrival((u, v)), "no full turn")
            except TraceFailureError as exc:
                last_err = exc
                transient *= 2.0
                continue
            gap = math.hypot(pts[0, 0] - pts[-1, 0], pts[0, 1] - pts[-1, 1])
            if gap <= close_tol:
                pts[-1] = pts[0]
                curve = GammaCurve(True, pts)
                break
            u, v = pts[-1]
            transient *= 2.0
            last_err = TraceFailureError(f"turn failed to close (gap {gap:g})")
        if curve is None:
            raise last_err or TraceFailureError("invariant circle tracing failed")
    else:
        return GammaCurve(False, None)

    w = curve.winding_number()
    if abs(w) != 1:
        raise TraceFailureError(f"traced curve winds {w} times around the origin")
    return curve


# --- classification ---


def gamma_exists_structural(fp: FrozenParams,
                            points: list[FixedPoint] | None = None) -> bool:
    """Existence of the attracting closed curve from fixed-point structure alone.

    Zero pull keeps the unperturbed circle.  Three equilibria mean the pair
    born on the curve still exists, so the curve does; a single unstable
    equilibrium leaves the attracting circle around it; a single stable
    equilibrium means the curve has been destroyed.
    """
    if fp.eps_a == 0.0:
        return True
    pts = find_fixed_points(fp) if points is None else points
    if len(pts) == 3 and any(q.kind == PointKind.SADDLE for q in pts):
        return True
    if len(pts) == 1 and not pts[0].is_stable:
        return True
    return False


def _attractor_class(fp: FrozenParams,
                     beta: float) -> tuple[ChronotaxicClass, FixedPoint | None]:
    """Class of a frozen parameter set and the point attractor it rests on.

    The attractor is the stable equilibrium that contracts fastest (least
    leading symmetric eigenvalue); it is None unless the class is
    chronotaxic.  One fixed-point solve serves both.
    """
    points = find_fixed_points(fp)
    stable = [q for q in points if q.is_stable]
    if not stable:
        return ChronotaxicClass.NOT_CHRONOTAXIC, None
    attractor = min(stable, key=lambda q: q.lambda_max_sym)
    gamma = gamma_exists_structural(fp, points)
    if attractor.lambda_max_sym <= -beta:
        if gamma:
            return ChronotaxicClass.TYPE_I, attractor
        if global_contraction_threshold(fp.params) - fp.eps_a <= -beta:
            return ChronotaxicClass.TYPE_III, attractor
        return ChronotaxicClass.TYPE_II, attractor
    return (ChronotaxicClass.APPROX_GAMMA if gamma
            else ChronotaxicClass.APPROX_NO_GAMMA), None


def classify(fp: FrozenParams, beta: float = DEFAULT_BETA) -> ChronotaxicClass:
    """Chronotaxicity class of a frozen parameter set.

    A class with a point attractor requires a stable equilibrium whose
    largest symmetric eigenvalue clears the margin ``-beta``; the subtype
    records whether the attracting curve coexists, a non-contraction region
    remains, or the whole plane contracts.  ``beta`` must be finite and
    positive.
    """
    _check_beta(beta)
    return _attractor_class(fp, beta)[0]


@dataclass(frozen=True)
class RegionMap:
    """Chronotaxicity classes on a detuning / pull-strength lattice."""

    delta_omegas: FloatArray
    eps_as: FloatArray
    codes: np.ndarray  # (n_delta, n_eps) uint8 indexing CLASSES_BY_CODE
    #: cells labelled not-chronotaxic because their classification raised
    failed: int = 0

    def class_at(self, i: int, j: int) -> ChronotaxicClass:
        return CLASSES_BY_CODE[int(self.codes[i, j])]

    def labels_present(self) -> set[str]:
        return {CLASSES_BY_CODE[int(c)].value for c in np.unique(self.codes)}

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("delta_omega,eps_a,class\n")
            for i, dw in enumerate(self.delta_omegas):
                for j, ea in enumerate(self.eps_as):
                    fh.write(
                        "%.15g,%.15g,%s\n"
                        % (dw, ea, CLASSES_BY_CODE[int(self.codes[i, j])].value)
                    )


def region_map(delta_omega_range: tuple[float, float],
               eps_a_range: tuple[float, float], resolution, p: OscillatorParams,
               beta: float = DEFAULT_BETA) -> RegionMap:
    """Classify a full lattice of frozen parameter sets.

    ``resolution`` is points per axis (int or ``(n_delta, n_eps)``).  Cells
    are classified serially with :func:`classify`.  Cells whose
    classification fails are tagged not-chronotaxic, logged, and counted in
    ``RegionMap.failed``; a bad ``beta`` is refused before the first cell.
    """
    if np.ndim(resolution) == 0:
        nd = ne = int(resolution)
    else:
        nd, ne = (int(v) for v in resolution)
    if nd < 2 or ne < 2:
        raise InvalidInputError("resolution must be at least 2 per axis")
    _check_beta(beta)
    bounds = (*delta_omega_range, *eps_a_range)
    if not all(math.isfinite(float(v)) for v in bounds):
        raise InvalidInputError(f"ranges must be finite, got {bounds!r}")
    dws = np.linspace(float(delta_omega_range[0]), float(delta_omega_range[1]), nd)
    eas = np.linspace(float(eps_a_range[0]), float(eps_a_range[1]), ne)
    if np.any(eas < 0.0):
        raise InvalidInputError("eps_a range must be non-negative")

    codes = np.empty((nd, ne), dtype=np.uint8)
    failed = 0
    for i, dw in enumerate(dws):
        for j, ea in enumerate(eas):
            try:
                cls = classify(FrozenParams(float(ea), float(dw), p), beta=beta)
            except Exception:
                log.warning("classification failed at delta_omega=%g eps_a=%g",
                            dw, ea, exc_info=True)
                cls = ChronotaxicClass.NOT_CHRONOTAXIC
                failed += 1
            codes[i, j] = CLASS_CODES[cls]
    return RegionMap(dws, eas, codes, failed)


# --- attractor tracking ---


def frozen_at(p: OscillatorParams, d: DriveSchedule, t: float) -> FrozenParams:
    """Frozen-parameter snapshot of a drive at instant ``t``."""
    return FrozenParams(
        eps_a=float(d.eps_a(t)),
        delta_omega=p.omega0 - float(d.omega_p(t)),
        params=p,
    )


def _check_times(d: DriveSchedule, t0: float, t1: float, interval: float):
    """Sample instants of ``[t0, t1]``: every ``interval`` from ``t0``, then
    ``t1`` and the schedule knots inside.  Refused unless the window is
    finite with ``t1 > t0`` and ``interval`` is finite and positive."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise InvalidInputError(f"need finite t1 > t0, got [{t0!r}, {t1!r}]")
    if not (math.isfinite(interval) and interval > 0.0):
        raise InvalidInputError(
            f"check_interval must be finite and positive, got {interval!r}")
    ts = np.arange(t0, t1, interval)
    ts = np.append(ts, t1)
    for sched in (d.eps_a, d.omega_p):
        if not sched.is_constant:
            inside = sched.times[(sched.times > t0) & (sched.times < t1)]
            ts = np.concatenate([ts, inside])
    return np.unique(ts)


def _scan(d: DriveSchedule, p: OscillatorParams, t0: float, t1: float,
          interval: float, beta: float):
    """Sample instants of ``[t0, t1]`` as ``(t, class, attractor or None)``."""
    _check_beta(beta)
    return [(t, *_attractor_class(frozen_at(p, d, t), beta))
            for t in _check_times(d, t0, t1, interval).tolist()]


def _warmup_window(scan) -> float:
    """How long before the window the warm-up starts: ten contraction times
    of the slowest instant of a scan whose every instant is chronotaxic, at
    least 10 and at most 500."""
    slowest = min(-attractor.lambda_max_sym for _, _, attractor in scan)
    return min(max(10.0 / slowest, 10.0), 500.0)


def _track(d: DriveSchedule, p: OscillatorParams, t0: float, t1: float, dt: float,
           scan, warmup_dt: float) -> tuple[Trajectory, Trajectory]:
    """The warm-up and the attractor track over ``[t0, t1]``, from a scan whose
    every instant is chronotaxic.  The warm-up runs the frozen attractor a
    pullback window (:func:`_warmup_window`) before ``t0`` forward to ``t0``
    on ``time_grid(t0 - window, t0, warmup_dt)``, recorded from its first
    node at or after ``t0 - (t1 - t0)``, so at ``warmup_dt = dt`` it holds
    at most as many samples as the track.  The track runs from the
    warm-up's last sample on ``time_grid(t0, t1, dt)``.  Raises
    :class:`NotChronotaxicError` when the frozen system at ``t0 - window``,
    before the scanned window, has no stable point."""
    window = _warmup_window(scan)
    fp0 = frozen_at(p, d, t0 - window)
    stable = [q for q in find_fixed_points(fp0) if q.is_stable]
    if not stable:
        raise NotChronotaxicError(f"no stable fixed point at t={t0 - window:g}, where the "
                                  "track's warm-up starts", time=t0 - window)
    u, v = min(stable, key=lambda q: q.lambda_max_sym).uv
    a = float(d.alpha_p(t0 - window))
    x0 = u * math.cos(a) - v * math.sin(a)
    y0 = u * math.sin(a) + v * math.cos(a)
    field = LabField(p, d)
    times = time_grid(t0 - window, t0, warmup_dt)
    i = int(np.searchsorted(times, t0 - (t1 - t0)))
    if i > 0:
        x0, y0 = rk4_path(field, x0, y0, times[:i + 1], record=False)
    times = times[i:]
    warmup = Trajectory(float(times[0]), warmup_dt, times, rk4_path(field, x0, y0, times),
                        "lab")
    x, y = warmup.states[-1].tolist()
    times = time_grid(t0, t1, dt)
    return warmup, Trajectory(t0, dt, times, rk4_path(field, x, y, times), "lab")


def attractor_track(d: DriveSchedule, p: OscillatorParams, t0: float, t1: float,
                    dt: float, check_interval: float = 0.5,
                    beta: float = DEFAULT_BETA) -> Trajectory:
    """Track the time-dependent point attractor over ``[t0, t1]``.

    Requires every sampled instant to classify chronotaxic (refused
    otherwise, naming the offending time).  The track starts from the frozen
    attractor a pullback window before ``t0`` (at least ten contraction
    times, measured from the slowest sampled instant, and at most 500) so
    that by ``t0`` the state carries no memory of the start, then records
    the forward solution; the warm-up steps at ``dt`` too.
    """
    scan = _scan(d, p, t0, t1, check_interval, beta)
    for t, cls, attractor in scan:
        if attractor is None:
            raise NotChronotaxicError(
                f"parameters at t={t:g} classify as {cls.value}", time=t
            )
    return _track(d, p, t0, t1, dt, scan, dt)[1]
