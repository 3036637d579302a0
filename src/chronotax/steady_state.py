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

and its radius eps_a r_p / sqrt(k^2 + delta_omega^2) must equal
(b - k) / eps_gamma with b = eps_gamma r_p - eps_a.  Squaring gives the
radius quartic

    eps_gamma^2 r^4 - 2 eps_gamma b r^3 + (b^2 + delta_omega^2) r^2
        - (eps_a r_p)^2 = 0,

or, in the shifted variable k = b - eps_gamma r,

    (b - k)^2 (k^2 + delta_omega^2) = (eps_gamma eps_a r_p)^2.

Every real root with r > 0 maps to exactly one point.

Folds.  Write F(k) for the left side minus the right side, A = eps_gamma r_p
and q = sqrt(k^2 + delta_omega^2).  With b - k = eps_gamma r > 0 the
equation F = 0 solves for the pull, so the fixed points at pull eps_a are
the solutions k < A of

    eps_a = E(k) = (A - k) q / (A + q).

A fold, the double root F = dF/dk = 0 (dF/dk = 0 reads k^2 - (b - k) k +
delta_omega^2 = 0), is a critical point of E, because dF/d(eps_a) < 0.
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

from . import export
from .contraction import DEFAULT_BETA, global_contraction_threshold, sym_eigs_radial
from .errors import (
    InvalidInputError,
    NotChronotaxicError,
    TraceFailureError,
)
from .integrate import LabField, Trajectory, rk4_blocks, rk4_path, time_grid
from .model import (
    DriveSchedule,
    FloatArray,
    FrozenParams,
    OscillatorParams,
    PolarState,
    pulled_field,
    pulled_jacobian,
)

log = logging.getLogger(__name__)

DEFAULT_R_MAX = 2.5
#: residual bound |dr/dt| + r |dpsi/dt| accepted for a fixed point
RESIDUAL_TOL = 1e-10

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


def _polish_newton(fp: FrozenParams, u: float, v: float, iterations: int = 6):
    eg, dw, rp, ea = _frozen(fp)
    for _ in range(iterations):
        fu, fv = pulled_field(u, v, math.sqrt(u * u + v * v), eg, dw, rp, ea, rp, 0.0)
        a, b, c, d = pulled_jacobian(u, v, eg, dw, rp, ea)
        det = a * d - b * c
        if abs(det) < 1e-12:
            break
        du = (fu * d - fv * b) / det
        dv = (fv * a - fu * c) / det
        u -= du
        v -= dv
        if du * du + dv * dv < 1e-30:
            break
    return u, v


def _residual_polar(fp: FrozenParams, u: float, v: float) -> float:
    """|dr/dt| + r |dpsi/dt| at (u, v)."""
    eg, dw, rp, ea = _frozen(fp)
    fu, fv = pulled_field(u, v, math.sqrt(u * u + v * v), eg, dw, rp, ea, rp, 0.0)
    r = math.hypot(u, v)
    if r == 0.0:
        return math.hypot(fu, fv)
    rdot = (u * fu + v * fv) / r
    rpsidot = (u * fv - v * fu) / r
    return abs(rdot) + abs(rpsidot)


def _zero_detuning_points(b: float, eps_gamma: float, pull: float):
    """The points ``(-pull / k, 0)`` of the k-quartic at delta_omega = 0.

    There the quartic factors into k (b - k) = m with m = +-eps_gamma pull.
    Each quadratic's roots sum to b, so a root's radius (b - k) / eps_gamma
    is its partner root over eps_gamma, and -pull / k = -sign(m) (b - k) /
    eps_gamma.  The large root is taken directly and the small one as m
    over it, so neither the pull nor k is ever squared, and a weak pull
    keeps the small roots that a companion matrix would round to zero.
    """
    points = []
    for m in (eps_gamma * pull, -eps_gamma * pull):
        disc = b * b - 4.0 * m
        if disc < 0.0:
            continue
        big = 0.5 * (b + math.copysign(math.sqrt(disc), b))
        for partner in (m / big, big):  # the partners of big and small
            if partner > 0.0:
                points.append((-math.copysign(partner, m) / eps_gamma, 0.0))
    return points


def find_fixed_points(fp: FrozenParams, r_max: float = DEFAULT_R_MAX,
                      dedupe_tol: float = 1e-8) -> list[FixedPoint]:
    """All equilibria of the frozen co-rotating flow with radius in (0, r_max].

    Solves the radius quartic of the module docstring in the radial rate k
    (companion-matrix eigenvalues via ``np.roots``), maps each real root
    with positive radius to its point in closed form, and polishes it with
    planar Newton steps.  The roots are taken in k, not r: under a weak pull
    the node and saddle near r_p have radii within ~sqrt(eps) of each other
    but well separated rates, while the near-double root in k (the inner
    point and its negative-radius image) maps to a single point either way.
    At delta_omega = 0 the quartic factors into two quadratics, rooted in
    closed form (see :func:`_zero_detuning_points`), so no pull is too weak
    to keep the saddle and node near r_p.  A detuning whose square
    underflows takes the same route: the quartic's coefficients cannot
    tell it from 0.
    Zero pull is the degenerate uncoupled case: the origin is the only
    isolated equilibrium and is reported as unstable.
    """
    p = fp.params
    ea = fp.eps_a
    dw = fp.delta_omega

    if ea == 0.0:
        return [_point_from_uv(fp, 0.0, 0.0)]

    eg = p.eps_gamma
    pull = ea * p.r_p
    b = eg * p.r_p - ea
    if dw * dw == 0.0:
        guesses = _zero_detuning_points(b, eg, pull)
    else:
        roots = np.roots([1.0, -2.0 * b, b * b + dw * dw, -2.0 * b * dw * dw,
                          b * b * dw * dw - (eg * pull) ** 2])
        # real roots with radius r = (b - k) / eps_gamma > 0, both tests loose
        # by the ~sqrt(eps) relative spread of a double root
        spread = 1e-6 * np.abs(roots)
        keep = (np.abs(roots.imag) <= spread) & (roots.real - b <= spread)
        guesses = []
        for k in roots.real[keep].tolist():
            den = k * k + dw * dw
            guesses.append((-pull * k / den, pull * dw / den))

    polished: list[tuple[float, float]] = []
    for u, v in guesses:
        u, v = _polish_newton(fp, u, v)
        r = math.hypot(u, v)
        if not (0.0 < r <= r_max * (1.0 + 1e-9)):
            continue
        if _residual_polar(fp, u, v) > RESIDUAL_TOL:
            continue
        if any((u - a) ** 2 + (v - b) ** 2 < dedupe_tol**2 for a, b in polished):
            continue
        polished.append((u, v))

    points = [_point_from_uv(fp, u, v) for u, v in polished]
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


def _integrate_to_target(field: LabField, start, target, slow, dt: float,
                         max_time: float, reach_tol: float, stride: int,
                         spacing: float):
    """March the rotating flow until it reaches the node ``target``; polyline samples.

    The march stops within ``reach_tol`` of the target or, given the node's
    slow eigenline as ``slow = (radius, (ex, ey))``, within that radius of
    the node and within ``reach_tol / 4`` of the line; the rest of the path
    is then the straight segment into the node.  A zero radius leaves only
    the first stop.  Every ``stride``-th state is
    recorded when it lies at least ``spacing`` from the last recorded one.
    """
    tu, tv = target
    near2 = reach_tol * reach_tol
    rho, (ex, ey) = slow
    rho2 = rho * rho
    line_tol = 0.25 * reach_tol
    gap2 = spacing * spacing
    lu, lv = start
    pts = [start]
    t = 0.0
    k = 0
    for xs, ys in rk4_blocks(field, start[0], start[1], dt):
        for u, v in zip(xs, ys):
            if not t < max_time:
                raise TraceFailureError(
                    f"manifold branch did not reach the node within {max_time:g} time units"
                )
            t += dt
            k += 1
            du = u - tu
            dv = v - tv
            d2 = du * du + dv * dv
            if d2 < near2 or (d2 < rho2 and abs(du * ey - dv * ex) < line_tol):
                pts.append((u, v))
                return np.array(pts)
            if k % stride == 0 and (u - lu) ** 2 + (v - lv) ** 2 >= gap2:
                pts.append((u, v))
                lu, lv = u, v


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
    close within ``close_tol`` (the transient doubles on a retry).

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
        branches = []
        for sgn in (1.0, -1.0):
            start = (su + sgn * delta * eu, sv + sgn * delta * ev)
            branches.append(
                _integrate_to_target(field, start, (nu, nv), slow, dt, max_time,
                                     reach_tol, stride, spacing)
            )
        first, second = branches
        pts = np.vstack(
            [
                np.array([[su, sv]]),
                first,
                np.array([[nu, nv]]),
                second[::-1],
                np.array([[su, sv]]),
            ]
        )
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
                pts = _trace_one_turn(field, (u, v), dt, max_time, stride, spacing)
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


def _trace_one_turn(field: LabField, start, dt: float, max_time: float, stride: int,
                    spacing: float):
    """Integrate until the accumulated polar angle advances one full turn.

    Every ``stride``-th state is recorded when it lies at least ``spacing``
    from the last recorded one; the turn's end is interpolated.
    """
    u, v = start
    prev = math.atan2(v, u)
    acc = 0.0
    gap2 = spacing * spacing
    lu, lv = start
    pts = [(u, v)]
    t = 0.0
    k = 0
    for xs, ys in rk4_blocks(field, u, v, dt):
        for un, vn in zip(xs, ys):
            if not t < max_time:
                raise TraceFailureError(f"no full turn within {max_time:g} time units")
            theta = math.atan2(vn, un)
            dth = theta - prev
            if dth > math.pi:
                dth -= _TWO_PI
            elif dth < -math.pi:
                dth += _TWO_PI
            if abs(acc) < _TWO_PI <= abs(acc + dth):
                # interpolate the crossing of the full turn
                frac = (_TWO_PI - abs(acc)) / abs(dth)
                pts.append((u + frac * (un - u), v + frac * (vn - v)))
                return np.array(pts)
            acc += dth
            prev = theta
            u, v = un, vn
            t += dt
            k += 1
            if k % stride == 0 and (u - lu) ** 2 + (v - lv) ** 2 >= gap2:
                pts.append((u, v))
                lu, lv = u, v


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
    remains, or the whole plane contracts.
    """
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
    ``RegionMap.failed``.
    """
    if np.ndim(resolution) == 0:
        nd = ne = int(resolution)
    else:
        nd, ne = (int(v) for v in resolution)
    if nd < 2 or ne < 2:
        raise InvalidInputError("resolution must be at least 2 per axis")
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
    return [(t, *_attractor_class(frozen_at(p, d, t), beta))
            for t in _check_times(d, t0, t1, interval).tolist()]


def _track_start(d: DriveSchedule, p: OscillatorParams, t0: float, dt: float,
                 scan, max_window: float = 500.0) -> tuple[float, float]:
    """State at ``t0`` of the attractor track, from a scan whose every instant
    is chronotaxic: the frozen attractor a pullback window before ``t0``, run
    forward to ``t0``."""
    slowest = min(-attractor.lambda_max_sym for _, _, attractor in scan)
    window = min(max(10.0 / slowest, 10.0), max_window)

    fp0 = frozen_at(p, d, t0 - window)
    stable = [q for q in find_fixed_points(fp0) if q.is_stable]
    u, v = min(stable, key=lambda q: q.lambda_max_sym).uv
    a = float(d.alpha_p(t0 - window))
    x0 = u * math.cos(a) - v * math.sin(a)
    y0 = u * math.sin(a) + v * math.cos(a)
    return rk4_path(LabField(p, d), x0, y0, time_grid(t0 - window, t0, dt), record=False)


def attractor_track(d: DriveSchedule, p: OscillatorParams, t0: float, t1: float,
                    dt: float, check_interval: float = 0.5,
                    beta: float = DEFAULT_BETA,
                    max_window: float = 500.0) -> Trajectory:
    """Track the time-dependent point attractor over ``[t0, t1]``.

    Requires every sampled instant to classify chronotaxic (refused
    otherwise, naming the offending time).  The track starts from the frozen
    attractor a pullback window before ``t0`` (at least ten contraction
    times, measured from the slowest sampled instant) so that by ``t0`` the
    state carries no memory of the start, then records the forward solution.
    """
    scan = _scan(d, p, t0, t1, check_interval, beta)
    for t, cls, attractor in scan:
        if attractor is None:
            raise NotChronotaxicError(
                f"parameters at t={t:g} classify as {cls.value}", time=t
            )
    x, y = _track_start(d, p, t0, dt, scan, max_window)
    times = time_grid(t0, t1, dt)
    return Trajectory(t0, dt, times, rk4_path(LabField(p, d), x, y, times, record=True),
                      frame="lab")
