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
from .integrate import LabField, Trajectory, make_lab_field, rk4_blocks, rk4_path, time_grid
from .model import (
    DriveSchedule,
    FloatArray,
    FrozenParams,
    OscillatorParams,
    PolarState,
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


# --- frozen rotating-frame field helpers ---


def rotating_field_frozen(fp: FrozenParams):
    """Co-rotating Cartesian field closure (t, u, v) -> (du, dv) at frozen parameters.

    For pointwise evaluation (Newton polishing, residuals); integration runs
    the same arithmetic on the lab-field kernel, see :func:`_frozen_lab_field`.
    """
    eg = fp.params.eps_gamma
    rp = fp.params.r_p
    ea = fp.eps_a
    dw = fp.delta_omega

    def field(t: float, u: float, v: float):
        r = math.sqrt(u * u + v * v)
        g = eg * (rp - r)
        return (g * u - dw * v - ea * (u - rp), g * v + dw * u - ea * v)

    return field


def rotating_jacobian_frozen(fp: FrozenParams, u: float, v: float) -> FloatArray:
    """Jacobian of the frozen co-rotating field; continuous limit at the origin."""
    eg = fp.params.eps_gamma
    rp = fp.params.r_p
    r = math.hypot(u, v)
    if r == 0.0:
        base = eg * rp - fp.eps_a
        return np.array([[base, -fp.delta_omega], [fp.delta_omega, base]])
    base = eg * (rp - r)
    return np.array(
        [
            [base - eg * u * u / r - fp.eps_a, -eg * u * v / r - fp.delta_omega],
            [-eg * u * v / r + fp.delta_omega, base - eg * v * v / r - fp.eps_a],
        ]
    )


def _point_from_uv(fp: FrozenParams, u: float, v: float) -> FixedPoint:
    jac = rotating_jacobian_frozen(fp, u, v)
    tr = jac[0, 0] + jac[1, 1]
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    disc = 0.25 * tr * tr - det
    if disc >= 0.0:
        root = math.sqrt(disc)
        e1 = 0.5 * tr + root
        e2 = 0.5 * tr - root
        eigs = (complex(e1), complex(e2))
        if e1 < 0.0:
            kind = PointKind.STABLE_NODE
        elif e2 > 0.0:
            kind = PointKind.UNSTABLE_NODE
        else:
            kind = PointKind.SADDLE
    else:
        root = math.sqrt(-disc)
        eigs = (complex(0.5 * tr, root), complex(0.5 * tr, -root))
        kind = PointKind.STABLE_FOCUS if tr < 0.0 else PointKind.UNSTABLE_FOCUS
    r = math.hypot(u, v)
    psi = math.atan2(v, u) if r > 0.0 else 0.0
    lam1, _ = sym_eigs_radial(r, fp.eps_a, fp.params)
    return FixedPoint(PolarState(r, psi), kind, eigs, lam1)


def _polish_newton(fp: FrozenParams, u: float, v: float, iterations: int = 6):
    field = rotating_field_frozen(fp)
    for _ in range(iterations):
        fu, fv = field(0.0, u, v)
        jac = rotating_jacobian_frozen(fp, u, v)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(det) < 1e-12:
            break
        du = (fu * jac[1, 1] - fv * jac[0, 1]) / det
        dv = (fv * jac[0, 0] - fu * jac[1, 0]) / det
        u -= du
        v -= dv
        if du * du + dv * dv < 1e-30:
            break
    return u, v


def _residual_polar(fp: FrozenParams, u: float, v: float) -> float:
    """|dr/dt| + r |dpsi/dt| at (u, v)."""
    fu, fv = rotating_field_frozen(fp)(0.0, u, v)
    r = math.hypot(u, v)
    if r == 0.0:
        return math.hypot(fu, fv)
    rdot = (u * fu + v * fv) / r
    rpsidot = (u * fv - v * fu) / r
    return abs(rdot) + abs(rpsidot)


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
    roots = np.roots([1.0, -2.0 * b, b * b + dw * dw, -2.0 * b * dw * dw,
                      b * b * dw * dw - (eg * pull) ** 2])
    # real roots with radius r = (b - k) / eps_gamma > 0, both tests loose by
    # the ~sqrt(eps) spread of a double root
    spread = 1e-6 * np.maximum(1.0, np.abs(roots))
    keep = (np.abs(roots.imag) <= spread) & (roots.real - b <= spread)

    polished: list[tuple[float, float]] = []
    for k in roots.real[keep].tolist():
        den = k * k + dw * dw
        if den == 0.0:  # only when (eps_gamma eps_a r_p)^2 underflows
            continue
        u, v = _polish_newton(fp, -pull * k / den, pull * dw / den)
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


def _count_fixed_points(p: OscillatorParams, delta_omega: float, eps_a: float) -> int:
    fp = FrozenParams(eps_a=eps_a, delta_omega=delta_omega, params=p)
    return len(find_fixed_points(fp))


def continuation_sweep(delta_omega: float, eps_a_range: tuple[float, float],
                       step: float, p: OscillatorParams,
                       tol: float = 1e-4) -> BifurcationResult:
    """Locate the saddle-node thresholds by tracking the fixed-point count.

    Scans a monotone pull-strength grid for count changes and refines each
    by bisection on the count down to ``tol``.  The first 1 -> 3 change is
    the pair-creation threshold, the first 3 -> 1 change the annihilation
    threshold; the global-contraction threshold is analytic.  Thresholds
    outside the range come back as None.
    """
    lo, hi = (float(eps_a_range[0]), float(eps_a_range[1]))
    if not (0.0 < lo < hi):
        raise InvalidInputError("eps_a_range must satisfy 0 < lo < hi")
    if not (0.0 < step < (hi - lo)):
        raise InvalidInputError("step must be positive and smaller than the range")

    grid = np.arange(lo, hi + 0.5 * step, step)
    grid[-1] = min(grid[-1], hi)
    counts = [_count_fixed_points(p, delta_omega, e) for e in grid]

    def refine(a: float, b: float, ca: int, cb: int) -> list[tuple[float, int, int]]:
        if b - a <= tol:
            return [(0.5 * (a + b), ca, cb)]
        mid = 0.5 * (a + b)
        cm = _count_fixed_points(p, delta_omega, mid)
        out = []
        if cm != ca:
            out.extend(refine(a, mid, ca, cm))
        if cm != cb:
            out.extend(refine(mid, b, cm, cb))
        return out

    transitions: list[tuple[float, int, int]] = []
    for i in range(grid.size - 1):
        if counts[i] != counts[i + 1]:
            transitions.extend(
                refine(float(grid[i]), float(grid[i + 1]), counts[i], counts[i + 1])
            )
    transitions.sort(key=lambda tr: tr[0])

    eps_c1 = next((e for e, ca, cb in transitions if ca == 1 and cb == 3), None)
    eps_c2 = next((e for e, ca, cb in transitions if ca == 3 and cb == 1), None)
    for e, ca, cb in transitions:
        if (ca, cb) not in ((1, 3), (3, 1)):
            log.warning(
                "unclassified fixed-point count change %d -> %d near eps_a=%.6g", ca, cb, e
            )
    return BifurcationResult(eps_c1, eps_c2, global_contraction_threshold(p), delta_omega)


# --- attracting closed curve ---


def _frozen_lab_field(fp: FrozenParams) -> LabField:
    """The frozen co-rotating field as a lab field: omega0 -> delta_omega, drive at angle 0.

    ``r_p cos(0) == r_p`` and ``r_p sin(0) == 0`` exactly, so the integrators'
    kernel computes with it the same numbers as :func:`rotating_field_frozen`.
    """
    p = fp.params
    return make_lab_field(OscillatorParams(p.eps_gamma, fp.delta_omega, p.r_p),
                          DriveSchedule.constant(fp.eps_a, 0.0))


def _integrate_to_target(field: LabField, start, target, dt: float, max_time: float,
                         reach_tol: float, stride: int):
    """March the rotating flow until within reach_tol of target; polyline samples."""
    tu, tv = target
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
            if k % stride == 0:
                pts.append((u, v))
            if (u - tu) ** 2 + (v - tv) ** 2 < reach_tol * reach_tol:
                pts.append((u, v))
                return np.array(pts)


def trace_gamma(fp: FrozenParams, dt: float = 1e-3, max_time: float = 1e4,
                close_tol: float = 1e-6, reach_tol: float = 1e-7) -> GammaCurve:
    """Trace the attracting closed curve of the frozen rotating flow.

    Strategy by fixed-point structure: with three equilibria the curve is the
    closure of the saddle's unstable manifold (both branches end at the
    node); with a single unstable equilibrium it is the attracting invariant
    circle reached by forward integration; with a single stable equilibrium
    no such curve exists.  Zero pull gives the unperturbed circle exactly.
    """
    p = fp.params
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

    if len(points) == 3 and saddles and stable:
        saddle = saddles[0]
        node = min(stable, key=lambda q: q.lambda_max_sym)
        su, sv = saddle.uv
        nu, nv = node.uv
        jac = rotating_jacobian_frozen(fp, su, sv)
        w, vecs = np.linalg.eig(jac)
        iu = int(np.argmax(w.real))
        direction = vecs[:, iu].real
        direction = direction / np.hypot(*direction)
        delta = 1e-6
        branches = []
        for sgn in (1.0, -1.0):
            start = (su + sgn * delta * direction[0], sv + sgn * delta * direction[1])
            branches.append(
                _integrate_to_target(field, start, (nu, nv), dt, max_time, reach_tol,
                                     stride)
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
        transient = 50.0 / min(1.0, p.eps_gamma) + 20.0
        last_err = None
        curve = None
        for _ in range(3):
            times = time_grid(0.0, transient, dt)
            u, v = rk4_path(field, u, v, times, record=False)
            try:
                pts = _trace_one_turn(field, (u, v), dt, max_time, stride)
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


def _trace_one_turn(field: LabField, start, dt: float, max_time: float, stride: int):
    """Integrate until the accumulated polar angle advances one full turn."""
    u, v = start
    prev = math.atan2(v, u)
    acc = 0.0
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
            if k % stride == 0:
                pts.append((u, v))


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


def classify(fp: FrozenParams, beta: float = DEFAULT_BETA,
             gamma_by_trace: bool = False) -> ChronotaxicClass:
    """Chronotaxicity class of a frozen parameter set.

    A class with a point attractor requires a stable equilibrium whose
    largest symmetric eigenvalue clears the margin ``-beta``; the subtype
    records whether the attracting curve coexists, a non-contraction region
    remains, or the whole plane contracts.  ``gamma_by_trace`` swaps the
    structural curve test for actual tracing.
    """
    points = find_fixed_points(fp)
    stable = [q for q in points if q.is_stable]
    if not stable:
        return ChronotaxicClass.NOT_CHRONOTAXIC
    attractor = min(stable, key=lambda q: q.lambda_max_sym)
    if gamma_by_trace:
        gamma = trace_gamma(fp).exists
    else:
        gamma = gamma_exists_structural(fp, points)
    globally_contracting = global_contraction_threshold(fp.params) - fp.eps_a <= -beta
    if attractor.lambda_max_sym <= -beta:
        if gamma:
            return ChronotaxicClass.TYPE_I
        if globally_contracting:
            return ChronotaxicClass.TYPE_III
        return ChronotaxicClass.TYPE_II
    return ChronotaxicClass.APPROX_GAMMA if gamma else ChronotaxicClass.APPROX_NO_GAMMA


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
               beta: float = DEFAULT_BETA, workers: int | None = None) -> RegionMap:
    """Classify a full lattice of frozen parameter sets.

    ``resolution`` is points per axis (int or ``(n_delta, n_eps)``).  Cells
    are classified serially with :func:`classify`; ``workers`` is accepted
    for compatibility (``None`` or at least 1) and has no effect on the work
    or the result.  Cells whose classification fails are tagged
    not-chronotaxic, logged, and counted in ``RegionMap.failed``.
    """
    if workers is not None and workers < 1:
        raise InvalidInputError(f"workers must be at least 1, got {workers}")
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
    ts = np.arange(t0, t1, interval)
    ts = np.append(ts, t1)
    for sched in (d.eps_a, d.omega_p):
        if not sched.is_constant:
            inside = sched.times[(sched.times > t0) & (sched.times < t1)]
            ts = np.concatenate([ts, inside])
    return np.unique(ts)


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
    sample_times = _check_times(d, t0, t1, check_interval)
    slowest = math.inf
    for ts in sample_times:
        fp = frozen_at(p, d, float(ts))
        cls = classify(fp, beta=beta)
        if cls not in CHRONOTAXIC_CLASSES:
            raise NotChronotaxicError(
                f"parameters at t={ts:g} classify as {cls.value}", time=float(ts)
            )
        points = find_fixed_points(fp)
        lam = min(q.lambda_max_sym for q in points if q.is_stable)
        slowest = min(slowest, -lam)
    window = min(max(10.0 / slowest, 10.0), max_window)

    fp0 = frozen_at(p, d, t0 - window)
    stable = [q for q in find_fixed_points(fp0) if q.is_stable]
    u, v = min(stable, key=lambda q: q.lambda_max_sym).uv
    a = float(d.alpha_p(t0 - window))
    x0 = u * math.cos(a) - v * math.sin(a)
    y0 = u * math.sin(a) + v * math.cos(a)

    field = make_lab_field(p, d)
    x, y = rk4_path(field, x0, y0, time_grid(t0 - window, t0, dt), record=False)
    times = time_grid(t0, t1, dt)
    states = rk4_path(field, x, y, times, record=True)
    return Trajectory(t0, dt, times, states, frame="lab")
