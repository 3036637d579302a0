"""Fixed points, saddle-node continuation, closed-curve tracing, classes.

Two cross-checks for the fixed points.  Eliminating the angle from the
co-rotating stationarity conditions gives, with a = eps_gamma and
b = eps_gamma*r_p - eps_a, stationary radii as positive roots of

    a^2 r^4 - 2ab r^3 + (b^2 + dw^2) r^2 - eps_a^2 r_p^2 = 0

restricted to sin(psi) = dw*r/(eps_a*r_p) being admissible.  The library
roots the unsquared form of the same equation, so the second oracle shares
nothing with either: sign changes of the radial balance on both cosine
branches over a dense radius grid, each refined with a bracketing root
solver.
"""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from chronotax import (
    CartesianState,
    ChronotaxicClass,
    DriveSchedule,
    FrozenParams,
    InvalidInputError,
    NotChronotaxicError,
    OscillatorParams,
    PointKind,
    Schedule,
    TraceFailureError,
    attractor_track,
    classify,
    continuation_sweep,
    find_fixed_points,
    frozen_at,
    gamma_exists_structural,
    integrate,
    region_map,
    steady_state,
    trace_gamma,
    verify_schedule,
)
from chronotax.integrate import rk4_path, time_grid
from chronotax.model import pulled_field, pulled_jacobian
from chronotax.steady_state import CLASS_CODES
from reference_steppers import rk4_blocks

P = OscillatorParams(7.0, 1.0, 1.0)


def frozen_field(fp):
    """The frozen co-rotating field (t, u, v) -> (du, dv), evaluated per call:
    the lab field with omega0 -> delta_omega and the drive point at (r_p, 0)."""
    p = fp.params

    def field(t, u, v):
        return pulled_field(u, v, math.sqrt(u * u + v * v), p.eps_gamma, fp.delta_omega,
                            p.r_p, fp.eps_a, p.r_p, 0.0)

    return field


def frozen_jacobian(fp, u, v):
    """Jacobian of :func:`frozen_field` at (u, v) as a 2x2 array."""
    p = fp.params
    return np.reshape(pulled_jacobian(u, v, p.eps_gamma, fp.delta_omega, p.r_p, fp.eps_a),
                      (2, 2))

CANONICAL = {
    0.3: 1,
    0.5: 3,
    1.2: 3,
    1.7: 1,
    7.2: 1,
}


def quartic_radii(fp):
    a = fp.params.eps_gamma
    b = a * fp.params.r_p - fp.eps_a
    coeffs = [
        a * a,
        -2.0 * a * b,
        b * b + fp.delta_omega**2,
        0.0,
        -(fp.eps_a * fp.params.r_p) ** 2,
    ]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9].real
    out = []
    for r in sorted(real):
        if r <= 1e-12:
            continue
        s = fp.delta_omega * r / (fp.eps_a * fp.params.r_p)
        if abs(s) > 1.0 + 1e-12:
            continue
        # the quartic squares away the cosine sign; keep radii where either
        # branch actually balances the radial equation
        c = math.sqrt(max(1.0 - s * s, 0.0))
        radial = -a * (r - fp.params.r_p) * r
        ok = any(
            abs(radial - fp.eps_a * (r - fp.params.r_p * cc)) < 1e-7
            for cc in (c, -c)
        )
        if ok:
            out.append(r)
    return out


def bracket_radii(fp, n=2000, r_max=2.5):
    """Stationary radii by sign changes of the radial balance on a grid.

    On each cosine branch c = +-sqrt(1 - s^2), s = dw*r/(eps_a*r_p), the
    radial balance eps_gamma (r_p - r) r - eps_a r + eps_a r_p c vanishes
    at a fixed point; every sign change on the grid is refined with brentq.
    """
    eg, rp, ea = fp.params.eps_gamma, fp.params.r_p, fp.eps_a
    s_coef = fp.delta_omega / (ea * rp)
    r_hi = r_max if s_coef == 0.0 else min(r_max, 1.0 / abs(s_coef))
    grid = np.unique(np.concatenate([
        np.geomspace(max(r_hi * 1e-9, 1e-12), r_hi / n, 64),
        np.linspace(r_hi / n, r_hi, n),
    ]))
    out = []
    for sign in (1.0, -1.0):

        def balance(r, sign=sign):
            c = sign * np.sqrt(np.maximum(0.0, 1.0 - (s_coef * r) ** 2))
            return eg * (rp - r) * r - ea * r + ea * rp * c

        vals = balance(grid)
        for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0):
            out.append(brentq(balance, grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16))
    return sorted(out)


def count_bisection(delta_omega, eps_a_range, step, p, tol=1e-4):
    """Count changes of the fixed points along the pull, as the library once found them.

    Scans a pull grid for changes of ``len(find_fixed_points)`` and bisects
    each down to ``tol``; returns ``(eps_a, count_below, count_above)`` in
    pull order.  Two folds closer than ``step`` can hide each other.
    """
    lo, hi = eps_a_range

    def count(e):
        return len(find_fixed_points(FrozenParams(e, delta_omega, p)))

    def refine(a, b, ca, cb):
        if b - a <= tol:
            return [(0.5 * (a + b), ca, cb)]
        mid = 0.5 * (a + b)
        cm = count(mid)
        out = []
        if cm != ca:
            out.extend(refine(a, mid, ca, cm))
        if cm != cb:
            out.extend(refine(mid, b, cm, cb))
        return out

    grid = np.arange(lo, hi + 0.5 * step, step)
    grid[-1] = min(grid[-1], hi)
    counts = [count(float(e)) for e in grid]
    found = []
    for i in range(grid.size - 1):
        if counts[i] != counts[i + 1]:
            found.extend(refine(float(grid[i]), float(grid[i + 1]), counts[i], counts[i + 1]))
    return sorted(found)


def fold_newton(p, delta_omega, eps_a):
    """Fold (k, eps_a) by Newton on F = dF/dk = 0 in 40-digit decimals.

    F(k) = (b - k)^2 (k^2 + dw^2) - (eps_gamma eps_a r_p)^2 with
    b = eps_gamma r_p - eps_a; dF/dk = 2 (b - k) (k (b - k) - k^2 - dw^2),
    whose second factor is the second equation.  The seed k is the root of
    that factor at the seed pull, 2 k^2 - b k + dw^2 = 0, on the side where
    F is smaller.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        a = Decimal(p.eps_gamma) * Decimal(p.r_p)
        dw2 = Decimal(delta_omega) ** 2
        e = Decimal(eps_a)

        def f(k, e):
            rho = a - e - k
            return rho * rho * (k * k + dw2) - (a * e) ** 2

        s = a - e
        large = (s + max(s * s - 8 * dw2, Decimal(0)).sqrt()) / 4
        k = min((large, dw2 / (2 * large)), key=lambda k: abs(f(k, e)))
        for _ in range(100):
            rho = a - e - k
            g = k * rho - k * k - dw2
            f_k, f_e = 2 * rho * g, -2 * rho * (k * k + dw2) - 2 * a * a * e
            g_k, g_e = rho - 3 * k, -k
            det = f_k * g_e - f_e * g_k
            dk = (g * f_e - f(k, e) * g_e) / det
            de = (f(k, e) * g_k - g * f_k) / det
            k, e = k + dk, e + de
            if abs(dk) <= Decimal("1e-35") * abs(k) and abs(de) <= Decimal("1e-35") * e:
                return float(k), float(e)
    raise AssertionError(f"fold Newton did not converge from eps_a={eps_a!r}")


def rotating_rhs(fp, u, v):
    # written out from scratch, not via the library field
    eg, rp = fp.params.eps_gamma, fp.params.r_p
    r = math.hypot(u, v)
    du = eg * (rp - r) * u - fp.delta_omega * v - fp.eps_a * (u - rp)
    dv = eg * (rp - r) * v + fp.delta_omega * u - fp.eps_a * v
    return du, dv


def test_counts_at_canonical_pull_strengths():
    for eps_a, n in CANONICAL.items():
        pts = find_fixed_points(FrozenParams(eps_a, 0.5, P))
        assert len(pts) == n, (eps_a, [q.kind for q in pts])


def test_kinds_at_canonical_pull_strengths():
    kinds = {
        0.3: [PointKind.UNSTABLE_FOCUS],
        0.5: [PointKind.UNSTABLE_FOCUS, PointKind.SADDLE, PointKind.STABLE_NODE],
        1.2: [PointKind.UNSTABLE_NODE, PointKind.SADDLE, PointKind.STABLE_NODE],
        1.7: [PointKind.STABLE_NODE],
        7.2: [PointKind.STABLE_NODE],
    }
    for eps_a, expected in kinds.items():
        pts = find_fixed_points(FrozenParams(eps_a, 0.5, P))
        assert [q.kind for q in pts] == expected


def test_fixed_points_satisfy_field():
    for eps_a in CANONICAL:
        fp = FrozenParams(eps_a, 0.5, P)
        for q in find_fixed_points(fp):
            du, dv = rotating_rhs(fp, *q.uv)
            assert math.hypot(du, dv) < 1e-9


def test_fixed_points_match_quartic_oracle():
    rng = np.random.default_rng(20260817)
    checked = 0
    while checked < 60:
        fp = FrozenParams(
            rng.uniform(0.05, 9.0),
            rng.uniform(0.0, 1.5),
            OscillatorParams(rng.uniform(1.0, 10.0), 1.0, rng.uniform(0.5, 2.0)),
        )
        oracle = quartic_radii(fp)
        if len(oracle) >= 2 and min(np.diff(oracle)) < 1e-3:
            continue  # near-degenerate draw; the oracle itself is fragile there
        if fp.delta_omega > 1e-9:
            r_edge = fp.eps_a * fp.params.r_p / fp.delta_omega
            if any(abs(r - r_edge) < 1e-3 for r in oracle):
                continue  # root grazing the admissible-angle boundary
        found = sorted(q.location.r for q in find_fixed_points(fp))
        bracketed = bracket_radii(fp)
        assert len(found) == len(oracle) == len(bracketed), (fp, found, oracle, bracketed)
        for r_lib, r_orc, r_brk in zip(found, oracle, bracketed):
            assert abs(r_lib - r_orc) < 1e-6
            assert abs(r_lib - r_brk) < 1e-6
        checked += 1


@settings(max_examples=200)
@given(
    eps_a=st.floats(0.05, 9.0),
    delta_omega=st.floats(-1.5, 1.5),
    eps_gamma=st.floats(1.0, 10.0),
    r_p=st.floats(0.5, 4.0),
)
# every point lay above the radius 2.5 that once capped them: 2 were kept of 3
@example(eps_a=1.5, delta_omega=0.909, eps_gamma=3.306, r_p=2.618)
def test_fixed_point_count_is_odd_at_and_around_the_folds(eps_a, delta_omega, eps_gamma, r_p):
    # index theory: nodes and foci outnumber saddles by one when no point is
    # degenerate, and every fixed point has r <= r_p; at a fold the
    # double root is one point, so the count stays odd there too, and it is
    # 3 just inside the band between the folds and 1 just outside
    p = OscillatorParams(eps_gamma, 1.0, r_p)

    def count(pull):
        return len(find_fixed_points(FrozenParams(pull, delta_omega, p)))

    assert count(eps_a) % 2 == 1
    folds = steady_state._folds(p, delta_omega)
    if folds is None:
        return
    birth, death = folds
    for pull, inward in ((birth, 1.0), (death, -1.0)):
        assert count(pull) % 2 == 1, pull
        # at delta_omega = 0 the birth is at zero pull, which _folds rounds
        # to a subnormal, too coarse for steps of 1e-12
        if pull >= sys.float_info.min:
            assert count(pull * (1.0 + inward * 1e-12)) == 3, pull
            assert count(pull * (1.0 - inward * 1e-12)) == 1, pull


def test_detuning_whose_square_underflows_is_not_zero():
    # delta_omega^2 underflows at both detunings, but the birth fold sits
    # near |delta_omega|: above the pull there is one point, below it three
    fp = FrozenParams(1e-300, 1e-170, P)
    assert [q.kind for q in find_fixed_points(fp)] == [PointKind.UNSTABLE_NODE]
    assert classify(fp) is ChronotaxicClass.NOT_CHRONOTAXIC
    assert len(find_fixed_points(FrozenParams(1e-170, 1e-200, P))) == 3


def test_root_within_one_float_of_zero_rate_keeps_its_point():
    # at the least pull eps_a r_p rounds to eps_a, so the rate of the
    # saddle near -r_p, about eps_a / 1.4, lies in (0, ulp(0)): bisection
    # returns k = 0, which is taken as ulp(0) instead of dividing by
    # q = hypot(0, 0)
    fp = FrozenParams(5e-324, 0.0, OscillatorParams(7.0, 1.0, 1.4))
    assert len(find_fixed_points(fp)) == 3


def test_stationary_angle_identity():
    # sin(psi*) = dw * r* / (eps_a * r_p) at every fixed point
    for eps_a in (0.5, 1.2, 1.7, 7.2):
        fp = FrozenParams(eps_a, 0.5, P)
        for q in find_fixed_points(fp):
            s_expected = 0.5 * q.location.r / eps_a
            assert abs(math.sin(q.location.psi) - s_expected) < 1e-10


def test_symmetric_eigenvalue_identity_at_fixed_points():
    # lambda_max_sym = -eps_a * (r_p / r*) * cos(psi*)  (radial balance)
    for eps_a in (0.5, 1.2, 1.7, 7.2):
        fp = FrozenParams(eps_a, 0.5, P)
        for q in find_fixed_points(fp):
            lhs = q.lambda_max_sym
            rhs = -eps_a * (1.0 / q.location.r) * math.cos(q.location.psi)
            assert abs(lhs - rhs) < 1e-8


def test_zero_detuning_node_sits_on_drive_point():
    for eps_a in (0.2, 0.8, 2.0, 5.0):
        pts = find_fixed_points(FrozenParams(eps_a, 0.0, P))
        stable = [q for q in pts if q.is_stable]
        assert len(stable) == 1
        assert abs(stable[0].location.r - 1.0) < 1e-9
        assert abs(stable[0].location.psi) < 1e-9


def test_zero_detuning_fold():
    # pair annihilation at eps_a = 21 - 14*sqrt(2) for eps_gamma=7, r_p=1
    fold = 21.0 - 14.0 * math.sqrt(2.0)
    assert len(find_fixed_points(FrozenParams(fold - 0.01, 0.0, P))) == 3
    assert len(find_fixed_points(FrozenParams(fold + 0.01, 0.0, P))) == 1
    res = continuation_sweep(0.0, (0.1, 2.0), 0.1, P)
    assert res.eps_c1 is None
    assert abs(res.eps_c2 - fold) <= 1e-12


def test_sweep_thresholds():
    res = continuation_sweep(0.5, (0.1, 2.0), 0.1, P)
    assert 0.462 <= res.eps_c1 <= 0.472
    assert 1.209 <= res.eps_c2 <= 1.219
    assert res.eps_c3 == 7.0
    # pinned values for regression: the exact folds
    assert abs(res.eps_c1 - 0.46538191232864534) <= 1e-12
    assert abs(res.eps_c2 - 1.2137368545612135) <= 1e-12


def test_sweep_thresholds_refine_the_count_bisection():
    # the count bisection finds the same two changes to its tolerance, and
    # fold Newton started there lands on the closed form
    res = continuation_sweep(0.5, (0.1, 2.0), 0.1, P)
    changes = count_bisection(0.5, (0.1, 2.0), 0.1, P)
    assert [(ca, cb) for _, ca, cb in changes] == [(1, 3), (3, 1)]
    for exact, (seed, _, _) in zip((res.eps_c1, res.eps_c2), changes):
        assert abs(seed - exact) <= 1e-4
        assert abs(fold_newton(P, 0.5, seed)[1] - exact) <= 1e-12


def test_sweep_thresholds_are_range_filtered():
    assert continuation_sweep(0.5, (0.5, 2.0), 0.1, P).eps_c1 is None
    assert continuation_sweep(0.5, (0.1, 1.0), 0.1, P).eps_c2 is None
    with pytest.raises(InvalidInputError):
        continuation_sweep(0.5, (0.1, math.inf), 0.1, P)
    with pytest.raises(InvalidInputError):
        continuation_sweep(math.nan, (0.1, 2.0), 0.1, P)


def test_continuation_sweep_solves_no_fixed_points(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("find_fixed_points called")

    monkeypatch.setattr(steady_state, "find_fixed_points", refuse)
    res = continuation_sweep(0.5, (0.1, 2.0), 0.1, P)
    assert (res.eps_c1, res.eps_c2) == pytest.approx((0.4653819123286, 1.2137368545612))


PARAMS = [OscillatorParams(7.0, 1.0, 1.0), OscillatorParams(1.0, 1.0, 1.0),
          OscillatorParams(3.0, 1.0, 0.1)]


@pytest.mark.parametrize("p", PARAMS, ids=lambda p: f"{p.eps_gamma:g}x{p.r_p:g}")
@pytest.mark.parametrize("ratio", [1e-9, -1e-9, 1e-6, 1e-3, 0.07, 0.2, 0.27, 0.28])
def test_folds_match_decimal_oracle(p, ratio):
    # ratio = delta_omega / (eps_gamma r_p); from 0.2664 on both folds sit
    # on the same side of k = |delta_omega|
    a = p.eps_gamma * p.r_p
    dw = ratio * a
    res = continuation_sweep(dw, (1e-300, a), 0.5 * a, p)
    assert res.eps_c1 < res.eps_c2
    for eps, before, after in ((res.eps_c1, 1, 3), (res.eps_c2, 3, 1)):
        k, oracle = fold_newton(p, dw, eps)
        assert k > 0.0
        assert abs(eps - oracle) <= 1e-12 * max(1.0, oracle)
        assert abs(eps - oracle) <= 1e-9 * oracle
        # the point count changes by two across the fold
        near = [len(find_fixed_points(FrozenParams(eps * (1.0 + s), dw, p)))
                for s in (-1e-6, 1e-6)]
        assert near == [before, after], (eps, near)


def test_folds_rounding_together_at_the_cusp_are_no_folds():
    # 1e-12 below the largest detuning with folds (1.96710655617085) D still
    # peaks above zero, but both folds round to one pull: a pair of zero
    # width, reported as none
    res = continuation_sweep(1.9671065561698502, (0.1, 2.0), 0.1, P)
    assert res.eps_c1 is None and res.eps_c2 is None


@pytest.mark.parametrize("p", PARAMS, ids=lambda p: f"{p.eps_gamma:g}x{p.r_p:g}")
@pytest.mark.parametrize("ratio", [0.2816, -0.2816, 0.3, 1.0])
def test_no_fold_beyond_the_cusp(p, ratio):
    a = p.eps_gamma * p.r_p
    res = continuation_sweep(ratio * a, (1e-300, a), 0.5 * a, p)
    assert res.eps_c1 is None and res.eps_c2 is None
    for eps in np.geomspace(1e-3 * a, 2.0 * a, 60):
        assert len(find_fixed_points(FrozenParams(float(eps), ratio * a, p))) == 1


def test_counts_change_by_two_at_thresholds():
    res = continuation_sweep(0.5, (0.1, 2.0), 0.1, P)
    for c in (res.eps_c1, res.eps_c2):
        lo = len(find_fixed_points(FrozenParams(c - 5e-3, 0.5, P)))
        hi = len(find_fixed_points(FrozenParams(c + 5e-3, 0.5, P)))
        assert abs(lo - hi) == 2


def _arrival_after(n):
    """An arrival test for ``steady_state._march`` that fires at the n-th state."""
    seen = [0]

    def arrive(u, v, xs, ys):
        j = n - 1 - seen[0]
        seen[0] += len(xs)
        return (j, (xs[j], ys[j])) if j < len(xs) else None

    return arrive


def test_frozen_flow_blocks_match_per_call_rk4():
    # trace_gamma's march with h = dt on the lab-field kernel, against the
    # per-call co-rotating field, across three tape blocks: with a stride of
    # 1 and zero spacing it records every state up to the arrival
    fp = FrozenParams(0.5, 0.5, P)
    field = frozen_field(fp)
    dt = 1e-3
    u, v = 1.2, 0.1
    ref = []
    for _ in range(600):
        k1u, k1v = field(0.0, u, v)
        k2u, k2v = field(0.0, u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = field(0.0, u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = field(0.0, u + dt * k3u, v + dt * k3v)
        u += (dt / 6.0) * (k1u + 2.0 * (k2u + k3u) + k4u)
        v += (dt / 6.0) * (k1v + 2.0 * (k2v + k3v) + k4v)
        ref.append((u, v))
    got = steady_state._march(steady_state._frozen_lab_field(fp), (1.2, 0.1), dt, 1.0, 1,
                              0.0, _arrival_after(len(ref)), "no arrival")
    assert got.tolist() == [[1.2, 0.1]] + [list(s) for s in ref]


def test_trace_gamma_free_oscillator_is_unit_circle():
    g = trace_gamma(FrozenParams(0.0, 0.5, P))
    assert g.exists
    r = np.hypot(g.points[:, 0], g.points[:, 1])
    assert np.max(np.abs(r - 1.0)) < 1e-6
    assert abs(g.winding_number()) == 1


def test_trace_gamma_closed_below_first_threshold():
    g = trace_gamma(FrozenParams(0.3, 0.5, P))
    assert g.exists
    assert np.allclose(g.points[0], g.points[-1], atol=1e-6)
    assert abs(g.winding_number()) == 1
    r = np.hypot(g.points[:, 0], g.points[:, 1])
    assert 0.8 < r.min() < r.max() < 1.01


def test_trace_gamma_through_saddle_connection():
    # between the folds the curve closes through the saddle and node
    for eps_a in (0.5, 1.2):
        fp = FrozenParams(eps_a, 0.5, P)
        g = trace_gamma(fp)
        assert g.exists
        assert abs(g.winding_number()) == 1
        pts = find_fixed_points(fp)
        for q in pts:
            if q.kind in (PointKind.SADDLE, PointKind.STABLE_NODE):
                u, v = q.uv
                dist = np.min(np.hypot(g.points[:, 0] - u, g.points[:, 1] - v))
                assert dist < 1e-3, (eps_a, q.kind)


def test_trace_gamma_absent_when_single_stable_point():
    assert not trace_gamma(FrozenParams(1.7, 0.5, P)).exists
    assert not trace_gamma(FrozenParams(7.2, 0.5, P)).exists


def test_gamma_structural_shortcut_agrees_with_tracing():
    for eps_a in (0.0, 0.3, 0.5, 1.2, 1.7, 7.2):
        fp = FrozenParams(eps_a, 0.5, P)
        assert gamma_exists_structural(fp) == trace_gamma(fp).exists


def _reference_branch(field, start, target, dt, max_time, reach_tol, stride):
    tu, tv = target
    pts = [start]
    t = 0.0
    k = 0
    for xs, ys in rk4_blocks(field, start[0], start[1], dt):
        for u, v in zip(xs, ys):
            if not t < max_time:
                raise TraceFailureError("branch did not reach the node")
            t += dt
            k += 1
            if k % stride == 0:
                pts.append((u, v))
            if (u - tu) ** 2 + (v - tv) ** 2 < reach_tol * reach_tol:
                pts.append((u, v))
                return np.array(pts)


def _reference_turn(field, start, dt, max_time, stride):
    u, v = start
    prev = math.atan2(v, u)
    acc = 0.0
    pts = [(u, v)]
    t = 0.0
    k = 0
    for xs, ys in rk4_blocks(field, u, v, dt):
        for un, vn in zip(xs, ys):
            if not t < max_time:
                raise TraceFailureError("no full turn")
            theta = math.atan2(vn, un)
            dth = theta - prev
            if dth > math.pi:
                dth -= 2.0 * math.pi
            elif dth < -math.pi:
                dth += 2.0 * math.pi
            if abs(acc) < 2.0 * math.pi <= abs(acc + dth):
                frac = (2.0 * math.pi - abs(acc)) / abs(dth)
                pts.append((u + frac * (un - u), v + frac * (vn - v)))
                return np.array(pts)
            acc += dth
            prev = theta
            u, v = un, vn
            t += dt
            k += 1
            if k % stride == 0:
                pts.append((u, v))


def trace_gamma_reference(fp, stride, dt=1e-3, max_time=1e4, close_tol=1e-6,
                          reach_tol=1e-7):
    """The tracer before its ends were linearised, recording every ``stride``-th
    state: branches leave the saddle 1e-6 out along a numeric eigenvector and
    run to within ``reach_tol`` of the node; the circle gets a 50/min(1,
    eps_gamma) + 20 transient.  ``stride=1`` gives the every-step path."""
    p = fp.params
    points = find_fixed_points(fp)
    stable = [q for q in points if q.is_stable]
    saddles = [q for q in points if q.kind == PointKind.SADDLE]
    field = steady_state._frozen_lab_field(fp)
    if len(points) == 3 and saddles and stable:
        su, sv = saddles[0].uv
        nu, nv = min(stable, key=lambda q: q.lambda_max_sym).uv
        w, vecs = np.linalg.eig(frozen_jacobian(fp, su, sv))
        direction = vecs[:, int(np.argmax(w.real))].real
        direction = direction / np.hypot(*direction)
        first, second = (
            _reference_branch(field, (su + sgn * 1e-6 * direction[0],
                                      sv + sgn * 1e-6 * direction[1]),
                              (nu, nv), dt, max_time, reach_tol, stride)
            for sgn in (1.0, -1.0))
        return np.vstack([[[su, sv]], first, [[nu, nv]], second[::-1], [[su, sv]]])
    assert len(points) == 1 and not stable
    u, v = 1.2 * p.r_p, 0.0
    transient = 50.0 / min(1.0, p.eps_gamma) + 20.0
    for _ in range(3):
        u, v = rk4_path(field, u, v, time_grid(0.0, transient, dt), record=False)
        pts = _reference_turn(field, (u, v), dt, max_time, stride)
        if math.hypot(*(pts[0] - pts[-1])) <= close_tol:
            pts[-1] = pts[0]
            return pts
        u, v = pts[-1]
        transient *= 2.0
    raise TraceFailureError("turn failed to close")


def _distance_to_path(points, path):
    """Distance from each of ``points`` to the polyline ``path``, over the
    segments next to the four nearest path vertices (an upper bound)."""
    _, idx = cKDTree(path).query(points, k=4)
    a = path[np.clip(idx[..., None] + np.array([-1, 0]), 0, len(path) - 1)]
    b = path[np.clip(idx[..., None] + np.array([0, 1]), 0, len(path) - 1)]
    ab = b - a
    ap = points[:, None, None, :] - a
    len2 = np.sum(ab * ab, axis=-1)
    s = np.clip(np.sum(ap * ab, axis=-1) / np.where(len2 > 0.0, len2, 1.0), 0.0, 1.0)
    d = np.hypot(*np.moveaxis(ap - s[..., None] * ab, -1, 0))
    return d.min(axis=(1, 2))


def _three_point_draws(n, seed):
    """Seeded pulls inside the three-point band of seeded detunings."""
    cases = []
    for dw, f in np.random.default_rng(seed).uniform((0.1, 0.0), (1.0, 1.0), size=(n, 2)):
        lo, hi = steady_state._folds(P, dw)
        cases.append((float(lo + f * (hi - lo)), float(dw)))
    return cases


_FOLDS = continuation_sweep(0.5, (0.1, 2.0), 0.1, P)
GAMMA_CASES = (
    [(eps_a, 0.5) for eps_a in CANONICAL]
    + [(0.8, 0.2), (0.2, 0.1), (_FOLDS.eps_c1 + 1e-2, 0.5), (_FOLDS.eps_c2 - 1e-3, 0.5)]
    + _three_point_draws(3, 2014)
)


@pytest.mark.parametrize("eps_a,delta_omega", GAMMA_CASES,
                         ids=lambda x: f"{x:.6g}")
def test_trace_gamma_follows_the_reference_path(eps_a, delta_omega):
    fp = FrozenParams(eps_a, delta_omega, P)
    g = trace_gamma(fp)
    if not g.exists:
        assert not gamma_exists_structural(fp)
        return
    assert abs(g.winding_number()) == 1
    path = trace_gamma_reference(fp, 1)
    assert np.max(_distance_to_path(g.points, path)) <= 1e-6
    # the longest gap is a stride chord where the flow is fastest; the two
    # tracers sample the curve at other phases, which moves that chord at
    # second order (by up to 6e-5 of it over these cases)
    gaps = np.hypot(*np.diff(g.points, axis=0).T)
    parent = trace_gamma_reference(fp, 10)
    assert gaps.max() <= (1.0 + 1e-3) * np.hypot(*np.diff(parent, axis=0).T).max()
    points = find_fixed_points(fp)
    if len(points) == 3:
        vertices = {tuple(row) for row in g.points.tolist()}
        for q in points:
            if q.kind in (PointKind.SADDLE, PointKind.STABLE_NODE):
                assert q.uv in vertices, q.kind


def test_trace_gamma_work_guard(monkeypatch):
    steps = [0]
    inner = integrate._rk4_steps

    def counted(*args):
        xs, ys = inner(*args)
        steps[0] += len(xs)
        return xs, ys

    monkeypatch.setattr(integrate, "_rk4_steps", counted)
    # exact counts: whole tape blocks of the march, after the transient's
    # 4,286 steps onto the invariant circle at eps_a = 0.3
    for eps_a, exact_steps, most_vertices in ((0.5, 157_696, 3_000), (0.3, 20_414, None)):
        steps[0] = 0
        g = trace_gamma(FrozenParams(eps_a, 0.5, P))
        assert steps[0] == exact_steps, eps_a
        if most_vertices is not None:
            assert len(g.points) <= most_vertices


@settings(max_examples=3)
@given(eps_a=st.floats(0.1, 1.3), delta_omega=st.floats(0.2, 0.8))
@example(eps_a=0.3, delta_omega=0.5)
@example(eps_a=0.5, delta_omega=0.5)
@example(eps_a=1.2, delta_omega=0.5)
def test_trace_gamma_mirror_symmetry(eps_a, delta_omega):
    g = trace_gamma(FrozenParams(eps_a, delta_omega, P))
    m = trace_gamma(FrozenParams(eps_a, -delta_omega, P))
    assert g.exists == m.exists
    if g.exists:
        mirror = g.points * np.array([1.0, -1.0])
        assert (np.array_equal(m.points, mirror)
                or np.array_equal(m.points, mirror[::-1]))


@pytest.mark.parametrize("kwargs", [
    {"dt": 0.0}, {"dt": math.nan}, {"dt": -1e-3}, {"dt": math.inf},
    {"max_time": math.nan}, {"max_time": 0.0}, {"close_tol": -1.0},
    {"close_tol": math.inf}, {"reach_tol": 0.0}, {"reach_tol": math.nan},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_trace_gamma_rejects_bad_numbers(kwargs):
    for eps_a in (0.0, 0.5):
        with pytest.raises(InvalidInputError):
            trace_gamma(FrozenParams(eps_a, 0.5, P), **kwargs)



#: a drive radius of 3, where every fixed point but the inner one lies
#: above the absolute radius 2.5 that once capped them
WIDE = OscillatorParams(7.0, 1.0, 3.0)


@pytest.mark.parametrize("eps_a, radii, kinds, label", [
    (0.5, (0.0751, 2.9107, 2.9427),
     [PointKind.UNSTABLE_FOCUS, PointKind.SADDLE, PointKind.STABLE_NODE], "type-I"),
    (5.0, (2.9971,), [PointKind.STABLE_NODE], "type-II"),
    (30.0, (2.9998,), [PointKind.STABLE_NODE], "type-III"),
])
def test_fixed_points_at_any_radius(eps_a, radii, kinds, label):
    # 30 is above eps_c3 = eps_gamma r_p = 21, where the whole plane contracts
    fp = FrozenParams(eps_a, 0.5, WIDE)
    points = find_fixed_points(fp)
    assert [q.kind for q in points] == kinds
    assert [round(q.location.r, 4) for q in points] == list(radii)
    assert all(q.location.r <= WIDE.r_p for q in points)
    assert classify(fp).value == label


def test_verify_schedule_passes_the_prescan_above_the_old_radius_cap():
    report = verify_schedule(DriveSchedule.constant(30.0, 0.5), WIDE, 0.0, 5.0)
    assert report.offending_intervals == []
    assert report.radius is not None


@pytest.mark.parametrize("eps_a, vertices", [(0.3, 8), (0.5, 12), (1.2, 10)])
def test_trace_gamma_refuses_reach_tol_beyond_an_eighth_of_r_p(eps_a, vertices):
    # past r_p / 8 the minimum vertex gap sqrt(8 reach_tol r_p) exceeds r_p
    fp = FrozenParams(eps_a, 0.5, P)
    with pytest.raises(InvalidInputError, match=r"r_p / 8"):
        trace_gamma(fp, reach_tol=1.0)
    assert trace_gamma(fp, reach_tol=0.1).points.shape == (vertices, 2)

def test_classify_canonical():
    expected = {
        0.3: ChronotaxicClass.NOT_CHRONOTAXIC,
        0.5: ChronotaxicClass.TYPE_I,
        1.2: ChronotaxicClass.TYPE_I,
        1.7: ChronotaxicClass.TYPE_II,
        7.2: ChronotaxicClass.TYPE_III,
    }
    for eps_a, cls in expected.items():
        assert classify(FrozenParams(eps_a, 0.5, P)) is cls


@settings(max_examples=200)
@given(eps_a=st.floats(0.0, 9.0), delta_omega=st.floats(0.0, 1.5))
@example(eps_a=0.3, delta_omega=0.5)
@example(eps_a=0.5, delta_omega=0.5)
@example(eps_a=1.7, delta_omega=0.5)
def test_classify_mirror_symmetry(eps_a, delta_omega):
    a = classify(FrozenParams(eps_a, delta_omega, P))
    b = classify(FrozenParams(eps_a, -delta_omega, P))
    assert a is b


def test_marginal_band_between_fold_and_contraction():
    # just past the fold a stable node exists outside the contraction region
    cls = classify(FrozenParams(0.466, 0.5, P))
    assert cls is ChronotaxicClass.APPROX_GAMMA


@settings(max_examples=200)
@given(exponent=st.floats(-300.0, -6.0))
@example(exponent=-20.0)
@example(exponent=-16.0)
@example(exponent=-23.0)
@example(exponent=-300.0)
def test_weak_pull_at_zero_detuning_keeps_the_saddle(exponent):
    # the saddle and node near r_p have eigenvalues of order eps_a, far
    # below the rounding of a numerically formed trace and determinant, and
    # rates k of order eps_a, which a companion matrix rounds to 0 below
    # about 1e-23 and whose square underflows below about 1e-162
    fp = FrozenParams(10.0**exponent, 0.0, P)
    kinds = sorted(q.kind.value for q in find_fixed_points(fp))
    assert kinds == ["saddle", "stable-node", "unstable-node"]
    assert classify(fp) is ChronotaxicClass.APPROX_GAMMA


@settings(max_examples=200)
@given(
    eps_a=st.floats(0.0, 9.0),
    delta_omega=st.floats(-1.5, 1.5),
    eps_gamma=st.floats(1.0, 10.0),
    r_p=st.floats(0.5, 4.0),
)
@example(eps_a=0.0, delta_omega=0.5, eps_gamma=7.0, r_p=1.0)
@example(eps_a=0.0, delta_omega=0.0, eps_gamma=7.0, r_p=1.0)
@example(eps_a=0.5, delta_omega=0.5, eps_gamma=7.0, r_p=1.0)
def test_closed_form_eigenvalues_match_numeric_jacobian(eps_a, delta_omega, eps_gamma, r_p):
    fp = FrozenParams(eps_a, delta_omega, OscillatorParams(eps_gamma, 1.0, r_p))
    for q in find_fixed_points(fp):
        half = 0.5 * eps_gamma * q.location.r
        if abs(half * half - delta_omega**2) < 1e-6:
            continue  # a defective double eigenvalue: numeric error ~ sqrt(rounding)
        numeric = np.linalg.eigvals(frozen_jacobian(fp, *q.uv))
        order = lambda z: (z.real, z.imag)  # noqa: E731
        for a, b in zip(sorted(q.full_jacobian_eigs, key=order), sorted(numeric, key=order)):
            assert abs(a - b) <= 1e-12, (q, numeric)


def test_region_map_row():
    rm = region_map((0.45, 0.55), (0.0, 8.0), (3, 81), P)
    i = int(np.argmin(np.abs(rm.delta_omegas - 0.5)))
    expected = {
        0.3: "not-chronotaxic",
        0.5: "type-I",
        1.2: "type-I",
        1.7: "type-II",
        7.2: "type-III",
    }
    for eps_a, label in expected.items():
        j = int(np.argmin(np.abs(rm.eps_as - eps_a)))
        assert rm.class_at(i, j).value == label, (eps_a, rm.class_at(i, j))


@settings(max_examples=25)
@given(
    dw_lo=st.floats(-1.5, 1.5),
    dw_span=st.floats(0.01, 1.0),
    ea_lo=st.floats(0.0, 6.0),
    ea_span=st.floats(0.01, 3.0),
    shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
)
def test_region_map_cells_equal_pointwise_classify(dw_lo, dw_span, ea_lo, ea_span, shape):
    rm = region_map((dw_lo, dw_lo + dw_span), (ea_lo, ea_lo + ea_span), shape, P)
    assert rm.codes.shape == shape and rm.failed == 0
    for i, dw in enumerate(rm.delta_omegas):
        for j, ea in enumerate(rm.eps_as):
            cls = classify(FrozenParams(float(ea), float(dw), P))
            assert rm.codes[i, j] == CLASS_CODES[cls], (dw, ea)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(4))
def test_region_map_refuses_non_finite_ranges(monkeypatch, bad, slot):
    def no_solve(fp):
        raise AssertionError("solved a cell of a refused lattice")

    monkeypatch.setattr(steady_state, "find_fixed_points", no_solve)
    bounds = [0.0, 1.0, 0.0, 4.0]
    bounds[slot] = bad
    with pytest.raises(InvalidInputError):
        region_map(tuple(bounds[:2]), tuple(bounds[2:]), 3, P)


def test_region_map_counts_failed_cells(monkeypatch):
    real = steady_state.classify

    def flaky(fp, **kw):
        if fp.eps_a == 2.0 and fp.delta_omega == 0.5:
            raise FloatingPointError("injected")
        return real(fp, **kw)

    monkeypatch.setattr(steady_state, "classify", flaky)
    rm = region_map((0.0, 1.0), (0.0, 4.0), 3, P)
    assert rm.failed == 1
    assert rm.class_at(1, 1) is ChronotaxicClass.NOT_CHRONOTAXIC


def test_region_map_csv(tmp_path):
    rm = region_map((0.0, 1.0), (0.0, 4.0), 5, P)
    path = tmp_path / "rm.csv"
    rm.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding=None)
    assert data.size == 25
    assert data.dtype.names == ("delta_omega", "eps_a", "class")


def test_attractor_track_constant_drive():
    d = DriveSchedule.constant(1.7, P.omega0 - 0.5)
    track = attractor_track(d, P, 0.0, 5.0, 1e-3)
    fp = frozen_at(P, d, 0.0)
    node = [q for q in find_fixed_points(fp) if q.is_stable][0]
    u, v = node.uv
    for k in (0, len(track.times) // 2, -1):
        t = track.times[k]
        a = d.alpha_p(t)
        ex = u * math.cos(a) - v * math.sin(a)
        ey = u * math.sin(a) + v * math.cos(a)
        assert math.hypot(track.states[k, 0] - ex, track.states[k, 1] - ey) < 1e-6


def test_attractor_track_refuses_drifting_drive():
    d = DriveSchedule.constant(0.3, P.omega0 - 0.5)
    with pytest.raises(NotChronotaxicError) as err:
        attractor_track(d, P, 0.0, 5.0, 1e-3)
    assert 0.0 <= err.value.time <= 5.0


def test_attractor_track_follows_schedule_step():
    ea = Schedule.sampled([0.0, 10.0, 10.5, 20.0], [1.7, 1.7, 3.5, 3.5])
    d = DriveSchedule(ea, Schedule.constant(P.omega0 - 0.5), 0.0)
    track = attractor_track(d, P, 0.0, 20.0, 1e-3)
    # late in each plateau the state hugs the frozen fixed point
    for t_probe, eps_a in ((9.5, 1.7), (19.5, 3.5)):
        k = int(np.argmin(np.abs(track.times - t_probe)))
        node = [
            q for q in find_fixed_points(FrozenParams(eps_a, 0.5, P)) if q.is_stable
        ][0]
        u, v = node.uv
        a = d.alpha_p(track.times[k])
        ex = u * math.cos(a) - v * math.sin(a)
        ey = u * math.sin(a) + v * math.cos(a)
        assert math.hypot(track.states[k, 0] - ex, track.states[k, 1] - ey) < 1e-3


def test_frozen_at_reads_schedules():
    ea = Schedule.sampled([0.0, 10.0], [1.0, 3.0])
    d = DriveSchedule(ea, Schedule.constant(0.25), 0.0)
    fp = frozen_at(P, d, 5.0)
    assert fp.eps_a == pytest.approx(2.0)
    assert fp.delta_omega == pytest.approx(P.omega0 - 0.25)
