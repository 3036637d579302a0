"""Fixed points, saddle-node continuation, closed-curve tracing, classes.

Two cross-checks for the fixed points.  Eliminating the angle from the
co-rotating stationarity conditions gives, with a = eps_gamma and
b = eps_gamma*r_p - eps_a, stationary radii as positive roots of

    a^2 r^4 - 2ab r^3 + (b^2 + dw^2) r^2 - eps_a^2 r_p^2 = 0

restricted to sin(psi) = dw*r/(eps_a*r_p) being admissible.  The library
solves the same quartic, so the second oracle shares nothing with it: sign
changes of the radial balance on both cosine branches over a dense radius
grid, each refined with a bracketing root solver.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

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
    attractor_track,
    classify,
    continuation_sweep,
    find_fixed_points,
    frozen_at,
    gamma_exists_structural,
    region_map,
    steady_state,
    trace_gamma,
)
from chronotax.integrate import rk4_blocks
from chronotax.steady_state import CLASS_CODES

P = OscillatorParams(7.0, 1.0, 1.0)

CANONICAL = {
    0.3: 1,
    0.5: 3,
    1.2: 3,
    1.7: 1,
    7.2: 1,
}

#: seeded, database-free property runs, so every run draws the same cases
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


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


@PROPERTY
@given(
    eps_a=st.floats(0.05, 9.0),
    delta_omega=st.floats(-1.5, 1.5),
    eps_gamma=st.floats(1.0, 10.0),
    r_p=st.floats(0.5, 2.0),
)
def test_fixed_point_count_is_odd_away_from_folds(eps_a, delta_omega, eps_gamma, r_p):
    # index theory: nodes and foci outnumber saddles by one when no point is
    # degenerate, and every fixed point has r <= r_p < r_max
    fp = FrozenParams(eps_a, delta_omega, OscillatorParams(eps_gamma, 1.0, r_p))
    a = eps_gamma
    b = a * r_p - eps_a
    roots = np.roots([a * a, -2.0 * a * b, b * b + delta_omega**2, 0.0, -(eps_a * r_p) ** 2])
    gaps = np.abs(roots[:, None] - roots[None, :])[np.triu_indices(roots.size, 1)]
    assume(gaps.min() >= 1e-3)  # within 1e-3 of a double root, i.e. of a fold
    assert len(find_fixed_points(fp)) % 2 == 1


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
    assert res.eps_c2 == pytest.approx(fold, abs=5e-4)


def test_sweep_thresholds():
    res = continuation_sweep(0.5, (0.1, 2.0), 0.1, P)
    assert 0.462 <= res.eps_c1 <= 0.472
    assert 1.209 <= res.eps_c2 <= 1.219
    assert res.eps_c3 == 7.0
    # pinned values for regression, bisection tolerance 1e-4
    assert res.eps_c1 == pytest.approx(0.46538, abs=1e-3)
    assert res.eps_c2 == pytest.approx(1.21372, abs=1e-3)


def test_counts_change_by_two_at_thresholds():
    res = continuation_sweep(0.5, (0.1, 2.0), 0.1, P)
    for c in (res.eps_c1, res.eps_c2):
        lo = len(find_fixed_points(FrozenParams(c - 5e-3, 0.5, P)))
        hi = len(find_fixed_points(FrozenParams(c + 5e-3, 0.5, P)))
        assert abs(lo - hi) == 2


def test_frozen_flow_blocks_match_per_call_rk4():
    # trace_gamma's RK4 with h = dt on the lab-field kernel, against the
    # per-call co-rotating field, across three tape blocks
    fp = FrozenParams(0.5, 0.5, P)
    field = steady_state.rotating_field_frozen(fp)
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
    got = []
    for xs, ys in rk4_blocks(steady_state._frozen_lab_field(fp), 1.2, 0.1, dt):
        got += zip(xs, ys)
        if len(got) >= len(ref):
            break
    assert got[:len(ref)] == ref


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


@PROPERTY
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


def test_region_map_workers_agree():
    a = region_map((0.0, 1.0), (0.0, 4.0), 13, P, workers=1)
    b = region_map((0.0, 1.0), (0.0, 4.0), 13, P, workers=4)
    np.testing.assert_array_equal(a.codes, b.codes)


def test_region_map_rejects_workers_below_one():
    # the same rule as --threads / CHRONOTAX_THREADS in the CLI
    for workers in (0, -3):
        with pytest.raises(InvalidInputError):
            region_map((0.0, 1.0), (0.0, 4.0), 3, P, workers=workers)


@settings(PROPERTY, max_examples=25)
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
    assert region_map((0.0, 1.0), (0.0, 4.0), 3, P, workers=2).failed == 1


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
