"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines; each
criterion also hard-asserts, so the suite fails loudly if any regresses.
"""

import math
import time

import numpy as np

from chronotax import (
    CartesianState,
    ChronotaxicClass,
    DriveSchedule,
    FrozenParams,
    NoiseSpec,
    OscillatorParams,
    Schedule,
    cocycle_check,
    continuation_sweep,
    count_slips,
    cwt,
    field_lab,
    find_fixed_points,
    full_eigs,
    global_contraction_threshold,
    integrate_det,
    integrate_sde,
    jacobian_analytic,
    linear_system_report,
    morlet_freq_grid,
    region_map,
    ridge,
    sym_eigs,
    time_grid,
    verify_schedule,
)
from reference_steppers import em_reference

P = OscillatorParams(eps_gamma=7.0, omega0=1.0, r_p=1.0)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_thresholds():
    t0 = time.perf_counter()
    res = continuation_sweep(0.5, (0.1, 2.0), 0.1, P)
    c3 = global_contraction_threshold(P)
    elapsed = time.perf_counter() - t0
    ok = (
        0.462 <= res.eps_c1 <= 0.472
        and 1.209 <= res.eps_c2 <= 1.219
        and c3 == 7.0
        and elapsed < 30.0
    )
    report(1, ok,
           f"eps_c1={res.eps_c1:.5f} in [0.462,0.472], "
           f"eps_c2={res.eps_c2:.5f} in [1.209,1.219], "
           f"eps_c3={c3} == 7 exactly, {elapsed:.2f}s < 30s")


def test_criterion_2_region_map():
    t0 = time.perf_counter()
    rm = region_map((0.0, 1.5), (0.0, 8.0), 150, P)
    elapsed = time.perf_counter() - t0
    expected = {
        0.3: "not-chronotaxic",
        0.5: "type-I",
        1.2: "type-I",
        1.7: "type-II",
        7.2: "type-III",
    }
    i0 = int(np.argmin(np.abs(rm.delta_omegas - 0.5)))
    mismatches = []
    for eps_a, label in expected.items():
        j0 = int(np.argmin(np.abs(rm.eps_as - eps_a)))
        # within one grid cell of the stated coordinates
        got = {
            rm.class_at(i, j).value
            for i in range(max(i0 - 1, 0), min(i0 + 2, rm.delta_omegas.size))
            for j in range(max(j0 - 1, 0), min(j0 + 2, rm.eps_as.size))
        }
        if label not in got:
            mismatches.append((eps_a, label, sorted(got)))
    ok = not mismatches and elapsed < 300.0
    report(2, ok,
           f"150x150 row at detuning 0.5: 0.3/0.5/1.2/1.7/7.2 -> "
           f"expected classes within one cell "
           f"(mismatches={mismatches}), {elapsed:.1f}s < 300s")


def test_criterion_3_linear_dichotomy():
    shear = [[-4.0, 4.75], [0.0, -0.2]]
    tame = [[-4.0, 3.125], [0.0, -1.5]]
    e1 = np.sort(np.real(full_eigs(shear)))
    e2 = np.sort(np.real(full_eigs(tame)))
    r1 = linear_system_report(shear)
    r2 = linear_system_report(tame)
    ok = (
        np.max(np.abs(e1 - [-4.0, -0.2])) < 1e-12
        and np.max(np.abs(e2 - [-4.0, -1.5])) < 1e-12
        and r1["non_contraction_region"] is True
        and r2["non_contraction_region"] is False
    )
    report(3, ok,
           f"eigs {e1.tolist()} / {e2.tolist()} match to 1e-12; "
           f"non-contraction region only for the first "
           f"({r1['non_contraction_region']} / {r2['non_contraction_region']})")


def test_criterion_4_eigenvalue_law():
    d = DriveSchedule.constant(1.7, 0.5)
    rng = np.random.default_rng(314159)
    worst = 0.0
    n = 0
    while n < 1000:
        x, y = rng.uniform(-2.0, 2.0, size=2)
        r = math.hypot(x, y)
        if r < 0.05:
            continue
        s = CartesianState(x, y)
        lam1, lam2 = sym_eigs(jacobian_analytic(s, 0.0, P, d))
        want1 = 7.0 * (1.0 - r) - 1.7
        want2 = 7.0 * (1.0 - 2.0 * r) - 1.7
        scale = max(abs(want1), abs(want2), 1.0)
        worst = max(worst, abs(lam1 - want1) / scale, abs(lam2 - want2) / scale)
        # finite-difference oracle on the raw field
        h = 1e-6
        jac = np.empty((2, 2))
        for j, (ex, ey) in enumerate(((1.0, 0.0), (0.0, 1.0))):
            fp = field_lab(CartesianState(x + h * ex, y + h * ey), 0.0, P, d)
            fm = field_lab(CartesianState(x - h * ex, y - h * ey), 0.0, P, d)
            jac[0, j] = (fp[0] - fm[0]) / (2 * h)
            jac[1, j] = (fp[1] - fm[1]) / (2 * h)
        ref = np.sort(np.linalg.eigvalsh(0.5 * (jac + jac.T)))[::-1]
        worst = max(worst, abs(lam1 - ref[0]) / scale, abs(lam2 - ref[1]) / scale)
        n += 1
    free = DriveSchedule.constant(0.0, 0.5)
    lam1_cycle, _ = sym_eigs(jacobian_analytic(CartesianState(1.0, 0.0), 0.0, P, free))
    ok = worst < 1e-6 and abs(lam1_cycle) < 1e-12
    report(4, ok,
           f"analytic vs finite-difference eigenvalues: worst rel err "
           f"{worst:.2e} < 1e-6 over 1000 states; lambda1 at r=r_p, eps_a=0: "
           f"{lam1_cycle:.2e} == 0")


def test_criterion_5_frozen_verification():
    t0 = time.perf_counter()
    good = verify_schedule(DriveSchedule.constant(1.7, 0.5), P, 0.0, 30.0)
    bad = verify_schedule(DriveSchedule.constant(0.3, 0.5), P, 0.0, 30.0)
    elapsed = time.perf_counter() - t0
    ok = (
        good.chronotaxic
        and good.forward_defect < 1e-6
        and good.pullback_defect < 1e-6
        and good.invariance_defect < 1e-6
        and not bad.chronotaxic
        and elapsed < 60.0
    )
    report(5, ok,
           f"eps_a=1.7 -> chronotaxic with defects "
           f"fwd={good.forward_defect:.1e}, pb={good.pullback_defect:.1e}, "
           f"inv={good.invariance_defect:.1e} (< 1e-6); "
           f"eps_a=0.3 -> {bad.chronotaxic}; {elapsed:.1f}s < 60s")


def test_criterion_6_time_varying_schedule():
    rng = np.random.default_rng(2026)
    knots = np.linspace(0.0, 60.0, 13)
    vals = rng.uniform(1.5, 6.0, size=knots.size)
    d_ok = DriveSchedule(Schedule.sampled(knots, vals),
                         Schedule.constant(P.omega0 - 0.5), 0.0)
    rep_ok = verify_schedule(d_ok, P, 0.0, 60.0)

    # same course, with a 20-unit dip to 0.3 spliced over [20, 40]
    hold = (knots <= 19.5) | (knots >= 40.5)
    tk = np.concatenate([knots[hold], [19.5, 20.0, 40.0, 40.5]])
    vk = np.concatenate([
        vals[hold],
        [Schedule.sampled(knots, vals)(19.5), 0.3, 0.3,
         Schedule.sampled(knots, vals)(40.5)],
    ])
    order = np.argsort(tk)
    d_dip = DriveSchedule(Schedule.sampled(tk[order], vk[order]),
                          Schedule.constant(P.omega0 - 0.5), 0.0)
    rep_dip = verify_schedule(d_dip, P, 0.0, 60.0)

    flagged = rep_dip.offending_intervals
    dip_found = any(
        lo >= 17.0 and hi <= 43.0 and hi - lo >= 15.0 for lo, hi in flagged
    )
    ok = rep_ok.chronotaxic and not rep_dip.chronotaxic and dip_found
    report(6, ok,
           f"random pull schedule in [1.5,6] verifies chronotaxic="
           f"{rep_ok.chronotaxic}; with 20-unit dip to 0.3 -> "
           f"chronotaxic={rep_dip.chronotaxic}, flagged={flagged}")


def test_criterion_7_noise_signatures():
    t0 = time.perf_counter()
    f_drive = 0.08
    omega_p = 2.0 * math.pi * f_drive
    p = OscillatorParams(7.0, omega_p + 0.5, 1.0)

    def noisy_run(eps_a, sigma, seed, duration=500.0):
        d = DriveSchedule.constant(eps_a, omega_p)
        traj = integrate_sde(CartesianState(1.0, 0.0), 0.0, duration, 0.01,
                             p, d, NoiseSpec(sigma, seed))
        return traj, d

    def median_ridge(traj):
        x = traj.states[::10, 0]  # resample to 10 Hz for the transform
        sc = cwt(x, 10.0, morlet_freq_grid(0.01, 1.0, 32))
        return ridge(sc).median_frequency()

    traj_a, _ = noisy_run(0.47, 0.3, seed=1)
    med_a = median_ridge(traj_a)
    traj_b, _ = noisy_run(0.3, 0.1, seed=2)
    med_b = median_ridge(traj_b)

    node = [q for q in find_fixed_points(FrozenParams(0.47, 0.5, p))
            if q.is_stable][0]
    total_slips = 0
    runs_with_slip = 0
    for seed in range(100):
        traj, d = noisy_run(0.47, 0.3, seed=1000 + seed, duration=200.0)
        events = count_slips(traj.to_rotating(d), node.location.psi)
        total_slips += len(events)
        runs_with_slip += bool(events)
    elapsed = time.perf_counter() - t0

    ok_a = abs(med_a - f_drive) <= 0.1 * f_drive
    ok_b = abs(med_b - f_drive) > 0.25 * f_drive
    ok_c = total_slips >= 1
    ok = ok_a and ok_b and ok_c and elapsed < 300.0
    report(7, ok,
           f"(a) locked run median ridge {med_a:.4f} Hz within 10% of "
           f"{f_drive}; (b) drifting run median {med_b:.4f} Hz off by "
           f"{abs(med_b - f_drive) / f_drive * 100:.0f}% > 25%; "
           f"(c) {total_slips} slips across 100 runs "
           f"({runs_with_slip} runs saw one); {elapsed:.1f}s < 300s")


def test_criterion_8_integrator_contracts():
    # co-cycle on a grid-aligned split
    d = DriveSchedule.constant(1.7, 0.5)
    defect = cocycle_check(CartesianState(1.3, -0.4), 0.0, 3.0, 10.0, 1e-3, P, d)

    # fourth-order convergence on the undriven oscillator
    free = DriveSchedule.constant(0.0, 0.5)
    s0 = CartesianState(1.3, -0.4)
    ref = integrate_det(s0, 0.0, 2.0, 1e-3 / 16, P, free).final_state
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        fin = integrate_det(s0, 0.0, 2.0, dt, P, free).final_state
        errs.append(math.hypot(fin.x - ref.x, fin.y - ref.y))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]

    # stochastic increment variance over 1e5 steps
    rng = np.random.default_rng(1234)
    times = time_grid(0.0, 1000.0, 0.01)
    path = em_reference(lambda t, x, y: (0.0, 0.0), 0.0, 0.0, times, 0.4, rng)
    inc = np.diff(path, axis=0)
    expected = 0.4**2 * 0.01
    se = expected * math.sqrt(2.0 / (inc.shape[0] - 1))
    var_err = float(np.max(np.abs(inc.var(axis=0) - expected)))

    ok = (
        defect <= 1e-9
        and all(3.7 < o < 4.3 for o in orders)
        and var_err < 3 * se
    )
    report(8, ok,
           f"co-cycle defect {defect:.1e} <= 1e-9; convergence orders "
           f"{[f'{o:.2f}' for o in orders]} ~ 4; SDE increment variance off "
           f"by {var_err:.2e} < 3se={3 * se:.2e}")
