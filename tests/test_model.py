"""Vector-field definitions, schedules, and parameter serialization."""

import json
import math

import numpy as np
import pytest

from chronotax import (
    CartesianState,
    DriveSchedule,
    InvalidInputError,
    OscillatorParams,
    PolarState,
    Schedule,
    field_lab,
    field_rotating,
    load_params,
    params_from_dict,
    params_to_dict,
    save_params,
)

P = OscillatorParams(eps_gamma=7.0, omega0=1.0, r_p=1.0)
D = DriveSchedule.constant(1.7, P.omega0 - 0.5)


def test_field_lab_hand_values():
    # at the origin only the pull toward the drive point acts
    dx, dy = field_lab(CartesianState(0.0, 0.0), 0.0, P, D)
    assert dx == pytest.approx(1.7, abs=1e-15)
    assert dy == pytest.approx(0.0, abs=1e-15)
    # on the unit circle at the drive point: pure rotation
    dx, dy = field_lab(CartesianState(1.0, 0.0), 0.0, P, D)
    assert dx == pytest.approx(0.0, abs=1e-15)
    assert dy == pytest.approx(1.0, abs=1e-15)


def test_field_rotating_hand_values():
    dr, dpsi = field_rotating(PolarState(1.0, 0.0), 0.0, P, D)
    assert dr == pytest.approx(0.0, abs=1e-15)
    assert dpsi == pytest.approx(0.5, abs=1e-15)

    d1 = DriveSchedule.constant(1.0, P.omega0 - 0.5)
    dr, dpsi = field_rotating(PolarState(0.5, math.pi / 2), 0.0, P, d1)
    assert dr == pytest.approx(-7.0 * (0.5 - 1.0) * 0.5 - 1.0 * 0.5, abs=1e-12)
    assert dpsi == pytest.approx(0.5 - 1.0 * (1.0 / 0.5), abs=1e-12)


def test_frames_agree():
    # the rotating-frame field is the lab field seen from the drive angle
    rng = np.random.default_rng(7)
    d = DriveSchedule.constant(1.3, 0.62, alpha0=0.4)
    for _ in range(1000):
        r = rng.uniform(0.05, 2.5)
        psi = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(0.0, 20.0)
        a = d.alpha_p(t)
        phi = psi + a
        x, y = r * math.cos(phi), r * math.sin(phi)
        dx, dy = field_lab(CartesianState(x, y), t, P, d)
        dr_lab = (x * dx + y * dy) / r
        dphi_lab = (x * dy - y * dx) / r**2
        dr, dpsi = field_rotating(PolarState(r, psi), t, P, d)
        assert abs(dr - dr_lab) < 1e-10
        assert abs(dpsi - (dphi_lab - d.omega_p(t))) < 1e-10


def test_rotational_symmetry_without_drive():
    # with eps_a = 0 the lab field commutes with rotations
    d0 = DriveSchedule.constant(0.0, 0.5)
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, y = rng.uniform(-2, 2, size=2)
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        dx, dy = field_lab(CartesianState(x, y), 0.3, P, d0)
        dxr, dyr = field_lab(
            CartesianState(c * x - s * y, s * x + c * y), 0.3, P, d0
        )
        assert abs(dxr - (c * dx - s * dy)) < 1e-12
        assert abs(dyr - (s * dx + c * dy)) < 1e-12


def test_polar_validation():
    with pytest.raises(InvalidInputError):
        PolarState(-0.5, 0.0)
    with pytest.raises(InvalidInputError):
        CartesianState(float("nan"), 0.0)
    with pytest.raises(InvalidInputError):
        OscillatorParams(-1.0, 1.0, 1.0)


def test_schedule_constant():
    s = Schedule.constant(2.5)
    assert s.is_constant
    assert s(13.7) == 2.5
    assert s.integral(4.0) == 10.0
    np.testing.assert_allclose(s(np.array([0.0, 1.0])), [2.5, 2.5])


def test_schedule_linear_interp_and_integral():
    s = Schedule.sampled([0.0, 1.0, 3.0], [1.0, 3.0, 3.0])
    assert s(0.5) == pytest.approx(2.0)
    assert s(2.0) == pytest.approx(3.0)
    assert s(-1.0) == pytest.approx(1.0)  # clamped before the first knot
    assert s(10.0) == pytest.approx(3.0)
    # integral is the exact area under the polyline
    assert s.integral(1.0) == pytest.approx(2.0, abs=1e-14)
    assert s.integral(3.0) == pytest.approx(8.0, abs=1e-14)
    assert s.integral(5.0) == pytest.approx(14.0, abs=1e-14)


def test_schedule_integral_matches_quadrature():
    rng = np.random.default_rng(5)
    knots = np.sort(rng.uniform(0.0, 10.0, size=9))
    vals = rng.uniform(0.5, 4.0, size=9)
    s = Schedule.sampled(knots, vals)
    for t in rng.uniform(knots[0], knots[-1], size=20):
        grid = np.linspace(knots[0], t, 20001)
        approx = np.trapezoid(s(grid), grid) + s.integral(knots[0])
        assert abs(s.integral(t) - approx) < 1e-6


def test_schedule_step_interp():
    s = Schedule.sampled([0.0, 2.0], [1.0, 5.0], interp="previous")
    assert s(1.999) == 1.0
    assert s(2.0) == 5.0
    assert s.integral(3.0) == pytest.approx(2.0 * 1.0 + 1.0 * 5.0, abs=1e-14)


def test_schedule_validation():
    with pytest.raises(InvalidInputError):
        Schedule.sampled([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        Schedule.sampled([0.0], [1.0])
    with pytest.raises(InvalidInputError):
        Schedule.sampled([0.0, 1.0], [1.0, 2.0], interp="cubic")


def test_drive_validation():
    with pytest.raises(InvalidInputError):
        DriveSchedule.constant(-0.1, 0.5)
    with pytest.raises(InvalidInputError):
        DriveSchedule(Schedule.sampled([0, 1], [0.5, -0.5]), Schedule.constant(0.5), 0.0)


def test_drive_angle_integrates_frequency():
    d = DriveSchedule(
        Schedule.constant(1.0),
        Schedule.sampled([0.0, 10.0], [0.5, 1.5]),
        alpha0=0.25,
    )
    assert d.alpha_p(0.0) == pytest.approx(0.25)
    # ramp from 0.5 to 1.5 over [0, 10]: area to t=10 is 10
    assert d.alpha_p(10.0) == pytest.approx(10.25, abs=1e-12)
    x, y = d.drive_point(0.0, r_p=2.0)
    assert x == pytest.approx(2.0 * math.cos(0.25))
    assert y == pytest.approx(2.0 * math.sin(0.25))


def test_params_round_trip(tmp_path):
    d = DriveSchedule(
        Schedule.sampled([0.0, 5.0], [1.5, 2.5]),
        Schedule.constant(0.5),
        alpha0=0.1,
    )
    path = tmp_path / "params.json"
    save_params(path, P, d)
    p2, d2 = load_params(path)
    assert p2 == P
    assert d2.alpha0 == 0.1
    np.testing.assert_allclose(d2.eps_a.times, [0.0, 5.0])
    np.testing.assert_allclose(d2.eps_a.values, [1.5, 2.5])
    assert d2.omega_p.is_constant and d2.omega_p.values == 0.5


def test_params_dict_rejects_unknown_and_missing_keys():
    doc = params_to_dict(P, D)
    bad = dict(doc)
    bad["extra"] = 1.0
    with pytest.raises(InvalidInputError):
        params_from_dict(bad)
    missing = dict(doc)
    del missing["eps_a"]
    with pytest.raises(InvalidInputError):
        params_from_dict(missing)


def test_params_dict_is_plain_json():
    doc = params_to_dict(P, D)
    json.dumps(doc)  # must not contain numpy scalars
    p2, d2 = params_from_dict(doc)
    assert p2 == P
    assert d2.eps_a.values == 1.7
