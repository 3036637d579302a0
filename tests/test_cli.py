"""Command-line interface: files produced, config precedence, exit codes."""

import json
import warnings

import numpy as np
import pytest

from chronotax import (
    DriveSchedule,
    OscillatorParams,
    continuation_sweep,
    region_map,
    save_params,
)
from chronotax.cli import main


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def test_simulate_row_count(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--t1", "1.0", "--dt", "0.01", "--out", str(out)]) == 0
    data = read_csv(out)
    assert data.size == 101
    assert data.dtype.names == ("t", "x", "y")
    assert data["t"][-1] == pytest.approx(1.0)


def test_simulate_rotating_frame(tmp_path):
    out = tmp_path / "rot.csv"
    assert main([
        "simulate", "--t1", "2.0", "--dt", "0.01",
        "--frame", "rotating", "--out", str(out),
    ]) == 0
    assert read_csv(out).dtype.names == ("t", "r", "psi")


def test_simulate_noise_is_seed_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    args = ["simulate", "--t1", "2.0", "--dt", "0.01", "--noise", "0.3"]
    assert main(args + ["--seed", "5", "--out", str(a)]) == 0
    assert main(args + ["--seed", "5", "--out", str(b)]) == 0
    assert main(args + ["--seed", "6", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_config_file_supplies_defaults_but_flags_win(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"t1": 2.0, "dt": 0.02}))
    out = tmp_path / "traj.csv"
    assert main([
        "simulate", "--config", str(cfg), "--dt", "0.01", "--out", str(out),
    ]) == 0
    assert read_csv(out).size == 201  # t1 from config, dt from the flag


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"t1": 1.0, "stepsize": 0.01}))
    assert main(["simulate", "--config", str(cfg)]) == 2


def test_simulate_requires_end_time():
    assert main(["simulate"]) == 2


def test_inconsistent_frequency_flags():
    assert main([
        "simulate", "--t1", "1.0",
        "--omega-p", "0.6", "--delta-omega", "0.5",
    ]) == 2


def test_consistent_frequency_flags(tmp_path):
    out = tmp_path / "t.csv"
    assert main([
        "simulate", "--t1", "1.0", "--omega-p", "0.5", "--delta-omega", "0.5",
        "--out", str(out),
    ]) == 0


def test_blow_up_exit_code(tmp_path):
    assert main([
        "simulate", "--t1", "10.0", "--dt", "0.5",
        "--x0", "800000", "--out", str(tmp_path / "t.csv"),
    ]) == 3
    # a state that turns NaN is a numerical failure, not a configuration error
    assert main([
        "simulate", "--t1", "1", "--x0", "1e150", "--out", str(tmp_path / "n.csv"),
    ]) == 3
    # a start beyond the guard radius fails as a blow-up, not as bad input
    assert main([
        "simulate", "--t1", "1", "--x0", "1.5e6", "--out", str(tmp_path / "g.csv"),
    ]) == 3


def test_overflow_blow_up_warns_nothing(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([
            "simulate", "--t1", "1", "--x0", "1e150", "--out", str(tmp_path / "n.csv"),
        ]) == 3
    assert caught == []
    assert capsys.readouterr().err.startswith("numerical failure")


def test_params_file_round_trip(tmp_path):
    p = OscillatorParams(7.0, 1.0, 1.0)
    d = DriveSchedule.constant(7.2, 0.5)
    params = tmp_path / "params.json"
    save_params(params, p, d)
    out = tmp_path / "traj.csv"
    assert main([
        "simulate", "--params", str(params), "--t1", "1.0", "--dt", "0.01",
        "--out", str(out),
    ]) == 0
    # the strong pull from the file keeps the state glued to the drive point
    data = read_csv(out)
    r = np.hypot(data["x"], data["y"])
    assert np.all(np.abs(r - 1.0) < 0.2)


def test_sweep_json(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0.462 <= doc["eps_c1"] <= 0.472
    assert 1.209 <= doc["eps_c2"] <= 1.219
    assert doc["eps_c3"] == 7.0


def test_portrait_outputs(tmp_path):
    outdir = tmp_path / "p72"
    assert main([
        "portrait", "--eps-a", "7.2", "--resolution", "41",
        "--outdir", str(outdir),
    ]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["class"] == "type-III"
    assert summary["gamma_exists"] is False
    assert summary["non_contraction_present"] is False
    assert len(summary["fixed_points"]) == 1
    fp_rows = (outdir / "fixed_points.csv").read_text().strip().splitlines()
    assert fp_rows[0] == "u,v,r,psi,kind,lambda_max_sym"
    assert len(fp_rows) == 2
    assert (outdir / "contraction_map.csv").exists()
    assert (outdir / "gamma.csv").read_text().startswith("u,v")


def test_portrait_type_one_has_gamma(tmp_path):
    outdir = tmp_path / "p12"
    assert main([
        "portrait", "--eps-a", "1.2", "--resolution", "21",
        "--outdir", str(outdir),
    ]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["class"] == "type-I"
    assert summary["gamma_exists"] is True
    gamma = read_csv(outdir / "gamma.csv")
    assert gamma.size > 100


def test_thread_knobs_are_gone(tmp_path):
    # region maps are classified serially; there is no thread count to pass
    with pytest.raises(TypeError):
        region_map((0.0, 1.0), (0.0, 4.0), 3, OscillatorParams(7.0, 1.0, 1.0),
                   workers=1)
    out = tmp_path / "rm.csv"
    with pytest.raises(SystemExit) as exc:
        main(["regionmap", "--resolution", "4", "--threads", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_continuation_knobs_are_gone(tmp_path, capsys):
    # the thresholds are exact: no bisection tolerance, no scan step
    with pytest.raises(TypeError):
        continuation_sweep(0.5, (0.1, 2.0), 0.1, OscillatorParams(7.0, 1.0, 1.0), tol=1e-4)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--step", "0.1"])
    assert exc.value.code == 2
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"delta_omega": 0.5, "step": 0.1}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    capsys.readouterr()
    assert main(["sweep", "--delta-omega", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eps_c1"] == pytest.approx(0.46538191232864534, abs=1e-12)
    assert doc["eps_c2"] == pytest.approx(1.2137368545612135, abs=1e-12)


def test_verify_verdicts(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["verify", "--eps-a", "1.7", "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["chronotaxic"] is True
    assert doc["forward_defect"] < 1e-6

    assert main(["verify", "--eps-a", "0.3", "--t1", "5", "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["chronotaxic"] is False
    assert doc["offending_intervals"]


@pytest.mark.parametrize("args", [
    ["--t1", "3", "--check-interval", "0"],
    ["--t0", "5", "--t1", "5"],
    ["--t1", "3", "--dt", "0"],
    ["--t0", "5", "--t1", "1"],
])
def test_verify_refuses_bad_input(tmp_path, capsys, args):
    rep = tmp_path / "rep.json"
    assert main(["verify", *args, "--out", str(rep)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not rep.exists()


def test_cwt_pipeline(tmp_path):
    traj = tmp_path / "traj.csv"
    assert main([
        "simulate", "--eps-a", "1.7", "--t1", "100", "--dt", "0.1",
        "--out", str(traj),
    ]) == 0
    sc = tmp_path / "sc.csv"
    rg = tmp_path / "rg.csv"
    assert main([
        "cwt", "--input", str(traj), "--fmin", "0.04", "--fmax", "1.0",
        "--out", str(sc), "--ridge-out", str(rg),
    ]) == 0
    data = read_csv(rg)
    assert data.dtype.names == ("t", "f", "mag", "valid")
    # driven at omega_p = 0.5 rad/time: the ridge sits near 0.5 / 2 pi Hz
    med = np.median(data["f"][data["valid"] > 0.5])
    assert med == pytest.approx(0.5 / (2 * np.pi), rel=0.1)


def test_cwt_missing_column(tmp_path):
    traj = tmp_path / "traj.csv"
    main(["simulate", "--t1", "10", "--dt", "0.1", "--out", str(traj)])
    assert main(["cwt", "--input", str(traj), "--column", "z"]) == 2


def test_cwt_requires_input():
    assert main(["cwt"]) == 2


def test_cwt_rejects_zero_central_frequency(tmp_path):
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--t1", "100", "--dt", "0.1", "--out", str(traj)]) == 0
    sc = tmp_path / "sc.csv"
    assert main(["cwt", "--input", str(traj), "--fmin", "0.04", "--fmax", "1.0",
                 "--f0", "0", "--out", str(sc)]) == 2
    assert not sc.exists()


def test_make_figures_is_wired():
    with pytest.raises(SystemExit) as exc:
        main(["make-figures", "--help"])
    assert exc.value.code == 0
