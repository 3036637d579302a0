"""Command-line interface: files produced, config precedence, exit codes."""

import argparse
import inspect
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronotax import (
    CartesianState,
    DriveSchedule,
    OscillatorParams,
    PolarState,
    Trajectory,
    VerificationReport,
    attractor_track,
    continuation_sweep,
    field_rotating,
    jacobian_analytic,
    region_map,
    save_params,
    select_trapping_radius,
    verify_attraction,
    verify_schedule,
)
from chronotax import export
from chronotax.cli import _build_parser, _options, _resolve_system, main
from chronotax.integrate import time_grid
from chronotax.model import R_MIN
from chronotax.verify import DEFAULT_RADIUS_LADDER, DEFAULT_VERIFY_DT


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def subparsers():
    """The parser of each subcommand, by name."""
    return next(a for a in _build_parser()._actions if a.dest == "command").choices


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


@pytest.mark.parametrize("command, values, out_flag", [
    ("simulate", {"t1": 1, "noise": "abc"}, "--out"),
    ("simulate", {"t1": 1, "dt": "x"}, "--out"),
    ("regionmap", {"resolution": "many"}, "--out"),
    ("simulate", {"t1": 1, "seed": 2.5}, "--out"),
    ("simulate", {"t1": True}, "--out"),
    ("simulate", {"t1": 1, "frame": "polar"}, "--out"),
    ("simulate", {"t1": 1, "eps_a": [1.0, 2.0]}, "--out"),
    ("portrait", {"bounds": [-2.0], "resolution": 5}, "--outdir"),
])
def test_config_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, command,
                                                          values, out_flag):
    # read as the flag would read it: a configuration error, not a traceback
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), out_flag, str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: config key ")
    assert not out.exists()


def test_config_values_are_read_as_their_flags(tmp_path):
    # numbers as strings and whole floats for integers, as on the command
    # line; a drive key may hold a schedule object and bounds a pair
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"t1": "0.1", "dt": 0.01, "seed": 3.0, "noise": "0.2",
                               "eps_a": {"t": [0.0, 1.0], "v": [1.0, 2.0]}}))
    m = _options(["simulate", "--config", str(cfg)])
    assert (m["t1"], m["seed"], m["noise"]) == (0.1, 3, 0.2)
    assert type(m["seed"]) is int
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_csv(out).size == 11
    cfg.write_text(json.dumps({"bounds": [-2, 2], "resolution": 5.0, "format": "block"}))
    m = _options(["portrait", "--config", str(cfg)])
    assert (m["bounds"], m["resolution"], m["format"]) == ([-2.0, 2.0], 5, "block")


#: every flag that a config key stands for, but --config and --params
FLAGS = [(command, flag) for command, parser in subparsers().items()
         for flag in parser._actions
         if flag.option_strings and flag.dest not in ("help", "config", "params")]


def flag_values(flag):
    """Values the flag reads, negative numbers and strings led by '-' among them."""
    if flag.choices:
        return st.sampled_from(flag.choices)
    if flag.nargs:
        # multiples of 1/64 print without an exponent, so the command line
        # reads a negative one as a value, not as a flag
        word = st.integers(-2**40, 2**40).map(lambda k: k / 64)
        return st.lists(word, min_size=flag.nargs, max_size=flag.nargs)
    if flag.type is int:
        return st.integers()
    if flag.type is float:
        return st.floats(allow_nan=False)
    text = st.text(st.characters(exclude_categories=("Cs",)))
    return text | text.map("-".__add__)


def flag_words(flag, value):
    """The command-line words that give ``value`` to ``flag``."""
    name = flag.option_strings[0]
    if flag.nargs:
        return [name, *map(repr, value)]
    return [f"{name}={value if isinstance(value, str) else repr(value)}"]


def options_but_config(argv):
    return {k: v for k, v in _options(argv).items() if k != "config"}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_config_key_is_its_flag(tmp_path_factory, data):
    command, flag = data.draw(st.sampled_from(FLAGS), label="flag")
    value = data.draw(flag_values(flag), label="config value")
    given_value = data.draw(flag_values(flag), label="flag value")
    cfg = tmp_path_factory.mktemp("config") / "c.json"
    cfg.write_text(json.dumps({flag.dest: value}))
    from_file = options_but_config([command, "--config", str(cfg)])
    assert from_file == options_but_config([command, *flag_words(flag, value)])
    # the command line beats the config file, wherever --config stands
    given = flag_words(flag, given_value)
    expected = options_but_config([command, *given])
    assert options_but_config([command, "--config", str(cfg), *given]) == expected
    assert options_but_config([command, *given, "--config", str(cfg)]) == expected


def test_config_numbers_read_as_their_values_in_any_notation(tmp_path):
    # a negative number in exponent notation is no flag in a config list
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bounds": [-1e-05, 2e16], "time": -1e-300, "resolution": 1e20}))
    m = _options(["portrait", "--config", str(cfg)])
    assert (m["bounds"], m["time"], m["resolution"]) == ([-1e-05, 2e16], -1e-300, 10**20)


@pytest.mark.parametrize("word, value", [("-1e-5", -1e-5), ("-2.5E+1", -25.0),
                                         ("-.5", -0.5)])
def test_a_negative_number_in_exponent_notation_is_a_value(tmp_path, word, value):
    # a word led by '-' that spells a number is no flag on the command line
    # either, in a subcommand's pair of values or as a single one
    assert _options(["portrait", "--bounds", word, "2"])["bounds"] == [value, 2.0]
    assert _options(["portrait", "--time", word])["time"] == value
    out = tmp_path / "portrait"
    assert main(["portrait", "--bounds", word, "2", "--resolution", "5",
                 "--outdir", str(out)]) == 0
    assert (out / "summary.json").exists()


@pytest.mark.parametrize("command", ["simulate", "portrait", "verify"])
def test_a_drive_schedule_in_the_config_loses_to_its_flag(tmp_path, command):
    schedule = {"t": [0.0, 1.0], "v": [1.0, 2.0]}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"eps_a": schedule, "omega_p": None}))
    m = _options([command, "--config", str(cfg)])
    assert (m["eps_a"], m["omega_p"]) == (schedule, None)
    assert _options([command, "--config", str(cfg), "--eps-a", "3"])["eps_a"] == 3.0
    assert _options([command, "--eps-a", "3", "--config", str(cfg)])["eps_a"] == 3.0


@pytest.mark.parametrize("command", sorted(subparsers()))
def test_help_shows_every_default(capsys, command):
    # a stray '%' in a help string fails only here, when help is rendered
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag in subparsers()[command]._actions:
        if flag.default not in (None, argparse.SUPPRESS):
            assert f"(default: {flag.default})" in text, flag.dest


@pytest.mark.parametrize("args", [
    *(["regionmap", "--resolution", "3", "--beta", word]
      for word in ("nan", "inf", "0", "-1")),
    ["portrait", "--resolution", "5", "--beta", "inf"],
], ids=lambda args: f"{args[0]}-beta={args[-1]}")
def test_a_bad_beta_exits_2_and_writes_no_labels(tmp_path, args):
    out = tmp_path / "out"
    flag = "--out" if args[0] == "regionmap" else "--outdir"
    assert main(args + [flag, str(out)]) == 2
    assert [f for f in tmp_path.rglob("*") if f.is_file()] == []


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


@pytest.mark.parametrize("content", [
    None,                        # no such file
    '{"eps_gamma": ',            # not JSON
    "[7.0, 1.0, 1.0]",           # JSON, but not an object
    '{"eps_gamma": "seven", "omega0": 1, "r_p": 1, "eps_a": 1.7, "omega_p": 0.5}',
])
def test_unreadable_params_file_is_a_config_error(tmp_path, capsys, content):
    # exit 2 with a message, as a missing or malformed --config does
    params = tmp_path / "params.json"
    if content is not None:
        params.write_text(content)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--params", str(params), "--t1", "1", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("given", [["--eps-gamma", "7"], ["--config"]])
def test_given_value_equal_to_the_default_beats_the_params_file(tmp_path, given):
    params = tmp_path / "params.json"
    save_params(params, OscillatorParams(5.0, 1.0, 1.0), DriveSchedule.constant(1.7, 0.5))
    if given == ["--config"]:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"eps_gamma": 7.0}))
        given = ["--config", str(cfg)]
    p, _ = _resolve_system(_options(["simulate", "--params", str(params), *given]))
    assert p.eps_gamma == 7.0
    p, _ = _resolve_system(_options(["simulate", "--params", str(params)]))
    assert p.eps_gamma == 5.0


@pytest.mark.parametrize("args", [["--noise", "nan"], ["--noise", "0.3", "--seed", "-1"],
                                  ["--seed", "-1"]])
def test_simulate_refuses_bad_noise(tmp_path, capsys, args):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--t1", "1", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--eps-a-max", "--delta-omega-min"])
def test_regionmap_refuses_non_finite_ranges(tmp_path, capsys, flag):
    out = tmp_path / "rm.csv"
    assert main(["regionmap", "--resolution", "3", flag, "nan", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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


def test_verify_steps_at_the_library_default(tmp_path, capsys):
    # every optional parameter of verify_schedule is a flag of the command
    # with the library's default, and the help names it
    optional = {name: par.default
                for name, par in inspect.signature(verify_schedule).parameters.items()
                if par.default is not inspect.Parameter.empty}
    flags = {a.dest: a.default for a in subparsers()["verify"]._actions}
    assert {name: flags.get(name) for name in optional} == optional
    assert optional["dt"] == DEFAULT_VERIFY_DT
    rep = tmp_path / "rep.json"
    assert main(["verify", "--eps-a", "1.7", "--t1", "5", "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert (doc["dt"], doc["beta"]) == (optional["dt"], optional["beta"])
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert all(f"(default: {default})" in out for default in optional.values())


P7 = OscillatorParams(7.0, 1.0, 1.0)
D17 = DriveSchedule.constant(1.7, 0.5)
#: each keyword that became a constant, at the default it had, by the call
#: that took it
GONE_KNOBS = [
    (entry, call, name, value)
    for entry, call, defaults in [
        ("verify_schedule", lambda **kw: verify_schedule(D17, P7, 0.0, 3.0, **kw),
         dict(boundary_samples=720, sample_interval=0.1, ladder=DEFAULT_RADIUS_LADDER,
              ensemble_size=8, seed=2026, forward_tol=1e-6, pullback_tol=1e-6,
              invariance_tol=1e-4)),
        ("verify_attraction", lambda **kw: verify_attraction(P7, D17, 0.0, 3.0, 1e-2, **kw),
         dict(ensemble_size=8, seed=2026, start_radius=2.0)),
        ("select_trapping_radius", lambda **kw: select_trapping_radius(
            Trajectory(0.0, 0.1, time_grid(0.0, 1.0, 0.1), np.tile([0.6, 0.0], (11, 1))),
            P7, D17, **kw), dict(ladder=DEFAULT_RADIUS_LADDER)),
        ("attractor_track", lambda **kw: attractor_track(D17, P7, 0.0, 3.0, 1e-2, **kw),
         dict(max_window=500.0)),
        ("jacobian_analytic", lambda **kw: jacobian_analytic(
            CartesianState(1.0, 0.0), 0.0, P7, D17, **kw), dict(r_min=R_MIN)),
        ("field_rotating", lambda **kw: field_rotating(
            PolarState(1.0, 0.0), 0.0, P7, D17, **kw), dict(r_min=R_MIN)),
        ("to_json", lambda **kw: VerificationReport(False, (0.0, 1.0), 0.1, 1e-3, 3).to_json(
            **kw), dict(indent=2)),
        ("write_csv", lambda **kw: export.write_csv(io.StringIO(), "t", [np.zeros(2)], **kw),
         dict(fmt="%.15g")),
    ]
    for name, value in defaults.items()
]


@pytest.mark.parametrize("entry, call, name, value", GONE_KNOBS,
                         ids=[f"{entry}-{name}" for entry, _, name, _ in GONE_KNOBS])
def test_verify_knobs_are_gone(entry, call, name, value):
    # the ensemble, the ladder, the sampling, the thresholds and the output
    # formats are fixed: each keyword is refused, even at its old default
    with pytest.raises(TypeError, match=name):
        call(**{name: value})


@pytest.mark.parametrize("args", [
    ["--t1", "3", "--check-interval", "0"],
    ["--t0", "5", "--t1", "5"],
    ["--t1", "3", "--dt", "0"],
    ["--t0", "5", "--t1", "1"],
    ["--eps-gamma", "1", "--t1", "0.5", "--dt", "0.5"],
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


@pytest.mark.parametrize("times", [(1, 1, 1), (0, 1, 1, 2), (2, 1, 0)])
def test_cwt_refuses_times_that_do_not_advance(tmp_path, capsys, times):
    traj = tmp_path / "traj.csv"
    traj.write_text("t,x\n" + "".join(f"{t},{0.5 + 0.1 * i}\n" for i, t in enumerate(times)))
    sc = tmp_path / "sc.csv"
    assert main(["cwt", "--input", str(traj), "--out", str(sc)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not sc.exists()


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
