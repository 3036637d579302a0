"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``simulate``
(integration), ``portrait`` (contraction map + fixed points + closed curve),
``sweep`` (saddle-node continuation), ``regionmap`` (parameter-plane
classification), ``verify`` (chronotaxicity certificate), ``cwt``
(scalogram/ridge analysis of a trajectory file), and ``make-figures``
(regenerates the canonical data sets at desk scale).

Every flag mirrors a config-file key one-to-one: ``--config file.json``
supplies defaults, explicit flags win, unknown config keys are rejected,
and each config value is read with its flag's type and choices.
A model field set by either beats a ``--params`` file.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import signal as sig
from .contraction import contraction_map, linear_system_report
from .errors import ChronotaxError, ConfigError, InvalidInputError
from .integrate import NoiseSpec, integrate_det, integrate_sde
from .model import (
    CartesianState,
    DriveSchedule,
    OscillatorParams,
    Schedule,
    _schedule_from_obj,
    load_params,
)
from .steady_state import (
    FrozenParams,
    classify,
    continuation_sweep,
    find_fixed_points,
    frozen_at,
    region_map,
    trace_gamma,
)
from .verify import verify_schedule

_MODEL_DEFAULTS = {
    "params": None,
    "eps_gamma": 7.0,
    "omega0": 1.0,
    "r_p": 1.0,
    "eps_a": 1.7,
    "omega_p": None,
    "delta_omega": None,
    "alpha0": 0.0,
}

DEFAULT_DELTA_OMEGA = 0.5

#: the model keys of a command start unset, so that :func:`_resolve_system`
#: can tell a value given by the config file or a flag from a default
_MODEL_KEYS = dict.fromkeys(_MODEL_DEFAULTS)

_DEFAULTS = {
    "simulate": {
        **_MODEL_KEYS,
        "t0": 0.0, "t1": None, "dt": 1e-3, "x0": None, "y0": None,
        "frame": "lab", "noise": 0.0, "seed": 0, "out": "trajectory.csv",
    },
    "portrait": {
        **_MODEL_KEYS,
        "time": 0.0, "bounds": (-2.5, 2.5), "resolution": 500, "beta": 1e-3,
        "outdir": "portrait", "format": "csv",
    },
    "sweep": {
        "eps_gamma": 7.0, "omega0": 1.0, "r_p": 1.0, "delta_omega": DEFAULT_DELTA_OMEGA,
        "eps_a_min": 0.1, "eps_a_max": 2.0, "out": None,
    },
    "regionmap": {
        "eps_gamma": 7.0, "omega0": 1.0, "r_p": 1.0,
        "delta_omega_min": 0.0, "delta_omega_max": 1.5,
        "eps_a_min": 0.0, "eps_a_max": 8.0, "resolution": 150,
        "beta": 1e-3, "out": "region_map.csv",
    },
    "verify": {
        **_MODEL_KEYS,
        "t0": 0.0, "t1": 30.0, "dt": 1e-3, "check_interval": 0.5,
        "beta": 1e-3, "out": None,
    },
    "cwt": {
        "input": None, "column": None, "fmin": 0.005, "fmax": 2.0,
        "voices": 32, "f0": 1.0, "out": "scalogram.csv",
        "ridge_out": "ridge.csv", "format": "csv",
    },
    "make-figures": {"outdir": "figures"},
}


def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="chronotax",
        description="Chronotaxic-oscillator simulation and analysis toolkit.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    def cfg_flag(sp):
        sp.add_argument("--config", help="JSON file of flag defaults (flags override)")

    def model_flags(sp):
        sp.add_argument("--params", help="JSON parameter document (see save_params)")
        sp.add_argument("--eps-gamma", type=float, help="radial stiffness (default 7)")
        sp.add_argument("--omega0", type=float, help="natural frequency, rad/time (default 1)")
        sp.add_argument("--r-p", type=float, help="drive radius (default 1)")
        sp.add_argument("--eps-a", type=float, help="pull strength (default 1.7)")
        sp.add_argument("--omega-p", type=float, help="drive frequency, rad/time")
        sp.add_argument("--delta-omega", type=float,
                        help="detuning omega0 - omega_p (default 0.5 when neither given)")
        sp.add_argument("--alpha0", type=float, help="drive angle at t=0 (default 0)")

    sp = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    cfg_flag(sp)
    model_flags(sp)
    sp.add_argument("--t0", type=float)
    sp.add_argument("--t1", type=float, help="end time (required)")
    sp.add_argument("--dt", type=float, help="fixed step (default 1e-3)")
    sp.add_argument("--x0", type=float, help="start x (default: r_p)")
    sp.add_argument("--y0", type=float, help="start y (default: 0)")
    sp.add_argument("--frame", choices=("lab", "rotating"))
    sp.add_argument("--noise", type=float, help="noise intensity sigma (0 = deterministic)")
    sp.add_argument("--seed", type=int, help="noise RNG seed (default 0)")
    sp.add_argument("--out", help="output CSV path (default trajectory.csv)")

    sp = sub.add_parser("portrait", help="contraction map, fixed points, closed curve")
    cfg_flag(sp)
    model_flags(sp)
    sp.add_argument("--time", type=float, help="instant at which schedules are frozen")
    sp.add_argument("--bounds", type=float, nargs=2, metavar=("LO", "HI"),
                    help="square grid bounds (default -2.5 2.5)")
    sp.add_argument("--resolution", type=int, help="cells per axis (default 500)")
    sp.add_argument("--beta", type=float, help="contraction margin (default 1e-3)")
    sp.add_argument("--outdir", help="output directory (default portrait)")
    sp.add_argument("--format", choices=("csv", "block"), help="map file format")

    sp = sub.add_parser("sweep", help="saddle-node continuation along the pull strength")
    cfg_flag(sp)
    sp.add_argument("--eps-gamma", type=float)
    sp.add_argument("--omega0", type=float)
    sp.add_argument("--r-p", type=float)
    sp.add_argument("--delta-omega", type=float, help="detuning (default 0.5)")
    sp.add_argument("--eps-a-min", type=float)
    sp.add_argument("--eps-a-max", type=float)
    sp.add_argument("--out", help="JSON output path (default: stdout)")

    sp = sub.add_parser("regionmap", help="classify the detuning/pull-strength plane")
    cfg_flag(sp)
    sp.add_argument("--eps-gamma", type=float)
    sp.add_argument("--omega0", type=float)
    sp.add_argument("--r-p", type=float)
    sp.add_argument("--delta-omega-min", type=float)
    sp.add_argument("--delta-omega-max", type=float)
    sp.add_argument("--eps-a-min", type=float)
    sp.add_argument("--eps-a-max", type=float)
    sp.add_argument("--resolution", type=int, help="cells per axis (default 150)")
    sp.add_argument("--beta", type=float)
    sp.add_argument("--out", help="CSV output path (default region_map.csv)")

    sp = sub.add_parser("verify", help="chronotaxicity certificate for a schedule")
    cfg_flag(sp)
    model_flags(sp)
    sp.add_argument("--t0", type=float)
    sp.add_argument("--t1", type=float, help="end of the verification window (default 30)")
    sp.add_argument("--dt", type=float)
    sp.add_argument("--check-interval", type=float,
                    help="classification sampling interval (default 0.5)")
    sp.add_argument("--beta", type=float)
    sp.add_argument("--out", help="report JSON path (default: stdout)")

    sp = sub.add_parser("cwt", help="scalogram and ridge of a trajectory CSV")
    cfg_flag(sp)
    sp.add_argument("--input", help="trajectory CSV (required)")
    sp.add_argument("--column", help="signal column (default: x, or r)")
    sp.add_argument("--fmin", type=float)
    sp.add_argument("--fmax", type=float)
    sp.add_argument("--voices", type=int, help="frequency bins per octave (default 32)")
    sp.add_argument("--f0", type=float, help="wavelet central frequency (default 1)")
    sp.add_argument("--out", help="scalogram path (default scalogram.csv)")
    sp.add_argument("--ridge-out", help="ridge CSV path (default ridge.csv)")
    sp.add_argument("--format", choices=("csv", "block"))

    sp = sub.add_parser("make-figures",
                        help="regenerate the canonical data sets at desk scale")
    cfg_flag(sp)
    sp.add_argument("--outdir", help="output directory (default figures)")

    return root


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    file_values = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_values) - set(merged)
        if unknown:
            raise ConfigError(
                f"unknown config keys for {command}: {sorted(unknown)}"
            )
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        flags = {a.dest: a for a in sub.choices[command]._actions}
        file_values = {key: _config_value(flags[key], value)
                       for key, value in file_values.items()}
    merged.update(file_values)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    return merged


def _config_value(flag: argparse.Action, value):
    """A config-file value read as its flag would read it from the command line.

    ``null`` leaves the key unset, a drive key may hold a ``{t, v}`` schedule
    object, and a flag taking several values takes a list of them.
    """
    if value is None or (flag.dest in ("eps_a", "omega_p") and isinstance(value, dict)):
        return value
    if flag.nargs is None:
        return _config_word(flag, value)
    if not (isinstance(value, list) and len(value) == flag.nargs):
        raise ConfigError(f"config key {flag.dest!r} needs a list of {flag.nargs} "
                          f"values, got {value!r}")
    return [_config_word(flag, v) for v in value]


def _config_word(flag: argparse.Action, value):
    """One config-file value converted with its flag's type and checked against
    its choices.  A JSON number stands for a number only, and for an integer
    flag only when it is whole."""
    convert = flag.type or str
    accepted = (str,) if convert is str else (str, int, float)
    try:
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise TypeError(type(value).__name__)
        if convert is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not a whole number")
        word = convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {flag.dest!r}: cannot read {value!r} "
                          f"as {convert.__name__}") from exc
    if flag.choices is not None and word not in flag.choices:
        raise ConfigError(f"config key {flag.dest!r} must be one of "
                          f"{list(flag.choices)}, got {value!r}")
    return word


def _as_drive_value(value, name: str) -> Schedule:
    if isinstance(value, Schedule):
        return value
    return _schedule_from_obj(value, name)


def _resolve_system(m: dict) -> tuple[OscillatorParams, DriveSchedule]:
    """Build the oscillator and drive from merged options.

    Each model field comes from the config file or a flag when given there,
    else from the params file when one is named, else from the default.
    The detuning is reconciled with the drive frequency: give one or the
    other (both only if consistent), else the default detuning applies.
    """
    seeded = dict(_MODEL_DEFAULTS)
    if m.get("params"):
        path = m["params"]
        try:
            p0, d0 = load_params(path)
        except OSError as exc:
            raise ConfigError(f"cannot read params {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"params {path} is not valid JSON: {exc}") from exc
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ChronotaxError):
                raise
            raise ConfigError(f"bad parameters in {path}: {exc}") from exc
        seeded.update(eps_gamma=p0.eps_gamma, omega0=p0.omega0, r_p=p0.r_p,
                      eps_a=d0.eps_a, omega_p=d0.omega_p, alpha0=d0.alpha0)
    seeded.update((key, m[key]) for key in _MODEL_DEFAULTS if m.get(key) is not None)
    try:
        p = OscillatorParams(float(seeded["eps_gamma"]), float(seeded["omega0"]),
                             float(seeded["r_p"]))
        eps_a = _as_drive_value(seeded["eps_a"], "eps_a")
        alpha0 = float(seeded["alpha0"])
        omega_p = seeded.get("omega_p")
        delta_omega = seeded.get("delta_omega")
        if omega_p is not None:
            omega_p = _as_drive_value(omega_p, "omega_p")
            if delta_omega is not None:
                if not omega_p.is_constant:
                    raise ConfigError(
                        "give either a drive-frequency schedule or a detuning, not both"
                    )
                if abs(p.omega0 - float(omega_p.values) - float(delta_omega)) > 1e-9:
                    raise ConfigError(
                        "inconsistent drive frequency and detuning: "
                        f"omega0 - omega_p = {p.omega0 - float(omega_p.values):g} "
                        f"but delta_omega = {float(delta_omega):g}"
                    )
        else:
            dw = DEFAULT_DELTA_OMEGA if delta_omega is None else float(delta_omega)
            omega_p = Schedule.constant(p.omega0 - dw)
        return p, DriveSchedule(eps_a, omega_p, alpha0)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ChronotaxError):
            raise
        raise ConfigError(f"bad model parameters: {exc}") from exc


# --- subcommand bodies ---


def cmd_simulate(m: dict) -> int:
    p, d = _resolve_system(m)
    if m["t1"] is None:
        raise ConfigError("simulate needs --t1")
    t0, t1, dt = float(m["t0"]), float(m["t1"]), float(m["dt"])
    x0 = p.r_p if m["x0"] is None else float(m["x0"])
    y0 = 0.0 if m["y0"] is None else float(m["y0"])
    start = CartesianState(x0, y0)
    noise = NoiseSpec(float(m["noise"]), m["seed"])
    if noise.sigma > 0.0:
        traj = integrate_sde(start, t0, t1, dt, p, d, noise)
    else:
        traj = integrate_det(start, t0, t1, dt, p, d)
    if m["frame"] == "rotating":
        traj = traj.to_rotating(d)
    traj.to_csv(m["out"])
    print(f"wrote {m['out']} ({traj.times.size} samples, frame={traj.frame})")
    return 0


def _write_fixed_points(path, points) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u,v,r,psi,kind,lambda_max_sym\n")
        for q in points:
            u, v = q.uv
            fh.write("%.15g,%.15g,%.15g,%.15g,%s,%.15g\n"
                     % (u, v, q.location.r, q.location.psi, q.kind.value,
                        q.lambda_max_sym))


def cmd_portrait(m: dict) -> int:
    p, d = _resolve_system(m)
    t = float(m["time"])
    outdir = Path(m["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    cmap = contraction_map(tuple(m["bounds"]), int(m["resolution"]), t, p, d,
                           beta=float(m["beta"]))
    if m["format"] == "block":
        map_path = outdir / "contraction_map.block"
        cmap.to_block(map_path)
    else:
        map_path = outdir / "contraction_map.csv"
        cmap.to_csv(map_path)
    fp = frozen_at(p, d, t)
    points = find_fixed_points(fp)
    fp_path = outdir / "fixed_points.csv"
    _write_fixed_points(fp_path, points)
    gamma = trace_gamma(fp)
    gamma_path = outdir / "gamma.csv"
    if gamma.exists:
        gamma.to_csv(gamma_path)
    else:
        gamma_path.write_text("u,v\n", encoding="utf-8")
    summary = {
        "eps_a": fp.eps_a,
        "delta_omega": fp.delta_omega,
        "time": t,
        "class": classify(fp, beta=float(m["beta"])).value,
        "gamma_exists": gamma.exists,
        "non_contraction_present": bool(cmap.non_contraction_present()),
        "fixed_points": [
            {"r": q.location.r, "psi": q.location.psi, "kind": q.kind.value,
             "lambda_max_sym": q.lambda_max_sym}
            for q in points
        ],
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                         encoding="utf-8")
    print(f"wrote {map_path}, {fp_path}, {gamma_path}, {outdir / 'summary.json'}")
    return 0


def cmd_sweep(m: dict) -> int:
    p = OscillatorParams(float(m["eps_gamma"]), float(m["omega0"]), float(m["r_p"]))
    lo, hi = float(m["eps_a_min"]), float(m["eps_a_max"])
    # the thresholds are exact; continuation_sweep only checks its unused step
    result = continuation_sweep(float(m["delta_omega"]), (lo, hi), 0.5 * (hi - lo), p)
    doc = json.dumps(result.to_dict(), indent=2)
    if m["out"]:
        Path(m["out"]).write_text(doc + "\n", encoding="utf-8")
        print(f"wrote {m['out']}")
    else:
        print(doc)
    return 0


def cmd_regionmap(m: dict) -> int:
    p = OscillatorParams(float(m["eps_gamma"]), float(m["omega0"]), float(m["r_p"]))
    rm = region_map(
        (float(m["delta_omega_min"]), float(m["delta_omega_max"])),
        (float(m["eps_a_min"]), float(m["eps_a_max"])),
        int(m["resolution"]), p, beta=float(m["beta"]),
    )
    rm.to_csv(m["out"])
    print(f"wrote {m['out']} (classes present: {sorted(rm.labels_present())}, "
          f"failed cells: {rm.failed})")
    return 0


def cmd_verify(m: dict) -> int:
    p, d = _resolve_system(m)
    report = verify_schedule(
        d, p, float(m["t0"]), float(m["t1"]), dt=float(m["dt"]),
        check_interval=float(m["check_interval"]), beta=float(m["beta"]),
    )
    if m["out"]:
        report.save(m["out"])
        print(f"wrote {m['out']} (chronotaxic={report.chronotaxic})")
    else:
        print(report.to_json())
    return 0


def _load_trajectory_csv(path, column):
    try:
        data = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    names = data.dtype.names or ()
    if "t" not in names:
        raise ConfigError(f"{path} has no 't' column (found {list(names)})")
    if column is None:
        column = next((c for c in ("x", "r") if c in names), None)
        if column is None:
            raise ConfigError(f"give --column; file holds {list(names)}")
    elif column not in names:
        raise ConfigError(f"no column {column!r} in {path} (found {list(names)})")
    t = data["t"]
    x = data[column]
    if t.size < 3:
        raise ConfigError("trajectory too short for analysis")
    steps = np.diff(t)
    # a final partial step is allowed in trajectory files; trim it
    if abs(steps[-1] - steps[0]) > 1e-9 * steps[0]:
        t, x, steps = t[:-1], x[:-1], steps[:-1]
    if np.max(np.abs(steps - steps[0])) > 1e-6 * steps[0]:
        raise InvalidInputError("trajectory samples are not uniformly spaced")
    return x, 1.0 / float(steps[0])


def cmd_cwt(m: dict) -> int:
    if not m["input"]:
        raise ConfigError("cwt needs --input")
    series, fs = _load_trajectory_csv(m["input"], m["column"])
    freqs = sig.morlet_freq_grid(float(m["fmin"]), float(m["fmax"]), int(m["voices"]))
    sc = sig.cwt(series, fs, freqs, float(m["f0"]))
    if m["format"] == "block":
        sc.to_block(m["out"])
    else:
        sc.to_csv(m["out"])
    rg = sig.ridge(sc)
    rg.to_csv(m["ridge_out"])
    print(f"wrote {m['out']} and {m['ridge_out']} "
          f"(median ridge {rg.median_frequency():.6g} Hz)")
    return 0


def cmd_make_figures(m: dict) -> int:
    outdir = Path(m["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    # linear dichotomy: stable spirals are not automatically contracting
    reports = {}
    for name, matrix in (
        ("shear_system", [[-4.0, 4.75], [0.0, -0.2]]),
        ("contracting_system", [[-4.0, 3.125], [0.0, -1.5]]),
    ):
        rep = linear_system_report(matrix)
        rep["full_eigs"] = [[c.real, c.imag] for c in rep["full_eigs"]]
        reports[name] = rep
    path = outdir / "linear_dichotomy.json"
    path.write_text(json.dumps(reports, indent=2) + "\n", encoding="utf-8")
    written.append(path)

    p = OscillatorParams(7.0, 1.0, 1.0)

    result = continuation_sweep(DEFAULT_DELTA_OMEGA, (0.1, 2.0), 0.1, p)
    path = outdir / "thresholds.json"
    path.write_text(json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8")
    written.append(path)

    for eps_a in (0.3, 0.5, 1.2, 1.7, 7.2):
        sub = {
            **_DEFAULTS["portrait"],
            "eps_a": eps_a, "delta_omega": DEFAULT_DELTA_OMEGA,
            "resolution": 200, "outdir": str(outdir / f"portrait_eps_a_{eps_a:g}"),
        }
        cmd_portrait(sub)
        written.append(Path(sub["outdir"]))

    rm = region_map((0.0, 1.5), (0.0, 8.0), 75, p)
    path = outdir / "region_map.csv"
    rm.to_csv(path)
    written.append(path)

    # noisy runs on the slow drive used for the spectral studies
    omega_p = 2.0 * math.pi * 0.08
    p_slow = OscillatorParams(7.0, omega_p + DEFAULT_DELTA_OMEGA, 1.0)
    records = {}
    for tag, eps_a, sigma, seed in (
        ("drifting", 0.3, 0.1, 11),
        ("locked", 0.47, 0.3, 12),
    ):
        d = DriveSchedule.constant(eps_a, omega_p)
        traj = integrate_sde(CartesianState(p_slow.r_p, 0.0), 0.0, 500.0, 0.01,
                             p_slow, d, NoiseSpec(sigma, seed))
        records[tag] = (traj, d)
        path = outdir / f"trajectory_{tag}.csv"
        traj.to_csv(path)
        written.append(path)
        series = traj.states[::10, 0]
        sc = sig.cwt(series, 10.0, sig.morlet_freq_grid(0.01, 2.0))
        rg = sig.ridge(sc)
        path = outdir / f"ridge_{tag}.csv"
        rg.to_csv(path)
        written.append(path)

    fp = FrozenParams(0.47, DEFAULT_DELTA_OMEGA, p_slow)
    stable = [q for q in find_fixed_points(fp) if q.is_stable]
    traj, d = records["locked"]
    events = sig.count_slips(traj.to_rotating(d), stable[0].location.psi)
    path = outdir / "slip_events.json"
    path.write_text(
        json.dumps([{"t_start": e.t_start, "t_end": e.t_end, "winding": e.winding}
                    for e in events], indent=2) + "\n",
        encoding="utf-8",
    )
    written.append(path)

    for item in written:
        print(f"wrote {item}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "portrait": cmd_portrait,
    "sweep": cmd_sweep,
    "regionmap": cmd_regionmap,
    "verify": cmd_verify,
    "cwt": cmd_cwt,
    "make-figures": cmd_make_figures,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        merged = _merge_config(args.command, args)
        return _COMMANDS[args.command](merged)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChronotaxError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
