"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``simulate``
(integration), ``portrait`` (contraction map + fixed points + closed curve),
``sweep`` (saddle-node continuation), ``regionmap`` (parameter-plane
classification), ``verify`` (chronotaxicity certificate), ``cwt``
(scalogram/ridge analysis of a trajectory file), and ``make-figures``
(regenerates the canonical data sets at desk scale).

Every flag mirrors a config-file key one-to-one: ``--config file.json``
supplies values, explicit flags win, and unknown config keys are rejected.
Each config value is read by its flag's own parser (type, choices and
number of values), as if it were given on the command line before the
flags; ``null`` leaves the key unset, and ``eps_a`` and ``omega_p`` may
also hold a ``{t, v}`` schedule object.  A model field set by either
beats a ``--params`` file.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import signal as sig
from .contraction import DEFAULT_BETA, contraction_map, linear_system_report
from .errors import ChronotaxError, ConfigError, InvalidInputError
from .integrate import DEFAULT_DT, NoiseSpec, integrate_det, integrate_sde
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
from .verify import DEFAULT_VERIFY_DT, verify_schedule

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

#: config keys that may hold a ``{t, v}`` schedule object, which no flag reads
_DRIVE_KEYS = ("eps_a", "omega_p")


class _HelpWithDefaults(argparse.ArgumentDefaultsHelpFormatter):
    """Help that shows each flag's default with ``%(default)s``, where it has one."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """A parser that reads a word such as ``-1e-5``, ``-2.5E+1`` or ``-.5`` as a
    negative number, not as a flag; its subcommand parsers share the rule."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    root = _Parser(
        prog="chronotax",
        description="Chronotaxic-oscillator simulation and analysis toolkit.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    def command(name, help):
        sp = sub.add_parser(name, help=help, formatter_class=_HelpWithDefaults)
        sp.add_argument("--config", help="JSON file of flag values (flags override)")
        return sp

    def oscillator_flags(sp, model):
        # a model command leaves them unset, so that a value given by a flag
        # or the config file beats --params
        for flag, what in (("--eps-gamma", "radial stiffness"),
                           ("--omega0", "natural frequency, rad/time"),
                           ("--r-p", "drive radius")):
            default = _MODEL_DEFAULTS[flag[2:].replace("-", "_")]
            sp.add_argument(flag, type=float, default=None if model else default,
                            help=f"{what} (default: {default})" if model else what)

    def model_flags(sp):
        sp.add_argument("--params", help="JSON parameter document (see save_params)")
        oscillator_flags(sp, model=True)
        sp.add_argument("--eps-a", type=float,
                        help=f"pull strength (default: {_MODEL_DEFAULTS['eps_a']})")
        sp.add_argument("--omega-p", type=float, help="drive frequency, rad/time")
        sp.add_argument("--delta-omega", type=float,
                        help="detuning omega0 - omega_p "
                             f"(default: {DEFAULT_DELTA_OMEGA} when neither given)")
        sp.add_argument("--alpha0", type=float,
                        help=f"drive angle at t=0 (default: {_MODEL_DEFAULTS['alpha0']})")

    sp = command("simulate", "integrate one trajectory to CSV")
    model_flags(sp)
    sp.add_argument("--t0", type=float, default=0.0, help="start time")
    sp.add_argument("--t1", type=float, help="end time (required)")
    sp.add_argument("--dt", type=float, default=DEFAULT_DT, help="fixed step")
    sp.add_argument("--x0", type=float, help="start x (default: r_p)")
    sp.add_argument("--y0", type=float, default=0.0, help="start y")
    sp.add_argument("--frame", choices=("lab", "rotating"), default="lab", help="output frame")
    sp.add_argument("--noise", type=float, default=0.0, help="noise intensity, 0 for none")
    sp.add_argument("--seed", type=int, default=0, help="noise RNG seed")
    sp.add_argument("--out", default="trajectory.csv", help="output CSV path")

    sp = command("portrait", "contraction map, fixed points, closed curve")
    model_flags(sp)
    sp.add_argument("--time", type=float, default=0.0,
                    help="instant at which schedules are frozen")
    sp.add_argument("--bounds", type=float, nargs=2, metavar=("LO", "HI"),
                    default=(-2.5, 2.5), help="square grid bounds")
    sp.add_argument("--resolution", type=int, default=500, help="cells per axis")
    sp.add_argument("--beta", type=float, default=DEFAULT_BETA, help="contraction margin")
    sp.add_argument("--outdir", default="portrait", help="output directory")
    sp.add_argument("--format", choices=("csv", "block"), default="csv", help="map format")

    sp = command("sweep", "saddle-node continuation along the pull strength")
    oscillator_flags(sp, model=False)
    sp.add_argument("--delta-omega", type=float, default=DEFAULT_DELTA_OMEGA, help="detuning")
    sp.add_argument("--eps-a-min", type=float, default=0.1, help="lowest pull strength")
    sp.add_argument("--eps-a-max", type=float, default=2.0, help="highest pull strength")
    sp.add_argument("--out", help="JSON output path (default: stdout)")

    sp = command("regionmap", "classify the detuning/pull-strength plane")
    oscillator_flags(sp, model=False)
    sp.add_argument("--delta-omega-min", type=float, default=0.0, help="lowest detuning")
    sp.add_argument("--delta-omega-max", type=float, default=1.5, help="highest detuning")
    sp.add_argument("--eps-a-min", type=float, default=0.0, help="lowest pull strength")
    sp.add_argument("--eps-a-max", type=float, default=8.0, help="highest pull strength")
    sp.add_argument("--resolution", type=int, default=150, help="cells per axis")
    sp.add_argument("--beta", type=float, default=DEFAULT_BETA, help="contraction margin")
    sp.add_argument("--out", default="region_map.csv", help="CSV output path")

    sp = command("verify", "chronotaxicity certificate for a schedule")
    model_flags(sp)
    sp.add_argument("--t0", type=float, default=0.0, help="start of the verification window")
    sp.add_argument("--t1", type=float, default=30.0, help="end of the verification window")
    sp.add_argument("--dt", type=float, default=DEFAULT_VERIFY_DT,
                    help="fixed step of the attractor track (the probe runs step at up "
                         "to 4 dt)")
    sp.add_argument("--check-interval", type=float, default=0.5,
                    help="classification sampling interval")
    sp.add_argument("--beta", type=float, default=DEFAULT_BETA, help="contraction margin")
    sp.add_argument("--out", help="report JSON path (default: stdout)")

    sp = command("cwt", "scalogram and ridge of a trajectory CSV")
    sp.add_argument("--input", help="trajectory CSV (required)")
    sp.add_argument("--column", help="signal column (default: x, or r)")
    sp.add_argument("--fmin", type=float, default=sig.DEFAULT_FMIN, help="lowest frequency")
    sp.add_argument("--fmax", type=float, default=sig.DEFAULT_FMAX, help="highest frequency")
    sp.add_argument("--voices", type=int, default=sig.DEFAULT_VOICES,
                    help="frequency bins per octave")
    sp.add_argument("--f0", type=float, default=sig.DEFAULT_F0,
                    help="wavelet central frequency")
    sp.add_argument("--out", default="scalogram.csv", help="scalogram path")
    sp.add_argument("--ridge-out", default="ridge.csv", help="ridge CSV path")
    sp.add_argument("--format", choices=("csv", "block"), default="csv",
                    help="scalogram file format")

    sp = command("make-figures", "regenerate the canonical data sets at desk scale")
    sp.add_argument("--outdir", default="figures", help="output directory")

    return root


def _options(argv: list[str]) -> dict:
    """The options of a command line: its flags, over its config file's values,
    over the flags' defaults.

    The config values become command-line tokens placed before the command
    line's own, so the command's parser converts and checks them and the
    later flags win.
    """
    root = _build_parser()
    args = root.parse_args(argv)
    if not args.config:
        return vars(args)
    parser = next(a for a in root._actions if a.dest == "command").choices[args.command]
    flags = {a.dest: a for a in parser._actions
             if a.option_strings and a.dest not in ("help", "config")}
    values = _read_config(args.config)
    unknown = set(values) - set(flags)
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    schedules = {key: value for key, value in values.items()
                 if key in _DRIVE_KEYS and isinstance(value, dict)}
    tokens = []
    for key, value in values.items():
        if value is None or key in schedules:
            continue
        flag = flags[key]
        if flag.nargs is None:
            tokens.append(f"{flag.option_strings[0]}={_command_word(key, flag, value)}")
        elif isinstance(value, list) and len(value) == flag.nargs:
            tokens += [flag.option_strings[0], *(_command_word(key, flag, v) for v in value)]
        else:
            raise ConfigError(f"config key {key!r} needs a list of {flag.nargs} "
                              f"values, got {value!r}")
    # set only now, so that a command-line error still prints this command's usage
    parser.exit_on_error = False
    keys = {flag.option_strings[0]: key for key, flag in flags.items()}
    try:
        options = vars(parser.parse_args(tokens + argv[argv.index(args.command) + 1:]))
    except argparse.ArgumentError as exc:
        key = keys.get(exc.argument_name, exc.argument_name)
        raise ConfigError(f"config key {key!r}: {exc.message}") from exc
    options["command"] = args.command
    options.update((key, value) for key, value in schedules.items() if options[key] is None)
    return options


def _read_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("config file must hold a JSON object")
    return values


def _command_word(key: str, flag: argparse.Action, value) -> str:
    """One config value as the command-line word its flag reads.  A JSON bool
    is no value, a number is no string, and a whole number counts for an
    integer flag."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)) or flag.type is None:
        raise ConfigError(f"config key {key!r}: cannot read {value!r} as "
                          f"{getattr(flag.type, '__name__', 'str')}")
    if flag.type is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    return str(value)


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
    t0, t1, dt = m["t0"], m["t1"], m["dt"]
    start = CartesianState(p.r_p if m["x0"] is None else m["x0"], m["y0"])
    noise = NoiseSpec(m["noise"], m["seed"])
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
    t = m["time"]
    outdir = Path(m["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    cmap = contraction_map(tuple(m["bounds"]), m["resolution"], t, p, d, beta=m["beta"])
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
        "class": classify(fp, beta=m["beta"]).value,
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
    p = OscillatorParams(m["eps_gamma"], m["omega0"], m["r_p"])
    lo, hi = m["eps_a_min"], m["eps_a_max"]
    # the thresholds are exact; continuation_sweep only checks its unused step
    result = continuation_sweep(m["delta_omega"], (lo, hi), 0.5 * (hi - lo), p)
    doc = json.dumps(result.to_dict(), indent=2)
    if m["out"]:
        Path(m["out"]).write_text(doc + "\n", encoding="utf-8")
        print(f"wrote {m['out']}")
    else:
        print(doc)
    return 0


def cmd_regionmap(m: dict) -> int:
    p = OscillatorParams(m["eps_gamma"], m["omega0"], m["r_p"])
    rm = region_map((m["delta_omega_min"], m["delta_omega_max"]),
                    (m["eps_a_min"], m["eps_a_max"]), m["resolution"], p, beta=m["beta"])
    rm.to_csv(m["out"])
    print(f"wrote {m['out']} (classes present: {sorted(rm.labels_present())}, "
          f"failed cells: {rm.failed})")
    return 0


def cmd_verify(m: dict) -> int:
    p, d = _resolve_system(m)
    report = verify_schedule(d, p, m["t0"], m["t1"], dt=m["dt"],
                             check_interval=m["check_interval"], beta=m["beta"])
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
    if not np.all(steps > 0.0):  # NaN fails this test too
        raise InvalidInputError("trajectory times must increase from sample to sample")
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
    freqs = sig.morlet_freq_grid(m["fmin"], m["fmax"], m["voices"])
    sc = sig.cwt(series, fs, freqs, m["f0"])
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
        sub = outdir / f"portrait_eps_a_{eps_a:g}"
        cmd_portrait(_options(["portrait", f"--eps-a={eps_a!r}",
                               f"--delta-omega={DEFAULT_DELTA_OMEGA!r}",
                               "--resolution=200", f"--outdir={sub}"]))
        written.append(sub)

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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        m = _options(argv)
        return _COMMANDS[m["command"]](m)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChronotaxError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
