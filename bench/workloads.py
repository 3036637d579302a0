"""Seeded inputs, operation bodies and reference checks of the benchmark workloads.

A workload turns a seed into inputs (``build``), lists the operations of one
pass over those inputs (``operations``) and judges the results of a pass
(``check``).  Every operation calls the library through the public
``chronotax`` namespace, so the tracer in ``tracing.py`` sees each call.  An
operation returns a plain summary of its result: the checks read it, and a
traced pass must return exactly the summaries of an untraced one.

Tolerances come from ``tests/test_acceptance.py`` and are never looser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import chronotax as ct

P = ct.OscillatorParams(eps_gamma=7.0, omega0=1.0, r_p=1.0)

#: seed used when none is given, and the seed kept back for checking claims
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


# --- verify-scheduled ------------------------------------------------------

#: window of the scheduled certificate.  It is the shortest window over which a
#: pull held at the bottom of the knot range (1.5) still certifies: the
#: forward and pullback defects need about 15 time units to fall below 1e-6.
VERIFY_WINDOW = 15.0
VERIFY_KNOTS = 5
#: dip plateau and its ramps, acceptance criterion 6 scaled from 60 to 15 units
DIP = (4.5, 5.0, 10.0, 10.5)
DIP_PULL = 0.3
#: invariance tolerance of acceptance criterion 5 (the report's own is 1e-4)
INVARIANCE_TOL = 1e-6


def _verify_inputs(seed: int):
    rng = np.random.default_rng(seed)
    knots = np.linspace(0.0, VERIFY_WINDOW, VERIFY_KNOTS)
    vals = rng.uniform(1.5, 6.0, size=knots.size)
    pull = ct.Schedule.sampled(knots, vals)
    freq = ct.Schedule.constant(P.omega0 - 0.5)
    ramp_in, lo, hi, ramp_out = DIP
    hold = (knots <= ramp_in) | (knots >= ramp_out)
    tk = np.concatenate([knots[hold], DIP])
    vk = np.concatenate([vals[hold], [pull(ramp_in), DIP_PULL, DIP_PULL, pull(ramp_out)]])
    order = np.argsort(tk)
    dip = ct.Schedule.sampled(tk[order], vk[order])
    return {"good": ct.DriveSchedule(pull, freq), "dip": ct.DriveSchedule(dip, freq)}


def _verify_operations(inp):
    def run(drive):
        return lambda: ct.verify_schedule(drive, P, 0.0, VERIFY_WINDOW).to_dict()

    return [("verify good", run(inp["good"])), ("verify dip", run(inp["dip"]))]


def _verify_check(inp, results):
    good, dip = results
    ok_good = good is not None and (
        good["chronotaxic"]
        and not good["failures"]
        and good["forward_defect"] <= good["thresholds"]["forward"]
        and good["pullback_defect"] <= good["thresholds"]["pullback"]
        and good["invariance_defect"] < INVARIANCE_TOL
    )
    ramp_in, lo, hi, ramp_out = DIP
    ok_dip = dip is not None and (
        not dip["chronotaxic"]
        and any(a <= lo and b >= hi for a, b in dip["offending_intervals"])
        and all(a >= ramp_in and b <= ramp_out for a, b in dip["offending_intervals"])
    )
    return [ok_good, ok_dip]


# --- frozen-maps -----------------------------------------------------------

#: lattice over [0, 1.5] x [0, 8]: 16 detunings (step 0.1) hold 0.5 exactly
#: and 81 pulls (step 0.1) hold every portrait pull exactly, so the row check
#: reads single cells instead of the acceptance test's 3x3 neighbourhoods.
REGION_RESOLUTION = (16, 81)
ROW_DETUNING = 0.5
#: criterion-2 labels on the detuning-0.5 row, and whether the attracting
#: curve exists there (it does below eps_c2 ~ 1.214)
PORTRAITS = {
    0.3: ("not-chronotaxic", True),
    0.5: ("type-I", True),
    1.2: ("type-I", True),
    1.7: ("type-II", False),
    7.2: ("type-III", False),
}
CONTRACTION_RESOLUTION = 200
EPS_C1 = (0.462, 0.472)
EPS_C2 = (1.209, 1.219)
EPS_C3 = 7.0


def _frozen_inputs(seed: int):
    # The lattice, the sweep and the pulls are fixed by the paper's figures;
    # the seed only orders the portraits and sets the contraction-map instant,
    # neither of which changes the work done.
    rng = np.random.default_rng(seed)
    return {"pulls": [float(e) for e in rng.permutation(list(PORTRAITS))],
            "instant": float(rng.uniform(0.0, 10.0))}


def _frozen_operations(inp):
    def regions():
        rm = ct.region_map((0.0, 1.5), (0.0, 8.0), REGION_RESOLUTION, P)
        i = int(np.flatnonzero(np.isclose(rm.delta_omegas, ROW_DETUNING))[0])
        row = {}
        for ea in PORTRAITS:
            j = int(np.flatnonzero(np.isclose(rm.eps_as, ea))[0])
            row[ea] = rm.class_at(i, j).value
        return {"codes": rm.codes.tolist(), "row": row}

    def sweep():
        return ct.continuation_sweep(ROW_DETUNING, (0.1, 2.0), 0.1, P).to_dict()

    def contraction(fp):
        cm = ct.contraction_map((-2.0, 2.0), CONTRACTION_RESOLUTION, inp["instant"], P,
                                fp.drive())
        return {"classes": cm.classes.tobytes(),
                "non_contraction": cm.non_contraction_present()}

    def points(fp):
        return [(q.location.r, q.location.psi, q.kind.value)
                for q in ct.find_fixed_points(fp)]

    def gamma(fp):
        curve = ct.trace_gamma(fp)
        return {"exists": curve.exists,
                "points": None if curve.points is None else curve.points.tobytes()}

    ops = [("region_map", regions), ("continuation_sweep", sweep)]
    for ea in inp["pulls"]:
        fp = ct.FrozenParams(ea, ROW_DETUNING, P)
        ops += [(f"contraction_map {ea}", lambda fp=fp: contraction(fp)),
                (f"find_fixed_points {ea}", lambda fp=fp: points(fp)),
                (f"trace_gamma {ea}", lambda fp=fp: gamma(fp))]
    return ops


def _frozen_check(inp, results):
    regions, sweep, *portraits = results
    ok = [
        regions is not None
        and all(regions["row"][ea] == label for ea, (label, _) in PORTRAITS.items()),
        sweep is not None
        and sweep["eps_c1"] is not None and EPS_C1[0] <= sweep["eps_c1"] <= EPS_C1[1]
        and sweep["eps_c2"] is not None and EPS_C2[0] <= sweep["eps_c2"] <= EPS_C2[1]
        and sweep["eps_c3"] == EPS_C3,
    ]
    for k, ea in enumerate(inp["pulls"]):
        cm, pts, curve = portraits[3 * k: 3 * k + 3]
        gamma_expected = PORTRAITS[ea][1]
        # two folds at eps_c1 and eps_c2: three points between them, one outside,
        # and the lone point below eps_c1 is unstable
        n_expected = 3 if EPS_C1[1] < ea < EPS_C2[0] else 1
        ok += [
            cm is not None and cm["non_contraction"] == (ea < EPS_C3),
            pts is not None and len(pts) == n_expected
            and any(kind.startswith("stable") for _, _, kind in pts) == (ea > EPS_C1[1]),
            curve is not None and curve["exists"] == gamma_expected,
        ]
    return ok


# --- noisy-readout ---------------------------------------------------------

F_DRIVE = 0.08
RECORDS = 12
RECORD_LENGTH = 500.0
RECORD_DT = 0.01
#: (pull, noise) of locked and drifting records, as in acceptance criterion 7
LOCKED = (0.47, 0.3)
DRIFTING = (0.3, 0.1)


def _noisy_params():
    omega_p = 2.0 * math.pi * F_DRIVE
    return ct.OscillatorParams(7.0, omega_p + 0.5, 1.0), omega_p


def _noisy_inputs(seed: int):
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**31, size=RECORDS)
    p, _ = _noisy_params()
    node = [q for q in ct.find_fixed_points(ct.FrozenParams(LOCKED[0], 0.5, p))
            if q.is_stable][0]
    return {"records": [(LOCKED if k % 2 == 0 else DRIFTING, int(s))
                        for k, s in enumerate(seeds)],
            "node_psi": node.location.psi}


def _noisy_operations(inp):
    p, omega_p = _noisy_params()
    freqs = ct.morlet_freq_grid(0.01, 1.0, 32)
    node_psi = inp["node_psi"]

    def record(eps_a, sigma, seed):
        d = ct.DriveSchedule.constant(eps_a, omega_p)
        traj = ct.integrate_sde(ct.CartesianState(1.0, 0.0), 0.0, RECORD_LENGTH, RECORD_DT,
                                p, d, ct.NoiseSpec(sigma, seed))
        rg = ct.ridge(ct.cwt(traj.states[::10, 0], 1.0 / (10 * RECORD_DT), freqs))
        slips = ct.count_slips(traj.to_rotating(d), node_psi)
        return {"median": rg.median_frequency(), "valid": rg.frequency[rg.valid].tobytes(),
                "slips": len(slips)}

    return [(f"record {k}", lambda a=a, s=s: record(a[0], a[1], s))
            for k, (a, s) in enumerate(inp["records"])]


def _pooled_median(results) -> float:
    return float(np.median(np.concatenate([np.frombuffer(r["valid"]) for r in results])))


def _noisy_check(inp, results):
    # The ridge read-out is judged on the ridge columns of all records of a
    # kind pooled, not per record: a single locked record may read well off
    # the drive (seed 9 reads 0.1037 Hz, 30% high).
    if any(r is None for r in results):
        return [r is not None for r in results]
    kinds = [a for a, _ in inp["records"]]
    locked = [r for a, r in zip(kinds, results) if a == LOCKED]
    drifting = [r for a, r in zip(kinds, results) if a == DRIFTING]
    pooled_ok = (abs(_pooled_median(locked) - F_DRIVE) <= 0.1 * F_DRIVE
                 and abs(_pooled_median(drifting) - F_DRIVE) > 0.25 * F_DRIVE
                 and sum(r["slips"] for r in locked) >= 1)
    # an unlocked phase drifts through many full turns in one record
    return [pooled_ok and (a == LOCKED or r["slips"] >= 1) for a, r in zip(kinds, results)]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], dict]
    operations: Callable[[dict], list]
    check: Callable[[dict, list], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-scheduled", _verify_inputs, _verify_operations, _verify_check),
        Workload("frozen-maps", _frozen_inputs, _frozen_operations, _frozen_check),
        Workload("noisy-readout", _noisy_inputs, _noisy_operations, _noisy_check),
    )
}
