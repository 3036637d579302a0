"""Contraction analysis via the symmetrized Jacobian.

Local contraction of the driven oscillator is decided by the eigenvalues of
the symmetric part of the Jacobian, J = (A + A^T) / 2.  For this field the
symmetric part has closed-form eigenvalues that depend only on the radius
and the instantaneous pull strength:

    lambda_1 = eps_gamma * (r_p - r)     - eps_a(t)
    lambda_2 = eps_gamma * (r_p - 2 r)   - eps_a(t)

Neither the rotation rate nor the phase enters: rotation terms are
antisymmetric and cancel in the symmetrization, and the pull contributes
exactly ``-eps_a`` to the diagonal.  The formulas are continuous down to
r = 0, where both eigenvalues equal ``eps_gamma * r_p - eps_a``; only the
Jacobian *entries* are singular at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import export
from .errors import InvalidInputError, SingularityError
from .model import (
    CartesianState,
    DriveSchedule,
    FloatArray,
    OscillatorParams,
    R_MIN,
    pulled_jacobian,
)

#: margin below zero required of eigenvalues before a cell counts as contracting
DEFAULT_BETA = 1e-3


def _check_beta(beta: float) -> None:
    """Refuse a contraction margin ``beta`` that is not finite and positive."""
    if not (math.isfinite(beta) and beta > 0.0):
        raise InvalidInputError(f"beta must be finite and positive, got {beta!r}")

#: class codes used in grids; labels are the interchange vocabulary
CLASS_LABELS = ("none-negative", "one-negative", "both-negative")
NONE_NEGATIVE, ONE_NEGATIVE, BOTH_NEGATIVE = 0, 1, 2


def jacobian_analytic(s: CartesianState, t: float, p: OscillatorParams,
                      d: DriveSchedule, r_min: float = R_MIN) -> FloatArray:
    """Closed-form Jacobian of the laboratory field at state ``s``.

    Raises :class:`SingularityError` within ``r_min`` of the origin, where
    the radial terms ``x^2/r`` are undefined.
    """
    r = math.hypot(s.x, s.y)
    if r <= r_min:
        raise SingularityError(
            f"Jacobian entries undefined at r={r!r} (guard radius {r_min:g})"
        )
    a, b, c, e = pulled_jacobian(s.x, s.y, p.eps_gamma, p.omega0, p.r_p, float(d.eps_a(t)))
    return np.array([[a, b], [c, e]])


def sym_eigs(jac: FloatArray) -> tuple[float, float]:
    """Eigenvalues of the symmetric part of a 2x2 matrix, descending.

    Symmetrize, then solve the characteristic quadratic in closed form:
    for [[a, c], [c, b]] the eigenvalues are (a+b)/2 +- sqrt(((a-b)/2)^2 + c^2).
    """
    j = np.asarray(jac, dtype=float)
    if j.shape != (2, 2):
        raise InvalidInputError(f"expected a 2x2 matrix, got shape {j.shape}")
    a = j[0, 0]
    b = j[1, 1]
    c = 0.5 * (j[0, 1] + j[1, 0])
    mid = 0.5 * (a + b)
    rad = math.hypot(0.5 * (a - b), c)
    return mid + rad, mid - rad


def full_eigs(jac: FloatArray) -> np.ndarray:
    """Eigenvalues of the full (non-symmetrized) matrix, sorted by real part, descending."""
    j = np.asarray(jac, dtype=float)
    if j.shape != (2, 2):
        raise InvalidInputError(f"expected a 2x2 matrix, got shape {j.shape}")
    vals = np.linalg.eigvals(j)
    order = np.argsort(-vals.real)
    return vals[order]


def sym_eigs_radial(r, eps_a, p: OscillatorParams):
    """Closed-form symmetric-part eigenvalues at radius ``r`` under pull ``eps_a``
    (array-friendly; arrays broadcast).

    Valid on all of the plane including the origin; returns (lambda_1,
    lambda_2) with lambda_1 >= lambda_2.
    """
    r = np.asarray(r, dtype=float) if np.ndim(r) else float(r)
    lam1 = p.eps_gamma * (p.r_p - np.asarray(r)) - eps_a
    lam2 = p.eps_gamma * (p.r_p - 2.0 * np.asarray(r)) - eps_a
    if np.ndim(r) == 0:
        return float(lam1), float(lam2)
    return lam1, lam2


def global_contraction_threshold(p: OscillatorParams) -> float:
    """Pull strength beyond which every state of the plane contracts.

    The largest symmetric eigenvalue over the plane is attained in the
    r -> 0 limit and equals ``eps_gamma * r_p - eps_a``; the threshold is
    the pull strength that nullifies it.
    """
    return p.eps_gamma * p.r_p


@dataclass(frozen=True)
class ContractionMap:
    """Grid of symmetric-part eigenvalues and contraction classes.

    ``lambda1``, ``lambda2`` and ``classes`` are (ny, nx) arrays over the
    tensor grid ``x`` by ``y``; ``classes`` holds the codes 0/1/2 mapped by
    :data:`CLASS_LABELS`.
    """

    x: FloatArray
    y: FloatArray
    lambda1: FloatArray
    lambda2: FloatArray
    classes: np.ndarray
    beta: float
    eps_a: float
    time: float

    def non_contraction_present(self) -> bool:
        return bool(np.any(self.classes != BOTH_NEGATIVE))

    def to_csv(self, path) -> None:
        """Rows ``x,y,lambda1,lambda2,class`` over the full grid."""
        xx, yy = np.meshgrid(self.x, self.y)
        labels = np.asarray(CLASS_LABELS, dtype=object)[self.classes.ravel()]
        data = np.column_stack(
            [
                xx.ravel(),
                yy.ravel(),
                self.lambda1.ravel(),
                self.lambda2.ravel(),
            ]
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,lambda1,lambda2,class\n")
            for row, label in zip(data, labels):
                fh.write("%.15g,%.15g,%.15g,%.15g,%s\n" % (row[0], row[1], row[2], row[3], label))

    def to_block(self, path) -> None:
        export.write_block(
            path,
            {"kind": "contraction-map", "beta": self.beta, "eps_a": self.eps_a,
             "time": self.time},
            {
                "x": self.x,
                "y": self.y,
                "lambda1": self.lambda1,
                "lambda2": self.lambda2,
                "classes": self.classes.astype(np.uint8),
            },
        )

    @classmethod
    def from_block(cls, path) -> "ContractionMap":
        meta, arrays = export.read_block(path)
        if meta.get("kind") != "contraction-map":
            raise InvalidInputError(f"block file {path} does not hold a contraction map")
        return cls(
            x=arrays["x"],
            y=arrays["y"],
            lambda1=arrays["lambda1"],
            lambda2=arrays["lambda2"],
            classes=arrays["classes"].astype(np.uint8),
            beta=float(meta["beta"]),
            eps_a=float(meta["eps_a"]),
            time=float(meta["time"]),
        )


def _normalize_bounds(bounds):
    b = np.asarray(bounds, dtype=float)
    if b.shape == (2,):
        b = np.array([[b[0], b[1]], [b[0], b[1]]])
    if b.shape != (2, 2) or not np.all(np.isfinite(b)):
        raise InvalidInputError("bounds must be (lo, hi) or ((xlo, xhi), (ylo, yhi))")
    if b[0, 0] >= b[0, 1] or b[1, 0] >= b[1, 1]:
        raise InvalidInputError("bounds must be strictly increasing per axis")
    return b


def classify_eigs(lam1, lam2, beta: float = DEFAULT_BETA):
    """Class codes from eigenvalue arrays: 2 both below -beta, 1 only the second, 0 neither.

    Refuses a ``beta`` that is not finite and positive.
    """
    _check_beta(beta)
    lam1 = np.asarray(lam1)
    lam2 = np.asarray(lam2)
    codes = np.zeros(lam1.shape, dtype=np.uint8)
    codes[lam2 <= -beta] = ONE_NEGATIVE
    codes[lam1 <= -beta] = BOTH_NEGATIVE
    return codes


def contraction_map(bounds, resolution, t: float, p: OscillatorParams,
                    d: DriveSchedule, beta: float = DEFAULT_BETA) -> ContractionMap:
    """Evaluate the eigenvalue fields on a rectangular grid at instant ``t``.

    ``resolution`` is the number of grid points per axis (one int, or a pair
    ``(nx, ny)``), at least 2.  The eigenvalues come from the radial closed
    form, evaluated elementwise over the grid; cells at the origin use the
    continuous r -> 0 limit.
    """
    b = _normalize_bounds(bounds)
    if np.ndim(resolution) == 0:
        nx = ny = int(resolution)
    else:
        nx, ny = (int(v) for v in resolution)
    if nx < 2 or ny < 2:
        raise InvalidInputError("resolution must be at least 2 per axis")
    _check_beta(beta)
    xs = np.linspace(b[0, 0], b[0, 1], nx)
    ys = np.linspace(b[1, 0], b[1, 1], ny)
    xx, yy = np.meshgrid(xs, ys)
    rr = np.hypot(xx, yy)
    eps_a = float(d.eps_a(t))
    lam1, lam2 = sym_eigs_radial(rr, eps_a, p)
    codes = classify_eigs(lam1, lam2, beta)
    return ContractionMap(xs, ys, lam1, lam2, codes, beta, eps_a, t)


def linear_system_report(matrix, beta: float = DEFAULT_BETA) -> dict:
    """Contraction dichotomy for a constant-coefficient linear system.

    Reports the eigenvalues of the matrix itself next to those of its
    symmetric part.  A linear field contracts everywhere or nowhere, so a
    positive leading symmetric eigenvalue means a non-contraction region
    exists even when both true eigenvalues are strictly negative.
    """
    _check_beta(beta)
    j = np.asarray(matrix, dtype=float)
    lam_full = full_eigs(j)
    lam1, lam2 = sym_eigs(j)
    return {
        "full_eigs": [complex(v) for v in lam_full],
        "sym_eigs": [lam1, lam2],
        "globally_contracting": bool(lam1 <= -beta),
        "non_contraction_region": bool(lam1 > -beta),
        "beta": beta,
    }
