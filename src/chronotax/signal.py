"""Trajectory analysis: Morlet scalograms, dominant-frequency ridges, phase slips.

The wavelet here is the admissibility-corrected Morlet

    psi(u) = pi**(-1/4) * (exp(i*2*pi*f0*u) - kappa) * exp(-u**2 / 2)

with kappa chosen so psi integrates to zero.  Transforms use the L1
("divide by scale") normalization, which gives every unit-amplitude tone
the same ridge magnitude regardless of frequency: about 0.94 for the
default central frequency f0 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import export
from .errors import InvalidInputError
from .integrate import Trajectory
from .model import FloatArray

DEFAULT_FMIN = 0.005
DEFAULT_FMAX = 2.0
DEFAULT_VOICES = 32
DEFAULT_F0 = 1.0

#: half-width of the wavelet envelope in scale units; columns closer than
#: sqrt(2) * scale to either record edge sit inside the cone of influence
COI_EFOLD = math.sqrt(2.0)

DWELL_BAND = 0.5
_TWO_PI = 2.0 * math.pi


def morlet_fourier(omega: FloatArray, f0: float = DEFAULT_F0) -> FloatArray:
    """Fourier transform of the corrected Morlet wavelet (real-valued)."""
    w0 = _TWO_PI * f0
    kappa = math.exp(-0.5 * w0 * w0)
    norm = math.pi ** (-0.25) * math.sqrt(_TWO_PI)
    omega = np.asarray(omega, dtype=float)
    return norm * (np.exp(-0.5 * (omega - w0) ** 2) - kappa * np.exp(-0.5 * omega**2))


def morlet_freq_grid(fmin: float = DEFAULT_FMIN, fmax: float = DEFAULT_FMAX,
                     voices: int = DEFAULT_VOICES) -> FloatArray:
    """Geometric frequency grid with ``voices`` points per octave."""
    if not (0.0 < fmin < fmax):
        raise InvalidInputError("need 0 < fmin < fmax")
    if voices < 1:
        raise InvalidInputError("voices must be at least 1")
    n = int(math.floor(voices * math.log2(fmax / fmin))) + 1
    return fmin * 2.0 ** (np.arange(n) / voices)


@dataclass(frozen=True)
class Scalogram:
    times: FloatArray
    freqs: FloatArray
    magnitude: FloatArray  # (n_freqs, n_times)
    central_freq: float

    def __post_init__(self):
        if self.magnitude.shape != (self.freqs.size, self.times.size):
            raise InvalidInputError("magnitude must be (n_freqs, n_times)")
        if not np.all(np.isfinite(self.magnitude)):
            raise InvalidInputError("magnitudes must be finite")

    def coi_mask(self) -> np.ndarray:
        """True where a cell is clear of both record edges (valid region)."""
        margin = COI_EFOLD * self.central_freq / self.freqs  # seconds, per row
        t0 = self.times[0]
        t1 = self.times[-1]
        lo = self.times[None, :] >= t0 + margin[:, None]
        hi = self.times[None, :] <= t1 - margin[:, None]
        return lo & hi

    def to_csv(self, path) -> None:
        nt = self.times.size
        nf = self.freqs.size
        t = np.repeat(self.times, nf)
        f = np.tile(self.freqs, nt)
        export.write_csv(path, "t,f,mag", [t, f, self.magnitude.T.ravel()])

    def to_block(self, path) -> None:
        export.write_block(
            path,
            {"kind": "scalogram", "central_freq": self.central_freq},
            {"times": self.times, "freqs": self.freqs, "magnitude": self.magnitude},
        )

    @classmethod
    def from_block(cls, path) -> "Scalogram":
        meta, arrays = export.read_block(path)
        if meta.get("kind") != "scalogram":
            raise InvalidInputError(f"not a scalogram block: {meta.get('kind')!r}")
        return cls(arrays["times"], arrays["freqs"], arrays["magnitude"],
                   float(meta["central_freq"]))


def cwt(series: FloatArray, fs: float, freqs: FloatArray | None = None,
        f0: float = DEFAULT_F0) -> Scalogram:
    """Continuous wavelet transform of a uniformly sampled real signal.

    One FFT of the input and one inverse FFT per frequency row; the kernel
    for frequency f is the wavelet's Fourier transform evaluated at scale
    f0/f, which is the L1 normalization.  The record must cover at least
    four cycles of the lowest requested frequency.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InvalidInputError("series must be a 1-D array of at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("series must be finite")
    if fs <= 0.0:
        raise InvalidInputError("sampling rate must be positive")
    if freqs is None:
        freqs = morlet_freq_grid()
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0 or np.any(freqs <= 0.0):
        raise InvalidInputError("freqs must be positive")
    if np.any(np.diff(freqs) <= 0.0):
        raise InvalidInputError("freqs must be strictly increasing")
    duration = x.size / fs
    needed = 4.0 / freqs[0]
    if duration < needed:
        raise InvalidInputError(
            f"record of {duration:g} time units is too short for the lowest "
            f"frequency {freqs[0]:g}: need at least {needed:g} (4 cycles)"
        )
    spectrum = np.fft.fft(x)
    omega = _TWO_PI * np.fft.fftfreq(x.size, d=1.0 / fs)
    mag = np.empty((freqs.size, x.size), dtype=float)
    for i, f in enumerate(freqs):
        scale = f0 / f
        mag[i] = np.abs(np.fft.ifft(spectrum * morlet_fourier(scale * omega, f0)))
    times = np.arange(x.size) / fs
    return Scalogram(times, freqs, mag, f0)


@dataclass(frozen=True)
class Ridge:
    times: FloatArray
    frequency: FloatArray
    magnitude: FloatArray
    valid: np.ndarray  # outside the cone of influence

    def median_frequency(self) -> float:
        """Median ridge frequency over edge-clear columns (all columns if none)."""
        sel = self.frequency[self.valid] if np.any(self.valid) else self.frequency
        return float(np.median(sel))

    def to_csv(self, path) -> None:
        export.write_csv(path, "t,f,mag,valid",
                         [self.times, self.frequency, self.magnitude,
                          self.valid.astype(float)])


def ridge(s: Scalogram, smooth: int = 5) -> Ridge:
    """Per-time dominant frequency of a scalogram.

    Column argmax with exact ties broken toward the previous column's pick,
    then a short median filter over the bin indices to suppress single-column
    jumps.  Validity flags come from the cone of influence at the ridge's own
    frequency row.
    """
    mag = s.magnitude
    nt = s.times.size
    idx = np.empty(nt, dtype=np.int64)
    prev = None
    for j in range(nt):
        col = mag[:, j]
        top = np.flatnonzero(col == col.max())
        if prev is None or top.size == 1:
            pick = int(top[0])
        else:
            pick = int(top[np.argmin(np.abs(top - prev))])
        idx[j] = pick
        prev = pick
    if smooth > 1:
        # imported here: scipy.ndimage adds about 28 MB to every process that
        # imports chronotax, and only ridge smoothing needs it
        from scipy.ndimage import median_filter

        idx = median_filter(idx, size=smooth, mode="nearest")
    coi = s.coi_mask()
    cols = np.arange(nt)
    return Ridge(s.times, s.freqs[idx], mag[idx, cols], coi[idx, cols])


@dataclass(frozen=True)
class SlipEvent:
    t_start: float
    t_end: float
    winding: int


def count_slips(traj: Trajectory, attractor_psi: float,
                dwell_band: float = DWELL_BAND) -> list[SlipEvent]:
    """Detect full 2*pi excursions of the relative phase away and back.

    Walks the unwrapped phase against a dwell level (the nearest 2*pi
    multiple of the starting offset).  While the phase sits within
    ``dwell_band`` of the level, the excursion anchor follows it; when the
    phase instead settles within the band around the level shifted by
    +-2*pi — and the net change since the anchor is at least 2*pi - 0.5 —
    one slip event is recorded and the level moves with it.  Excursions that
    turn back, and drift that never completes the full turn, produce no
    events.  Adding any multiple of 2*pi to the whole record only shifts the
    level, so the events are unchanged.
    """
    if traj.frame != "rotating":
        raise InvalidInputError("slip counting expects a rotating-frame trajectory")
    d = traj.states[:, 1] - attractor_psi
    times = traj.times
    level = _TWO_PI * round(float(d[0]) / _TWO_PI)
    anchor_t = float(times[0])
    anchor_d = float(d[0])
    events: list[SlipEvent] = []
    for i in range(d.size):
        di = float(d[i])
        if abs(di - level) < dwell_band:
            anchor_t = float(times[i])
            anchor_d = di
            continue
        for sign in (1.0, -1.0):
            shifted = level + sign * _TWO_PI
            if abs(di - shifted) < dwell_band and abs(di - anchor_d) >= _TWO_PI - 0.5:
                events.append(SlipEvent(anchor_t, float(times[i]), int(sign)))
                level = shifted
                anchor_t = float(times[i])
                anchor_d = di
                break
    return events
