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
#: samples searched at once by :func:`count_slips`.  It bounds the walk's
#: cost by O(n + events * SLIP_WINDOW), where searching the whole rest of the
#: record for each event costs O(n * events), quadratic in the length of a
#: drifting record.  On the 12 records of 50001 samples and 8-31 events of the
#: noisy read-out benchmark: 0.03 s, against 0.12 s for the rest-of-record
#: search and 0.26 s for a sample-by-sample walk.
SLIP_WINDOW = 4096
_TWO_PI = 2.0 * math.pi

#: frequency rows per inverse-FFT block in :func:`cwt`.  The read-out's
#: 213 x 5001 scalogram, transformed at length 5040, on a 2-vCPU Xeon host
#: (numpy 2.4, median of 21; temporaries above the magnitudes by
#: tracemalloc): 0.046 s row by row (1.2 MB), 0.037 s in 8-row blocks
#: (1.7 MB), 0.036 s in 16-row blocks (3.4 MB) and 0.049 s as one 2-D
#: transform of all rows (43 MB).
CWT_ROWS = 8


#: |u| beyond which exp(-u**2 / 2) is exactly 0.0: its exponent is then below
#: the logarithm of half the smallest subnormal, ``math.ulp(0.0)``, so it
#: rounds to zero; one unit of u is added so that the rounding of u, of u**2
#: and of exp cannot bring it back.  Outside -_GAUSS_ZERO <= u <= 2 pi f0 +
#: _GAUSS_ZERO both Gaussians of :func:`morlet_fourier` at u are 0.0, and so
#: is the kernel.
_GAUSS_ZERO = math.sqrt(-2.0 * (math.log(math.ulp(0.0)) - math.log(2.0))) + 1.0


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
        return self._clear_of_edges(self.freqs[:, None], self.times[None, :])

    def _clear_of_edges(self, freqs: FloatArray, times: FloatArray) -> np.ndarray:
        """Cone-of-influence test of cells at ``freqs`` and ``times`` (broadcast)."""
        margin = COI_EFOLD * self.central_freq / freqs  # seconds
        return (times >= self.times[0] + margin) & (times <= self.times[-1] - margin)

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


def _fft_length(n: int) -> int:
    """The smallest integer >= n whose prime factors all lie in {2, 3, 5, 7}."""
    while True:
        m = n
        for prime in (2, 3, 5, 7):
            while m % prime == 0:
                m //= prime
        if m == 1:
            return n
        n += 1


def cwt(series: FloatArray, fs: float, freqs: FloatArray | None = None,
        f0: float = DEFAULT_F0) -> Scalogram:
    """Continuous wavelet transform of a uniformly sampled real signal.

    The n samples are padded with zeros to N, the smallest length of at
    least n whose prime factors all lie in {2, 3, 5, 7}, a fast FFT length
    (the padding of Torrence & Compo 1998, section 3f).  One FFT of the
    padded input, then one batched inverse FFT per block of
    :data:`CWT_ROWS` frequency rows, of which the first n columns are kept.
    Where n is already 7-smooth, N = n: there is no zero tail, and the
    transform is the circular one at length n.  The kernel for frequency f
    is the wavelet's Fourier transform on the N-point grid at scale f0/f,
    which is the L1 normalization.  It is evaluated only on the band of angular
    frequencies where it is not exactly 0.0 (see :data:`_GAUSS_ZERO`) and
    is 0.0 elsewhere, as the full evaluation gives it.  A block only runs
    its rows side by side: each row goes through the same operations as on
    its own, so the magnitudes equal those of one inverse FFT per row bit
    for bit, and the temporaries stay a few rows in size.  The record must
    cover at least four cycles of the lowest requested frequency.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InvalidInputError("series must be a 1-D array of at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("series must be finite")
    if not (math.isfinite(fs) and fs > 0.0):
        raise InvalidInputError(f"sampling rate must be finite and positive, got {fs!r}")
    if not (math.isfinite(f0) and f0 > 0.0):
        raise InvalidInputError(f"wavelet central frequency must be positive, got {f0!r}")
    if freqs is None:
        freqs = morlet_freq_grid()
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0 or not np.all(np.isfinite(freqs) & (freqs > 0.0)):
        raise InvalidInputError("freqs must be finite and positive")
    if np.any(np.diff(freqs) <= 0.0):
        raise InvalidInputError("freqs must be strictly increasing")
    duration = x.size / fs
    needed = 4.0 / freqs[0]
    if duration < needed:
        raise InvalidInputError(
            f"record of {duration:g} time units is too short for the lowest "
            f"frequency {freqs[0]:g}: need at least {needed:g} (4 cycles)"
        )
    n = x.size
    size = _fft_length(n)
    spectrum = np.fft.fft(x, size)
    omega = _TWO_PI * np.fft.fftfreq(size, d=1.0 / fs)
    scale = f0 / freqs
    # each row's band, where its kernel is not 0.0: scale * omega up to
    # 2 pi f0 + _GAUSS_ZERO in the positive half of the FFT layout (indices
    # 0, 1, ...) and down to -_GAUSS_ZERO in the negative half (..., size - 1)
    half = (size + 1) // 2
    pos = np.searchsorted(omega[:half], (_TWO_PI * f0 + _GAUSS_ZERO) / scale,
                          side="right").tolist()
    neg = (half + np.searchsorted(omega[half:], -_GAUSS_ZERO / scale)).tolist()
    mag = np.empty((freqs.size, n), dtype=float)
    for i0 in range(0, freqs.size, CWT_ROWS):
        rows = range(i0, min(i0 + CWT_ROWS, freqs.size))
        kern = np.zeros((len(rows), size))
        for k, i in enumerate(rows):
            kern[k, :pos[i]] = morlet_fourier(scale[i] * omega[:pos[i]], f0)
            kern[k, neg[i]:] = morlet_fourier(scale[i] * omega[neg[i]:], f0)
        np.abs(np.fft.ifft(spectrum * kern, axis=-1)[:, :n], out=mag[i0:i0 + len(rows)])
        del kern  # so no block's temporaries outlive it
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

    Column argmax with exact ties broken toward the previous column's pick
    (the lower bin at equal distance; in the first column the lowest bin),
    then a short median filter over the bin indices to suppress single-column
    jumps.  One pass over the frequency rows keeps a running column maximum
    and the first and last row that reach it; only columns where the two
    differ hold a tie and are resolved one by one, in column order.  Validity
    flags come from the cone of influence at the ridge's own frequency row.
    """
    mag = s.magnitude
    nt = s.times.size
    best = mag[0].copy()
    idx = np.zeros(nt, dtype=np.int64)
    last = np.zeros(nt, dtype=np.int64)
    for i in range(1, mag.shape[0]):
        row = mag[i]
        np.copyto(idx, i, where=row > best)
        np.copyto(last, i, where=row >= best)
        np.maximum(best, row, out=best)
    for j in np.flatnonzero(idx != last):
        if j > 0:
            top = np.flatnonzero(mag[:, j] == best[j])
            idx[j] = top[np.argmin(np.abs(top - idx[j - 1]))]
    if smooth > 1:
        # running median over the edge-padded indices: the rank smooth // 2
        # element of each window, centred as scipy.ndimage.median_filter
        # (mode "nearest") centres it, also for even sizes
        half = smooth // 2
        padded = np.pad(idx, (half, smooth - 1 - half), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, smooth)
        idx = np.partition(windows, half, axis=-1)[:, half]
    freqs = s.freqs[idx]
    return Ridge(s.times, freqs, mag[idx, np.arange(nt)],
                 s._clear_of_edges(freqs, s.times))


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

    The walk jumps from event to event: over the next :data:`SLIP_WINDOW`
    samples it marks the samples in each band at once, finds the anchor each
    sample would see (the last dwelling sample before it) with a running
    maximum of indices, takes the first sample that completes a slip, and
    starts again after it, or after the window if none does.  The comparisons
    are those of a sample-by-sample walk, so the events are the same bit for
    bit.
    """
    if traj.frame != "rotating":
        raise InvalidInputError("slip counting expects a rotating-frame trajectory")
    d = traj.states[:, 1] - attractor_psi
    times = traj.times
    level = _TWO_PI * round(float(d[0]) / _TWO_PI)
    anchor_t = float(times[0])
    anchor_d = float(d[0])
    events: list[SlipEvent] = []
    k = 0
    while k < d.size:
        seg = d[k:k + SLIP_WINDOW]
        dwell = np.abs(seg - level) < dwell_band
        up = np.abs(seg - (level + _TWO_PI)) < dwell_band
        down = np.abs(seg - (level - _TWO_PI)) < dwell_band
        # the anchor seen by each sample: the last dwelling sample up to it
        pos = np.maximum.accumulate(np.where(dwell, np.arange(seg.size), -1))
        anchor = np.where(pos >= 0, seg[pos], anchor_d)
        hit = np.flatnonzero(~dwell & (up | down) & (np.abs(seg - anchor) >= _TWO_PI - 0.5))
        i = int(hit[0]) if hit.size else seg.size - 1
        if pos[i] >= 0:
            anchor_t = float(times[k + pos[i]])
            anchor_d = float(seg[pos[i]])
        if hit.size:
            sign = 1 if up[i] else -1
            events.append(SlipEvent(anchor_t, float(times[k + i]), sign))
            level += sign * _TWO_PI
            anchor_t = float(times[k + i])
            anchor_d = float(seg[i])
        k += i + 1
    return events
