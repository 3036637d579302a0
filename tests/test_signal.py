"""Wavelet transform, ridge extraction, and phase-slip counting.

Oracle values used below, derived once by hand from the analytic wavelet:
for the unit-energy convention used here the transform of cos(2*pi*f*t)
evaluated at scale f0/f has magnitude 0.5 * pi**(-1/4) * sqrt(2*pi)
* (1 - kappa*exp(-w0**2/2)) with w0 = 2*pi*f0, which is 0.941404 for
f0 = 1 (the admissibility correction kappa is then ~2.7e-9).
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import median_filter

from chronotax import (
    InvalidInputError,
    Ridge,
    Scalogram,
    SlipEvent,
    count_slips,
    cwt,
    morlet_fourier,
    morlet_freq_grid,
    ridge,
)
from chronotax import signal as readout
from chronotax.integrate import Trajectory
from chronotax.signal import COI_EFOLD, CWT_ROWS, DWELL_BAND, SLIP_WINDOW

RIDGE_MAG = 0.9414  # see module docstring
TWO_PI = 2.0 * math.pi


def tone(freq, fs=10.0, duration=400.0, amp=1.0, phase=0.0):
    t = np.arange(int(duration * fs)) / fs
    return t, amp * np.cos(2 * math.pi * freq * t + phase)


def test_freq_grid_is_geometric():
    freqs = morlet_freq_grid(0.0625, 1.0, 32)
    assert freqs[0] == pytest.approx(0.0625)
    assert freqs[-1] <= 1.0 + 1e-12
    ratios = freqs[1:] / freqs[:-1]
    np.testing.assert_allclose(ratios, 2.0 ** (1.0 / 32.0), rtol=1e-12)
    # bin 64 sits exactly two octaves up
    assert freqs[64] == pytest.approx(0.25, rel=1e-12)


def test_wavelet_is_admissible():
    # zero mean: the Fourier transform vanishes at omega = 0
    assert abs(morlet_fourier(np.array([0.0]), 1.0)[0]) < 1e-12
    # and peaks near the central frequency
    w = np.linspace(0.1, 20.0, 2001)
    vals = morlet_fourier(w, 1.0)
    assert abs(w[np.argmax(vals)] - 2 * math.pi) < 0.02


@settings(max_examples=100)
@given(f0=st.floats(0.05, 5.0), beyond=st.floats(0.0, 1e3), side=st.sampled_from([1.0, -1.0]))
@example(f0=1.0, beyond=0.0, side=1.0)
@example(f0=1.0, beyond=0.0, side=-1.0)
def test_morlet_kernel_is_zero_outside_its_band(f0, beyond, side):
    # cwt evaluates each kernel only on -_GAUSS_ZERO <= u <= 2 pi f0 + _GAUSS_ZERO;
    # everywhere else the full evaluation must give exactly +0.0
    edge = TWO_PI * f0 + readout._GAUSS_ZERO if side > 0 else -readout._GAUSS_ZERO
    u = np.array([np.nextafter(edge, side * np.inf) + side * beyond])
    assert morlet_fourier(u, f0).tobytes() == np.zeros(1).tobytes()
    # and the bound is no wider than its margin of one unit: 1.01 inside it
    # the Gaussian is still a subnormal
    assert 0.0 < math.exp(-0.5 * (readout._GAUSS_ZERO - 1.01) ** 2) < 1e-320


def test_unit_tone_ridge_magnitude():
    t, x = tone(0.25)
    sc = cwt(x, 10.0, morlet_freq_grid(0.0625, 1.0, 32))
    rg = ridge(sc)
    inside = rg.magnitude[rg.valid]
    assert np.median(inside) == pytest.approx(RIDGE_MAG, abs=0.02)
    assert 0.9 <= np.median(inside) <= 1.1


def test_tone_lands_on_its_bin():
    t, x = tone(0.25)
    sc = cwt(x, 10.0, morlet_freq_grid(0.0625, 1.0, 32))
    rg = ridge(sc)
    good = rg.frequency[rg.valid]
    # within one geometric bin of the true frequency
    assert np.all(np.abs(np.log2(good / 0.25)) <= 1.0 / 32.0 + 1e-12)
    assert rg.median_frequency() == pytest.approx(0.25, rel=0.03)


def test_two_tones_resolved():
    t, x1 = tone(0.02, duration=800.0, amp=1.0)
    _, x2 = tone(0.08, duration=800.0, amp=2.0)
    sc = cwt(x1 + x2, 10.0, morlet_freq_grid(0.01, 0.5, 32))
    rg = ridge(sc)
    # the louder tone owns the global ridge
    assert rg.median_frequency() == pytest.approx(0.08, rel=0.05)
    # and the quieter one survives as a secondary maximum
    mid = sc.magnitude[:, sc.magnitude.shape[1] // 2]
    k_low = int(np.argmin(np.abs(sc.freqs - 0.02)))
    window = mid[max(k_low - 4, 0): k_low + 5]
    assert window.max() > 0.5 * RIDGE_MAG


def test_linearity_in_amplitude():
    t, x = tone(0.1)
    sc1 = cwt(x, 10.0, morlet_freq_grid(0.05, 0.4, 16))
    sc3 = cwt(3.0 * x, 10.0, morlet_freq_grid(0.05, 0.4, 16))
    np.testing.assert_allclose(sc3.magnitude, 3.0 * sc1.magnitude, atol=1e-10)


def test_shift_is_circular_permutation():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(512)
    freqs = morlet_freq_grid(0.1, 2.0, 8)
    a = cwt(x, 10.0, freqs)
    b = cwt(np.roll(x, 37), 10.0, freqs)
    np.testing.assert_allclose(b.magnitude, np.roll(a.magnitude, 37, axis=1),
                               atol=1e-9)


def test_zero_signal():
    sc = cwt(np.zeros(256), 10.0, morlet_freq_grid(0.2, 2.0, 8))
    assert np.all(sc.magnitude == 0.0)


def test_record_length_guard():
    with pytest.raises(InvalidInputError) as err:
        cwt(np.zeros(100), 10.0, morlet_freq_grid(0.01, 1.0, 8))
    assert "4 cycles" in str(err.value) or "400" in str(err.value)


def test_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        cwt(np.array([1.0, np.nan, 2.0]), 10.0, morlet_freq_grid(0.5, 2.0, 8))
    with pytest.raises(InvalidInputError):
        cwt(np.ones((4, 4)), 10.0, morlet_freq_grid(0.5, 2.0, 8))
    with pytest.raises(InvalidInputError):
        cwt(np.ones(64), -1.0, morlet_freq_grid(0.5, 2.0, 8))


@pytest.mark.parametrize("fs", [math.nan, math.inf, 0.0, -1.0])
def test_rejects_a_bad_sampling_rate_at_entry(fs):
    # a NaN rate would otherwise run the whole transform before failing
    x = np.random.default_rng(3).standard_normal(512)
    with pytest.raises(InvalidInputError, match="sampling rate"):
        cwt(x, fs, morlet_freq_grid(0.1, 2.0, 4))


@pytest.mark.parametrize("freqs", [[0.5, math.nan], [0.5, math.inf], [math.nan, 0.5]])
def test_rejects_non_finite_freqs_at_entry(freqs):
    # a NaN frequency ran the whole transform before failing, and an infinite
    # one returned a scalogram after divide-by-zero warnings
    x = np.random.default_rng(3).standard_normal(512)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="freqs must be finite and positive"):
            cwt(x, 10.0, freqs)


def test_rejects_bad_central_frequency():
    # f0 = 0 cancels the kernel and f0 < 0 mirrors it; neither is a wavelet
    x = np.random.default_rng(3).standard_normal(512)
    for f0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="central frequency"):
            cwt(x, 10.0, morlet_freq_grid(0.1, 2.0, 4), f0)


def test_coi_masks_edges():
    t, x = tone(0.05, duration=400.0)
    sc = cwt(x, 10.0, morlet_freq_grid(0.05, 1.0, 8))
    coi = sc.coi_mask()
    assert not coi[0, 0] and not coi[0, -1]  # lowest frequency, both edges
    assert coi[-1, coi.shape[1] // 2]  # highest frequency, middle


def test_scalogram_round_trips(tmp_path):
    t, x = tone(0.25, duration=100.0)
    sc = cwt(x, 10.0, morlet_freq_grid(0.125, 1.0, 8))
    p = tmp_path / "sc.block"
    sc.to_block(p)
    back = Scalogram.from_block(p)
    np.testing.assert_allclose(back.magnitude, sc.magnitude)
    np.testing.assert_allclose(back.freqs, sc.freqs)

    csv_path = tmp_path / "sc.csv"
    sc.to_csv(csv_path)
    assert open(csv_path).readline().strip() == "t,f,mag"


def test_ridge_csv(tmp_path):
    t, x = tone(0.25, duration=100.0)
    rg = ridge(cwt(x, 10.0, morlet_freq_grid(0.125, 1.0, 8)))
    path = tmp_path / "ridge.csv"
    rg.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.dtype.names == ("t", "f", "mag", "valid")


# --- phase slips -------------------------------------------------------


def make_rotating(times, psi, r=None):
    states = np.column_stack([
        np.ones_like(times) if r is None else r,
        psi,
    ])
    return Trajectory(times[0], times[1] - times[0], times, states, "rotating")


def test_single_slip_up():
    t = np.linspace(0.0, 40.0, 4001)
    psi = np.where(t < 10.0, 0.3, np.where(t > 12.0, 0.3 + 2 * math.pi,
                   0.3 + 2 * math.pi * (t - 10.0) / 2.0))
    events = count_slips(make_rotating(t, psi), attractor_psi=0.3)
    assert len(events) == 1
    ev = events[0]
    assert ev.winding == 1
    assert 9.0 <= ev.t_start <= 11.0
    assert 11.0 <= ev.t_end <= 13.0


def test_single_slip_down():
    t = np.linspace(0.0, 40.0, 4001)
    psi = np.where(t < 10.0, 0.3, np.where(t > 12.0, 0.3 - 2 * math.pi,
                   0.3 - 2 * math.pi * (t - 10.0) / 2.0))
    events = count_slips(make_rotating(t, psi), attractor_psi=0.3)
    assert len(events) == 1
    assert events[0].winding == -1


def test_slip_count_ignores_absolute_level():
    # starting 4*pi away from the reference changes nothing
    t = np.linspace(0.0, 40.0, 4001)
    base = 0.3 + 4 * math.pi
    psi = np.where(t < 10.0, base, np.where(t > 12.0, base + 2 * math.pi,
                   base + 2 * math.pi * (t - 10.0) / 2.0))
    events = count_slips(make_rotating(t, psi), attractor_psi=0.3)
    assert len(events) == 1


def test_retreat_is_not_a_slip():
    # a 3-radian excursion that turns back never completes the loop
    t = np.linspace(0.0, 40.0, 4001)
    bump = 3.0 * np.exp(-0.5 * ((t - 20.0) / 2.0) ** 2)
    events = count_slips(make_rotating(t, 0.3 + bump), attractor_psi=0.3)
    assert events == []


def test_quiet_signal_has_no_slips():
    t = np.linspace(0.0, 40.0, 4001)
    psi = 0.3 + 0.05 * np.sin(t)
    assert count_slips(make_rotating(t, psi), attractor_psi=0.3) == []


def test_three_slips_counted():
    t = np.linspace(0.0, 60.0, 6001)
    psi = 0.3 + 2 * math.pi * np.floor(t / 15.0).clip(0, 3)
    # smooth the staircase so each riser takes a finite time
    kernel = np.ones(41) / 41.0
    psi = np.convolve(psi, kernel, mode="same")
    psi[:50] = 0.3
    psi[-50:] = psi[-51]
    events = count_slips(make_rotating(t, psi), attractor_psi=0.3)
    assert len(events) == 3
    assert all(ev.winding == 1 for ev in events)


def test_slips_require_rotating_frame():
    t = np.linspace(0.0, 10.0, 101)
    states = np.column_stack([np.cos(t), np.sin(t)])
    lab = Trajectory(0.0, 0.1, t, states, "lab")
    with pytest.raises(InvalidInputError):
        count_slips(lab, attractor_psi=0.0)


def test_slip_event_fields():
    ev = SlipEvent(1.0, 2.0, 1)
    assert ev.t_end > ev.t_start
    assert ev.winding in (-1, 1)


# --- loop references ---------------------------------------------------
# The read-out kernels as first written: one inverse FFT per frequency row,
# one argmax per column, one step of the dwell walk per sample.  The library
# must give the same results bit for bit.


#: every integer up to 2**15 whose prime factors all lie in {2, 3, 5, 7}
SMOOTH = sorted(2**a * 3**b * 5**c * 7**d for a in range(16) for b in range(10)
                for c in range(7) for d in range(6))


def next_smooth_length(n):
    return next(m for m in SMOOTH if m >= n)


def cwt_per_row(x, fs, freqs, f0=1.0, size=None):
    # the record padded with zeros to size (by default the next 7-smooth
    # length), the first x.size columns of each row kept
    size = next_smooth_length(x.size) if size is None else size
    spectrum = np.fft.fft(x, size)
    omega = TWO_PI * np.fft.fftfreq(size, d=1.0 / fs)
    mag = np.empty((freqs.size, x.size), dtype=float)
    for i, f in enumerate(freqs):
        scale = f0 / f
        mag[i] = np.abs(np.fft.ifft(spectrum * morlet_fourier(scale * omega, f0)))[:x.size]
    return mag


def ridge_per_column(s, smooth=5):
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
        idx = median_filter(idx, size=smooth, mode="nearest")
    margin = COI_EFOLD * s.central_freq / s.freqs
    coi = ((s.times[None, :] >= s.times[0] + margin[:, None])
           & (s.times[None, :] <= s.times[-1] - margin[:, None]))
    cols = np.arange(nt)
    return Ridge(s.times, s.freqs[idx], mag[idx, cols], coi[idx, cols])


def slips_per_sample(traj, attractor_psi, dwell_band=DWELL_BAND):
    d = traj.states[:, 1] - attractor_psi
    times = traj.times
    level = TWO_PI * round(float(d[0]) / TWO_PI)
    anchor_t = float(times[0])
    anchor_d = float(d[0])
    events = []
    for i in range(d.size):
        di = float(d[i])
        if abs(di - level) < dwell_band:
            anchor_t = float(times[i])
            anchor_d = di
            continue
        for sign in (1.0, -1.0):
            shifted = level + sign * TWO_PI
            if abs(di - shifted) < dwell_band and abs(di - anchor_d) >= TWO_PI - 0.5:
                events.append(SlipEvent(anchor_t, float(times[i]), int(sign)))
                level = shifted
                anchor_t = float(times[i])
                anchor_d = di
                break
    return events


def same_ridge(a, b):
    return (np.array_equal(a.frequency, b.frequency)
            and np.array_equal(a.magnitude, b.magnitude)
            and np.array_equal(a.valid, b.valid))


@settings(max_examples=40)
@given(n=st.one_of(st.sampled_from([5001, 4099, 1031, 4096]), st.integers(64, 3000)),
       rows=st.integers(1, 3 * CWT_ROWS + 3), voices=st.integers(1, 32),
       f0=st.sampled_from([1.0, 0.75, 1.3]), seed=st.integers(0, 2**32 - 1))
@example(n=5001, rows=2 * CWT_ROWS + 5, voices=32, f0=1.0, seed=1)
def test_cwt_blocks_equal_per_row_reference(n, rows, voices, f0, seed):
    fs = 10.0
    x = np.random.default_rng(seed).standard_normal(n)
    fmin = 4.0 * fs / n * 1.01  # four cycles of the lowest frequency fit
    freqs = fmin * 2.0 ** (np.arange(rows) / voices)
    sc = cwt(x, fs, freqs, f0)
    assert np.array_equal(sc.magnitude, cwt_per_row(x, fs, freqs, f0))
    assert same_ridge(ridge(sc), ridge_per_column(sc))


@pytest.mark.parametrize("n", [512, 4096, 5040])
def test_cwt_at_a_smooth_length_is_circular(n):
    # no zero tail where n is 7-smooth: the circular transform at length n
    fs = 10.0
    x = np.random.default_rng(n).standard_normal(n)
    freqs = 4.0 * fs / n * 1.01 * 2.0 ** (np.arange(2 * CWT_ROWS + 5) / 8)
    assert np.array_equal(cwt(x, fs, freqs).magnitude, cwt_per_row(x, fs, freqs, size=n))


@settings(max_examples=300)
@given(n=st.integers(2, 20000))
@example(n=5001)
def test_fft_length_is_the_next_smooth_length(n):
    assert readout._fft_length(n) == next_smooth_length(n)


@settings(max_examples=200)
@given(nf=st.integers(1, 40), nt=st.integers(1, 300), levels=st.integers(0, 4),
       smooth=st.sampled_from([1, 3, 5]), edges=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_ridge_equals_per_column_reference(nf, nt, levels, smooth, edges, seed):
    # levels > 0 draws integer magnitudes in [0, levels), dense in exact ties;
    # with edges, every cone-of-influence margin is a power of two that falls
    # exactly on a sample time
    rng = np.random.default_rng(seed)
    mag = (rng.integers(0, levels, (nf, nt)).astype(float) if levels
           else rng.random((nf, nt)))
    if edges:
        freqs, central = 2.0 ** (np.arange(nf) - nf + 2.0), 1.0 / COI_EFOLD
    else:
        freqs, central = 0.1 * 2.0 ** (np.arange(nf) / 8.0), 1.0
    sc = Scalogram(np.arange(nt) / 4.0, freqs, mag, central)
    assert same_ridge(ridge(sc, smooth), ridge_per_column(sc, smooth))


@settings(max_examples=200)
@given(nt=st.integers(1, 60), smooth=st.integers(2, 16), levels=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1))
@example(nt=1, smooth=2, levels=3, seed=0)
@example(nt=3, smooth=8, levels=3, seed=1)
def test_ridge_median_equals_scipy_median_filter(nt, smooth, levels, seed):
    # even window sizes and records shorter than the window included: scipy's
    # rank smooth // 2 and its centring of even windows
    rng = np.random.default_rng(seed)
    mag = rng.integers(0, levels, (8, nt)).astype(float) + rng.random((8, nt))
    sc = Scalogram(np.arange(nt) / 4.0, 0.1 * 2.0 ** (np.arange(8) / 8.0), mag, 1.0)
    assert same_ridge(ridge(sc, smooth), ridge_per_column(sc, smooth))


def test_ridge_tie_break():
    # columns: tie in column 0, a unique peak, then ties in consecutive columns
    top = [(1, 3), (2,), (1, 3), (0, 4), (3, 4), (0, 4)]
    mag = np.zeros((5, len(top)))
    for j, rows in enumerate(top):
        mag[list(rows), j] = 1.0
    sc = Scalogram(np.arange(len(top)) / 4.0, 0.1 * 2.0 ** np.arange(5), mag, 1.0)
    rg = ridge(sc, smooth=1)
    # first index wins in column 0; (1, 3) after 2 is equidistant, the lower
    # wins; then the nearest to each previous pick
    assert np.array_equal(rg.frequency, sc.freqs[[1, 2, 1, 0, 3, 4]])
    assert same_ridge(rg, ridge_per_column(sc, smooth=1))


excursions = st.lists(
    st.tuples(st.one_of(st.sampled_from([TWO_PI, -TWO_PI]), st.floats(-7.0, 7.0)),
              st.booleans()),  # turn back to where the excursion started
    min_size=1, max_size=8)


@settings(max_examples=200)
@given(steps=excursions, start=st.floats(-math.pi, math.pi), winds=st.integers(-3, 3),
       seg=st.integers(3, 120), noise=st.sampled_from([0.0, 0.05, 0.3]),
       grid=st.sampled_from([0.0, 0.125]), band=st.sampled_from([DWELL_BAND, 0.2, 1.0, 3.5]),
       window=st.sampled_from([1, 2, 7, 64, SLIP_WINDOW]), seed=st.integers(0, 2**32 - 1))
@example(steps=[(TWO_PI, False), (-TWO_PI, False), (-TWO_PI, False)], start=1.9, winds=2,
         seg=40, noise=0.05, grid=0.0, band=DWELL_BAND, window=SLIP_WINDOW, seed=3)
def test_count_slips_equals_per_sample_reference(steps, start, winds, seg, noise, grid,
                                                 band, window, seed):
    # start > band puts the first sample outside the dwell band; winds adds a
    # 2*pi-shifted copy; grid > 0 rounds phases so band edges are hit exactly;
    # short search windows put window edges inside excursions
    knots = [start]
    for step, back in steps:
        knots.append(knots[-1] + step)
        if back:
            knots.append(knots[-1] - step)
    knots = np.asarray(knots) + TWO_PI * winds
    t = np.arange((len(knots) + 1) * seg) * 0.01 + 3.0
    psi = np.interp(t, t[seg::seg][:len(knots)], knots)
    psi += noise * np.random.default_rng(seed).standard_normal(t.size)
    if grid:
        psi = np.round(psi / grid) * grid
    traj = make_rotating(t, psi)
    with mock.patch.object(readout, "SLIP_WINDOW", window):
        events = count_slips(traj, 0.0, band)
    assert events == slips_per_sample(traj, 0.0, band)


def test_count_slips_window_edges():
    # a staircase many windows long, 40 risers up then 40 down, each riser
    # 300 samples wide, after a start outside the dwell band
    n = np.arange(20 * SLIP_WINDOW)
    stairs = np.floor(n / 1000.0)
    stairs = np.where(stairs <= 40, stairs, np.maximum(80 - stairs, 0))
    psi = TWO_PI * np.convolve(stairs, np.ones(301) / 301.0, mode="same")
    psi[:300] = 1.2
    traj = make_rotating(n * 0.01, psi)
    events = count_slips(traj, 0.0)
    assert [ev.winding for ev in events] == [1] * 40 + [-1] * 40
    assert events == slips_per_sample(traj, 0.0)


# --- memory --------------------------------------------------------------


def test_readout_memory_stays_below_the_scalogram():
    # one scalogram of the noisy read-out's size: 213 rows of 5001 samples
    x = np.random.default_rng(3).standard_normal(5001)
    freqs = morlet_freq_grid(0.01, 1.0, 32)
    sc = cwt(x, 10.0, freqs)
    ridge(sc)  # once first, so one-time imports and caches are not counted
    tracemalloc.start()
    try:
        ridge(sc)
        _, ridge_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        again = cwt(x, 10.0, freqs)
        _, cwt_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sc.magnitude.nbytes
    # no copy of the magnitudes and no (n_freqs, n_times) mask in ridge; a few
    # rows of temporaries per block in cwt
    assert ridge_peak < 0.25 * nbytes
    assert cwt_peak - again.magnitude.nbytes < 0.5 * nbytes
