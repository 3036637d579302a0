"""Per-call reference steppers: the lab field with both schedules evaluated at
every call, and plain RK4 and Euler-Maruyama loops that call a field once per
stage; and an endless RK4 run of a lab field whose drive stands still.

The library runs only :class:`chronotax.integrate.LabField`, on a drive tape
built once per block of steps; its runs must equal these bit for bit.  The
loops also run toy fields, such as a motionless one for noise statistics.
"""

import math

import numpy as np

from chronotax.integrate import _BLOWUP_SQ, TAPE_BLOCK, _blow_up, _rk4_steps, _start


def reference_field(p, d):
    """The lab field with both schedules evaluated at every call: the
    reference the drive tape must match."""
    eg, w0, rp = p.eps_gamma, p.omega0, p.r_p

    def field(t, x, y):
        r = math.sqrt(x * x + y * y)
        g = eg * (rp - r)
        ea = float(d.eps_a(t))
        a = float(d.alpha_p(t))
        return (
            g * x - w0 * y - ea * (x - rp * math.cos(a)),
            g * y + w0 * x - ea * (y - rp * math.sin(a)),
        )

    return field


def rk4_reference(field, x0, y0, times, record=True):
    """Classical Runge-Kutta sweep of ``field(t, x, y)`` over ``times``, one
    call per stage; returns what :func:`chronotax.integrate.rk4_path` does."""
    n = times.size
    out = np.empty((n, 2), dtype=float) if record else None
    x, y = _start(x0, y0, times[0])
    if record:
        out[0, 0] = x
        out[0, 1] = y
    for i in range(n - 1):
        t = times[i]
        h = times[i + 1] - t
        k1x, k1y = field(t, x, y)
        th = t + 0.5 * h
        k2x, k2y = field(th, x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        k3x, k3y = field(th, x + 0.5 * h * k2x, y + 0.5 * h * k2y)
        te = t + h
        k4x, k4y = field(te, x + h * k3x, y + h * k3y)
        x += (h / 6.0) * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += (h / 6.0) * (k1y + 2.0 * (k2y + k3y) + k4y)
        if not (x * x + y * y <= _BLOWUP_SQ):  # NaN fails this test too
            raise _blow_up(te)
        if record:
            out[i + 1, 0] = x
            out[i + 1, 1] = y
    return out if record else (x, y)


def em_reference(field, x0, y0, times, sigma, rng):
    """Euler-Maruyama sweep of ``field(t, x, y)`` over ``times``, one call per
    step, with the kicks of :func:`chronotax.integrate.em_path` drawn from
    ``rng``; returns the (n, 2) state array."""
    n = times.size
    h = np.diff(times)
    kicks = rng.standard_normal((n - 1, 2)) * (sigma * np.sqrt(h))[:, None]
    out = np.empty((n, 2), dtype=float)
    x, y = _start(x0, y0, times[0])
    out[0, 0] = x
    out[0, 1] = y
    for i in range(n - 1):
        t = times[i]
        hi = h[i]
        fx, fy = field(t, x, y)
        x += hi * fx + kicks[i, 0]
        y += hi * fy + kicks[i, 1]
        if not (x * x + y * y <= _BLOWUP_SQ):  # NaN fails this test too
            raise _blow_up(times[i + 1])
        out[i + 1, 0] = x
        out[i + 1, 1] = y
    return out


def rk4_blocks(field, x0, y0, dt):
    """Endless RK4 run with step ``dt`` of a lab field whose drive stands still
    (a constant pull at zero drive frequency), on one tape block for every
    step.  Yields the states block by block as ``(xs, ys)`` lists of
    :data:`~chronotax.integrate.TAPE_BLOCK` floats; the caller stops the run
    by no longer asking for blocks."""
    x, y = _start(x0, y0, 0.0)
    tape = field.rk4_tape(np.zeros(TAPE_BLOCK), np.full(TAPE_BLOCK, float(dt)))
    steps = 0
    while True:
        xs, ys = _rk4_steps(field, x, y, tape)
        if len(xs) < TAPE_BLOCK:
            raise _blow_up((steps + len(xs) + 1) * dt)
        steps += TAPE_BLOCK
        x, y = xs[-1], ys[-1]
        yield xs, ys
