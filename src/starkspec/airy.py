"""Airy zeros, their asymptotic seeds, the package's one Newton
iteration, and the envelope margin.

Airy values come from the lattice of AMOS values behind every Workspace
table (:func:`volterra.airy_table`), whose chunks on w in [-64, 32) are
stored with the package; this module adds the n-th Ai zero by Newton from
its asymptotic seed (DLMF 9.9), the same Newton the eigenvalue solver and
the oracle's Rayleigh-quotient iteration run, and the empirical constant
of the envelope bound on a grid.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BracketError, DomainError
from .volterra import airy_ai, airy_table

__all__ = ["airy_zero", "envelope_margin", "newton", "standard_envelope_margin", "zero_seed"]

NEWTON_MAX_ITER = 40
#: relative step below which a Newton step that fails to shrink is roundoff
NEWTON_NOISE = 1e-8
#: largest w envelope_margin takes: Bi is nan from w ~ 103.4, and Ai nears
#: underflow
ENVELOPE_W_MAX = 100.0


def zero_seed(n: int) -> float:
    """Leading-order location of the n-th Ai zero."""
    return -((1.5 * math.pi * (n - 0.25)) ** (2.0 / 3.0))


def _gap_estimate(n: int) -> float:
    # spacing of consecutive zeros near a_n, from the seed formula derivative
    return (math.pi) * (1.5 * math.pi * n) ** (-1.0 / 3.0)


def newton(step, x: float, window, what: str) -> float:
    """Newton from ``x``: ``step(x)`` is the Newton step f(x)/f'(x), and the
    iterate it was taken at is returned once it is converged.

    Converged when the step falls to 1e-15 (1 + |x|), or to roundoff: a
    step below NEWTON_NOISE (1 + |x|) that is not a quarter of the last
    one, as every step in Newton's quadratic range would be. Iterates that
    leave ``window`` raise BracketError naming ``what``, as does running
    NEWTON_MAX_ITER steps.
    """
    lo, hi = window
    prev = math.inf
    for _ in range(NEWTON_MAX_ITER):
        dx = step(x)
        scale = 1.0 + abs(x)
        if abs(dx) <= 1e-15 * scale or NEWTON_NOISE * scale >= abs(dx) >= 0.25 * prev:
            return x
        prev = abs(dx)
        x -= dx
        if not lo <= x <= hi:
            raise BracketError(f"Newton step to {what} = {x!r} left the window "
                               f"[{lo!r}, {hi!r}]")
    raise BracketError(f"Newton did not converge in {NEWTON_MAX_ITER} steps; "
                       f"last {what} = {x!r}, step {dx:.3g}")


def airy_zero(n: int) -> float:
    """The n-th (negative) zero a_n of Ai, by :func:`newton` from the
    asymptotic seed with Ai and Ai' from :func:`volterra.airy_ai`; the
    converged iterate is returned with its last Newton step applied.

    The window around the seed has half-width the remainder scale
    5*n**(-4/3) clipped to a quarter of the local zero spacing, so it can
    never capture a neighboring zero.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError(f"airy_zero: n must be an int >= 1, got {n!r}")
    seed = zero_seed(n)
    half = min(5.0 * n ** (-4.0 / 3.0), 0.25 * _gap_estimate(n))
    dx = 0.0

    def step(x):
        nonlocal dx
        ai, aip = airy_ai(x)
        dx = float(ai / aip)
        return dx

    return newton(step, seed, (seed - half, seed + half), f"a_{n}") - dx


def envelope_margin(grid) -> float:
    """Empirical envelope constant over a grid of w <= ENVELOPE_W_MAX.

    Returns max over the grid of |Ai(w)| sigma(w) / g_A(w) and
    |Ai'(w)| / (sigma(w) g_A(w)), with Ai and Ai' from
    :func:`volterra.airy_table`. g_A = exp(-(2/3) w^(3/2)) on the positive
    axis, where its inverse times the table value stays finite up to
    ENVELOPE_W_MAX, and g_A = 1 on the negative axis.
    """
    w = np.asarray(grid, dtype=float)
    if w.size == 0:
        raise DomainError("envelope_margin: empty grid")
    if not np.all(w <= ENVELOPE_W_MAX):
        raise DomainError(f"envelope_margin: need w <= {ENVELOPE_W_MAX:g} and no NaN")
    sigma = 1.0 + np.abs(w) ** 0.25
    inv_ga = np.exp((2.0 / 3.0) * np.maximum(w, 0.0) ** 1.5)   # exactly 1 for w <= 0
    ai, aip = airy_table(w)[:2] * inv_ga
    m1 = np.max(np.abs(ai) * sigma)
    m2 = np.max(np.abs(aip) / sigma)
    return float(max(m1, m2))


@functools.cache
def standard_envelope_margin() -> float:
    """:func:`envelope_margin` on w in [-30, 30) at spacing 0.01, the
    constant every campaign summary reports; computed once per process."""
    return envelope_margin(np.arange(-30.0, 30.0, 0.01))
