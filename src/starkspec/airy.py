"""Airy zeros, their asymptotic seeds, the package's one Newton
iteration, and the envelope margin.

Evaluation is backed by scipy.special (AMOS); this module adds the n-th
Ai zero by Newton from its asymptotic seed (DLMF 9.9), the same Newton
the eigenvalue solver and the oracle's Rayleigh-quotient iteration run,
and the empirical constant of the envelope bound on a grid.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from .errors import BracketError, DomainError

__all__ = ["airy_zero", "envelope_margin", "newton", "standard_envelope_margin", "zero_seed"]

NEWTON_MAX_ITER = 40
#: relative step below which a Newton step that fails to shrink is roundoff
NEWTON_NOISE = 1e-8


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
    asymptotic seed with Ai and Ai' from one AMOS call per iterate.

    The window around the seed has half-width the remainder scale
    5*n**(-4/3) clipped to a quarter of the local zero spacing, so it can
    never capture a neighboring zero.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError(f"airy_zero: n must be an int >= 1, got {n!r}")
    seed = zero_seed(n)
    half = min(5.0 * n ** (-4.0 / 3.0), 0.25 * _gap_estimate(n))

    def step(x):
        ai, aip = special.airy(x)[:2]
        return float(ai / aip)

    return newton(step, seed, (seed - half, seed + half), f"a_{n}")


def envelope_margin(grid) -> float:
    """Empirical envelope constant over a grid.

    Returns max over the grid of |Ai(w)| sigma(w) / g_A(w) and
    |Ai'(w)| / (sigma(w) g_A(w)). Uses the scaled Airy form for w > 0 so
    the ratio never overflows.
    """
    w = np.asarray(grid, dtype=float)
    if w.size == 0:
        raise DomainError("envelope_margin: empty grid")
    if np.any(np.isnan(w)):
        raise DomainError("envelope_margin: NaN in grid")
    sigma = 1.0 + np.abs(w) ** 0.25
    # airye divides out exp(-(2/3) w^(3/2)) on the positive axis, which is
    # exactly g_A there; on the negative axis g_A = 1 and airy is safe.
    pos = w > 0
    ai_over_ga = np.empty_like(w)
    aip_over_ga = np.empty_like(w)
    if np.any(pos):
        eai, eaip, _, _ = special.airye(w[pos])
        ai_over_ga[pos] = eai
        aip_over_ga[pos] = eaip
    if np.any(~pos):
        ai, aip, _, _ = special.airy(w[~pos])
        ai_over_ga[~pos] = ai
        aip_over_ga[~pos] = aip
    m1 = np.max(np.abs(ai_over_ga) * sigma)
    m2 = np.max(np.abs(aip_over_ga) / sigma)
    return float(max(m1, m2))


@functools.cache
def standard_envelope_margin() -> float:
    """:func:`envelope_margin` on w in [-30, 30) at spacing 0.01, the
    constant every campaign summary reports; computed once per process."""
    return envelope_margin(np.arange(-30.0, 30.0, 0.01))
