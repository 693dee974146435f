"""Airy zeros, their asymptotic seeds, and the envelope margin.

Evaluation is backed by scipy.special (AMOS); this module adds the
refinement of the n-th Ai zero from its asymptotic seed, and the
empirical constant of the envelope bound on a grid.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from .errors import DomainError, NumericError

__all__ = ["airy_zero", "envelope_margin", "standard_envelope_margin", "zero_seed"]


def zero_seed(n: int) -> float:
    """Leading-order location of the n-th Ai zero."""
    return -((1.5 * math.pi * (n - 0.25)) ** (2.0 / 3.0))


def _gap_estimate(n: int) -> float:
    # spacing of consecutive zeros near a_n, from the seed formula derivative
    return (math.pi) * (1.5 * math.pi * n) ** (-1.0 / 3.0)


def airy_zero(n: int) -> float:
    """The n-th (negative) zero a_n of Ai, refined from the asymptotic seed
    until |Ai(a_n)| <= 1e-12.

    Safeguarded Newton inside a bracket around the seed; the bracket
    half-width is the remainder scale 5*n**(-4/3) clipped to a quarter of
    the local zero spacing so it can never capture a neighboring zero.
    """
    if n < 1:
        raise DomainError("airy_zero: n must be >= 1")
    seed = zero_seed(n)
    half = min(5.0 * n ** (-4.0 / 3.0), 0.25 * _gap_estimate(n))
    lo, hi = seed - half, seed + half
    flo = float(special.airy(lo)[0])
    fhi = float(special.airy(hi)[0])
    if flo * fhi > 0:
        raise NumericError(f"airy_zero: no sign change in bracket for n={n}")
    x = seed
    fx, dfx = map(float, special.airy(x)[:2])     # Ai and Ai' from one call
    for _ in range(100):
        step = fx / dfx if dfx != 0.0 else math.inf
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)  # bisection fallback
        f_new, df_new = map(float, special.airy(x_new)[:2])
        if f_new * flo > 0:
            lo, flo = x_new, f_new
        else:
            hi, fhi = x_new, f_new
        x, fx, dfx = x_new, f_new, df_new
        if abs(fx) <= 1e-12:
            return x
    raise NumericError(f"airy_zero: refinement did not converge for n={n} "
                       f"(last residual {fx:.3e})")


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
