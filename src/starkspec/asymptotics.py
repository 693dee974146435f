"""First-order spectral predictions and remainder decay-rate fits.

The predictions are the leading corrections to the unperturbed data:
an Ai^2 pairing for the eigenvalues and an Ai*Ai' pairing for the
norming constants, both divided by sqrt(-a_n). Remainder decay is
quantified by a log-log least-squares slope with a noise-floor guard.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .airy import airy_zero
from .errors import InsufficientDataError, NumericError
from .potentials import Potential

__all__ = [
    "AsymptoticsReport",
    "lambda_prediction",
    "kappa_prediction",
    "decay_rate_fit",
    "build_report",
]

_PRED_RTOL = 1e-11
#: residuals below 10x these are treated as solver noise in the fits
LAMBDA_NOISE_FLOOR = 1e-9
KAPPA_NOISE_FLOOR = 1e-8


def _airy_pairing(q: Potential, a_n: float, kernel) -> float:
    """Adaptive quadrature of kernel(Ai, Ai')(x + a_n) * q(x) over [0, inf).

    Split at the turning point -a_n; beyond it the Airy factors decay
    doubly-exponentially, so 30 more units always exhaust the mass.
    """
    turn = max(-a_n, 0.0)

    def f(x):
        ai, aip, _, _ = special.airy(x + a_n)
        return kernel(ai, aip) * q.q(x)

    pts = sorted(k for k in q.kinks if 0.0 < k < turn)
    head, _ = integrate.quad(f, 0.0, turn, points=pts or None,
                             limit=800, epsabs=1e-15, epsrel=_PRED_RTOL)
    tail, _ = integrate.quad(f, turn, turn + 30.0, limit=300,
                             epsabs=1e-15, epsrel=_PRED_RTOL)
    out = head + tail
    if not math.isfinite(out):
        raise NumericError("prediction quadrature did not converge")
    return out


def lambda_prediction(q: Potential, n: int) -> float:
    """-a_n plus the first-order eigenvalue correction."""
    a_n = airy_zero(n).a_n
    pairing = _airy_pairing(q, a_n, lambda ai, aip: ai * ai)
    return -a_n + math.pi * pairing / math.sqrt(-a_n)


def kappa_prediction(q: Potential, n: int) -> float:
    """First-order norming-constant correction (zero at q = 0)."""
    a_n = airy_zero(n).a_n
    pairing = _airy_pairing(q, a_n, lambda ai, aip: ai * aip)
    return -2.0 * math.pi * pairing / math.sqrt(-a_n)


def decay_rate_fit(resid, ns, tolerance_floor: float):
    """Least-squares slope of log|resid| vs log n, with a 95% half-width.

    Residuals below 10x the tolerance floor are excluded as solver noise;
    fewer than 8 surviving points is an error.
    """
    resid = np.abs(np.asarray(resid, dtype=float))
    ns = np.asarray(ns, dtype=float)
    usable = resid > 10.0 * tolerance_floor
    if int(np.sum(usable)) < 8:
        raise InsufficientDataError(
            f"decay_rate_fit: only {int(np.sum(usable))} residuals above the "
            f"noise floor {10.0 * tolerance_floor:g}; need >= 8")
    x = np.log(ns[usable])
    y = np.log(resid[usable])
    m = len(x)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, res_ss, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope = float(coef[0])
    if m > 2:
        sigma2 = float(res_ss[0]) / (m - 2) if res_ss.size else 0.0
        sxx = float(np.sum((x - x.mean()) ** 2))
        # the 97.5% Student-t quantile; scipy.stats would add its import time
        half_width = float(special.stdtrit(m - 2, 0.975)) * math.sqrt(sigma2 / sxx)
    else:
        half_width = math.inf
    return slope, half_width


@dataclass
class AsymptoticsReport:
    lambda_resid: np.ndarray
    kappa_resid: np.ndarray
    #: (slope, 95% half-width), or None when the residuals sit at the noise floor
    fitted_slope_lambda: tuple | None
    fitted_slope_kappa: tuple | None


def _fit_above_floor(resid, ns, floor):
    try:
        return decay_rate_fit(resid, ns, floor)
    except InsufficientDataError:
        return None


def build_report(ns, lambda_resid, kappa_resid,
                 lambda_floor: float = LAMBDA_NOISE_FLOOR,
                 kappa_floor: float = KAPPA_NOISE_FLOOR) -> AsymptoticsReport:
    """Fitted decay slopes of the residuals against the first-order
    predictions, each slope on its own residuals and noise floor."""
    lam_resid = np.asarray(lambda_resid, dtype=float)
    kap_resid = np.asarray(kappa_resid, dtype=float)
    return AsymptoticsReport(lam_resid, kap_resid,
                             _fit_above_floor(lam_resid, ns, lambda_floor),
                             _fit_above_floor(kap_resid, ns, kappa_floor))
