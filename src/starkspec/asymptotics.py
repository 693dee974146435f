"""First-order spectral predictions and remainder decay-rate fits.

The predictions are the leading corrections to the unperturbed data:
an Ai^2 pairing for the eigenvalues and an Ai*Ai' pairing for the
norming constants, both divided by sqrt(-a_n), each a Gauss sum on the
Airy table of the index's Workspace at z = -a_n. build_report fits the
decay of both remainders, each by a log-log least-squares slope with a
noise-floor guard, into the two records summary.json holds.
"""
from __future__ import annotations

import math

import numpy as np

from .airy import airy_zero  # noqa: F401  (bench/tracing.py wraps it by name)
from .errors import InsufficientDataError
from .volterra import Workspace, special

__all__ = ["lambda_prediction", "kappa_prediction", "decay_rate_fit", "build_report"]

#: fewest residuals above the noise a decay fit takes
MIN_FIT_POINTS = 8


def lambda_prediction(ws: Workspace) -> float:
    """-a_n plus the first-order eigenvalue correction
    pi (-a_n)^(-1/2) int Ai^2(x + a_n) q.

    The integral is the Gauss sum over the Airy table of ``ws``, the
    Workspace of q at z = -a_n, where psi0 = sqrt(pi) Ai(x + a_n).
    """
    pairing = float(np.sum(ws.grid.weights * ws.qg * ws.psi0 * ws.psi0))
    return ws.z + pairing / math.sqrt(ws.z)


def kappa_prediction(ws: Workspace) -> float:
    """First-order norming-constant correction
    -2 pi (-a_n)^(-1/2) int Ai Ai'(x + a_n) q (zero at q = 0); ``ws`` as
    for :func:`lambda_prediction`."""
    pairing = float(np.sum(ws.grid.weights * ws.qg * ws.psi0 * ws.psi0p))
    return -2.0 * pairing / math.sqrt(ws.z)


def above_noise(resid, tolerance_floor: float) -> np.ndarray:
    """Mask of the residuals above 10x the tolerance floor; the others are
    solver noise."""
    return np.abs(np.asarray(resid, dtype=float)) > 10.0 * tolerance_floor


def decay_rate_fit(resid, ns, tolerance_floor: float):
    """Least-squares slope of log|resid| vs log n, with a 95% half-width.

    Residuals below 10x the tolerance floor are excluded as solver noise;
    fewer than MIN_FIT_POINTS surviving points is an error.
    """
    resid = np.abs(np.asarray(resid, dtype=float))
    ns = np.asarray(ns, dtype=float)
    usable = above_noise(resid, tolerance_floor)
    if int(np.sum(usable)) < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"decay_rate_fit: only {int(np.sum(usable))} residuals above the "
            f"noise floor {10.0 * tolerance_floor:g}; need >= {MIN_FIT_POINTS}")
    x = np.log(ns[usable])
    y = np.log(resid[usable])
    m = len(x)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, res_ss, _, _ = np.linalg.lstsq(design, y, rcond=None)
    sigma2 = float(res_ss[0]) / (m - 2)
    sxx = float(np.sum((x - x.mean()) ** 2))
    # the 97.5% Student-t quantile; scipy.stats would add its import time
    half_width = float(special.stdtrit(m - 2, 0.975)) * math.sqrt(sigma2 / sxx)
    return float(coef[0]), half_width


def build_report(ns, lambda_resid, kappa_resid, lambda_floor: float,
                 kappa_floor: float) -> dict:
    """The remainder-decay records, keyed "lambda" and "kappa": each the
    ``slope`` and 95% ``half_width`` of decay_rate_fit, and the ``noise_floor``.
    Too few residuals above 10x the floor (the zero potential, a short index
    range) leave slope and half_width None, and a ``note`` counts them."""
    report = {}
    for which, resid, floor in (("lambda", lambda_resid, lambda_floor),
                                ("kappa", kappa_resid, kappa_floor)):
        record = report[which] = {"noise_floor": floor}
        try:
            record["slope"], record["half_width"] = decay_rate_fit(resid, ns, floor)
        except InsufficientDataError:
            above = int(np.sum(above_noise(resid, floor)))
            record.update(slope=None, half_width=None, note=(
                f"{above} residuals above 10x the noise floor, the fit needs "
                f"{MIN_FIT_POINTS}; vacuously consistent"))
    return report
