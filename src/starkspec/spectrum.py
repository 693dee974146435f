"""Eigenvalues by shooting, norming constants, and spectral-data gradients.

The shooting function is the value at 0 of the square-integrable
solution; its zeros are the Dirichlet eigenvalues. Each is found by
Newton from its first-order prediction, with the z-derivative of the
same solve as slope, on one grid whose Airy table at -a_n also gives
both predictions, and certified by the eigenfunction's oscillation
count. The norming constant is log(-psi'(0) / psi_dot(0)). Its gradient
reads psi and psi_dot from the record's profile, and psi_ddot(0) from
Green's identity on them; s and c take the only solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .airy import airy_zero
from .asymptotics import kappa_prediction, lambda_prediction
from .errors import BracketError, DegeneracyError, StarkSpecError
from .potentials import Potential
from .volterra import (REFINE_RADIUS, TRUNCATION_MARGIN, Grid, SolutionProfile, Workspace,
                       envelope_offset, solve_psi, solve_sc, workspace)

__all__ = [
    "EigenRecord",
    "locate_eigenvalue",
    "shooting_value",
    "norm_sq_psi",
    "oscillation_count",
    "lambda_directional_derivative",
    "kappa_directional_derivative",
]

BRACKET_COEFF = 4.0
BRACKET_EXPONENT = -2.0 / 3.0 + 0.05
NEWTON_MAX_ITER = 40
#: relative step below which a Newton step that fails to shrink is roundoff
NEWTON_NOISE = 1e-8
#: samples below this fraction of the eigenfunction's maximum count as
#: zeros when its sign changes are counted
OSCILLATION_FLOOR = 1e-8
_SQRT_PI = math.sqrt(math.pi)
#: grid length past the root at which the decaying envelope falls to the
#: tail tolerance: default_grid's length without its safety margin, which
#: absorbs Newton's move from the grid centre as the refinement radius does
_DECAY_LENGTH = envelope_offset() - TRUNCATION_MARGIN


@dataclass
class EigenRecord:
    """One eigenvalue with its norming data and solver provenance."""

    n: int
    lam: float
    kappa: float
    lam_pred: float         # first-order prediction Newton starts from
    kappa_pred: float       # first-order norming-constant prediction
    bracket: tuple          # Newton window: an iterate outside it raises
    shoot_residual: float
    norm_sq: float          # quadrature of psi^2 plus tail estimate
    kappa_alt: float        # norm-based definition log(psi'(0)^2 / norm_sq)
    psi_prime0: float
    psi_dot0: float
    psi: SolutionProfile = field(repr=False)


def shooting_value(q: Potential, lam: float, grid: Grid | Workspace) -> float:
    """psi(q, lam, 0) without its z-derivative; ``grid`` as for
    :func:`solve_psi`."""
    ws = workspace(q, lam, grid)
    (_, _, values, _, _), _ = ws.picard(ws.combo(1.0, 0.0), "back")
    return float(values[0])


def _norm_sq_from_profile(prof: SolutionProfile) -> float:
    body = float(np.sum(prof.grid.weights * prof.gauss_values ** 2))
    # tail: psi tracks the decaying basis solution beyond x_max
    w_end = prof.grid.x_max - prof.z
    ai, aip, _, _ = special.airy(w_end)
    psi0_end = _SQRT_PI * ai
    if psi0_end != 0.0:
        c = prof.values[-1] / psi0_end
        tail = c ** 2 * math.pi * (aip ** 2 - w_end * ai ** 2)
    else:
        tail = 0.0
    return body + max(tail, 0.0)


def _newton(q: Potential, lam: float, base: Workspace, window) -> tuple:
    """Newton on the shooting function from ``lam`` on the grid of ``base``,
    moved to each iterate; returns the root and its profile.

    Converged when the step falls to 1e-15 (1 + |lam|), or to roundoff: a
    step below NEWTON_NOISE (1 + |lam|) that is not a quarter of the last
    one, as every step in Newton's quadratic range would be. Iterates that
    leave ``window`` raise.
    """
    lo, hi = window
    prev = math.inf
    for _ in range(NEWTON_MAX_ITER):
        try:
            prof = solve_psi(q, lam, base)
        except StarkSpecError as err:
            raise type(err)(f"at z = {lam!r}: {err}") from err
        psi_dot0 = float(prof.z_derivs[0])
        if psi_dot0 == 0.0:
            raise DegeneracyError(f"psi_dot(0) vanished at z = {lam!r}")
        step = float(prof.values[0]) / psi_dot0
        scale = 1.0 + abs(lam)
        if abs(step) <= 1e-15 * scale or NEWTON_NOISE * scale >= abs(step) >= 0.25 * prev:
            return lam, prof
        prev = abs(step)
        lam -= step
        if not lo <= lam <= hi:
            raise BracketError(f"Newton step to z = {lam!r} left the window "
                               f"[{lo!r}, {hi!r}]")
    raise BracketError(f"Newton did not converge in {NEWTON_MAX_ITER} steps; "
                       f"last z = {lam!r}, step {step:.3g}")


def locate_eigenvalue(q: Potential, n: int) -> EigenRecord:
    """The n-th Dirichlet eigenvalue: Newton on the shooting function from
    the first-order prediction, certified by the oscillation count.

    One Workspace at -a_n gives both first-order predictions; moved to
    the lambda prediction, it starts Newton. Iterates must stay within the
    window around -a_n whose half-width is the crude-localization scale or
    twice the first-order correction, whichever is larger. The grid must
    fit the root as default_grid fits its centre: the root lies in the
    refinement window and the envelope decays before x_max. Otherwise
    Newton polishes once more on the default grid at the root, which moves
    it by the change of grid only. By Sturm oscillation the root is the
    n-th eigenvalue exactly when its eigenfunction has n - 1 sign changes;
    any other root raises BracketError. Errors name ``n`` and the stage.
    """
    ws = workspace(q, -airy_zero(n).a_n)
    center = ws.z
    lam_pred = lambda_prediction(q, n, ws)
    kappa_pred = kappa_prediction(q, n, ws)
    delta = max(BRACKET_COEFF * (1.5 * math.pi * n) ** BRACKET_EXPONENT,
                2.0 * abs(lam_pred - center))
    window = (center - delta, center + delta)
    stage = "newton"
    try:
        lam, prof = _newton(q, lam_pred, ws, window)
        if abs(lam - center) > REFINE_RADIUS or prof.grid.x_max < lam + _DECAY_LENGTH:
            stage = "regrid"
            lam, prof = _newton(q, lam, workspace(q, lam), window)
        psi_prime0 = float(prof.derivs[0])
        psi_dot0 = float(prof.z_derivs[0])
        ratio = -psi_prime0 / psi_dot0
        if ratio <= 0.0:
            raise DegeneracyError(
                f"-psi'(0)/psi_dot(0) = {ratio:g} <= 0 at z = {lam!r}; "
                "not a simple Dirichlet eigenvalue")
    except StarkSpecError as err:
        raise type(err)(f"n={n}, stage {stage}: {err}") from err
    norm_sq = _norm_sq_from_profile(prof)
    rec = EigenRecord(n, lam, math.log(ratio), lam_pred, kappa_pred, window,
                      abs(float(prof.values[0])), norm_sq,
                      math.log(psi_prime0 ** 2 / norm_sq), psi_prime0, psi_dot0, prof)
    count = oscillation_count(rec)
    if count != n - 1:
        raise BracketError(
            f"n={n}, stage certificate: the eigenfunction at z = {rec.lam!r} has "
            f"{count} sign changes, not {n - 1}; the root is another eigenvalue")
    return rec


def oscillation_count(record: EigenRecord) -> int:
    """Sign changes of the eigenfunction on (0, x_max), noise-floored."""
    v = record.psi.gauss_values.ravel()
    v = v[np.abs(v) > OSCILLATION_FLOOR * np.max(np.abs(v))]
    return int(np.sum(np.sign(v[:-1]) * np.sign(v[1:]) < 0))


def norm_sq_psi(record: EigenRecord) -> float:
    """Relative gap between the two routes to the squared norm: the
    quadrature ``record.norm_sq`` and the product -psi'(0) psi_dot(0)."""
    prod = -record.psi_prime0 * record.psi_dot0
    return abs(record.norm_sq - prod) / record.norm_sq


def _pair_with_direction(prof_values, grid: Grid, v: Potential) -> float:
    vv = np.asarray(v.q(grid.gauss_x))
    return float(np.sum(grid.weights * prof_values * vv))


def lambda_directional_derivative(q: Potential, n: int, v: Potential,
                                  record: EigenRecord | None = None) -> float:
    """Derivative of the n-th eigenvalue along v: integral of eta_n^2 v.

    The (1+x)^r weight of the gradient cancels against the pairing, so
    this is a plain L2 integral of the normalized eigenfunction squared.
    """
    rec = record or locate_eigenvalue(q, n)
    norm_sq = -rec.psi_prime0 * rec.psi_dot0
    eta2 = rec.psi.gauss_values ** 2 / norm_sq
    return _pair_with_direction(eta2, rec.psi.grid, v)


def kappa_directional_derivative(q: Potential, n: int, v: Potential,
                                 record: EigenRecord | None = None) -> float:
    """Derivative of the n-th norming constant along v.

    Assembles the two gradient pieces: the psi'- and psi_dot-gradient
    integrals built from the s, c, s_dot profiles at the eigenvalue, plus
    the second-derivative bracket B_n multiplying the eigenvalue gradient.
    B_n takes psi_dot'(0) from the record's z-derivative profile and
    psi_ddot(0) from Green's identity psi'(0) psi_ddot(0) = -2 int psi psi_dot:
    psi_ddot solves -f'' + (x + q - z) f = 2 psi_dot, so the Wronskian of
    psi and psi_ddot has derivative -2 psi psi_dot, and psi(0) = 0. The
    pairing stops at x_max: kappa does not change when psi is rescaled, and
    mass of v beyond the grid only rescales psi on it. One solve_sc call on
    the record's grid is the only solve.
    """
    rec = record or locate_eigenvalue(q, n)
    prof = rec.psi
    grid = prof.grid
    s_prof, c_prof = solve_sc(q, rec.lam, grid)
    psi_g, psidot_g = prof.gauss_values, prof.gauss_z_derivs
    integrand = (-c_prof.gauss_values * psi_g / rec.psi_prime0
                 - (s_prof.gauss_z_derivs * psi_g + s_prof.gauss_values * psidot_g)
                 / rec.psi_dot0)
    # psi psi_dot past x_max is below the squared envelope tail
    psi_ddot0 = -2.0 * float(np.sum(grid.weights * psi_g * psidot_g)) / rec.psi_prime0
    b_n = float(prof.z_derivs_prime[0]) / rec.psi_prime0 - psi_ddot0 / rec.psi_dot0
    return (_pair_with_direction(integrand, grid, v)
            + b_n * lambda_directional_derivative(q, n, v, rec))
