"""Eigenvalues by shooting, norming constants, and spectral-data gradients.

The shooting function is the value at 0 of the square-integrable
solution; its zeros are the Dirichlet eigenvalues. Each is found by
Newton from its first-order prediction, with the z-derivative of the
same solve as slope, on one grid whose Airy table at -a_n also gives
both predictions, and certified by the eigenfunction's oscillation
count. The norming constant is log(-psi'(0) / psi_dot(0)). Its gradient
perturbs the normalized eigenfunction to first order: one backward solve
of psi's own equation with a source, on the record's grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .airy import NEWTON_NOISE, airy_zero, newton
from .asymptotics import kappa_prediction, lambda_prediction
from .errors import BracketError, DegeneracyError, StarkSpecError
from .potentials import Potential, blend
from .volterra import Grid, SolutionProfile, Workspace, solve_psi, solve_source, workspace
from .volterra import solve_sc  # noqa: F401  (bench/tracing.py wraps it by name)

__all__ = [
    "EigenRecord",
    "locate_eigenvalue",
    "shooting_value",
    "norm_sq_psi",
    "oscillation_count",
    "lambda_directional_derivative",
    "kappa_directional_derivative",
    "paired_record",
]


@dataclass
class EigenRecord:
    """One eigenvalue with its norming data and solver provenance."""

    n: int
    lam: float
    kappa: float
    lam_pred: float         # first-order prediction Newton starts from
    kappa_pred: float       # first-order norming-constant prediction
    bracket: tuple          # -a_n +- (sup|q| + slack), holds lam by min-max
    norm_sq: float          # Gauss quadrature of psi^2 on [0, x_max]
    psi_prime0: float
    psi_dot0: float
    psi: SolutionProfile = field(repr=False)


def shooting_value(q: Potential, lam: float, grid: Grid | Workspace) -> float:
    """psi(q, lam, 0); ``grid`` as for :func:`solve_psi`."""
    return float(solve_psi(q, lam, grid).values[0])


def _norm_sq_from_profile(prof: SolutionProfile) -> float:
    # no tail: a root's grid ends at least DECAY_LENGTH past it (see
    # workspace), so psi^2 past x_max is about 1e-24 of the sum
    return float(np.sum(prof.grid.weights * prof.gauss_values ** 2))


def _newton(q: Potential, lam: float, ws: Workspace, window) -> tuple:
    """:func:`newton` on the shooting function from ``lam``, starting on
    ``ws``; returns the root and its profile. Each iterate solves on the
    Workspace that :func:`workspace` picks from the last one, so the root
    is solved on a grid on which the envelope decays before x_max.
    """
    prof = None

    def step(z):
        nonlocal ws, prof
        try:
            ws = workspace(q, z, ws)
            prof = solve_psi(q, z, ws)
        except StarkSpecError as err:
            raise type(err)(f"at z = {z!r}: {err}") from err
        psi_dot0 = float(prof.z_derivs[0])
        if psi_dot0 == 0.0:
            raise DegeneracyError(f"psi_dot(0) vanished at z = {z!r}")
        return float(prof.values[0]) / psi_dot0

    root = newton(step, lam, window, "z")
    return root, prof


def locate_eigenvalue(q: Potential, n: int) -> EigenRecord:
    """The n-th Dirichlet eigenvalue: Newton on the shooting function from
    the first-order prediction, certified by the oscillation count.

    One Workspace at -a_n gives both first-order predictions, and Newton
    runs from the lambda prediction, each iterate on the Workspace that
    :func:`workspace` picks from the last one. Iterates must stay
    within -a_n +- (sup|q| + NEWTON_NOISE (1 + |a_n|)), which holds the
    n-th eigenvalue: H_0 - sup|q| <= H_q <= H_0 + sup|q|, so by min-max
    |lambda_n + a_n| <= sup|q| (Reed-Simon IV, XIII.1); the slack,
    newton's roundoff scale, covers the rounding of a_n and of the solves.
    The window keeps the root within c = 1 + sup|q| of the grid's centre
    (the slack is below 1 while |a_n| < 1e8), where default_grid's panels
    span at most sqrt(2) PANEL_PHASE of the root's own phase. By Sturm
    oscillation the root is the n-th eigenvalue exactly when its
    eigenfunction has n - 1 sign changes; any other root raises
    BracketError. Errors name ``n`` and the stage, ``newton`` or
    ``certificate``.
    """
    ws = workspace(q, -airy_zero(n))
    center = ws.z
    lam_pred = lambda_prediction(ws)
    kappa_pred = kappa_prediction(ws)
    delta = q.sup_norm + NEWTON_NOISE * (1.0 + abs(center))
    window = (center - delta, center + delta)
    try:
        lam, prof = _newton(q, lam_pred, ws, window)
        psi_prime0 = float(prof.derivs[0])
        psi_dot0 = float(prof.z_derivs[0])
        ratio = -psi_prime0 / psi_dot0
        if ratio <= 0.0:
            raise DegeneracyError(
                f"-psi'(0)/psi_dot(0) = {ratio:g} <= 0 at z = {lam!r}; "
                "not a simple Dirichlet eigenvalue")
    except StarkSpecError as err:
        raise type(err)(f"n={n}, stage newton: {err}") from err
    rec = EigenRecord(n, lam, math.log(ratio), lam_pred, kappa_pred, window,
                      _norm_sq_from_profile(prof), psi_prime0, psi_dot0, prof)
    count = oscillation_count(rec)
    if count != n - 1:
        raise BracketError(
            f"n={n}, stage certificate: the eigenfunction at z = {rec.lam!r} has "
            f"{count} sign changes, not {n - 1}; the root is another eigenvalue")
    return rec


def oscillation_count(record: EigenRecord) -> int:
    """Sign changes of the eigenfunction's nonzero Gauss samples on (0, x_max)."""
    v = record.psi.gauss_values.ravel()
    v = v[v != 0.0]
    return int(np.sum(np.sign(v[:-1]) * np.sign(v[1:]) < 0))


def norm_sq_psi(record: EigenRecord) -> float:
    """Relative gap between the two routes to the squared norm: the
    quadrature ``record.norm_sq`` and the product -psi'(0) psi_dot(0)."""
    prod = -record.psi_prime0 * record.psi_dot0
    return abs(record.norm_sq - prod) / record.norm_sq


def paired_record(q: Potential, n: int, v: Potential,
                  record: EigenRecord | None = None) -> EigenRecord:
    """The n-th record of q on a grid that ends a panel at every kink of v
    inside it, so that the Gauss pairings with v see smooth pieces of v:
    ``record`` when its grid does, otherwise the record of blend(q, v, 0),
    which is q on a default grid with v's kinks among its panel ends."""
    if record is not None:
        nodes = record.psi.grid.nodes
        if np.all(np.isin([k for k in v.kinks if k < nodes[-1]], nodes)):
            return record
    return locate_eigenvalue(blend(q, v, 0.0), n)


def lambda_directional_derivative(q: Potential, n: int, v: Potential,
                                  record: EigenRecord | None = None) -> float:
    """Derivative of the n-th eigenvalue along v: integral of eta_n^2 v.

    The (1+x)^r weight of the gradient cancels against the pairing, so
    this is a plain L2 integral of the normalized eigenfunction squared.
    ``record`` is paired as :func:`paired_record` pairs it.
    """
    rec = paired_record(q, n, v, record)
    grid = rec.psi.grid
    eta2 = rec.psi.gauss_values ** 2 / (-rec.psi_prime0 * rec.psi_dot0)
    return float(np.sum(grid.weights * eta2 * np.asarray(v.q(grid.gauss_x))))


def kappa_directional_derivative(q: Potential, n: int, v: Potential,
                                 record: EigenRecord | None = None) -> float:
    """Derivative of the n-th norming constant along v, by first-order
    perturbation of eta = psi / ||psi||: kappa = log(eta'(0)^2), so
    d kappa = 2 d eta'(0) / eta'(0), with d eta = u - <u, eta> eta and
    (H_q - lambda) u = (d lambda - v) eta. On psi's scale, with
    ||psi||^2 = -psi'(0) psi_dot(0) and g = (d lambda - v) psi,
    d kappa = 2 (u'(0) / psi'(0) - <u, psi> / ||psi||^2). g is orthogonal
    to psi, so u(0) = 0 by Green's identity; u + t psi gives the same
    value, so u starts from zero data at x_max, where the pairings stop:
    mass of v beyond only rescales psi on the grid. ``record`` is paired
    as :func:`paired_record` pairs it.
    """
    rec = paired_record(q, n, v, record)
    psi, grid = rec.psi.gauss_values, rec.psi.grid
    norm_sq = -rec.psi_prime0 * rec.psi_dot0
    psi_v = psi * np.asarray(v.q(grid.gauss_x))
    d_lam = float(np.sum(grid.weights * psi * psi_v)) / norm_sq
    u_g, u_b = solve_source(workspace(q, rec.lam, grid), rec.lam, d_lam * psi - psi_v, (0.0, 0.0))
    return 2.0 * (float(u_b[1, 0]) / rec.psi_prime0
                  - float(np.sum(grid.weights * u_g * psi)) / norm_sq)
