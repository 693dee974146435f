"""Independent ground truth: tridiagonal discretization plus Richardson.

Second-order central differences with Dirichlet clipping at 0 and L.
Sturm-sequence bisection (LAPACK stebz, eigenvalues only) brackets the
lowest eigenvalues to BRACKET_TOL, which certifies which eigenvalue is
the n-th (Barth, Martin and Wilkinson, Numer. Math. 9, 1967); close pairs
are bisected again at full precision. Rayleigh-quotient iteration on
tridiagonal solves (LAPACK gtsv), started at each bracket's centre, then
gives the digits and the eigenvector in about three solves (Parlett, The
Symmetric Eigenvalue Problem, ch. 4), stepped by airy.newton; the norming
constants come from those vectors' five-point slope at 0. Each eigenvalue
must land in its own bracket. The artificial wall at L is admissible
because eigenfunctions decay doubly-exponentially past their turning point.

Only this module uses scipy.linalg, and it imports it on its first LAPACK
call, so runs without the oracle (`asympt`, and `eig` or `verify` with
`--method shooting`) never load it, unless a table potential's spline
does. `eigh_tridiagonal` and `dgtsv` stay module-level names, since the
benchmark's tracer wraps the first and the tests replace both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import newton
from .errors import DomainError, NumericError, TruncationError
from .potentials import Potential

__all__ = [
    "DiscreteOperator",
    "build_operator",
    "oracle_spectrum",
    "richardson",
    "extrapolated_spectrum",
    "DEFAULT_MESHES",
]

DEFAULT_MESHES = (0.02, 0.01, 0.005)
_EDGE_MASS_TOL = 1e-8
#: LAPACK's bisection stops at intervals this wide, so each eigenvalue lies
#: within BRACKET_TOL of its interval's centre: that is its Sturm bracket
BRACKET_TOL = 1e-2


def eigh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigh_tridiagonal(d, e, **kwargs), imported on the
    call, so that runs without the oracle (`asympt`, and `eig` or `verify`
    with `--method shooting`) never load scipy.linalg. The name stays a
    module attribute, called through the module globals, because the
    benchmark's tracer wraps it and the tests replace it."""
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal(d, e, **kwargs)


def dgtsv(dl, d, du, b):
    """LAPACK gtsv, scipy.linalg.lapack.dgtsv(dl, d, du, b), imported on
    the call like :func:`eigh_tridiagonal`, so that runs without the oracle
    never load scipy.linalg; a module attribute, called through the module
    globals, so that the tests can replace it."""
    from scipy.linalg.lapack import dgtsv
    return dgtsv(dl, d, du, b)


@dataclass(frozen=True)
class DiscreteOperator:
    L: float
    h: float
    diag: np.ndarray
    offdiag: np.ndarray
    potential: np.ndarray  # x + q(x) at the nodes, the diagonal less 2/h^2

    @property
    def dim(self) -> int:
        return len(self.diag)


def build_operator(q: Potential, L: float, h: float) -> DiscreteOperator:
    if not (0.0 < L < math.inf and 0.0 < h < math.inf):
        raise DomainError(
            f"build_operator: need finite L > 0 and h > 0, got L = {L!r}, h = {h!r}")
    m = int(round(L / h)) - 1
    if m < 4:  # the derivative at 0 reads four nodes
        raise DomainError("build_operator: domain shorter than a few mesh cells")
    x = h * np.arange(1, m + 1)
    qx = np.asarray(q.q(x))
    diag = 2.0 / h ** 2 + x + qx
    offdiag = np.full(m - 1, -1.0 / h ** 2)
    return DiscreteOperator(L, h, diag, offdiag, x + qx)


def _check_edge_mass(op: DiscreteOperator, vn: np.ndarray, count: int):
    tail_nodes = int(math.ceil(0.1 * op.dim))
    mass = float(np.sum(vn[-tail_nodes:] ** 2) / np.sum(vn ** 2))
    if mass > _EDGE_MASS_TOL:
        raise TruncationError(
            f"oracle: eigenfunction {count} carries mass {mass:.2e} in the last "
            f"10% of [0, {op.L:g}]; enlarge L")


def _brackets(op: DiscreteOperator, top: int):
    """Centres and radii of disjoint Sturm brackets of eigenvalues 0..top.
    Brackets within 2 BRACKET_TOL of each other are bisected again at full
    precision, in one call over the index range they span; each radius is
    at most half the distance to a neighbouring centre, so a bracket holds
    its own eigenvalue and no other."""
    w = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, top),
                         eigvals_only=True, tol=BRACKET_TOL)
    close = np.flatnonzero(np.diff(w) - 2.0 * BRACKET_TOL <= 2.0 * BRACKET_TOL)
    if close.size:
        lo, hi = close[0], close[-1] + 1
        w[lo:hi + 1] = eigh_tridiagonal(op.diag, op.offdiag, select="i",
                                        select_range=(lo, hi), eigvals_only=True)
    gap = np.diff(w)
    radius = np.minimum(BRACKET_TOL, 0.5 * np.minimum(np.r_[np.inf, gap], np.r_[gap, np.inf]))
    return w, radius


def _rqi(op: DiscreteOperator, shift: float, n: int):
    """(lambda, unit eigenvector) by Rayleigh-quotient iteration from
    `shift` and the vector of ones: :func:`newton` on the Rayleigh
    quotient, each step taking s to the quotient, in difference form (no
    cancellation against the 2/h^2 diagonal), of one solve of
    (T - s) x = x. One solve leaves a close neighbour's share
    |s - lambda| / gap in the vector while the quotient, quadratic in it,
    has stopped moving; newton stops at one solve only from a start within
    1e-15 (1 + |s|), and a full-precision bracket is about eps 4/h^2 off."""
    x = np.ones(op.dim)

    def step(s):
        nonlocal x
        x, info = dgtsv(op.offdiag, op.diag - s, op.offdiag, x)[3:]
        if info != 0:
            raise NumericError(f"dgtsv info = {info} at shift {s!r}")
        x /= np.linalg.norm(x)
        dx = np.diff(x)
        return float(s - ((x[0] ** 2 + x[-1] ** 2 + dx @ dx) / op.h ** 2
                          + (op.potential * x) @ x) / (x @ x))

    try:
        lam = newton(step, float(shift), (-math.inf, math.inf), "shift")
    except NumericError as err:  # newton's BracketError, or the solve's info
        raise type(err)(f"n={n}, stage oracle RQI: {err}, h = {op.h:g}") from err
    return lam, x


def oracle_spectrum(q: Potential, L: float, h: float, count: int) -> np.ndarray:
    """Lowest `count` discrete eigenvalues and norming constants at mesh
    width h, as the rows of a (2, count) array. Sturm brackets label the
    eigenvalues (one more than `count` is bracketed, so the last label is
    certified too); Rayleigh-quotient iteration from each bracket gives
    the eigenvalue and the eigenvector its norming constant is read from."""
    op = build_operator(q, L, h)
    if not 1 <= count <= op.dim:
        raise DomainError(f"oracle_spectrum: count must lie in [1, {op.dim}], the "
                          f"operator's dimension; got {count!r}")
    centre, radius = _brackets(op, min(count, op.dim - 1))
    lam = np.empty(count)
    ends = np.empty((4, count))
    for j in range(count):
        lam[j], x = _rqi(op, centre[j], j + 1)
        if not abs(lam[j] - centre[j]) <= radius[j]:
            raise NumericError(
                f"n={j + 1}, stage oracle RQI: lambda = {lam[j]!r} left its bracket "
                f"[{centre[j] - radius[j]!r}, {centre[j] + radius[j]!r}] at h = {h:g}")
        ends[:, j] = x[:4] / math.sqrt(h * (x @ x))
    bad = np.flatnonzero(np.diff(lam) <= 0.0)
    if bad.size:
        raise NumericError(f"n={bad[0] + 2}, stage oracle RQI: lambda does not increase "
                           f"past n={bad[0] + 1} at h = {h:g}")
    _check_edge_mass(op, x, count)  # x is the count-th eigenvector
    # five-point one-sided derivative at 0 with psi(0) = 0: its error starts at h^4
    dpsi0 = (48.0 * ends[0] - 36.0 * ends[1] + 16.0 * ends[2] - 3.0 * ends[3]) / (12.0 * h)
    return np.stack((lam, np.log(dpsi0 ** 2)))


def richardson(values, order: int):
    """Eliminate the h^order term (and successive even orders) from a
    mesh-halving sequence and return the extrapolated value.

    ``values`` is a list of (h, value) pairs with mesh ratio 2; at least
    three levels are required.
    """
    if len(values) < 3:
        raise DomainError("richardson: need at least 3 mesh levels")
    pairs = sorted(values, key=lambda p: -float(p[0]))
    hs = [float(h) for h, _ in pairs]
    vs = [np.asarray(v, dtype=float) for _, v in pairs]
    ratios = np.array([hs[i] / hs[i + 1] for i in range(len(hs) - 1)])
    if np.any(np.abs(ratios - 2.0) > 1e-9):
        raise DomainError("richardson: mesh sequence must halve between levels")
    p = order
    while len(vs) > 1:
        factor = 2.0 ** p
        vs = [(factor * vs[i + 1] - vs[i]) / (factor - 1.0) for i in range(len(vs) - 1)]
        p += 2
    value = vs[0]
    return float(value) if value.ndim == 0 else value


def extrapolated_spectrum(q: Potential, L: float, count: int) -> tuple:
    """(lambda, kappa) of the lowest `count` indices, Richardson-extrapolated
    over DEFAULT_MESHES; the elimination is elementwise, so each row gets
    the bits of extrapolating it alone."""
    vals = [(h, oracle_spectrum(q, L, h, count)) for h in DEFAULT_MESHES]
    lam, kappa = richardson(vals, order=2)
    return lam, kappa


def extrapolated_norming(q: Potential, L: float, count: int) -> np.ndarray:
    # kept only because bench/tracing.py wraps this name; nothing here calls it
    return extrapolated_spectrum(q, L, count)[1]
