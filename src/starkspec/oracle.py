"""Independent ground truth: tridiagonal discretization plus Richardson.

Second-order central differences with Dirichlet clipping at 0 and L.
`extrapolated_spectrum` walks the three halving meshes DEFAULT_MESHES one
index at a time, coarsest first, and eliminates the h^2, then the h^4
term. Only the coarsest mesh is bisected: Sturm-sequence bisection
(LAPACK stebz, eigenvalues only) brackets its lowest eigenvalues to
BRACKET_TOL, which certifies which eigenvalue is the n-th (Barth, Martin
and Wilkinson, Numer. Math. 9, 1967); close pairs are bisected again at
full precision. Rayleigh-quotient iteration on tridiagonal solves (LAPACK
gtsv), started at each bracket's centre, then gives the digits and the
eigenvector in about three solves (Parlett, The Symmetric Eigenvalue
Problem, ch. 4), stepped by airy.newton, and each eigenvalue must land in
its own bracket. On each finer mesh the iteration starts from the coarser
mesh's eigenvalue and its eigenvector interpolated onto the finer nodes;
the label is certified there by the discrete oscillation theorem: the
n-th eigenvector of a Jacobi matrix changes sign exactly n - 1 times
(Gantmacher and Krein, Oscillation Matrices and Kernels). The norming
constants come from the eigenvectors' five-point slope at 0. The
artificial wall at L is admissible because eigenfunctions decay
doubly-exponentially past their turning point; `oracle_length` places it.
`oracle_spectrum` is the walk on one mesh.

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

from .airy import airy_zero, newton
from .errors import DomainError, NumericError, TruncationError
from .potentials import Potential
from .volterra import ENVELOPE_OFFSET

__all__ = [
    "DiscreteOperator",
    "build_operator",
    "oracle_spectrum",
    "extrapolated_spectrum",
    "oracle_length",
    "DEFAULT_MESHES",
]

DEFAULT_MESHES = (0.02, 0.01, 0.005)
_EDGE_MASS_TOL = 1e-8
#: LAPACK's bisection stops at intervals this wide, so each eigenvalue lies
#: within BRACKET_TOL of its interval's centre: that is its Sturm bracket
BRACKET_TOL = 1e-2
#: components below this share of an eigenvector's largest are left out of
#: its sign count: where the vector has decayed that far its computed
#: components are of the size of its roundoff, about eps 4/h^2 over the
#: spectral gap, and their signs are noise that would add spurious nodes
_NODE_FLOOR = 1e-8


def oracle_length(n_max: int) -> float:
    """Oracle domain length for indices up to n_max: the envelope's decay
    offset past the highest turning point, plus a margin of 5."""
    return -airy_zero(n_max) + ENVELOPE_OFFSET + 5.0


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


def _rqi(op: DiscreteOperator, shift: float, n: int, x: np.ndarray):
    """(lambda, unit eigenvector) by Rayleigh-quotient iteration from
    `shift` and the vector `x`: :func:`newton` on the Rayleigh quotient,
    each step taking s to the quotient, in difference form (no
    cancellation against the 2/h^2 diagonal), of one solve of
    (T - s) x = x. One solve leaves a close neighbour's share
    |s - lambda| / gap in the vector while the quotient, quadratic in it,
    has stopped moving; newton stops at one solve only from a start
    within 1e-15 (1 + |s|), and a full-precision bracket is about
    eps 4/h^2 off."""
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


def _prolong(x: np.ndarray, coarse: DiscreteOperator, fine: DiscreteOperator) -> np.ndarray:
    """x on the fine operator's nodes, linear between the coarse nodes and
    0 at both walls."""
    nodes = coarse.h * np.arange(coarse.dim + 2)
    return np.interp(fine.h * np.arange(1, fine.dim + 1), nodes, np.r_[0.0, x, 0.0])


def _sign_changes(x: np.ndarray) -> int:
    """Sign changes of x over its components above _NODE_FLOOR of its
    largest."""
    big = x[np.abs(x) > _NODE_FLOOR * np.max(np.abs(x))]
    return int(np.count_nonzero(np.diff(np.signbit(big))))


def _ladder(q: Potential, L: float, meshes, count: int) -> np.ndarray:
    """(2, count) rows of eigenvalues and norming constants for each mesh
    of `meshes`, coarse to fine, stacked in mesh order. Only the coarsest
    is bracketed (one more index than `count`, so the last label is
    certified too). Each index walks the ladder: Rayleigh-quotient
    iteration from its bracket on the coarsest mesh, then on each finer
    mesh from the coarser eigenpair, the label certified by the
    eigenvector's sign changes; so one eigenvector per mesh is alive."""
    ops = [build_operator(q, L, h) for h in meshes]
    if not 1 <= count <= ops[0].dim:
        raise DomainError(f"oracle_spectrum: count must lie in [1, {ops[0].dim}], the "
                          f"operator's dimension; got {count!r}")
    centre, radius = _brackets(ops[0], min(count, ops[0].dim - 1))
    lam = np.empty((len(ops), count))
    ends = np.empty((len(ops), 4, count))
    for j in range(count):
        for k, op in enumerate(ops):
            if k == 0:
                lam[k, j], x = _rqi(op, centre[j], j + 1, np.ones(op.dim))
                if not abs(lam[k, j] - centre[j]) <= radius[j]:
                    raise NumericError(
                        f"n={j + 1}, stage oracle RQI: lambda = {lam[k, j]!r} left its "
                        f"bracket [{centre[j] - radius[j]!r}, {centre[j] + radius[j]!r}] "
                        f"at h = {op.h:g}")
            else:
                lam[k, j], x = _rqi(op, lam[k - 1, j], j + 1, _prolong(x, ops[k - 1], op))
                changes = _sign_changes(x)
                if changes != j:
                    raise NumericError(
                        f"n={j + 1}, stage oracle RQI: the eigenvector at lambda = "
                        f"{lam[k, j]!r} changes sign {changes} times, not {j}, at h = {op.h:g}")
            if j and lam[k, j] <= lam[k, j - 1]:
                raise NumericError(f"n={j + 1}, stage oracle RQI: lambda does not increase "
                                   f"past n={j} at h = {op.h:g}")
            ends[k, :, j] = x[:4] / math.sqrt(op.h * (x @ x))
            if j == count - 1:
                _check_edge_mass(op, x, count)
    h = np.array(meshes)[:, None]
    # five-point one-sided derivative at 0 with psi(0) = 0: its error starts at h^4
    dpsi0 = (48.0 * ends[:, 0] - 36.0 * ends[:, 1] + 16.0 * ends[:, 2]
             - 3.0 * ends[:, 3]) / (12.0 * h)
    return np.stack((lam, np.log(dpsi0 ** 2)), axis=1)


def oracle_spectrum(q: Potential, L: float, h: float, count: int) -> np.ndarray:
    """Lowest `count` discrete eigenvalues and norming constants at mesh
    width h, as the rows of a (2, count) array: the ladder walk on the one
    mesh h, so every label is a Sturm bracket's."""
    return _ladder(q, L, (h,), count)[0]


def extrapolated_spectrum(q: Potential, L: float, count: int) -> tuple:
    """(lambda, kappa) of the lowest `count` indices, Richardson-extrapolated
    over DEFAULT_MESHES: the h^2 term is eliminated from each neighbouring
    pair of meshes, then the h^4 term from the two results. The elimination
    is elementwise, so each row gets the bits of extrapolating it alone."""
    coarse, mid, fine = _ladder(q, L, DEFAULT_MESHES, count)
    # the factors 4 = 2^2 and 16 = 2^4 hold because DEFAULT_MESHES halves
    a, b = (4.0 * mid - coarse) / 3.0, (4.0 * fine - mid) / 3.0
    lam, kappa = (16.0 * b - a) / 15.0
    return lam, kappa


def extrapolated_norming(q: Potential, L: float, count: int) -> np.ndarray:
    # kept only because bench/tracing.py wraps this name; nothing here calls it
    return extrapolated_spectrum(q, L, count)[1]
