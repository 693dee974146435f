"""Independent ground truth: tridiagonal discretization plus Richardson.

Second-order central differences with Dirichlet clipping at 0 and L;
eigenvalues by LAPACK Sturm-sequence bisection (stebz), which targets
only the lowest indices and is bit-reproducible. The artificial wall at
L is admissible because eigenfunctions decay doubly-exponentially past
their turning point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError, TruncationError
from .potentials import Potential

__all__ = [
    "DiscreteOperator",
    "build_operator",
    "oracle_spectrum",
    "oracle_norming",
    "richardson",
    "RichardsonResult",
    "extrapolated_spectrum",
    "extrapolated_norming",
    "DEFAULT_MESHES",
]

DEFAULT_MESHES = (0.02, 0.01, 0.005)
_EDGE_MASS_TOL = 1e-8


@dataclass(frozen=True)
class DiscreteOperator:
    L: float
    h: float
    diag: np.ndarray
    offdiag: np.ndarray
    boundary: str = "dirichlet"

    @property
    def dim(self) -> int:
        return len(self.diag)


def build_operator(q: Potential, L: float, h: float) -> DiscreteOperator:
    m = int(round(L / h)) - 1
    if m < 3:
        raise DomainError("build_operator: domain shorter than a few mesh cells")
    x = h * np.arange(1, m + 1)
    diag = 2.0 / h ** 2 + x + np.asarray(q.q(x))
    offdiag = np.full(m - 1, -1.0 / h ** 2)
    return DiscreteOperator(L, h, diag, offdiag)


def _eigenpairs(op: DiscreteOperator, count: int):
    w, v = eigh_tridiagonal(op.diag, op.offdiag, select="i",
                            select_range=(0, count - 1))
    return w, v


def _check_edge_mass(op: DiscreteOperator, v: np.ndarray, count: int):
    tail_nodes = int(math.ceil(0.1 * op.dim))
    vn = v[:, count - 1]
    mass = float(np.sum(vn[-tail_nodes:] ** 2) / np.sum(vn ** 2))
    if mass > _EDGE_MASS_TOL:
        raise TruncationError(
            f"oracle: eigenfunction {count} carries mass {mass:.2e} in the last "
            f"10% of [0, {op.L:g}]; enlarge L")


def oracle_spectrum(q: Potential, L: float, h: float, count: int) -> np.ndarray:
    """Lowest `count` discrete eigenvalues at mesh width h."""
    if count < 1:
        raise DomainError("oracle_spectrum: count must be >= 1")
    op = build_operator(q, L, h)
    w, v = _eigenpairs(op, count)
    _check_edge_mass(op, v, count)
    return w


def _norming_single_mesh(q: Potential, L: float, h: float, count: int) -> np.ndarray:
    op = build_operator(q, L, h)
    w, v = _eigenpairs(op, count)
    _check_edge_mass(op, v, count)
    nrm = np.sqrt(h * np.sum(v ** 2, axis=0))
    v = v / nrm
    # one-sided second-order derivative at 0 with psi(0) = 0
    dpsi0 = (4.0 * v[0, :] - v[1, :]) / (2.0 * h)
    return np.log(dpsi0 ** 2)


def oracle_norming(q: Potential, L: float, h: float, n: int) -> float:
    """Norming constant of the n-th eigenvalue, Richardson-extrapolated
    over the meshes (4h, 2h, h)."""
    vals = [(hh, _norming_single_mesh(q, L, hh, n)[n - 1]) for hh in (4 * h, 2 * h, h)]
    return richardson(vals, order=2).value


@dataclass(frozen=True)
class RichardsonResult:
    value: float | np.ndarray
    error_estimate: float
    observed_order: float
    order_ok: bool


def richardson(values, order: int) -> RichardsonResult:
    """Eliminate the h^order term (and successive even orders) from a
    mesh-halving sequence.

    ``values`` is a list of (h, value) pairs with mesh ratio 2; at least
    three levels are required. The error estimate is the magnitude of the
    last correction. If the observed convergence order deviates from
    ``order`` by more than 30% the result is flagged, not rejected.
    """
    if len(values) < 3:
        raise DomainError("richardson: need at least 3 mesh levels")
    pairs = sorted(values, key=lambda p: -float(p[0]))
    hs = [float(h) for h, _ in pairs]
    vs = [np.asarray(v, dtype=float) for _, v in pairs]
    ratios = np.array([hs[i] / hs[i + 1] for i in range(len(hs) - 1)])
    if np.any(np.abs(ratios - 2.0) > 1e-9):
        raise DomainError("richardson: mesh sequence must halve between levels")
    d1 = float(np.max(np.abs(vs[-2] - vs[-3])))
    d2 = float(np.max(np.abs(vs[-1] - vs[-2])))
    observed = math.log2(d1 / d2) if d2 > 0.0 and d1 > 0.0 else float(order)
    order_ok = abs(observed - order) <= 0.3 * order
    p = order
    last_correction = 0.0
    while len(vs) > 1:
        factor = 2.0 ** p
        new = [(factor * vs[i + 1] - vs[i]) / (factor - 1.0) for i in range(len(vs) - 1)]
        last_correction = float(np.max(np.abs(new[-1] - vs[-1])))
        vs = new
        p += 2
    value = vs[0]
    if value.ndim == 0:
        value = float(value)
    return RichardsonResult(value, last_correction, observed, order_ok)


def extrapolated_spectrum(q: Potential, L: float, count: int) -> np.ndarray:
    vals = [(h, oracle_spectrum(q, L, h, count)) for h in DEFAULT_MESHES]
    return np.asarray(richardson(vals, order=2).value)


def extrapolated_norming(q: Potential, L: float, count: int) -> np.ndarray:
    vals = [(h, _norming_single_mesh(q, L, h, count)) for h in DEFAULT_MESHES]
    return np.asarray(richardson(vals, order=2).value)
