"""Picard solves of the Volterra equations on a graded panel grid.

The kernel J0(z,x,y) separates into the decaying/growing basis pair, so
each Picard sweep reduces to two running integrals of scalar products
over the grid. Panels carry 4-point Gauss nodes; integrals from a panel
boundary are sums of full-panel rules, integrals from an interior node
add the exact integral of the panel's cubic interpolant. Convergence is
measured in the envelope-weighted max norm, which compares oscillatory
and decaying regions fairly.

Solutions are represented by their values at the Gauss nodes; values and
x-derivatives at the panel boundaries are assembled afterwards from the
converged running integrals (the local Leibniz terms cancel because
J0(z,x,x) = 0).
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

from .errors import DomainError, NumericError
from .potentials import Potential

__all__ = [
    "Grid",
    "SolutionProfile",
    "Workspace",
    "airy_table",
    "build_grid",
    "default_grid",
    "envelope_offset",
    "grid_from_nodes",
    "solve_psi",
    "solve_theta",
    "solve_sc",
    "workspace",
    "DEFAULT_TAIL_TOL",
    "LATTICE_STEP",
]

PICARD_TOL = 1e-12
PICARD_MAX_ITER = 50
DEFAULT_TAIL_TOL = 1e-12
BASE_SPACING = 0.05
REFINE_RADIUS = 2.0
REFINE_FACTOR = 4.0
GEOM_RATIO = 0.8
TRUNCATION_MARGIN = 2.0

_SQRT_PI = math.sqrt(math.pi)
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(4)
_GAUSS20_NODES, _GAUSS20_WEIGHTS = leggauss(20)


def _reference_partials():
    # integrals of the Lagrange basis on the 4 Gauss nodes of [-1, 1]:
    # right[l, m] = int_{g_l}^{1} L_m, left[l, m] = int_{-1}^{g_l} L_m
    n = len(_GAUSS_NODES)
    right = np.zeros((n, n))
    left = np.zeros((n, n))
    for m in range(n):
        c = np.poly1d([1.0])
        for j in range(n):
            if j != m:
                c = c * np.poly1d([1.0, -_GAUSS_NODES[j]]) / (_GAUSS_NODES[m] - _GAUSS_NODES[j])
        C = np.polyint(c)
        for l in range(n):
            right[l, m] = C(1.0) - C(_GAUSS_NODES[l])
            left[l, m] = C(_GAUSS_NODES[l]) - C(-1.0)
    return right, left


_PARTIAL_RIGHT, _PARTIAL_LEFT = _reference_partials()


@dataclass(frozen=True)
class Grid:
    """Graded panel grid on [0, x_max] with per-panel Gauss machinery."""

    nodes: np.ndarray       # panel boundaries, nodes[0] = 0, nodes[-1] = x_max
    x_max: float
    weights: np.ndarray     # (panels, 4) Gauss weights
    gauss_x: np.ndarray     # (panels, 4) Gauss abscissae
    widths: np.ndarray      # (panels,)

    @property
    def n_panels(self) -> int:
        return len(self.widths)


@dataclass
class SolutionProfile:
    """A solved profile sampled on the grid nodes, plus its z-derivative."""

    z: float
    values: np.ndarray
    derivs: np.ndarray
    z_derivs: np.ndarray
    tail_bound: float
    iterations: int
    residual: float          # envelope-weighted relative defect after convergence
    grid: Grid
    # Gauss-node samples, used for downstream quadratures
    gauss_values: np.ndarray | None = None
    gauss_derivs: np.ndarray | None = None
    gauss_z_derivs: np.ndarray | None = None
    # d/dx of the z-derivative at the nodes (gradient assembly needs it at 0)
    z_derivs_prime: np.ndarray | None = None


def build_grid(z: float, x_max: float, base_spacing: float = BASE_SPACING) -> Grid:
    """Graded grid: baseline spacing away from the turning point, at least
    4x denser within |x - z| <= 2, geometric transitions with ratio 0.8."""
    if not (math.isfinite(z) and math.isfinite(x_max)) or x_max <= 0:
        raise DomainError("build_grid: need finite z and x_max > 0")
    h0 = base_spacing * (1.0 + abs(z)) ** -0.25
    hmin = h0 / REFINE_FACTOR
    win_lo, win_hi = z - REFINE_RADIUS, z + REFINE_RADIUS
    pts = [0.0]

    def fill_to(b, h):
        a = pts[-1]
        if b <= a + 1e-12:
            return
        k = max(1, int(math.ceil((b - a) / h)))
        pts.extend(np.linspace(a, b, k + 1)[1:].tolist())

    if win_hi <= 0.0:
        fill_to(x_max, h0)
    else:
        if win_lo > 0.0:
            offs = []
            h, d = hmin / GEOM_RATIO, 0.0
            while h < h0:
                d += h
                offs.append(d)
                h /= GEOM_RATIO
            fill_to(max(win_lo - d, 0.0), h0)
            for o in reversed(offs):
                x = win_lo - o
                if x > pts[-1] + 1e-12:
                    pts.append(x)
            if win_lo > pts[-1] + 1e-12:
                pts.append(win_lo)
        fill_to(min(win_hi, x_max), hmin)
        if x_max > win_hi:
            h = hmin / GEOM_RATIO
            while h < h0 and pts[-1] + h < x_max:
                pts.append(pts[-1] + h)
                h /= GEOM_RATIO
            fill_to(x_max, h0)

    return grid_from_nodes(pts)


#: how far past the envelope point a default grid will chase slow potential
#: decay; beyond this the influence on x = 0 observables cancels through the
#: decaying-solution channel, so chasing it further only burns nodes
FAR_EXTENSION_CAP = 26.0


def envelope_offset(tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """Grid length past the turning point from the envelope decay rule."""
    return (1.5 * math.log(1.0 / tail_tol)) ** (2.0 / 3.0) + TRUNCATION_MARGIN


def _q_decay_x_max(q: Potential, base: float, cap: float, tail_tol: float) -> float:
    """Smallest point in [base, cap] where |q| drops below tolerance scale."""
    bound = tail_tol * (1.0 + q.sup_norm)

    def ok(x):
        return abs(float(q.q(x))) <= bound

    if ok(base):
        return base
    if not ok(cap):
        return cap
    lo, hi = base, cap
    while hi - lo > 0.25:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def grid_from_nodes(nodes) -> Grid:
    """Grid over explicit panel boundaries, 4-point Gauss nodes per panel."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2 or nodes[0] != 0.0:
        raise DomainError("grid_from_nodes: need a 1-d node array starting at 0")
    if np.any(np.diff(nodes) <= 0):
        raise DomainError("grid_from_nodes: nodes must increase strictly")
    widths = np.diff(nodes)
    gauss_x = nodes[:-1, None] + (_GAUSS_NODES[None, :] + 1.0) * (widths[:, None] / 2.0)
    weights = _GAUSS_WEIGHTS[None, :] * (widths[:, None] / 2.0)
    return Grid(nodes, float(nodes[-1]), weights, gauss_x, widths)


def default_grid(q: Potential | None, z: float,
                 tail_tol: float = DEFAULT_TAIL_TOL) -> Grid:
    """Grid satisfying the envelope decay condition, extended while the
    potential still carries weight there (capped; see FAR_EXTENSION_CAP).

    Every kink of q inside the grid ends a panel, so each Gauss rule sees a
    smooth piece of q."""
    base = z + envelope_offset(tail_tol)
    if q is None:
        return build_grid(z, base)
    grid = build_grid(z, _q_decay_x_max(q, base, base + FAR_EXTENSION_CAP, tail_tol))
    kinks = [k for k in q.kinks if 0.0 < k < grid.x_max]
    return grid_from_nodes(np.union1d(grid.nodes, kinks)) if kinks else grid


#: spacing of the process-wide AMOS lattice every Airy table steps from;
#: steps of at most half of it need about 10 Taylor terms, and their
#: cancellation, like exp(2 |h| sqrt(w)) where Ai decays, stays harmless
LATTICE_STEP = 2.0 ** -6
_CHUNK = 1024       # lattice points per AMOS evaluation: 16 units of w
#: chunk c -> (Ai, Ai', Bi, Bi') at w = (c _CHUNK + j) LATTICE_STEP, j < _CHUNK;
#: growth assigns a new dict, so concurrent readers see whole chunks only
_lattice: dict = {}


def airy_table(w):
    """(Ai, Ai', Bi, Bi') at the points w, each stepped by h = w - w_k,
    |h| <= LATTICE_STEP / 2, from its nearest lattice point w_k.

    Both Ai and Bi solve f'' = w f, so their Taylor coefficients about w_k
    share the recurrence c_{j+2} = (w_k c_j + c_{j-1}) / ((j+2)(j+1)),
    seeded by the lattice's c_0 = f, c_1 = f' (DLMF 9.2). The recurrence
    with max |w_k| and |h| bounds |c_j h^j| / (|f| + |h f'|) at every
    point; terms are added until that bound falls below 2^-60 for two
    consecutive j. Lattice points get their AMOS values exactly, and no
    value depends on what the lattice held before.
    """
    global _lattice
    w = np.asarray(w, dtype=float)
    if not np.all(np.abs(w) <= 2.0 ** 40):
        raise DomainError("airy_table: need finite |w| <= 2^40")
    k = np.rint(w / LATTICE_STEP)
    wk = k * LATTICE_STEP
    h = w - wk                          # exact: w and w_k share the scale 2^-6
    k = k.astype(np.int64)
    chunks, inv = np.unique(k // _CHUNK, return_inverse=True)
    lattice = _lattice
    missing = [c for c in chunks.tolist() if c not in lattice]
    if missing:                         # one AMOS call, for the new chunks only
        new = (np.array(missing)[:, None] * _CHUNK + np.arange(_CHUNK)) * LATTICE_STEP
        rows = np.array(special.airy(new)).transpose(1, 0, 2)
        _lattice = lattice = {**lattice, **dict(zip(missing, rows))}
    rows = np.concatenate([lattice[c] for c in chunks.tolist()], axis=1)
    base = np.take(rows, inv.reshape(k.shape) * _CHUNK + k % _CHUNK, axis=-1)
    wh2, h3 = wk * (h * h), h ** 3
    bound_wh2, bound_h3 = float(np.max(np.abs(wh2))), float(np.max(np.abs(h3)))
    r_prev, r, r_next = 0.0, 1.0, 1.0
    d_prev, d, d_next = 0.0, base[0::2], base[1::2] * h
    val = d + d_next
    der_h = np.zeros_like(d)            # sum over j >= 2 of j c_j h^j
    j = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the caller reports overflow
        while r + r_next > 2.0 ** -60:
            inv_jj = 1.0 / ((j + 2) * (j + 1))
            r_prev, r, r_next = r, r_next, (bound_wh2 * r + bound_h3 * r_prev) * inv_jj
            step = (wh2 * d + h3 * d_prev) * inv_jj
            d_prev, d, d_next = d, d_next, step
            val += step
            der_h += (j + 2) * step
            j += 1
        der = base[1::2] + der_h / np.where(h == 0.0, 1.0, h)   # der_h is 0 at h = 0
    return np.stack([val[0], der[0], val[1], der[1]])


class Workspace:
    """Per-(q, z, grid) basis tables and the Picard/running-integral engine.

    The basis columns are sqrt(pi) Ai(x - z), sqrt(pi) Bi(x - z) and their
    derivatives at the Gauss nodes (``psi0``, ``th0``, ...) and the panel
    boundaries (``b_psi0``, ...), from :func:`airy_table`; :meth:`at`
    builds them for another z on the same grid.
    """

    def __init__(self, q: Potential | None, z: float, grid: Grid):
        self.q = q
        self.grid = grid
        self.qg = np.zeros_like(grid.gauss_x) if q is None else np.asarray(q.q(grid.gauss_x))
        self._q_tail = self._q_tail_estimate(q)
        #: the Gauss then the boundary abscissae, the points of the Airy table
        self.x = np.concatenate([grid.gauss_x.ravel(), grid.nodes])
        self._set_table(z)

    def at(self, z: float) -> Workspace:
        """This Workspace at ``z``: same grid and potential samples, the
        Airy table built as the constructor builds it."""
        if z == self.z:
            return self
        ws = copy.copy(self)
        ws._set_table(z)
        return ws

    def _set_table(self, z: float):
        """Basis columns from the (Ai, Ai', Bi, Bi') rows at x - z, and what
        else depends on z: envelope weights and the tail bound."""
        grid = self.grid
        table = airy_table(self.x - z)
        if not np.all(np.isfinite(table)):
            # AMOS returns nan for Bi from w ~ 103.4, before Bi' overflows
            raise NumericError(
                f"workspace: Airy table non-finite at z = {z!r}, max w = "
                f"{grid.x_max - z:.6g}; x_max - z too large for Bi")
        self.z = z
        n_g = grid.gauss_x.size
        cols = _SQRT_PI * table
        self.psi0, self.psi0p, self.th0, self.th0p = (
            c[:n_g].reshape(grid.gauss_x.shape) for c in cols)
        self.b_psi0, self.b_psi0p, self.b_th0, self.b_th0p = (c[n_g:] for c in cols)
        w = grid.gauss_x - z
        E = (2.0 / 3.0) * np.maximum(w, 0.0) ** 1.5
        sigma = 1.0 + np.abs(w) ** 0.25
        self.weight_decay = sigma * np.exp(E)     # inverse envelope of the psi class
        self.weight_grow = sigma * np.exp(-E)     # inverse envelope of the theta class
        self.tail_bound = (math.exp(-(2.0 / 3.0) * max(grid.x_max - z, 0.0) ** 1.5)
                           + self._q_tail)

    def _q_tail_estimate(self, q: Potential | None) -> float:
        """Envelope-relative weight of the potential beyond the grid.

        The neglected inhomogeneity feeds the profile through products of
        the decaying and growing basis solutions, which stay below ~0.7 in
        magnitude, so an L1 estimate of the far potential bounds it.
        """
        if q is None or q.decay_point <= self.grid.x_max:
            return 0.0
        a = self.grid.x_max
        b = min(q.decay_point, a + 100.0)
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        nodes = mid + half * _GAUSS20_NODES
        return 0.7 * half * float(np.sum(_GAUSS20_WEIGHTS * np.abs(q.q(nodes))))

    # -- running integrals ------------------------------------------------

    def run_back(self, integrand):
        """Suffix integrals int_x^{x_max}: at Gauss nodes and at boundaries."""
        full = np.sum(self.grid.weights * integrand, axis=1)
        suffix = np.concatenate([np.cumsum(full[::-1])[::-1][1:], [0.0]])
        at_g = (integrand @ _PARTIAL_RIGHT.T) * (self.grid.widths[:, None] / 2.0) + suffix[:, None]
        at_b = np.concatenate([full + suffix, [0.0]])
        return at_g, at_b

    def run_fwd(self, integrand):
        """Prefix integrals int_0^x: at Gauss nodes and at boundaries."""
        full = np.sum(self.grid.weights * integrand, axis=1)
        prefix = np.concatenate([[0.0], np.cumsum(full)[:-1]])
        at_g = prefix[:, None] + (integrand @ _PARTIAL_LEFT.T) * (self.grid.widths[:, None] / 2.0)
        at_b = np.concatenate([[0.0], prefix + full])
        return at_g, at_b

    def _run(self, integrand, direction):
        return self.run_back(integrand) if direction == "back" else self.run_fwd(integrand)

    # -- Picard iteration --------------------------------------------------

    def picard(self, inhom_g, direction):
        """Sum the Picard series for f = inhom + sgn * int J0 q f.

        Terms are accumulated until the next one falls below PICARD_TOL of
        the inhomogeneity scale in the class-appropriate weighted norm.
        """
        weight = self.weight_decay if direction == "back" else self.weight_grow
        sgn = -1.0 if direction == "back" else 1.0
        scale = float(np.max(np.abs(inhom_g) * weight))
        if scale == 0.0:
            scale = 1.0
        f = inhom_g.copy()
        term = inhom_g
        for it in range(1, PICARD_MAX_ITER + 1):
            u1, _ = self._run(self.psi0 * self.qg * term, direction)
            u2, _ = self._run(self.th0 * self.qg * term, direction)
            term = sgn * (self.th0 * u1 - self.psi0 * u2)
            f = f + term
            if np.max(np.abs(term) * weight) <= PICARD_TOL * scale:
                return f, it
        raise NumericError(
            f"picard: no convergence in {PICARD_MAX_ITER} sweeps at z = {self.z:g}; "
            "grid or truncation defect (the series converges factorially)")

    def assemble(self, f_gauss, inhom, direction):
        """Values and x-derivatives at Gauss nodes and boundaries.

        ``inhom`` holds (value, deriv) pairs at Gauss nodes and boundaries.
        Also returns the envelope-weighted relative defect of one more
        operator application (the converged fixed point's residual).
        """
        (ig, ipg, ib, ipb) = inhom
        sgn = -1.0 if direction == "back" else 1.0
        a_g, a_b = self._run(self.psi0 * self.qg * f_gauss, direction)
        b_g, b_b = self._run(self.th0 * self.qg * f_gauss, direction)
        vg = ig + sgn * (self.th0 * a_g - self.psi0 * b_g)
        dg = ipg + sgn * (self.th0p * a_g - self.psi0p * b_g)
        vb = ib + sgn * (self.b_th0 * a_b - self.b_psi0 * b_b)
        db = ipb + sgn * (self.b_th0p * a_b - self.b_psi0p * b_b)
        weight = self.weight_decay if direction == "back" else self.weight_grow
        scale = float(np.max(np.abs(vg) * weight)) or 1.0
        defect = float(np.max(np.abs(vg - f_gauss) * weight)) / scale
        return vg, dg, vb, db, defect, (a_g, a_b, b_g, b_b)

    def dz_kernel_term(self, base_gauss, direction):
        """Inhomogeneity contribution sgn * int dJ0/dz (base) q dy and its
        x-derivative, at Gauss nodes and boundaries.

        dJ0/dz = -dJ0/dx - dJ0/dy separates into four basis products; the
        local terms of the x-derivative cancel pairwise.
        """
        sgn = -1.0 if direction == "back" else 1.0
        qb = self.qg * base_gauss
        u1g, u1b = self._run(self.psi0 * qb, direction)
        u2g, u2b = self._run(self.th0 * qb, direction)
        u3g, u3b = self._run(self.psi0p * qb, direction)
        u4g, u4b = self._run(self.th0p * qb, direction)
        wg = self.grid.gauss_x - self.z
        wb = self.grid.nodes - self.z
        val_g = sgn * (-self.th0p * u1g + self.psi0p * u2g - self.th0 * u3g + self.psi0 * u4g)
        der_g = sgn * (-wg * self.th0 * u1g + wg * self.psi0 * u2g
                       - self.th0p * u3g + self.psi0p * u4g)
        val_b = sgn * (-self.b_th0p * u1b + self.b_psi0p * u2b
                       - self.b_th0 * u3b + self.b_psi0 * u4b)
        der_b = sgn * (-wb * self.b_th0 * u1b + wb * self.b_psi0 * u2b
                       - self.b_th0p * u3b + self.b_psi0p * u4b)
        return val_g, der_g, val_b, der_b

    # -- boundary data helpers ----------------------------------------------

    def combo(self, c_psi, c_th):
        """(value, deriv) tables of c_psi*psi0 + c_th*theta0 at Gauss/boundary nodes."""
        return (c_psi * self.psi0 + c_th * self.th0,
                c_psi * self.psi0p + c_th * self.th0p,
                c_psi * self.b_psi0 + c_th * self.b_th0,
                c_psi * self.b_psi0p + c_th * self.b_th0p)


def _solve_linear(ws: Workspace, inhom, direction):
    """Picard-solve f = inhom + sgn*K f and assemble the full profile data."""
    f, iters = ws.picard(inhom[0], direction)
    vg, dg, vb, db, defect, runints = ws.assemble(f, inhom, direction)
    return vg, dg, vb, db, defect, iters, runints


def workspace(q: Potential, z: float, grid: Grid | Workspace | None = None) -> Workspace:
    """The Workspace at z on ``grid``: built there (on the default grid when
    None), or, when ``grid`` is a Workspace, moved from it by
    :meth:`Workspace.at`."""
    if isinstance(grid, Workspace):
        return grid.at(z)
    return Workspace(q, z, default_grid(q, z) if grid is None else grid)


def _solve_class(q: Potential, z: float, grid: Grid | Workspace | None,
                 direction: str) -> SolutionProfile:
    """The class solution seeded by psi0 ("back") or theta0 ("fwd"), with
    its z-derivative.

    The z-differentiated equation has the seed's z-derivative -seed' as
    inhomogeneity, plus the dJ0/dz coupling to the converged solution.
    """
    ws = workspace(q, z, grid)
    grid = ws.grid
    if direction == "back":
        inhom = (ws.psi0, ws.psi0p, ws.b_psi0, ws.b_psi0p)
    else:
        inhom = (ws.th0, ws.th0p, ws.b_th0, ws.b_th0p)
    f_g, fp_g, f_b, fp_b = inhom
    vg, dg, vb, db, defect, iters, _ = _solve_linear(ws, inhom, direction)
    dz_g, dz_der_g, dz_b, dz_der_b = ws.dz_kernel_term(vg, direction)
    dot_inhom = (-fp_g + dz_g, -(grid.gauss_x - z) * f_g + dz_der_g,
                 -fp_b + dz_b, -(grid.nodes - z) * f_b + dz_der_b)
    dvg, _, dvb, ddb, _, _, _ = _solve_linear(ws, dot_inhom, direction)
    return SolutionProfile(z, vb, db, dvb, ws.tail_bound, iters, defect, grid,
                           gauss_values=vg, gauss_derivs=dg, gauss_z_derivs=dvg,
                           z_derivs_prime=ddb)


def solve_psi(q: Potential, z: float, grid: Grid | Workspace | None = None) -> SolutionProfile:
    """The square-integrable solution and its z-derivative.

    psi solves the backward Volterra equation with inhomogeneity psi0.
    ``grid`` is a Grid, None for the default grid, or a Workspace on the
    grid to use, whose Airy table is moved to z (see :func:`workspace`).
    """
    return _solve_class(q, z, grid, "back")


def solve_theta(q: Potential, z: float, grid: Grid | Workspace | None = None) -> SolutionProfile:
    """The forward-normalized growing solution and its z-derivative;
    ``grid`` as for :func:`solve_psi`."""
    return _solve_class(q, z, grid, "fwd")


def solve_sc(q: Potential, z: float, grid: Grid | Workspace | None = None):
    """The fundamental pair normalized at 0, with z-derivatives; ``grid``
    as for :func:`solve_psi`.

    s(z,0) = 0, s'(z,0) = 1, c(z,0) = 1, c'(z,0) = 0 hold exactly by
    construction of the inhomogeneities. s_dot seeds with the identity
    s0_dot = c0 - s0'; the z-derivatives of the c0 boundary coefficients
    use d/dz theta0'(z,0) = z theta0(z,0) (Airy equation at x = 0).
    """
    ws = workspace(q, z, grid)
    grid = ws.grid
    p0, pp0 = ws.b_psi0[0], ws.b_psi0p[0]
    t0, tp0 = ws.b_th0[0], ws.b_th0p[0]

    s_inhom = ws.combo(-t0, p0)
    svg, sdg, svb, sdb, s_defect, s_iters, _ = _solve_linear(ws, s_inhom, "fwd")
    c_inhom = ws.combo(tp0, -pp0)
    cvg, cdg, cvb, cdb, c_defect, c_iters, _ = _solve_linear(ws, c_inhom, "fwd")

    # s_dot: inhomogeneity (c0 - s0') plus the dJ0/dz coupling to s
    c0_g, c0p_g, c0_b, c0p_b = c_inhom
    s0_g, s0p_g, s0_b, s0p_b = s_inhom
    wg = grid.gauss_x - z
    wb = grid.nodes - z
    dz_g, dz_der_g, dz_b, dz_der_b = ws.dz_kernel_term(svg, "fwd")
    sdot_inhom = (c0_g - s0p_g + dz_g, c0p_g - wg * s0_g + dz_der_g,
                  c0_b - s0p_b + dz_b, c0p_b - wb * s0_b + dz_der_b)
    sdot_g, _, sdot_b, _, _, _, _ = _solve_linear(ws, sdot_inhom, "fwd")

    # c_dot: d/dz of the c0 coefficients gives z*theta0(z,0) and z*psi0(z,0)
    cdot0 = ws.combo(z * t0, -z * p0)
    shift = ws.combo(-tp0, pp0)  # theta0'(0) * psi0_dot - psi0'(0) * theta0_dot, via dot = -prime
    dzc_g, dzc_der_g, dzc_b, dzc_der_b = ws.dz_kernel_term(cvg, "fwd")
    cdot_inhom = (cdot0[0] + shift[1] + dzc_g,
                  cdot0[1] + wg * shift[0] + dzc_der_g,
                  cdot0[2] + shift[3] + dzc_b,
                  cdot0[3] + wb * shift[2] + dzc_der_b)
    cdot_g, _, cdot_b, _, _, _, _ = _solve_linear(ws, cdot_inhom, "fwd")

    s_prof = SolutionProfile(z, svb, sdb, sdot_b, ws.tail_bound, s_iters, s_defect, grid,
                             gauss_values=svg, gauss_derivs=sdg, gauss_z_derivs=sdot_g)
    c_prof = SolutionProfile(z, cvb, cdb, cdot_b, ws.tail_bound, c_iters, c_defect, grid,
                             gauss_values=cvg, gauss_derivs=cdg, gauss_z_derivs=cdot_g)
    return s_prof, c_prof
