"""Picard solves of the Volterra equations on an equal-phase panel grid.

The kernel J0(z,x,y) separates into the decaying/growing basis pair, so
K f = sgn int J0 q f needs the running integrals of psi0 q f and theta0 q f,
taken in one stacked call. Panels, at most one unit of WKB phase wide,
carry p Gauss nodes (p = 8); integrals from an interior node add the exact
integral of the panel's degree p - 1 interpolant to sums of full-panel
rules. Both are products over the stack's contiguous node axis, after one
scaling by the panel half-widths: with the Gauss weights for the full
panels, and with a p x p stencil of Lagrange-basis integrals for the
interior partials.

A solve sweeps f <- inhom + K f until the update, in the envelope-weighted
max norm that compares oscillatory and decaying regions fairly, falls
below tolerance; the last sweep's integrals also give the values and
x-derivatives at the panel boundaries. Each class, psi, theta, s and c, is
seeded by a psi0 + b theta0 matched to its Cauchy data at z. The basis
stays at its Workspace's centre z0: a solve at z within the Workspace's
reach carries z - z0 as a constant potential (see :func:`_solve`). psi
alone carries a z-derivative, solved as the source problem
(H_q - z) psi_dot = psi (see :func:`solve_source`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre

from .errors import DomainError, NumericError
from .potentials import Potential

__all__ = [
    "Grid",
    "SolutionProfile",
    "Workspace",
    "airy_ai",
    "airy_table",
    "default_grid",
    "envelope_offset",
    "grid_from_nodes",
    "solve_psi",
    "solve_theta",
    "solve_sc",
    "solve_source",
    "workspace",
    "DECAY_LENGTH",
    "DEFAULT_TAIL_TOL",
    "LATTICE_STEP",
]

PICARD_TOL = 1e-12
#: a sweep that no longer shrinks an update this small (relative) has met
#: the roundoff floor, which deep wells lift above PICARD_TOL
PICARD_FLOOR = 1e-10
PICARD_MAX_ITER = 50
DEFAULT_TAIL_TOL = 1e-12
#: WKB phase per panel of :func:`default_grid`
PANEL_PHASE = 1.0
#: WKB phase by which a shift within a Workspace's reach may move a panel
#: end; a reach of PANEL_PHASE took more sweeps for the same campaign time
REACH_PHASE = 0.125
#: length past the turning point at which the decaying envelope
#: exp(-(2/3) w^(3/2)) falls to DEFAULT_TAIL_TOL
DECAY_LENGTH = (1.5 * math.log(1.0 / DEFAULT_TAIL_TOL)) ** (2.0 / 3.0)
#: what default_grid adds past DECAY_LENGTH: a solve up to this far above
#: a grid's centre still runs on that grid (see :func:`workspace`)
TRUNCATION_MARGIN = 2.0

_SQRT_PI = math.sqrt(math.pi)


class _Special:
    """scipy.special, imported on first use: a shooting campaign reads only
    the stored lattice chunks and never loads it. ``special`` stays a
    module attribute, here and in asymptotics, so that tests and
    bench/tracing.py can replace it by name."""

    def __getattr__(self, attr):
        from scipy import special
        return getattr(special, attr)


special = _Special()

_GAUSS_NODES, _GAUSS_WEIGHTS = legendre.leggauss(8)


def _reference_partials():
    # integrals of the Lagrange basis on the Gauss nodes g of [-1, 1], laid
    # out so that node values @ matrix gives the partial integrals at the
    # nodes: right[m, l] = int_{g_l}^{1} L_m, left[m, l] = int_{-1}^{g_l} L_m;
    # column m of the inverse Legendre Vandermonde holds L_m's coefficients
    vander = legendre.legvander(_GAUSS_NODES, _GAUSS_NODES.size - 1)
    coef = legendre.legint(np.linalg.inv(vander), lbnd=-1.0)
    left = legendre.legval(_GAUSS_NODES, coef)
    return legendre.legval(1.0, coef)[:, None] - left, left


_PARTIAL_RIGHT, _PARTIAL_LEFT = _reference_partials()


@dataclass(frozen=True)
class Grid:
    """Panel grid on [0, x_max] with per-panel Gauss machinery."""

    nodes: np.ndarray       # panel boundaries, nodes[0] = 0, nodes[-1] = x_max
    x_max: float
    weights: np.ndarray     # (panels, p) Gauss weights
    gauss_x: np.ndarray     # (panels, p) Gauss abscissae
    widths: np.ndarray      # (panels,)

    @property
    def n_panels(self) -> int:
        return len(self.widths)


@dataclass
class SolutionProfile:
    """A solved profile sampled on the grid nodes; ``z_derivs`` holds
    psi's z-derivative, and is None for theta, s and c.

    It covers [0, x_max] only: the grid ends where the decaying envelope
    is negligible (see :func:`default_grid`)."""

    values: np.ndarray
    derivs: np.ndarray
    z_derivs: np.ndarray | None
    grid: Grid
    # Gauss-node samples, used for downstream quadratures
    gauss_values: np.ndarray


def envelope_offset() -> float:
    """Grid length past the turning point: DECAY_LENGTH plus
    TRUNCATION_MARGIN."""
    return DECAY_LENGTH + TRUNCATION_MARGIN


def grid_from_nodes(nodes) -> Grid:
    """Grid over explicit panel boundaries, p Gauss nodes per panel."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2 or nodes[0] != 0.0 or not np.all(np.isfinite(nodes)):
        raise DomainError("grid_from_nodes: need a finite 1-d node array starting at 0")
    if np.any(np.diff(nodes) <= 0):
        raise DomainError("grid_from_nodes: nodes must increase strictly")
    widths = np.diff(nodes)
    gauss_x = nodes[:-1, None] + (_GAUSS_NODES[None, :] + 1.0) * (widths[:, None] / 2.0)
    weights = _GAUSS_WEIGHTS[None, :] * (widths[:, None] / 2.0)
    return Grid(nodes, float(nodes[-1]), weights, gauss_x, widths)


def default_grid(q: Potential, z: float) -> Grid:
    """Panels of equal WKB phase on [0, z + envelope_offset()], the one
    truncation rule, whatever q does beyond.

    The basis at z, perturbed by q, oscillates or decays on the local
    length (c + |x - z|)^(-1/2), c = 1 + sup|q|, the 1 being the Airy scale
    at the turning point. Panel ends sit at equal steps, at most
    PANEL_PHASE, of the phase that length accumulates,
    Phi(x) = sign(x - z) (2/3) ((c + |x - z|)^(3/2) - c^(3/2)), inverted
    in closed form, and at every kink of q inside the grid, so each Gauss
    rule sees a smooth piece of q.

    q past x_max does not move lambda_n or kappa_n: it rescales psi on
    [0, x_max], whose growing-solution admixture there is damped by
    exp(-(4/3) (x_max - z)^(3/2)), and kappa is free of psi's scale at a
    root, where psi(0) = 0."""
    if not math.isfinite(z):
        raise DomainError("default_grid: need a finite z")
    x_max = z + envelope_offset()
    if x_max <= 0.0:
        raise DomainError(f"default_grid: z = {z:g} ends the grid at x_max = {x_max:g} <= 0")
    c = 1.0 + q.sup_norm
    c32 = c ** 1.5
    lo, hi = (math.copysign((2.0 / 3.0) * ((c + abs(x - z)) ** 1.5 - c32), x - z)
              for x in (0.0, x_max))
    phase = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / PANEL_PHASE)) + 1)
    nodes = z + np.sign(phase) * ((1.5 * np.abs(phase) + c32) ** (2.0 / 3.0) - c)
    nodes[0], nodes[-1] = 0.0, x_max
    return grid_from_nodes(np.union1d(nodes, [k for k in q.kinks if 0.0 < k < x_max]))


#: spacing of the process-wide AMOS lattice every Airy value steps from;
#: steps of at most half of it need about 10 Taylor terms, and their
#: cancellation, like exp(2 |h| sqrt(w)) where Ai decays, stays harmless
LATTICE_STEP = 2.0 ** -6
_CHUNK = 1024       # lattice points per AMOS evaluation: 16 units of w


def _stored_lattice() -> dict:
    """Chunks -4..1, w in [-64, 32), as stored in airy_lattice.npy:
    special.airy's values, all that the bench campaigns, the envelope
    margin and a_n up to n = 108 read, so none of them imports scipy."""
    return dict(zip(range(-4, 2), np.load(Path(__file__).with_name("airy_lattice.npy"))))


#: chunk c -> (Ai, Ai', Bi, Bi') at w = (c _CHUNK + j) LATTICE_STEP, j < _CHUNK;
#: growth assigns a new dict, so concurrent readers see whole chunks only
_lattice: dict = _stored_lattice()


def _lattice_with(chunks) -> dict:
    """The lattice holding the chunk ids ``chunks``, grown by one AMOS call
    for those it lacks."""
    global _lattice
    lattice = _lattice
    missing = [c for c in chunks if c not in lattice]
    if missing:
        new = (np.array(missing)[:, None] * _CHUNK + np.arange(_CHUNK)) * LATTICE_STEP
        rows = np.array(special.airy(new)).transpose(1, 0, 2)
        _lattice = lattice = {**lattice, **dict(zip(missing, rows))}
    return lattice


def airy_table(w):
    """(Ai, Ai', Bi, Bi') at the points w, each stepped by
    :func:`_airy_step` over h = w - w_k, |h| <= LATTICE_STEP / 2, from its
    nearest lattice point w_k: Ai and Bi both solve f'' = w f. Lattice
    points get their AMOS values exactly, and no value depends on what the
    lattice held before.
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.abs(w) <= 2.0 ** 40):
        raise DomainError("airy_table: need finite |w| <= 2^40")
    if w.size == 0:
        return np.empty((4,) + w.shape)
    k = np.rint(w / LATTICE_STEP)
    wk = k * LATTICE_STEP
    h = w - wk                          # exact: w and w_k share the scale 2^-6
    k = k.astype(np.int64)
    ids = k // _CHUNK
    chunks = np.sort(ids, axis=None)    # sorted unique: cheaper than np.unique's hashing
    chunks = chunks[np.append(True, chunks[1:] != chunks[:-1])].tolist()
    lattice = _lattice_with(chunks)
    rows = np.concatenate([lattice[c] for c in chunks], axis=1)
    at = np.searchsorted(chunks, ids) * _CHUNK + k % _CHUNK
    f0, f1 = np.take(rows[0::2], at, axis=-1), np.take(rows[1::2], at, axis=-1)
    out = np.empty((4,) + f0.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):  # the caller reports overflow
        out[0::2], out[1::2] = _airy_step(f0, f1, wk, h)
    return out


def airy_ai(w: float):
    """(Ai, Ai') at one finite float w: :func:`airy_table`'s Ai rows for
    w alone, stepped on floats, without the array set-up."""
    k = round(w / LATTICE_STEP)
    chunk, j = divmod(k, _CHUNK)
    row = _lattice_with((chunk,))[chunk][:2, j]
    return _airy_step(float(row[0]), float(row[1]), k * LATTICE_STEP, w - k * LATTICE_STEP)


def _airy_step(f, fp, w, h):
    """(f, f') at w + h of the solutions of f'' = w f with the values
    ``f`` and slopes ``fp`` at w, for floats or arrays that broadcast.

    The Taylor coefficients about w follow c_{j+2} = (w c_j + c_{j-1}) /
    ((j+2)(j+1)), c_0 = f, c_1 = f' (DLMF 9.2). The recurrence with
    max |w h^2| and max |h^3| over the inputs bounds |c_j h^j| / (|f| +
    |h f'|) at every point; terms are added until that bound falls below
    2^-60 for two consecutive j. h = 0 returns f and fp.
    """
    wh2, h3 = w * (h * h), h * h * h
    bound_wh2, bound_h3 = float(np.abs(wh2).max()), float(np.abs(h3).max())
    r_prev, r, r_next = 0.0, 1.0, 1.0
    # d_j = c_j h^j; der_h is the sum over j >= 2 of j c_j h^j
    d_prev, d, d_next = 0.0, f, fp * h
    val, der_h = f + d_next, 0.0
    j = 0
    while r + r_next > 2.0 ** -60:
        inv_jj = 1.0 / ((j + 2) * (j + 1))
        r_prev, r, r_next = r, r_next, (bound_wh2 * r + bound_h3 * r_prev) * inv_jj
        step = wh2 * d          # then in place: fewer array temporaries per term
        step += h3 * d_prev
        step *= inv_jj
        val += step
        der_h += (j + 2) * step
        d_prev, d, d_next = d, d_next, step
        j += 1
    return val, der_h / np.where(h == 0.0, 1.0, h) + fp    # der_h is 0 where h is


class Workspace:
    """Per-(q, z, grid) basis tables and the Picard/running-integral engine.

    ``table`` stacks the basis columns sqrt(pi) Ai(x - z), its derivative,
    sqrt(pi) Bi(x - z) and its derivative, from :func:`airy_table`, at the
    Gauss nodes and then at the panel boundaries; ``boundary`` is its
    (4, panels + 1) boundary view, and ``psi0``, ``psi0p``, ``th0`` and
    ``basis`` view its Gauss-node rows. Solves at any z within ``reach``
    of the centre ``z`` can run on these columns (see :func:`_solve`);
    :func:`workspace` says which Workspace a solve runs on.
    """

    def __init__(self, q: Potential, z: float, grid: Grid):
        self.q = q
        self.grid = grid
        self.qg = np.asarray(q.q(grid.gauss_x))
        #: panel half-widths, the Jacobian of every panel's Gauss rules, one
        #: per Gauss node so that scaling a stack broadcasts contiguously
        self._half = np.broadcast_to(grid.widths[:, None] / 2.0, grid.gauss_x.shape).copy()
        # the table's points: the Gauss then the boundary abscissae
        table = airy_table(np.concatenate([grid.gauss_x.ravel(), grid.nodes]) - z)
        if not np.all(np.isfinite(table)):
            # AMOS returns nan for Bi from w ~ 103.4, before Bi' overflows
            raise NumericError(
                f"workspace: Airy table non-finite at z = {z!r}, max w = "
                f"{grid.x_max - z:.6g}; x_max - z too large for Bi")
        self.z = z
        n_g = grid.gauss_x.size
        self.table = _SQRT_PI * table
        self.boundary = self.table[:, n_g:]
        gauss = self.table[:, :n_g].reshape((4,) + grid.gauss_x.shape)
        self.psi0, self.psi0p, self.th0 = gauss[0], gauss[1], gauss[2]
        #: (psi0, theta0) at the Gauss nodes, the kernel's factors
        self.basis = gauss[0::2]
        #: largest |shift| for which the basis at z serves a solve at z +
        #: shift: the shift then moves no panel end by more than REACH_PHASE
        #: of phase, at the largest distance from the turning point
        self.reach = REACH_PHASE / math.sqrt(1.0 + self.q.sup_norm
                                             + max(abs(z), grid.x_max - z))
        w = grid.gauss_x - z
        w_plus = np.maximum(w, 0.0)
        growth = np.exp((2.0 / 3.0) * w_plus * np.sqrt(w_plus))   # exp((2/3) w_+^(3/2))
        sigma = 1.0 + np.sqrt(np.sqrt(np.abs(w)))
        self.weight_decay = sigma * growth        # inverse envelope of the psi class
        self.weight_grow = sigma / growth         # inverse envelope of the theta class

    # -- the Volterra operator -----------------------------------------------

    def integrals(self, integrands, direction):
        """int_x^{x_max} ("back") or int_0^x ("fwd") of each Gauss-node
        integrand in a stack ``(..., panels, p)``, at the Gauss nodes and
        at the boundaries ``(..., panels + 1)``; each row gets the bits a
        call on that row alone gives.

        The stack, scaled once by the panel half-widths, meets the Gauss
        weights (full panels) and the p x p stencil of partial integrals
        from each node to a panel end in two products over its contiguous
        last axis. The cumulative sum of the full panels is written straight
        into the boundary array, and added to the partials in place."""
        scaled = integrands * self._half
        full = scaled @ _GAUSS_WEIGHTS
        at_b = np.empty(full.shape[:-1] + (full.shape[-1] + 1,))
        if direction == "back":
            at_b[..., -1] = 0.0
            np.add.accumulate(full[..., ::-1], axis=-1, out=at_b[..., -2::-1])
            at_g = scaled @ _PARTIAL_RIGHT
            at_g += at_b[..., 1:, None]
        else:
            at_b[..., 0] = 0.0
            np.add.accumulate(full, axis=-1, out=at_b[..., 1:])
            at_g = scaled @ _PARTIAL_LEFT
            at_g += at_b[..., :-1, None]
        return at_g, at_b

    def kernel(self, u_g, u_b):
        """theta0 u[0] - psi0 u[1] at the Gauss nodes, and its value and
        x-derivative rows at the boundaries, from running integrals u of
        psi0 p f and theta0 p f: int J0 p f up to the direction's sign. The
        Leibniz terms of the derivative cancel because J0(x,x) = 0."""
        b = self.boundary
        return self.th0 * u_g[0] - self.psi0 * u_g[1], b[2:] * u_b[0] - b[:2] * u_b[1]

    def picard(self, inhom, direction, z):
        """Solve f = inhom + sgn int J0 (q - z + self.z) f, the equation at
        z on the basis at the centre, by the sweeps f <- inhom + K f.

        ``inhom`` holds the values at the Gauss nodes and the value and
        x-derivative rows at the boundaries. Sweeps stop when the
        envelope-weighted update falls to PICARD_TOL of the larger of the
        inhomogeneity's and the sweep's own: where q - z > 0 near 0 the
        solution can outgrow its seed by orders of magnitude, and its
        roundoff alone then exceeds the seed's bound.
        They also stop when the update, below PICARD_FLOOR of that bound,
        does not fall: where q - z < 0 is deep the iterates grow by orders of
        magnitude before the series converges, and the float sweeps can end
        in a cycle whose update, that growth times the rounding, exceeds
        PICARD_TOL. Returns ((the last sweep's values at the Gauss nodes,
        its value and x-derivative rows at the boundaries), the number of
        sweeps).

        Each call makes two buffers once, ``prod`` for the kernel product
        kq f and ``norm`` for the stop rule's weighted norms, and every
        sweep writes into them; the sweep arithmetic and its order are
        unchanged. They are locals of the call, never attributes, so a
        Workspace stays read-only and threads can share it."""
        ig, ib = inhom
        sgn, weight = ((-1.0, self.weight_decay) if direction == "back"
                       else (1.0, self.weight_grow))
        scale = float(np.max(np.abs(ig) * weight))
        kq = self.basis * (self.qg - (z - self.z))
        # sgn (theta0 u0 - psi0 u1) is one difference, psi0 u1 - theta0 u0
        # when sgn = -1: rounding is symmetric, so the bits are the same
        (plus, p), (minus, m) = (((self.psi0, 1), (self.th0, 0)) if direction == "back"
                                 else ((self.th0, 0), (self.psi0, 1)))
        prod, norm = np.empty(kq.shape), np.empty(ig.shape)
        f, last = ig, math.inf
        for sweeps in range(1, PICARD_MAX_ITER + 1):
            u_g, u_b = self.integrals(np.multiply(kq, f, out=prod), direction)
            vg = plus * u_g[p]
            vg -= minus * u_g[m]
            vg += ig
            np.abs(np.subtract(vg, f, out=norm), out=norm)
            norm *= weight
            update = float(norm.max())
            np.abs(vg, out=norm)
            norm *= weight
            size = float(norm.max())
            f = vg
            bound = max(scale, size) or 1.0
            if update <= PICARD_TOL * bound or last <= update <= PICARD_FLOOR * bound:
                k_g, k_b = self.kernel(u_g, u_b)
                return (ig + sgn * k_g, ib + sgn * k_b), sweeps
            last = update
        raise NumericError(
            f"picard: no convergence in {PICARD_MAX_ITER} sweeps at z = {z:g} on the "
            f"Workspace at z = {self.z:g}; grid or truncation defect (the series "
            "converges factorially)")

    def match(self, node: int, value, deriv):
        """(a, b) such that a psi0 + b theta0 takes ``value`` and slope
        ``deriv`` at boundary ``node``, by the unit Wronskian of the pair."""
        psi, psip, th, thp = self.boundary[:, node]
        return value * thp - deriv * th, deriv * psi - value * psip

    def combo(self, c_psi, c_th):
        """c_psi psi0 + c_th theta0 at the Gauss nodes, and its value and
        x-derivative rows at the boundaries."""
        b = self.boundary
        return c_psi * self.psi0 + c_th * self.th0, c_psi * b[:2] + c_th * b[2:]


def workspace(q: Potential, z: float, grid: Grid | Workspace | None = None) -> Workspace:
    """The Workspace a solve at z runs on, by the one rule: a Workspace
    ``grid`` whose grid ends at least DECAY_LENGTH past z serves z itself
    when z lies within its ``reach``, and otherwise gives a Workspace at z
    on that grid; where the grid ends sooner, and when ``grid`` is None,
    the solve runs at z on z's default grid, so the envelope decays before
    x_max. A Grid gives the Workspace at z on it. A Workspace built for
    another potential than q is a DomainError."""
    if isinstance(grid, Workspace):
        if grid.q is not q:
            raise DomainError("workspace: the Workspace was built for another potential")
        if grid.grid.x_max >= z + DECAY_LENGTH:
            return grid if abs(z - grid.z) <= grid.reach else Workspace(q, z, grid.grid)
        grid = None
    return Workspace(q, z, default_grid(q, z) if grid is None else grid)


def _solve(ws: Workspace, z: float, coef, direction: str) -> SolutionProfile:
    """The solution at z seeded by a psi0 + b theta0, ``coef = (a, b)``.

    The basis stays at the Workspace centre: H_q - z = H_{q - (z - ws.z)}
    - ws.z, so the kernel carries the shift as the constant potential
    -(z - ws.z), and each class matches its seed to its Cauchy data at z.
    """
    (vg, vb), _ = ws.picard(ws.combo(*coef), direction, z)
    return SolutionProfile(vb[0], vb[1], None, ws.grid, vg)


def solve_psi(q: Potential, z: float, grid: Grid | Workspace | None = None) -> SolutionProfile:
    """The square-integrable solution and its z-derivative.

    psi solves the backward Volterra equation whose seed is sqrt(pi)
    Ai(x - z) beyond x_max: it meets that in value and slope at x_max.
    Its z-derivative solves (H_q - z) psi_dot = psi with the z-derivative
    of those data, by the Airy equation -sqrt(pi) Ai'(x_max - z) and
    -(x_max - z) sqrt(pi) Ai(x_max - z). ``grid`` is a Grid, None for the
    default grid, or a Workspace on the grid to use, which serves z as
    :func:`workspace` says.
    """
    ws = workspace(q, z, grid)
    x_max = ws.grid.x_max
    ai, aip = _airy_step(ws.boundary[0, -1], ws.boundary[1, -1], x_max - ws.z, ws.z - z)
    psi = _solve(ws, z, ws.match(-1, ai, aip), "back")
    _, u_b = solve_source(ws, z, psi.gauss_values, ws.match(-1, -aip, -(x_max - z) * ai))
    psi.z_derivs = u_b[0]
    return psi


def solve_theta(q: Potential, z: float, grid: Grid | Workspace | None = None) -> SolutionProfile:
    """The forward-normalized growing solution, with the Cauchy data of
    sqrt(pi) Bi(x - z) at 0; ``grid`` as for :func:`solve_psi`."""
    ws = workspace(q, z, grid)
    bi, bip = _airy_step(ws.boundary[2, 0], ws.boundary[3, 0], -ws.z, ws.z - z)
    return _solve(ws, z, ws.match(0, bi, bip), "fwd")


def solve_sc(q: Potential, z: float, grid: Grid | Workspace | None = None):
    """The fundamental pair normalized at 0, s(z,0) = 0, s'(z,0) = 1,
    c(z,0) = 1, c'(z,0) = 0; ``grid`` as for :func:`solve_psi`."""
    ws = workspace(q, z, grid)
    return (_solve(ws, z, ws.match(0, 0.0, 1.0), "fwd"),
            _solve(ws, z, ws.match(0, 1.0, 0.0), "fwd"))


def solve_source(ws: Workspace, z: float, g, coef):
    """Gauss values and boundary value and x-derivative rows of the
    solution at z on ``ws`` of -u'' + (x + q - z) u = g, g at the Gauss
    nodes, with the Cauchy data of a psi0 + b theta0 at x_max, ``coef =
    (a, b)``: one backward Picard solve seeded by a psi0 + b theta0 +
    int_x^{x_max} J0 g. g must decay like psi, since J0 weighs it by the
    growing theta0: with g = exp(-x), Green's identity
    psi(0) u'(0) - psi'(0) u(0) = int psi g held only to 2.8e-8.
    """
    lin_g, lin_b = ws.combo(*coef)
    k_g, k_b = ws.kernel(*ws.integrals(ws.basis * g, "back"))
    (u_g, u_b), _ = ws.picard((lin_g + k_g, lin_b + k_b), "back", z)
    return u_g, u_b
