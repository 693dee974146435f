"""Independent references for the tests: scalar Airy values and their
envelope, the unperturbed basis and its Green kernel, the weighted norms
and omega of a potential, the potential scaled by a constant, and the
oracle's eigenpairs by LAPACK's full-precision path.

They stay independent of the solver on purpose. Each value comes from one
scipy.special (AMOS) call at one point, and each integral from adaptive
QUADPACK quadrature, so none shares the solver's Airy tables (Taylor steps
from a lattice) or its Gauss panel grids: a fault in either shows up as a
disagreement with these, not as two copies of the same error. The oracle
reference shares only the discrete operator with the oracle; its
eigenvalues and eigenvectors come from another LAPACK path.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special
from scipy.linalg import eigh_tridiagonal

from starkspec.errors import DomainError, NumericError
from starkspec.oracle import build_operator

_SQRT_PI = math.sqrt(math.pi)
#: beyond this the plain Bi overflows / Ai underflows; switch to the scaled form
_SCALE_CUTOFF = 100.0
#: hard domain limit
_W_MAX = 200.0
_QUAD_RTOL = 1e-10


# -- scalar Airy functions and their envelope ---------------------------------

@dataclass(frozen=True)
class AiryValues:
    """Pointwise Ai, Bi and derivatives.

    When ``scaled`` is True the stored numbers satisfy
    ``Ai = ai * exp(-log_scale)`` and ``Bi = bi * exp(+log_scale)``
    (same for the derivatives) with ``log_scale = (2/3) w**1.5``.
    """

    w: float
    ai: float
    ai_prime: float
    bi: float
    bi_prime: float
    scaled: bool = False
    log_scale: float = 0.0


@dataclass(frozen=True)
class Envelope:
    """Envelope triple at w: sigma = 1 + |w|^(1/4), g_a decaying, g_b = 1/g_a."""

    w: float
    sigma: float
    g_a: float
    g_b: float


def airy_eval(w: float) -> AiryValues:
    """Evaluate Ai, Ai', Bi, Bi' at a real argument.

    Accurate to ~1e-14 relative away from zeros of the functions. For
    w > 100 a scaled representation is returned (``scaled`` flag set)
    because Bi overflows the double range there.
    """
    w = float(w)
    if math.isnan(w):
        raise DomainError("airy_eval: argument is NaN")
    if abs(w) > _W_MAX:
        raise DomainError(f"airy_eval: |w| = {abs(w):g} exceeds supported range {_W_MAX:g}")
    if w > _SCALE_CUTOFF:
        eai, eaip, ebi, ebip = special.airye(w)
        t = (2.0 / 3.0) * w ** 1.5
        return AiryValues(w, float(eai), float(eaip), float(ebi), float(ebip),
                          scaled=True, log_scale=t)
    ai, aip, bi, bip = special.airy(w)
    return AiryValues(w, float(ai), float(aip), float(bi), float(bip))


def envelope(w: float) -> Envelope:
    """sigma, g_A, g_B at real w; Re w^(3/2) = 0 on the negative axis."""
    w = float(w)
    if math.isnan(w):
        raise DomainError("envelope: argument is NaN")
    sigma = 1.0 + abs(w) ** 0.25
    if w <= 0.0:
        g_a = 1.0
    else:
        g_a = math.exp(-(2.0 / 3.0) * w ** 1.5)
    return Envelope(w, sigma, g_a, 1.0 / g_a)


# -- unperturbed solutions of -f'' + x f = z f and their Green kernel ---------

@dataclass(frozen=True)
class BasisValues:
    z: float
    x: float
    psi0: float
    psi0_prime: float
    theta0: float
    theta0_prime: float
    s0: float
    s0_prime: float
    c0: float
    c0_prime: float
    s0_dot: float


def basis_eval(z: float, x: float) -> BasisValues:
    """All unperturbed solution values at (z, x), x >= 0.

    psi0 decays and theta0 grows past the turning point x = z; s0 and c0
    are the fundamental pair normalized at x = 0. Normalization:
    W(psi0, theta0) = 1. The s0_dot field uses the identity
    s0_dot = c0 - s0_prime.
    """
    at_x = airy_eval(x - z)
    at_0 = airy_eval(-z)
    if at_x.scaled or at_0.scaled:
        raise NumericError(
            f"basis_eval: Airy overflow at w = {x - z:g} (x = {x:g}, z = {z:g}); "
            "the unperturbed basis is only tabulated in the unscaled range")
    psi0 = _SQRT_PI * at_x.ai
    psi0p = _SQRT_PI * at_x.ai_prime
    theta0 = _SQRT_PI * at_x.bi
    theta0p = _SQRT_PI * at_x.bi_prime
    p0 = _SQRT_PI * at_0.ai
    pp0 = _SQRT_PI * at_0.ai_prime
    t0 = _SQRT_PI * at_0.bi
    tp0 = _SQRT_PI * at_0.bi_prime
    s0 = -t0 * psi0 + p0 * theta0
    s0p = -t0 * psi0p + p0 * theta0p
    c0 = tp0 * psi0 - pp0 * theta0
    c0p = tp0 * psi0p - pp0 * theta0p
    return BasisValues(z, x, psi0, psi0p, theta0, theta0p,
                       s0, s0p, c0, c0p, s0_dot=c0 - s0p)


def _scaled_airy(w: float):
    """(ai, bi, t) with Ai = ai e^-t, Bi = bi e^t; t = 0 on the left axis."""
    if w > _SCALE_CUTOFF:
        eai, _, ebi, _ = special.airye(w)
        return float(eai), float(ebi), (2.0 / 3.0) * w ** 1.5
    ai, _, bi, _ = special.airy(w)
    return float(ai), float(bi), 0.0


def green0(z: float, x: float, y: float) -> float:
    """Initial-value Green kernel J0(z, x, y); antisymmetric in (x, y).

    Computed from the decaying/growing pair with the exponents of the two
    cross products summed before exponentiation, so the kernel stays
    finite whenever the result is representable even where Bi alone
    overflows.
    """
    if any(map(math.isnan, (z, x, y))):
        raise NumericError("green0: NaN argument")
    ax, bx, tx = _scaled_airy(x - z)
    ay, by, ty = _scaled_airy(y - z)
    # J0 = pi * (Bi(x-z) Ai(y-z) - Ai(x-z) Bi(y-z))
    e1 = tx - ty
    e2 = ty - tx
    if max(e1, e2) > 700.0:
        raise NumericError(
            f"green0: kernel overflows double range at x-z={x - z:g}, y-z={y - z:g}")
    return math.pi * (bx * ay * math.exp(e1) - ax * by * math.exp(e2))


# -- weighted norms and omega of a potential ---------------------------------

@dataclass(frozen=True)
class NormBundle:
    ar_norm: float
    afr_norm: float
    l1_norm: float
    l1_bar: float


def _quad_semi(f, kinks=(), split: float = 10.0) -> float:
    """Adaptive quadrature of f over [0, inf) with interior break hints.

    Many break points (spline knots) are handled by chunking so every
    QUADPACK call integrates an analytic piece and its error estimate is
    trustworthy; the achieved error is then checked against the norm
    tolerance directly.
    """
    pts = sorted(p for p in kinks if 0.0 < p < split)
    if len(pts) <= 30:
        bounds = [0.0, split]
    else:
        bounds = [0.0] + pts[29::30] + [split]
    val = err = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b <= a:
            continue
        inner = [p for p in pts if a < p < b]
        out = integrate.quad(f, a, b, points=inner or None, limit=400,
                             epsabs=1e-14, epsrel=_QUAD_RTOL, full_output=1)
        val += out[0]
        err += out[1]
    tail = integrate.quad(f, split, np.inf, limit=400,
                          epsabs=1e-14, epsrel=_QUAD_RTOL, full_output=1)
    val += tail[0]
    err += tail[1]
    if not math.isfinite(val) or err > max(1e-8 * abs(val), 1e-12):
        raise NumericError(
            f"semi-infinite quadrature did not converge (err {err:.2e})")
    return val


def norms(q) -> NormBundle:
    """All four weighted norms of a Potential by adaptive quadrature."""
    r = q.r
    split = 50.0
    kinks = q.kinks
    ar2 = _quad_semi(lambda x: q.q(x) ** 2 * (1.0 + x) ** r, kinks, split)
    ap2 = _quad_semi(lambda x: q.q_prime(x) ** 2 * (1.0 + x) ** r, kinks, split)
    l1 = _quad_semi(lambda x: abs(q.q(x)), kinks, split)
    l1p = _quad_semi(lambda x: abs(q.q_prime(x)), kinks, split)
    return NormBundle(math.sqrt(ar2), math.sqrt(ar2 + ap2), l1, l1 + l1p)


def omega(q, z: float, with_derivative: bool = False) -> float:
    """The decay modulus: integral of |q(x)| / sqrt(1 + |x - z|).

    With ``with_derivative`` the same integral of |q'| is added (the
    underlined variant used for the z-derivative estimates).
    """
    if not math.isfinite(z):
        raise DomainError("omega: z must be finite")
    split = max(50.0, z + 1.0)
    kinks = tuple(q.kinks) + ((z,) if z > 0 else ())

    def kernel(f):
        return _quad_semi(lambda x: abs(f(x)) / np.sqrt(1.0 + np.abs(x - z)),
                          kinks, split)

    val = kernel(q.q)
    if with_derivative:
        val += kernel(q.q_prime)
    return val


def scaled(q, t: float):
    """The potential t q: its callables scaled, its decay metadata kept."""
    fq, fqp = q.q, q.q_prime
    return dataclasses.replace(q, q=lambda x: t * fq(x), q_prime=lambda x: t * fqp(x),
                               sup_norm=abs(t) * q.sup_norm)


# -- the oracle at full precision ---------------------------------------------

def oracle_spectrum_full(q, L: float, h: float, count: int) -> np.ndarray:
    """starkspec.oracle_spectrum by full-precision LAPACK: the eigenvalues
    by Sturm bisection (stebz), the eigenvectors by inverse iteration
    (stein), and kappa from those vectors' five-point slope at 0."""
    op = build_operator(q, L, h)
    w, v = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, count - 1))
    v = v / np.sqrt(h * np.sum(v ** 2, axis=0))
    dpsi0 = (48.0 * v[0] - 36.0 * v[1] + 16.0 * v[2] - 3.0 * v[3]) / (12.0 * h)
    return np.stack((w, np.log(dpsi0 ** 2)))
