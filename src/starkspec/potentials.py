"""Admissible perturbations q, their derivatives, weighted norms, and omega.

A Potential carries vectorized callables for q and q' plus the weight
exponent r > 1. Membership in the weighted space (q and q' square
integrable against (1+x)^r dx, q absolutely continuous) is enforced at
construction per family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import DomainError, NumericError, ValidationError

__all__ = [
    "Potential",
    "NormBundle",
    "make_potential",
    "exp_decay",
    "alg_decay",
    "bump",
    "tabulated",
    "blend",
    "norms",
    "omega",
    "omega_r",
]

_QUAD_RTOL = 1e-10
_ENVELOPE_FLOOR = 1e-14
#: family -> its parameter names, the only entries its params may hold
_FAMILY_PARAMS = {"exp": ("c", "a"), "alg": ("c", "p"), "bump": ("c", "x0", "w"),
                  "table": ("x", "y")}


@dataclass(frozen=True)
class Potential:
    """A perturbation q with closed-form derivative and decay metadata."""

    family: str
    params: dict
    r: float
    q: Callable = field(repr=False, compare=False)
    q_prime: Callable = field(repr=False, compare=False)
    sup_norm: float = 0.0
    #: point beyond which |q| and |q'| stay below _ENVELOPE_FLOOR * peak
    decay_point: float = 0.0
    #: interior points where q or |q| loses smoothness: panel ends of every
    #: default grid and break points of the norm quadratures
    kinks: tuple = ()

    def __call__(self, x):
        return self.q(x)

    def scale(self, t: float) -> "Potential":
        """The potential t*q (callables scaled, decay metadata kept)."""
        return blend(self, None, 0.0, self_factor=t)


@dataclass(frozen=True)
class NormBundle:
    ar_norm: float
    afr_norm: float
    l1_norm: float
    l1_bar: float


def _vectorized_zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def exp_decay(c: float, a: float, r: float = 2.0) -> Potential:
    return make_potential({"family": "exp", "params": {"c": c, "a": a}, "r": r})


def alg_decay(c: float, p: float, r: float = 2.0) -> Potential:
    return make_potential({"family": "alg", "params": {"c": c, "p": p}, "r": r})


def bump(c: float, x0: float, w: float, r: float = 2.0) -> Potential:
    return make_potential({"family": "bump", "params": {"c": c, "x0": x0, "w": w}, "r": r})


def tabulated(x, y, r: float = 2.0) -> Potential:
    return make_potential({"family": "table", "params": {"x": list(x), "y": list(y)}, "r": r})


def _number(mapping: dict, key: str, label: str) -> float:
    """mapping[key] as a finite float; ValidationError naming ``label`` otherwise."""
    try:
        val = float(mapping[key])
    except KeyError:
        raise ValidationError(f"{label} is missing") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{label} must be a number, got {mapping[key]!r}") from None
    if not math.isfinite(val):
        raise ValidationError(f"{label} must be finite, got {val!r}")
    return val


def make_potential(spec: dict) -> Potential:
    """Build and validate a Potential from a descriptor.

    Descriptor schema: {"family": "exp"|"alg"|"bump"|"table",
    "params": {...}, "r": number}. Raises ValidationError naming the
    offending field, unknown fields and parameters included; every number
    must be finite.
    """
    if not isinstance(spec, dict):
        raise ValidationError("potential descriptor must be a mapping")
    try:
        family = spec["family"]
        params = spec["params"]
    except KeyError as exc:
        raise ValidationError(f"potential descriptor missing field {exc}") from exc
    for key in spec:
        if key not in ("family", "params", "r"):
            raise ValidationError(f"potential: unknown field {key!r}")
    if not isinstance(family, str) or family not in _FAMILY_PARAMS:
        raise ValidationError(f"unknown potential family {family!r}")
    if not isinstance(params, dict):
        raise ValidationError(f"potential.params must be a mapping, got {params!r}")
    for key in params:
        if key not in _FAMILY_PARAMS[family]:
            raise ValidationError(f"potential.params: unknown entry {key!r} "
                                  f"for the {family} family")
    r = _number(spec, "r", "potential.r")
    if not r > 1.0:
        raise ValidationError(f"potential.r must be > 1, got {r!r}")

    def param(key):
        return _number(params, key, f"potential.params.{key}")

    if family == "exp":
        c, a = param("c"), param("a")
        if a <= 0:
            raise ValidationError(f"exp family needs a > 0, got a={a!r}")
        q = lambda x: c * np.exp(-a * np.asarray(x, dtype=float))
        qp = lambda x: -a * c * np.exp(-a * np.asarray(x, dtype=float))
        decay = math.log(1.0 / _ENVELOPE_FLOOR) / a
        return Potential(family, dict(params), r, q, qp, abs(c), decay)

    if family == "alg":
        c, p = param("c"), param("p")
        if not p > (r + 1.0) / 2.0:
            raise ValidationError(
                f"alg family needs p > (r+1)/2 = {(r + 1) / 2:g} for a finite "
                f"weighted norm, got p={p!r}")
        q = lambda x: c * (1.0 + np.asarray(x, dtype=float)) ** (-p)
        qp = lambda x: -c * p * (1.0 + np.asarray(x, dtype=float)) ** (-p - 1.0)
        decay = _ENVELOPE_FLOOR ** (-1.0 / p) - 1.0
        return Potential(family, dict(params), r, q, qp, abs(c), decay)

    if family == "bump":
        c, x0, w = param("c"), param("x0"), param("w")
        if w <= 0:
            raise ValidationError(f"bump family needs w > 0, got w={w!r}")

        def q(x, c=c, x0=x0, w=w):
            x = np.asarray(x, dtype=float)
            t = (x - x0) / w
            out = np.zeros_like(t)
            m = np.abs(t) < 1.0
            out[m] = c * np.exp(1.0 - 1.0 / (1.0 - t[m] ** 2))
            return out

        def qp(x, c=c, x0=x0, w=w):
            x = np.asarray(x, dtype=float)
            t = (x - x0) / w
            out = np.zeros_like(t)
            m = np.abs(t) < 1.0
            tm = t[m]
            out[m] = (c * np.exp(1.0 - 1.0 / (1.0 - tm ** 2))
                      * (-2.0 * tm / (1.0 - tm ** 2) ** 2) / w)
            return out

        kinks = tuple(k for k in (x0 - w, x0, x0 + w) if k > 0)
        return Potential(family, dict(params), r, q, qp, abs(c), max(x0 + w, 0.0), kinks)

    try:
        xs = np.asarray(params["x"], dtype=float)
        ys = np.asarray(params["y"], dtype=float)
    except KeyError as exc:
        raise ValidationError(f"potential.params.{exc.args[0]} is missing") from None
    except (TypeError, ValueError):
        raise ValidationError("table family needs numeric x/y arrays") from None
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValidationError("table.x and table.y must be finite")
    if xs.ndim != 1 or xs.size < 4 or xs.size != ys.size:
        raise ValidationError("table family needs matching x/y arrays, >= 4 samples")
    if np.any(np.diff(xs) <= 0):
        raise ValidationError("table.x must be strictly increasing")
    if xs[0] != 0.0:
        raise ValidationError("table.x must start at 0")
    peak = float(np.max(np.abs(ys))) or 1.0
    if abs(ys[-1]) > 1e-12 * peak:
        raise ValidationError("table.y must decay to 0 at the last node")
    spline = CubicSpline(xs, ys, bc_type="natural")
    dspline = spline.derivative()
    last = float(xs[-1])

    def q(x, spline=spline, last=last):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = x <= last
        out[m] = spline(x[m])
        return out

    def qp(x, dspline=dspline, last=last):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = x <= last
        out[m] = dspline(x[m])
        return out

    return Potential(family, dict(params), r, q, qp, peak, last, tuple(xs[1:]))


def blend(q: Potential, v: Potential | None, t: float, self_factor: float = 1.0) -> Potential:
    """The potential self_factor*q + t*v (plumbing for scalings and gradient probes)."""
    if v is None:
        fq, fqp = q.q, q.q_prime
        qq = lambda x: self_factor * fq(x)
        qqp = lambda x: self_factor * fqp(x)
        return Potential("blend", {"base": q.family, "factor": self_factor},
                         q.r, qq, qqp, abs(self_factor) * q.sup_norm,
                         q.decay_point, q.kinks)
    fq, fqp, gq, gqp = q.q, q.q_prime, v.q, v.q_prime
    qq = lambda x: self_factor * fq(x) + t * gq(x)
    qqp = lambda x: self_factor * fqp(x) + t * gqp(x)
    return Potential("blend", {"base": q.family, "dir": v.family, "t": t},
                     min(q.r, v.r), qq, qqp,
                     abs(self_factor) * q.sup_norm + abs(t) * v.sup_norm,
                     max(q.decay_point, v.decay_point),
                     tuple(sorted(set(q.kinks) | set(v.kinks))))


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


def norms(q: Potential) -> NormBundle:
    """All four weighted norms by adaptive quadrature."""
    r = q.r
    split = max(10.0, min(q.decay_point, 50.0))
    kinks = q.kinks
    ar2 = _quad_semi(lambda x: q.q(x) ** 2 * (1.0 + x) ** r, kinks, split)
    ap2 = _quad_semi(lambda x: q.q_prime(x) ** 2 * (1.0 + x) ** r, kinks, split)
    l1 = _quad_semi(lambda x: abs(q.q(x)), kinks, split)
    l1p = _quad_semi(lambda x: abs(q.q_prime(x)), kinks, split)
    return NormBundle(math.sqrt(ar2), math.sqrt(ar2 + ap2), l1, l1 + l1p)


def omega(q: Potential, z: float, with_derivative: bool = False) -> float:
    """The decay modulus: integral of |q(x)| / sqrt(1 + |x - z|).

    With ``with_derivative`` the same integral of |q'| is added (the
    underlined variant used for the z-derivative estimates).
    """
    if not math.isfinite(z):
        raise DomainError("omega: z must be finite")
    split = max(10.0, min(q.decay_point, 50.0), z + 1.0)
    kinks = tuple(q.kinks) + ((z,) if z > 0 else ())

    def kernel(f):
        return _quad_semi(lambda x: abs(f(x)) / np.sqrt(1.0 + np.abs(x - z)),
                          kinks, split)

    val = kernel(q.q)
    if with_derivative:
        val += kernel(q.q_prime)
    return val


def omega_r(r: float, n: int) -> float:
    """The index-decay rate: n^(-1/3) for r >= 2, with a sqrt-log factor below."""
    if not r > 1.0:
        raise DomainError("omega_r: r must be > 1")
    if n < 1:
        raise DomainError("omega_r: n must be >= 1")
    if r >= 2.0:
        return float(n) ** (-1.0 / 3.0)
    return float(n) ** (-1.0 / 3.0) * math.sqrt(math.log(n))
