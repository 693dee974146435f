"""Admissible perturbations q, their derivatives, and the index-decay rate.

A Potential carries vectorized callables for q and q' plus the weight
exponent r > 1. Membership in the weighted space (q and q' square
integrable against (1+x)^r dx, q absolutely continuous) is enforced at
construction per family.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "Potential",
    "make_potential",
    "exp_decay",
    "alg_decay",
    "bump",
    "tabulated",
    "blend",
    "omega_r",
]

#: family -> its parameter names, the only entries its params may hold
_FAMILY_PARAMS = {"exp": ("c", "a"), "alg": ("c", "p"), "bump": ("c", "x0", "w"),
                  "table": ("x", "y")}


@dataclass(frozen=True)
class Potential:
    """A perturbation q with closed-form derivative, sup norm and kinks."""

    family: str
    params: dict
    r: float
    q: Callable = field(repr=False, compare=False)
    q_prime: Callable = field(repr=False, compare=False)
    sup_norm: float = 0.0
    #: panel ends of every default grid: interior points where q or |q|
    #: loses smoothness, and for a bump its centre and points graded toward
    #: the ends of its support
    kinks: tuple = ()


def exp_decay(c: float, a: float, r: float = 2.0) -> Potential:
    return make_potential({"family": "exp", "params": {"c": c, "a": a}, "r": r})


def alg_decay(c: float, p: float, r: float = 2.0) -> Potential:
    return make_potential({"family": "alg", "params": {"c": c, "p": p}, "r": r})


def bump(c: float, x0: float, w: float, r: float = 2.0) -> Potential:
    return make_potential({"family": "bump", "params": {"c": c, "x0": x0, "w": w}, "r": r})


def tabulated(x, y, r: float = 2.0) -> Potential:
    return make_potential({"family": "table", "params": {"x": list(x), "y": list(y)}, "r": r})


def _number(mapping: dict, key: str, label: str) -> float:
    """mapping[key] as a float; ValidationError naming ``label`` unless it is
    a finite real number (a bool or a numeric string is not)."""
    try:
        val = mapping[key]
    except KeyError:
        raise ValidationError(f"{label} is missing") from None
    if isinstance(val, bool) or not isinstance(val, numbers.Real) or not math.isfinite(val):
        raise ValidationError(f"{label} must be a finite number, got {val!r}")
    return float(val)


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
        return Potential(family, dict(params), r, q, qp, abs(c))

    if family == "alg":
        c, p = param("c"), param("p")
        if not p > (r + 1.0) / 2.0:
            raise ValidationError(
                f"alg family needs p > (r+1)/2 = {(r + 1) / 2:g} for a finite "
                f"weighted norm, got p={p!r}")
        q = lambda x: c * (1.0 + np.asarray(x, dtype=float)) ** (-p)
        qp = lambda x: -c * p * (1.0 + np.asarray(x, dtype=float)) ** (-p - 1.0)
        return Potential(family, dict(params), r, q, qp, abs(c))

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

        def qp(x, x0=x0, w=w):
            t = (np.asarray(x, dtype=float) - x0) / w
            m = np.abs(t) < 1.0
            out = q(x)
            out[m] = out[m] * (-2.0 * t[m] / (1.0 - t[m] ** 2) ** 2) / w
            return out

        # q is flat to all orders at x0 -+ w, not analytic: panels shrink
        # toward them, the support ends x0 -+ w among the kinks
        fracs = (1.0,) + tuple(1.0 - 2.0 ** -j for j in range(6))
        ends = {x0 + s * w * f for s in (-1.0, 1.0) for f in fracs}
        kinks = tuple(sorted(k for k in ends if k > 0))
        return Potential(family, dict(params), r, q, qp, abs(c), kinks)

    try:
        xs, ys = np.asarray(params["x"]), np.asarray(params["y"])
    except KeyError as exc:
        raise ValidationError(f"potential.params.{exc.args[0]} is missing") from None
    except (TypeError, ValueError):
        raise ValidationError("table family needs numeric x/y arrays") from None
    if xs.dtype.kind not in "iuf" or ys.dtype.kind not in "iuf":
        raise ValidationError("table family needs numeric x/y arrays")
    xs, ys = xs.astype(float), ys.astype(float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValidationError("table.x and table.y must be finite")
    if xs.ndim != 1 or xs.size < 4 or xs.size != ys.size:
        raise ValidationError("table family needs matching x/y arrays, >= 4 samples")
    if np.any(np.diff(xs) <= 0):
        raise ValidationError("table.x must be strictly increasing")
    if xs[0] != 0.0:
        raise ValidationError("table.x must start at 0")
    peak = float(np.max(np.abs(ys)))
    if abs(ys[-1]) > 1e-12 * peak:
        raise ValidationError("table.y must decay to 0 at the last node")
    # imported for table potentials only: scipy.interpolate, with the
    # scipy.optimize it loads, is about 0.3 s of every other campaign's set-up
    from scipy.interpolate import CubicSpline, PPoly

    spline = CubicSpline(xs, ys, bc_type="natural", extrapolate=False)
    dspline = spline.derivative()
    # NaN marks x outside [0, xs[-1]]; the table has decayed to 0 at its last knot
    q = lambda x: np.nan_to_num(spline(x), nan=0.0)
    qp = lambda x: np.nan_to_num(dspline(x), nan=0.0)
    # the spline overshoots its knots; its extremes lie at the roots of q', found
    # on q' rescaled exactly by a power of 2, lest a tiny or huge q' lose them
    crit = PPoly(np.ldexp(dspline.c, -np.frexp(peak)[1]), xs).roots(extrapolate=False)
    sup = np.max(np.abs(q(crit)), initial=peak)
    return Potential(family, dict(params), r, q, qp, float(sup), tuple(xs[1:]))


def blend(q: Potential, v: Potential, t: float) -> Potential:
    """The potential q + t*v (plumbing for gradient probes)."""
    fq, fqp, gq, gqp = q.q, q.q_prime, v.q, v.q_prime
    qq = lambda x: fq(x) + t * gq(x)
    qqp = lambda x: fqp(x) + t * gqp(x)
    return Potential("blend", {"base": q.family, "dir": v.family, "t": t},
                     min(q.r, v.r), qq, qqp, q.sup_norm + abs(t) * v.sup_norm,
                     tuple(sorted(set(q.kinks) | set(v.kinks))))


def omega_r(r: float, n: int) -> float:
    """The index-decay rate: n^(-1/3) for r >= 2, with a sqrt-log factor below."""
    if not r > 1.0:
        raise DomainError("omega_r: r must be > 1")
    if n < 1:
        raise DomainError("omega_r: n must be >= 1")
    if r >= 2.0:
        return float(n) ** (-1.0 / 3.0)
    return float(n) ** (-1.0 / 3.0) * math.sqrt(math.log(n))
