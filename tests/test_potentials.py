import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy import integrate

import starkspec as ss
from starkspec.errors import DomainError, ValidationError
from references import norms, omega, scaled


def test_exp_family_valid():
    q = ss.exp_decay(1.0, 1.0, r=2.0)
    assert q.family == "exp"
    assert q.q(0.0) == pytest.approx(1.0)
    assert q.q_prime(0.0) == pytest.approx(-1.0)


def test_alg_family_rejects_non_integrable():
    with pytest.raises(ValidationError):
        ss.alg_decay(1.0, 1.0, r=2.0)  # needs p > 1.5


def test_r_at_most_one_rejected():
    with pytest.raises(ValidationError):
        ss.make_potential({"family": "exp", "params": {"c": 1, "a": 1}, "r": 1.0})


@pytest.mark.parametrize("spec, field", [
    ({"family": "exp", "params": {"a": 1}, "r": 2}, "params.c"),
    ({"family": "exp", "params": {"c": "x", "a": 1}, "r": 2}, "params.c"),
    ({"family": "exp", "params": {"c": math.nan, "a": 1}, "r": 2}, "params.c"),
    ({"family": "bump", "params": {"c": 1, "x0": math.inf, "w": 1}, "r": 2}, "params.x0"),
    ({"family": "exp", "params": {"c": 1, "a": 1}, "r": math.inf}, "potential.r"),
    ({"family": "exp", "params": {"c": 1, "a": 1}, "r": "two"}, "potential.r"),
    ({"family": "exp", "params": 3, "r": 2}, "potential.params"),
    ({"family": "table", "params": {"x": [0, 1, 2, 3], "y": [1, math.nan, 0, 0]},
      "r": 2}, "table"),
    ({"family": "table", "params": {"y": [1, 0.5, 0, 0]}, "r": 2}, "params.x"),
    ({"family": "exp", "params": {"c": 0.3, "a": 1.0}, "r": 2.0, "kinks": [1.0]}, "kinks"),
    ({"family": "exp", "params": {"c": 0.3, "a": 1.0, "p": 2.0}, "r": 2.0},
     "params: unknown entry 'p'"),
    ({"family": "exp", "params": {"c": "0.3", "a": 1}, "r": 2}, "params.c"),
    ({"family": "exp", "params": {"c": True, "a": 1}, "r": 2}, "params.c"),
    ({"family": "table", "params": {"x": ["0", "1", "2", "3"], "y": [1, 0.5, 0, 0]},
      "r": 2}, "table"),
    ({"family": "table", "params": {"x": [0, 1, 2, 3], "y": [True, False, False, False]},
      "r": 2}, "table"),
    (3, "descriptor must be a mapping"),
    ({"params": {"c": 1, "a": 1}, "r": 2}, "missing field 'family'"),
    ({"family": "gauss", "params": {"c": 1, "a": 1}, "r": 2}, "unknown potential family"),
    ({"family": "exp", "params": {"c": 1, "a": 0}, "r": 2}, "a > 0"),
    ({"family": "bump", "params": {"c": 1, "x0": 2, "w": 0}, "r": 2}, "w > 0"),
    ({"family": "table", "params": {"x": [0, 1, 2], "y": [1, 0.5, 0]}, "r": 2},
     ">= 4 samples"),
    ({"family": "table", "params": {"x": [0, 1, 2, 3], "y": [1, 0.5, 0]}, "r": 2},
     "matching x/y"),
    ({"family": "table", "params": {"x": [0, 2, 1, 3], "y": [1, 0.5, 0.2, 0]}, "r": 2},
     "strictly increasing"),
    ({"family": "table", "params": {"x": [[0, 1], [2, 3, 4]], "y": [1, 0.5, 0.2, 0]},
      "r": 2}, "numeric x/y"),
])
def test_malformed_parameters_rejected_by_name(spec, field):
    with pytest.raises(ValidationError, match=field):
        ss.make_potential(spec)


def test_numpy_numbers_are_parameters():
    q = ss.make_potential({"family": "bump", "params": {
        "c": np.float32(0.5), "x0": np.int64(2), "w": np.float64(1.0)}, "r": np.int32(2)})
    assert float(q.q(2.0)) == 0.5
    t = ss.tabulated(np.arange(4), np.array([1, 1, 1, 0]))
    assert np.array_equal(t.q(np.arange(4.0)), [1.0, 1.0, 1.0, 0.0])


def test_zero_bump_has_zero_norms():
    q = ss.bump(0.0, 2.0, 1.0)
    b = norms(q)
    assert b.ar_norm == b.afr_norm == b.l1_norm == b.l1_bar == 0.0


def test_table_validation():
    with pytest.raises(ValidationError):
        ss.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.2, 0.1])  # no decay to 0
    with pytest.raises(ValidationError):
        ss.tabulated([0.5, 1.0, 2.0, 3.0], [1.0, 0.5, 0.2, 0.0])  # must start at 0


def test_table_sup_norm_bounds_the_spline():
    # the natural spline through a flat-topped spike overshoots its knots,
    # to 1.1761 between the two samples of 1
    q = ss.tabulated([0, 1, 2, 3, 4, 5], [0, 1, 1, 0, 0, 0])
    assert q.sup_norm >= np.max(np.abs(q.q(np.linspace(0.0, 5.0, 100_001))))


@pytest.mark.parametrize("k", [-600, 990])
def test_table_sup_norm_is_scale_free(k):
    # scaling the samples by 2^k scales the spline, and its true maximum,
    # exactly; at these scales the quadratic formula for the roots of an
    # unscaled q' under- or overflows
    xs, ys = [0, 1, 2, 3], np.array([0.0, 0.0, 1.0, 0.0])
    assert ss.tabulated(xs, 2.0 ** k * ys).sup_norm == 2.0 ** k * ss.tabulated(xs, ys).sup_norm


def test_zero_table_has_zero_sup_norm():
    # q = 0 as a table: the Newton window is the roundoff slack alone, and
    # the first eigenvalue is the free one
    q = ss.tabulated([0, 1, 2, 3], [0, 0, 0, 0])
    assert q.sup_norm == 0.0
    assert ss.locate_eigenvalue(q, 1).lam == -ss.airy_zero(1)


def test_norms_exp_by_parts_oracle():
    # sympy closed form of the weighted square integral as the oracle
    x = sympy.Symbol("x", positive=True)
    exact = float(sympy.integrate(sympy.exp(-2 * x) * (1 + x) ** 2, (x, 0, sympy.oo)))
    assert exact == pytest.approx(1.25)
    q = ss.exp_decay(1.0, 1.0, r=2.0)
    b = norms(q)
    assert b.ar_norm**2 == pytest.approx(exact, rel=1e-8)
    assert b.l1_norm == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("key", ["exp+", "alg", "bump", "low_r"])
def test_norm_bundle_consistency(key):
    from conftest import POTENTIALS
    q = POTENTIALS[key]()
    b = norms(q)
    g = lambda t: q.q_prime(t) ** 2 * (1 + t) ** q.r
    qp2 = (integrate.quad(g, 0, 40.0,
                          points=sorted(k for k in q.kinks if k < 40) or None,
                          limit=400)[0]
           + integrate.quad(g, 40.0, np.inf, limit=400)[0])
    assert b.afr_norm**2 - b.ar_norm**2 == pytest.approx(qp2, rel=1e-6)
    # weighted-space inclusion bound
    assert b.l1_norm <= (q.r - 1) ** -0.5 * b.ar_norm + 1e-12


def test_tabulated_tracks_sampled_family():
    xs = np.linspace(0.0, 25.0, 400)
    ys = 0.3 * np.exp(-xs)
    ys[-1] = 0.0
    qt = ss.tabulated(xs, ys, r=2.0)
    qe = ss.exp_decay(0.3, 1.0, r=2.0)
    assert norms(qt).ar_norm == pytest.approx(norms(qe).ar_norm, rel=1e-4)
    # away from the ends; the natural end condition flattens q'' at x = 0
    x = np.linspace(0.5, 10, 57)
    assert np.max(np.abs(qt.q_prime(x) - qe.q_prime(x))) < 2e-4


def test_omega_zero_potential():
    q = ss.bump(0.0, 1.0, 0.5)
    assert omega(q, 3.0) == 0.0


def test_omega_narrow_bump_midpoint_oracle():
    q = ss.bump(1.0, 0.05, 0.05)
    mass = integrate.quad(q.q, 0.0, 0.1, limit=200)[0]
    assert omega(q, 100.0) == pytest.approx(mass / math.sqrt(101.0), rel=0.01)


def test_omega_decay_rate_bounded(q_exp):
    vals = [omega(q_exp, z) * (2.0 + abs(z)) ** 0.5 for z in np.arange(10.0, 101.0, 10.0)]
    b = norms(q_exp)
    assert max(vals) < 10.0 * b.ar_norm
    # and over a denser span, no growth trend
    more = [omega(q_exp, z) * (2.0 + abs(z)) ** 0.5 for z in (120.0, 160.0, 200.0)]
    assert max(more) <= max(vals) * 1.05


def test_omega_decay_low_r():
    q = ss.alg_decay(0.4, 1.5, r=1.5)
    vals = [omega(q, z) * ((2.0 + abs(z)) / math.log(2.0 + abs(z))) ** 0.5
            for z in np.arange(10.0, 201.0, 20.0)]
    assert max(vals) < 10.0 * norms(q).ar_norm


def test_omega_with_derivative_adds(q_exp):
    w = omega(q_exp, 5.0)
    wu = omega(q_exp, 5.0, with_derivative=True)
    # |q'| = |q| for unit-rate exponential decay
    assert wu == pytest.approx(2.0 * w, rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.floats(-4.0, 4.0).filter(lambda c: abs(c) > 1e-3))
def test_absolute_homogeneity(c):
    q = ss.exp_decay(0.5, 1.0, r=2.0)
    qc = scaled(q, c)
    assert norms(qc).ar_norm == pytest.approx(abs(c) * norms(q).ar_norm, rel=1e-9)
    assert omega(qc, 3.0) == pytest.approx(abs(c) * omega(q, 3.0), rel=1e-9)


def test_omega_r_values():
    assert ss.omega_r(2.0, 8) == pytest.approx(0.5)
    assert ss.omega_r(1.5, 1) == 0.0
    assert ss.omega_r(1.5, 1000) == pytest.approx(0.2628260885, abs=1e-9)
    with pytest.raises(DomainError):
        ss.omega_r(1.0, 3)
    with pytest.raises(DomainError, match="n must be >= 1"):
        ss.omega_r(2.0, 0)


def _centred_difference(f, x, h):
    # divided by the spacing of the points as rounded, not by 2h
    hi, lo = x + h, x - h
    return (f(hi) - f(lo)) / (hi - lo)


@settings(max_examples=40, deadline=None)
@given(st.floats(-16.0, 16.0), st.floats(-1.0, 5.0), st.floats(0.05, 3.0),
       st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=8))
def test_bump_slope_is_the_difference_quotient_of_its_values(c, x0, w, ts):
    q = ss.bump(c, x0, w)
    x = x0 + w * np.array(ts)
    # |q'''| < 600 |c| / w^3, so the truncation error 1e-10 w^2 |q'''| / 6
    # and the roundoff 1e-16 |c| / (1e-5 w) are both below a tenth of the
    # relative bound; a subnormal value of q is rounded to half the smallest
    # subnormal instead, so the bound adds 10x that spacing over 1e-5 w
    tiny = np.finfo(float).smallest_subnormal
    fd = _centred_difference(q.q, x, 1e-5 * w)
    assert np.all(np.abs(q.q_prime(x) - fd) <= 1e-7 * abs(c) / w + 10 * tiny / (1e-5 * w))
    outside = x0 + w * np.array([-3.0, -1.0, 1.0, 1.5])
    assert np.all(q.q(outside) == 0.0) and np.all(q.q_prime(outside) == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.1, 2.0), min_size=3, max_size=20).flatmap(
    lambda gaps: st.tuples(st.just(gaps), st.lists(st.floats(-5.0, 5.0),
                                                   min_size=len(gaps), max_size=len(gaps)))))
def test_table_interpolates_its_knots_and_vanishes_past_the_last(sample):
    gaps, heads = sample
    xs = np.concatenate(([0.0], np.cumsum(gaps)))
    ys = np.append(heads, 0.0)
    q = ss.tabulated(xs, ys)
    peak = max(1.0, float(np.max(np.abs(ys))))
    # each knot but the last starts a cubic piece whose constant term is its
    # sample; the last ends the last piece, where the cubic is 0 to roundoff
    assert np.array_equal(q.q(xs[:-1]), ys[:-1])
    assert abs(float(q.q(xs[-1]))) <= 1e-12 * peak * len(xs)
    # on a cubic the centred difference errs by h^2 |q'''| / 6, with
    # |q'''| below 100 peak / min(gaps)^3 on these spacings
    mid = 0.5 * (xs[1:] + xs[:-1])
    fd = _centred_difference(q.q, mid, 1e-6 * min(gaps))
    assert np.all(np.abs(q.q_prime(mid) - fd) <= 1e-7 * peak / min(gaps))
    past = np.nextafter(xs[-1], np.inf) + np.array([0.0, 0.5, 10.0, 1e6])
    assert np.all(q.q(past) == 0.0) and np.all(q.q_prime(past) == 0.0)
    # the spline's extremes at its critical points bound it, to roundoff
    x = np.linspace(0.0, xs[-1], 10_001)
    assert np.max(np.abs(q.q(x))) <= q.sup_norm * (1.0 + 1e-12)
