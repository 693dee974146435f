import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special

from starkspec import airy, airy_zero, envelope_margin, exp_decay, locate_eigenvalue, volterra
from starkspec.airy import ENVELOPE_W_MAX, NEWTON_MAX_ITER, newton, zero_seed
from starkspec.errors import BracketError, DomainError
from references import airy_eval, envelope


def maclaurin_airy(w, nterms=60):
    """Independent oracle: Taylor recurrence t[k+3] = t[k]/((k+3)(k+2))
    seeded with gamma-function values, summed at 50-digit precision."""
    mp.mp.dps = 50
    w = mp.mpf(w)
    c1 = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf(2) / 3)
    c2 = mp.mpf(3) ** mp.mpf("-1/3") / mp.gamma(mp.mpf(1) / 3)

    def series(t0, t1):
        ts = [mp.mpf(t0), mp.mpf(t1), mp.mpf(0)]
        for k in range(3 * nterms):
            ts.append(ts[k] / ((k + 3) * (k + 2)))
        val = sum(t * w ** k for k, t in enumerate(ts))
        dval = sum(k * t * w ** (k - 1) for k, t in enumerate(ts) if k >= 1)
        return val, dval

    f, fp = series(1, 0)
    g, gp = series(0, 1)
    return (float(c1 * f - c2 * g), float(c1 * fp - c2 * gp),
            float(mp.sqrt(3) * (c1 * f + c2 * g)),
            float(mp.sqrt(3) * (c1 * fp + c2 * gp)))


# frozen from the Maclaurin oracle above
AI0 = 0.35502805388781724
AIP0 = -0.25881940379280680
BI0 = 0.61492662744600074
BIP0 = 0.44828835735382636
A1 = -2.3381074104597670


def test_values_at_zero_match_series_oracle():
    v = airy_eval(0.0)
    assert_allclose((v.ai, v.ai_prime, v.bi, v.bi_prime),
                    (AI0, AIP0, BI0, BIP0), rtol=1e-13)
    assert_allclose(maclaurin_airy(0.0), (AI0, AIP0, BI0, BIP0), rtol=1e-15)


@pytest.mark.parametrize("w", [-4.2, -1.0, 0.6, 1.7, 3.9])
def test_values_match_series_oracle_nearby(w):
    v = airy_eval(w)
    ref = maclaurin_airy(w)
    assert_allclose((v.ai, v.ai_prime, v.bi, v.bi_prime), ref, rtol=1e-11)


def test_wronskian_identity_on_grid():
    w = np.arange(-20.0, 10.0, 0.037)
    ai, aip, bi, bip = special.airy(w)
    assert np.max(np.abs(math.pi * (ai * bip - aip * bi) - 1.0)) < 1e-10


def test_ode_residual_by_finite_differences():
    # fourth-order 5-point stencil keeps the fd truncation well under the budget
    h = 1e-3
    for w in np.linspace(-15.0, 15.0, 41):
        vals = [airy_eval(w + k * h) for k in (-2, -1, 0, 1, 2)]
        for f in ("ai", "bi"):
            y = [getattr(v, f) for v in vals]
            second = (-y[0] + 16 * y[1] - 30 * y[2] + 16 * y[3] - y[4]) / (12 * h**2)
            resid = abs(second - w * y[2])
            scale = max(abs(y[2]), abs(getattr(vals[2], f + "_prime")))
            assert resid <= 1e-8 * (1 + abs(w)) * scale


def test_scaled_representation_keeps_wronskian():
    v = airy_eval(150.0)
    assert v.scaled and v.log_scale == pytest.approx((2 / 3) * 150.0**1.5)
    # scale factors cancel in the cross products
    assert math.pi * (v.ai * v.bi_prime - v.ai_prime * v.bi) == pytest.approx(1.0, rel=1e-10)


def test_domain_errors():
    with pytest.raises(DomainError):
        airy_eval(float("nan"))
    with pytest.raises(DomainError):
        airy_eval(201.0)
    for n in (0, -3, True, 2.5, 3.0, "3", None):
        with pytest.raises(DomainError):
            airy_zero(n)
    with pytest.raises(DomainError):
        locate_eigenvalue(exp_decay(0.3, 1.0), 3.0)


def test_first_zero_seed_and_refinement():
    assert zero_seed(1) == pytest.approx(-2.3202507945, abs=1e-9)
    z = airy_zero(1)
    # independent bisection oracle on [-2.5, -2.2]
    lo, hi = -2.5, -2.2
    flo = special.airy(lo)[0]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = special.airy(mid)[0]
        if fm * flo > 0:
            lo, flo = mid, fm
        else:
            hi = mid
    assert z == pytest.approx(0.5 * (lo + hi), abs=1e-11)
    assert z == pytest.approx(A1, abs=1e-12)
    assert abs(special.airy(z)[0]) <= 1e-12


def test_zeros_decrease_and_residuals_small():
    zeros = [airy_zero(n) for n in range(1, 31)]
    for z in zeros:
        assert abs(special.airy(z)[0]) <= 1e-12
    assert all(zeros[i + 1] < zeros[i] for i in range(len(zeros) - 1))


def test_airy_zero_and_the_envelope_margin_read_only_the_stored_lattice(monkeypatch):
    # a_n for n <= 60 and the margin on [-30, 30) step from the chunks
    # stored with the package: no AMOS call, and the margin keeps the bits
    # it had when it called AMOS itself
    def amos(w):
        raise AssertionError("AMOS called")

    monkeypatch.setattr(volterra, "_lattice", volterra._stored_lattice())
    monkeypatch.setattr(volterra, "special", SimpleNamespace(airy=amos))
    for n in range(1, 61):
        assert abs(special.airy(airy_zero(n))[0]) <= 1e-12
    airy.standard_envelope_margin.cache_clear()
    try:
        assert airy.standard_envelope_margin() == 1.080854147839186
    finally:
        airy.standard_envelope_margin.cache_clear()


@pytest.mark.parametrize("n", [1, 60, 91, 134, 161, 166, 168, 1000, 2000, 19672])
def test_airy_zero_matches_mpmath(n):
    # at n = 19672 rounding keeps |Ai| near 1.25e-12 even at the correctly
    # rounded zero, so no residual test on Ai could stop there; n = 161,
    # 166 and 168 were the worst of 161..213, above 1e-15, while the
    # converged iterate was returned without its last Newton step
    mp.mp.dps = 30
    ref = mp.airyaizero(n)
    assert abs(airy_zero(n) - ref) <= 2.5e-16 * abs(ref)


def test_newton_reaches_sqrt2_within_one_ulp():
    root = newton(lambda x: (x * x - 2.0) / (2.0 * x), 1.0, (0.5, 2.0), "x")
    assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))


def test_newton_stops_on_roundoff():
    # steps that stall at 1e-12 never reach 1e-15 (1 + |x|); the second
    # one is not a quarter of the first, so it is roundoff
    calls = []

    def stalled(x):
        calls.append(x)
        return 1e-12

    assert newton(stalled, 1.0, (0.0, 2.0), "x") == 1.0 - 1e-12
    assert len(calls) == 2


def test_newton_leaving_the_window_raises():
    with pytest.raises(BracketError, match=r"to y = 1\.5 left the window \[0\.0, 1\.25\]"):
        newton(lambda x: -0.5, 1.0, (0.0, 1.25), "y")


def test_newton_that_does_not_converge_raises():
    # a Newton cycle between 1.0 and 0.9 never shrinks its step
    with pytest.raises(BracketError, match=f"did not converge in {NEWTON_MAX_ITER} steps"):
        newton(lambda x: 0.1 if x > 0.95 else -0.1, 1.0, (0.0, 2.0), "x")


def test_seed_accuracy_constant_is_stable():
    # |a_n - seed| * n^(4/3) stays in a narrow band (frozen from a 30-digit run)
    c = [abs(airy_zero(n) - zero_seed(n)) * n ** (4.0 / 3.0) for n in range(5, 51)]
    assert 0.012 < min(c) and max(c) < 0.016
    first, second = c[: len(c) // 2], c[len(c) // 2:]
    assert abs(np.mean(first) - np.mean(second)) < 0.3 * np.mean(c)


def test_envelope_special_points():
    e = envelope(-5.0)
    assert e.g_a == 1.0 and e.sigma == pytest.approx(1 + 5**0.25)
    e = envelope(0.0)
    assert e.g_a == 1.0 and e.sigma == 1.0
    e = envelope(4.0)
    assert e.g_a == pytest.approx(math.exp(-16.0 / 3.0), rel=1e-14)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_envelope_monotone_and_reciprocal(w1, w2):
    e1, e2 = envelope(w1), envelope(w2)
    assert e1.g_a * e1.g_b == pytest.approx(1.0, rel=1e-15)
    if w1 < w2:
        assert e1.g_a >= e2.g_a


def test_envelope_margin_point_and_grid():
    assert envelope_margin([0.0]) == pytest.approx(max(abs(AI0), abs(AIP0)))
    m = envelope_margin(np.arange(-30.0, 30.0, 0.01))
    # finite O(1) constant; the |Ai| sigma branch peaks near w = -1.12
    assert m == pytest.approx(1.0808541478, rel=1e-8)
    m_fine = envelope_margin(np.arange(-30.0, 30.0, 0.001))
    assert abs(m - m_fine) <= 0.01 * m


def test_envelope_margin_agrees_with_the_scaled_amos_values():
    # table values times exp((2/3) w^(3/2)) against airye, which scales
    # inside AMOS: AMOS's unscaled Ai and the rescaling each carry the
    # rounding of the exponent, 2/3 w^(3/2) ulps, about 1.5e-13 at w = 100
    w = np.concatenate([np.linspace(1e-9, ENVELOPE_W_MAX, 2001), [2.0 ** -7, 99.955]])
    sigma = 1.0 + w ** 0.25
    eai, eaip = special.airye(w)[:2]
    ref = np.maximum(np.abs(eai) * sigma, np.abs(eaip) / sigma)
    rel = np.abs(np.array([envelope_margin([x]) for x in w]) / ref - 1.0)
    assert rel[w <= 60.0].max() <= 1e-13 and rel.max() <= 2.5e-13


@pytest.mark.parametrize("grid", [[ENVELOPE_W_MAX + 0.01], [0.0, 150.0], [np.nan], []])
def test_envelope_margin_rejects_points_past_its_range(grid):
    # Bi is nan from w ~ 103.4 and Ai nears underflow
    with pytest.raises(DomainError, match="envelope_margin"):
        envelope_margin(grid)


def test_airy_norm_integral_identity():
    # int_{a_n}^inf Ai^2 = Ai'(a_n)^2, quadrature oracle
    for n in range(1, 11):
        a_n = airy_zero(n)
        val, _ = integrate.quad(lambda t: special.airy(t)[0] ** 2, a_n, 0,
                                limit=400, epsrel=1e-12, epsabs=1e-15)
        tail, _ = integrate.quad(lambda t: special.airy(t)[0] ** 2, 0, np.inf,
                                 limit=200, epsrel=1e-12, epsabs=1e-15)
        target = special.airy(a_n)[1] ** 2
        assert val + tail == pytest.approx(target, rel=1e-8)
