import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import special

import starkspec as ss
from conftest import POTENTIALS, asym_report
from references import scaled
from starkspec.asymptotics import MIN_FIT_POINTS
from starkspec.errors import InsufficientDataError
from starkspec.volterra import workspace


def predictions(q, n):
    """Both first-order predictions, on the default grid's Workspace at -a_n."""
    ws = workspace(q, -ss.airy_zero(n))
    return ss.lambda_prediction(ws), ss.kappa_prediction(ws)


def composite_gl_pairing(q, n, kernel, points_per_unit=20, order=12):
    """Independent quadrature oracle: dense composite Gauss-Legendre with
    panel edges at the kinks of q."""
    a_n = ss.airy_zero(n)
    turn = -a_n
    edges = np.linspace(0.0, turn, max(2, int(turn * points_per_unit)))
    edges = np.concatenate([edges, turn + np.linspace(0, 30.0, 160)[1:]])
    edges = np.union1d(edges, [k for k in q.kinks if 0.0 < k < edges[-1]])
    gn, gw = leggauss(order)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    x = (mid[:, None] + half[:, None] * gn[None, :]).ravel()
    w = (half[:, None] * gw[None, :]).ravel()
    ai, aip, _, _ = special.airy(x + a_n)
    return float(np.sum(w * kernel(ai, aip) * q.q(x)))


def test_lambda_prediction_free_is_exact(q_zero):
    for n in (1, 7, 23):
        assert predictions(q_zero, n)[0] == pytest.approx(
            -ss.airy_zero(n), rel=1e-14)


def test_kappa_prediction_free_is_zero(q_zero):
    assert predictions(q_zero, 5)[1] == 0.0


def test_prediction_correction_is_linear_in_q(q_exp):
    n = 4
    a_n = ss.airy_zero(n)
    base = predictions(q_exp, n)[0] + a_n
    for c in (0.5, -2.0):
        scaled_pred = predictions(scaled(q_exp, c), n)[0] + a_n
        assert scaled_pred == pytest.approx(c * base, rel=1e-12)


# the bump and the spline are not analytic at their kinks, where the
# grids end panels
@pytest.mark.parametrize("key, n, tol", [
    pytest.param("exp+", 1, {"rel": 1e-8}, id="1"),
    pytest.param("exp+", 40, {"rel": 1e-8}, id="40"),
    *(pytest.param("bump", n, {"abs": 1e-9}, id=f"bump-{n}") for n in (1, 4, 15)),
    *(pytest.param("table30", n, {"rel": 1e-11}, id=f"table30-{n}") for n in (1, 9, 15)),
])
def test_prediction_quadratures_vs_gl_oracle(key, n, tol):
    q = POTENTIALS[key]()
    a_n = ss.airy_zero(n)
    lam_pair = composite_gl_pairing(q, n, lambda ai, aip: ai * ai)
    kap_pair = composite_gl_pairing(q, n, lambda ai, aip: ai * aip)
    lam_pred, kappa_pred = predictions(q, n)
    assert lam_pred == pytest.approx(
        -a_n + math.pi * lam_pair / math.sqrt(-a_n), **tol)
    assert kappa_pred == pytest.approx(
        -2.0 * math.pi * kap_pair / math.sqrt(-a_n), **tol)


def test_kappa_prediction_by_parts_identity(q_exp):
    # 2 int Ai Ai' q = -int Ai^2 q' when Ai(a_n) = 0 kills the boundary term
    n = 6
    a_n = ss.airy_zero(n)
    direct = composite_gl_pairing(q_exp, n, lambda ai, aip: ai * aip)
    qprime = ss.make_potential(
        {"family": "exp", "params": {"c": -0.3, "a": 1.0}, "r": 2.0})
    reduced = composite_gl_pairing(qprime, n, lambda ai, aip: ai * ai)
    assert 2.0 * direct == pytest.approx(-reduced, rel=1e-8)


def test_kappa_prediction_sign_for_decreasing_positive_q(q_exp):
    # q >= 0 with q' <= 0 forces a definite sign on the reduced integrand
    for n in (1, 5, 17):
        assert predictions(q_exp, n)[1] < 0.0


def test_decay_fit_exact_power_law():
    ns = np.arange(2, 41)
    slope, half = ss.decay_rate_fit(1.0 / ns, ns, 1e-12)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert half <= 1e-12


def test_decay_fit_with_oscillation():
    ns = np.arange(2, 41)
    resid = (1.0 / ns) * (1.0 + 0.1 * (-1.0) ** ns)
    slope, half = ss.decay_rate_fit(resid, ns, 1e-12)
    assert -1.1 <= slope <= -0.9


def test_decay_fit_noise_floor_errors():
    ns = np.arange(2, 41)
    with pytest.raises(InsufficientDataError):
        ss.decay_rate_fit(np.full(ns.shape, 1e-12), ns, 1e-9)
    with pytest.raises(InsufficientDataError):
        ss.decay_rate_fit([1.0, 0.5, 0.3], [2, 3, 4], 1e-12)


def test_second_order_remainder_scaling(records_cache):
    # remainders for c*q scale like c^2: halving c quarters them (within 20%).
    # At small n a linear-in-c piece of relative size O(n^-2) leaks in from
    # the sqrt(-a_n) normalization of the prediction kernel, so probe at a
    # index where the quadratic part dominates.
    n = 8
    q_full, _ = records_cache("exp+", 1)
    resid = {}
    for c in (1.0, 0.5):
        q = scaled(q_full, c)
        rec = ss.locate_eigenvalue(q, n)
        resid[c] = rec.lam - rec.lam_pred
    ratio = resid[1.0] / resid[0.5]
    assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2


def test_report_assembly(records_cache):
    q, recs = records_cache("exp+", 20)
    # the record keeps both predictions, Newton's start among them
    assert (recs[2].lam_pred, recs[2].kappa_pred) == predictions(q, 2)
    rep = asym_report(recs, n_hi=20)
    # both kinds are fitted: no record falls back to the vacuous note
    for kind in ("lambda", "kappa"):
        assert isinstance(rep[kind]["slope"], float) and "note" not in rep[kind]
    assert rep["lambda"]["slope"] < -0.5 and rep["lambda"]["half_width"] < 0.5


@st.composite
def _residuals(draw):
    """k and 19 residuals of which exactly k lie above 10x a floor of 1e-9."""
    k = draw(st.integers(0, 19))
    resid = draw(st.lists(st.floats(-5e-9, 5e-9), min_size=19, max_size=19))
    for i in draw(st.permutations(range(19)))[:k]:
        resid[i] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(2e-8, 1e3))
    return k, resid


@settings(max_examples=60, deadline=None)
@given(_residuals(), _residuals())
def test_report_fits_exactly_when_enough_residuals_clear_the_floor(lam, kap):
    ns = list(range(2, 21))
    rep = ss.build_report(ns, lam[1], kap[1], 1e-9, 1e-9)
    assert set(rep) == {"lambda", "kappa"}
    for (k, resid), record in ((lam, rep["lambda"]), (kap, rep["kappa"])):
        assert record["noise_floor"] == 1e-9
        if k < MIN_FIT_POINTS:
            assert record["slope"] is None and record["half_width"] is None
            assert record["note"] == (f"{k} residuals above 10x the noise floor, the fit "
                                      f"needs {MIN_FIT_POINTS}; vacuously consistent")
        else:
            assert "note" not in record
            assert (record["slope"], record["half_width"]) == ss.decay_rate_fit(resid, ns, 1e-9)
