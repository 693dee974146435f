import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import starkspec as ss
from starkspec.errors import DomainError, TruncationError
from starkspec.oracle import DEFAULT_MESHES, build_operator, richardson


def test_operator_structure(q_exp):
    op = build_operator(q_exp, 40.0, 0.01)
    assert op.dim == 3999
    assert np.all(op.offdiag == -1.0 / 0.01**2)
    x1 = 0.01
    assert op.diag[0] == pytest.approx(2.0 / 0.01**2 + x1 + float(q_exp.q(x1)))


def test_free_ground_state_matches_airy_zero(q_zero):
    vals = [(h, ss.oracle_spectrum(q_zero, 40.0, h, 1)[0, 0]) for h in (0.02, 0.01, 0.005)]
    lam = richardson(vals, order=2).value
    assert lam == pytest.approx(2.3381074, abs=1e-6)


def test_extrapolated_spectrum_vs_zeros(q_zero):
    lam, _ = ss.extrapolated_spectrum(q_zero, 40.0, 5)
    for n in range(1, 6):
        assert lam[n - 1] == pytest.approx(-ss.airy_zero(n).a_n, abs=1e-7)


def test_shift_identity(q_exp):
    # adding a constant to the diagonal shifts every eigenvalue exactly
    op = build_operator(q_exp, 30.0, 0.01)
    w0 = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 4),
                          eigvals_only=True)
    w1 = eigh_tridiagonal(op.diag + 0.7, op.offdiag, select="i",
                          select_range=(0, 4), eigvals_only=True)
    assert np.allclose(w1 - w0, 0.7, rtol=0, atol=1e-11)


def test_observed_convergence_order(q_exp):
    vals = [(h, ss.oracle_spectrum(q_exp, 35.0, h, 3)[0]) for h in (0.02, 0.01, 0.005)]
    res = richardson(vals, order=2)
    assert res.order_ok
    assert 1.8 <= res.observed_order <= 2.2


def test_free_norming_extrapolates_to_zero(q_zero):
    _, kap = ss.extrapolated_spectrum(q_zero, 40.0, 3)
    for n in (1, 3):
        assert abs(kap[n - 1]) <= 1e-4


def test_norming_cross_method(records_cache):
    q, recs = records_cache("exp+", 1)
    _, kap = ss.extrapolated_spectrum(q, 25.0, 1)
    assert kap[0] == pytest.approx(recs[1].kappa, abs=1e-4)


def test_richardson_on_stacked_rows_is_bitwise_per_row(q_exp):
    stacked = [(h, ss.oracle_spectrum(q_exp, 35.0, h, 4)) for h in DEFAULT_MESHES]
    both = richardson(stacked, order=2).value
    assert both.shape == (2, 4)
    for row in (0, 1):
        alone = richardson([(h, rows[row]) for h, rows in stacked], order=2).value
        assert np.array_equal(both[row], alone)


def test_richardson_eliminates_exact_power():
    vals = [(h, 3.0 + 2.0 * h**2) for h in (0.04, 0.02, 0.01)]
    res = richardson(vals, order=2)
    assert res.value == pytest.approx(3.0, abs=1e-13)
    assert res.error_estimate <= 1e-12


def test_richardson_error_estimate_scale():
    c4 = 5.0
    vals = [(h, 1.0 + 2.0 * h**2 + c4 * h**4) for h in (0.4, 0.2, 0.1)]
    res = richardson(vals, order=2)
    # last correction reflects the h^4 term magnitude
    assert res.error_estimate == pytest.approx(c4 * 0.2**4 / 3.0, rel=1.0)
    assert res.value == pytest.approx(1.0, abs=1e-4)


def test_richardson_preconditions():
    with pytest.raises(DomainError):
        richardson([(0.02, 1.0), (0.01, 1.1)], order=2)
    with pytest.raises(DomainError):
        richardson([(0.04, 1.0), (0.02, 1.1), (0.015, 1.2)], order=2)


def test_richardson_flags_wrong_order():
    vals = [(h, 1.0 + 0.5 * h) for h in (0.04, 0.02, 0.01)]
    res = richardson(vals, order=2)
    assert not res.order_ok


def test_truncation_detector(q_zero):
    # the 10th eigenfunction reaches past x = 15, so L = 15 must be rejected
    with pytest.raises(TruncationError):
        ss.oracle_spectrum(q_zero, 15.0, 0.01, 10)


def test_domain_insensitivity(q_exp):
    a, _ = ss.extrapolated_spectrum(q_exp, 30.0, 3)
    b, _ = ss.extrapolated_spectrum(q_exp, 35.0, 3)
    assert np.max(np.abs(a - b)) <= 1e-9
