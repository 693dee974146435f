import math
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import starkspec as ss
from starkspec import oracle
from starkspec.errors import DomainError, NumericError, TruncationError
from starkspec.oracle import DEFAULT_MESHES, build_operator

from conftest import POTENTIALS
from references import oracle_spectrum_full


def test_operator_structure(q_exp):
    op = build_operator(q_exp, 40.0, 0.01)
    assert op.dim == 3999
    assert np.all(op.offdiag == -1.0 / 0.01**2)
    x1 = 0.01
    assert op.diag[0] == pytest.approx(2.0 / 0.01**2 + x1 + float(q_exp.q(x1)))


@pytest.mark.parametrize("L, h", [(40.0, 0.0), (40.0, -0.01), (-40.0, 0.01), (math.nan, 0.01),
                                  (40.0, math.nan), (math.inf, 0.01), (40.0, math.inf),
                                  (0.04, 0.01)])  # 3 nodes; the slope at 0 reads 4
def test_bad_mesh_is_a_domain_error(q_exp, L, h):
    with pytest.raises(DomainError, match="build_operator"):
        build_operator(q_exp, L, h)
    with pytest.raises(DomainError, match="build_operator"):
        ss.oracle_spectrum(q_exp, L, h, 1)


@pytest.mark.parametrize("count", [0, 250, 1000])
def test_count_outside_the_operator_is_a_domain_error(q_exp, count):
    # L = 5, h = 0.02: 249 interior mesh points
    with pytest.raises(DomainError, match="oracle_spectrum"):
        ss.oracle_spectrum(q_exp, 5.0, 0.02, count)


def test_free_ground_state_matches_airy_zero(q_zero):
    lam, _ = ss.extrapolated_spectrum(q_zero, 40.0, 1)
    assert lam[0] == pytest.approx(2.3381074, abs=1e-6)


def test_extrapolated_spectrum_vs_zeros(q_zero):
    lam, _ = ss.extrapolated_spectrum(q_zero, 40.0, 5)
    for n in range(1, 6):
        assert lam[n - 1] == pytest.approx(-ss.airy_zero(n), abs=1e-7)


def test_shift_identity(q_exp):
    # adding a constant to the diagonal shifts every eigenvalue exactly
    op = build_operator(q_exp, 30.0, 0.01)
    w0 = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 4),
                          eigvals_only=True)
    w1 = eigh_tridiagonal(op.diag + 0.7, op.offdiag, select="i",
                          select_range=(0, 4), eigvals_only=True)
    assert np.allclose(w1 - w0, 0.7, rtol=0, atol=1e-11)


def test_observed_convergence_order(q_exp):
    # log2 of the ratio of successive mesh differences is the observed order
    v1, v2, v3 = (ss.oracle_spectrum(q_exp, 35.0, h, 3)[0] for h in (0.02, 0.01, 0.005))
    observed = math.log2(np.max(np.abs(v2 - v1)) / np.max(np.abs(v3 - v2)))
    assert 1.8 <= observed <= 2.2


def test_free_norming_extrapolates_to_zero(q_zero):
    _, kap = ss.extrapolated_spectrum(q_zero, 40.0, 3)
    for n in (1, 3):
        assert abs(kap[n - 1]) <= 1e-4


def test_norming_cross_method(records_cache):
    q, recs = records_cache("exp+", 1)
    _, kap = ss.extrapolated_spectrum(q, 25.0, 1)
    assert kap[0] == pytest.approx(recs[1].kappa, abs=1e-4)


@pytest.mark.parametrize("q", [ss.exp_decay(0.3, 1.0), ss.alg_decay(0.5, 1.6, r=1.5)],
                         ids=["exp(0.3,1)", "alg(0.5,1.6,r=1.5)"])
def test_norming_agrees_with_shooting_to_1e_8(q):
    # the five-point slope at 0 has no h^3 term, which Richardson's even
    # orders cannot remove: 2.3e-9 and 2.1e-9, where (4 u_1 - u_2) / (2 h)
    # left 6.3e-8 and 1.8e-8
    _, kap = ss.extrapolated_spectrum(q, 40.0, 10)
    shoot = [ss.locate_eigenvalue(q, n).kappa for n in range(1, 11)]
    assert np.max(np.abs(kap - shoot)) <= 1e-8


def _synthetic_rows(monkeypatch, c6):
    # synthetic ladder rows c0 + c2 h^2 + c4 h^4 + c6 h^6 on each mesh, with
    # different constants for each row (lambda, kappa) and index; returns
    # c0, which the patched ladder reads on every call
    c0 = np.array([[2.3, 4.1], [-0.7, 1.9]])
    c2 = np.array([[1.0, -3.0], [0.5, 2.0]])
    c4 = np.array([[-20.0, 5.0], [8.0, -1.0]])
    monkeypatch.setattr(oracle, "_ladder", lambda q, L, meshes, count: [
        c0 + c2 * h**2 + c4 * h**4 + c6 * h**6 for h in meshes])
    return c0


@pytest.mark.parametrize("c6", [0.0, 1e3], ids=["no_h6", "h6"])
def test_extrapolation_eliminates_h2_and_h4_per_row(monkeypatch, c6):
    c0 = _synthetic_rows(monkeypatch, c6)
    lam, kappa = ss.extrapolated_spectrum(None, 40.0, 2)
    # the h^2 and h^4 eliminations leave c6 h^6 / 64 at the coarsest mesh,
    # and 0.02^6 / 64 = 1e-12
    assert DEFAULT_MESHES[0] == 0.02
    np.testing.assert_allclose(np.stack((lam, kappa)) - c0, c6 * 1e-12, rtol=0.0, atol=1e-14)


def test_extrapolation_on_stacked_rows_is_bitwise_per_row(monkeypatch):
    c0 = _synthetic_rows(monkeypatch, 1e3)
    lam, kappa = ss.extrapolated_spectrum(None, 40.0, 2)
    # the rows do not mix: moving one row's data leaves the other's bits
    c0[1] += 10.0
    lam_moved, kappa_moved = ss.extrapolated_spectrum(None, 40.0, 2)
    assert np.array_equal(lam_moved, lam) and not np.any(kappa_moved == kappa)
    c0[0] -= 3.0
    lam_moved, kappa_again = ss.extrapolated_spectrum(None, 40.0, 2)
    assert np.array_equal(kappa_again, kappa_moved) and not np.any(lam_moved == lam)


def test_truncation_detector(q_zero):
    # the 10th eigenfunction reaches past x = 15, so L = 15 must be rejected
    with pytest.raises(TruncationError):
        ss.oracle_spectrum(q_zero, 15.0, 0.01, 10)


def test_domain_insensitivity(q_exp):
    a, _ = ss.extrapolated_spectrum(q_exp, 30.0, 3)
    b, _ = ss.extrapolated_spectrum(q_exp, 35.0, 3)
    assert np.max(np.abs(a - b)) <= 1e-9


@pytest.mark.parametrize("q, L, count, decompositions", [
    # the verify campaign's potential and oracle length for n <= 30
    (ss.exp_decay(0.3, 1.0), 45.96, 30, 1),
    # lambda_1 and lambda_2 lie 0.025 apart: the close pair is bisected again
    (ss.bump(16.0, 2.0, 1.0), 40.0, 10, 2),
    # lambda_8 and lambda_9 lie 0.051 apart: brackets alone separate them
    (ss.bump(16.0, 3.0, 2.5), 40.0, 10, 1),
], ids=["exp(0.3,1)", "bump(16,2,1)", "bump(16,3,2.5)"])
def test_oracle_matches_full_precision_lapack(monkeypatch, q, L, count, decompositions):
    calls = Counter()
    eigh = oracle.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls[len(args[0])] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(oracle, "eigh_tridiagonal", counted)
    for h in DEFAULT_MESHES:
        got = ss.oracle_spectrum(q, L, h, count)
        want = oracle_spectrum_full(q, L, h, count)
        assert np.max(np.abs(got[0] - want[0])) <= 1e-10
        assert np.max(np.abs(got[1] - want[1])) <= 1e-9
        assert calls[int(round(L / h)) - 1] == decompositions


def test_singular_rqi_solve_is_a_numeric_error(q_exp, monkeypatch):
    monkeypatch.setattr(oracle, "dgtsv", lambda dl, d, du, b: (dl, d, du, b, 7))
    with pytest.raises(NumericError, match=r"n=1, stage oracle RQI: dgtsv info = 7 .*h = 0\.02"):
        ss.oracle_spectrum(q_exp, 30.0, 0.02, 3)


def test_rqi_without_convergence_is_a_numeric_error(q_exp, monkeypatch):
    # a fresh random vector from every solve: the quotient never settles
    rng = np.random.default_rng(0)
    monkeypatch.setattr(oracle, "dgtsv", lambda dl, d, du, b: (
        dl, d, du, rng.standard_normal(b.shape), 0))
    with pytest.raises(NumericError, match=r"n=1, stage oracle RQI: Newton did not converge "
                                           r"in 40 steps.*h = 0\.02"):
        ss.oracle_spectrum(q_exp, 30.0, 0.02, 3)


def test_rqi_is_the_package_newton(q_exp, monkeypatch):
    # one newton call per index: the oracle runs no iteration loop of its own
    calls = 0
    newton = oracle.newton

    def counted(*args):
        nonlocal calls
        calls += 1
        return newton(*args)

    monkeypatch.setattr(oracle, "newton", counted)
    ss.oracle_spectrum(q_exp, 30.0, 0.02, 3)
    assert calls == 3


def test_nan_rqi_solve_is_a_numeric_error(q_exp, monkeypatch):
    # a NaN iterate leaves newton's unbounded window
    monkeypatch.setattr(oracle, "dgtsv", lambda dl, d, du, b: (
        dl, d, du, np.full_like(b, np.nan), 0))
    with pytest.raises(NumericError, match=r"n=1, stage oracle RQI: .*nan.*h = 0\.02"):
        ss.oracle_spectrum(q_exp, 30.0, 0.02, 3)


def test_eigenvalue_outside_its_bracket_is_a_numeric_error(q_exp, monkeypatch):
    # brackets moved up by 0.5: the iteration still finds the eigenvalue
    # near each centre, which now lies outside the bracket
    eigh = oracle.eigh_tridiagonal
    monkeypatch.setattr(oracle, "eigh_tridiagonal", lambda *a, **k: eigh(*a, **k) + 0.5)
    with pytest.raises(NumericError, match=r"n=1, stage oracle RQI: lambda = .* left its "
                                           r"bracket .* at h = 0\.02"):
        ss.oracle_spectrum(q_exp, 30.0, 0.02, 3)


def test_repeated_eigenvalue_is_a_numeric_error(q_exp, monkeypatch):
    # two wide brackets with one centre: both iterations find the same
    # eigenvalue, which lies in both brackets
    centre = float(np.mean(ss.oracle_spectrum(q_exp, 30.0, 0.02, 2)[0]))
    monkeypatch.setattr(oracle, "_brackets", lambda op, top: (
        np.full(top + 1, centre), np.full(top + 1, 5.0)))
    with pytest.raises(NumericError, match=r"n=2, stage oracle RQI: lambda does not increase "
                                           r"past n=1 at h = 0\.02"):
        ss.oracle_spectrum(q_exp, 30.0, 0.02, 2)


@pytest.mark.parametrize("q", [make() for make in POTENTIALS.values()]
                         + [ss.bump(-16.0, 3.0, 2.5), ss.exp_decay(20.0, 0.5)],
                         ids=list(POTENTIALS) + ["bump(-16,3,2.5)", "exp(20,0.5)"])
def test_ladder_matches_the_bracketed_route_on_each_mesh(q):
    # each finer mesh starts from the coarser eigenpair instead of its own
    # Sturm brackets; the same eigenpairs come out, to the iteration's roundoff
    lam, kappa = ss.extrapolated_spectrum(q, 40.0, 10)
    coarse, mid, fine = (ss.oracle_spectrum(q, 40.0, h, 10) for h in DEFAULT_MESHES)
    a, b = (4.0 * mid - coarse) / 3.0, (4.0 * fine - mid) / 3.0
    want_lam, want_kappa = (16.0 * b - a) / 15.0
    assert np.max(np.abs(lam - want_lam)) <= 1e-12
    assert np.max(np.abs(kappa - want_kappa)) <= 1e-9


def test_finer_meshes_start_from_the_prolonged_eigenvector(q_exp, monkeypatch):
    # the coarser eigenvector, interpolated onto the finer nodes, starts the
    # iteration closer than the vector of ones: fewer solves than solving
    # each mesh from its own brackets (71 against 90 here)
    solves = 0
    gtsv = oracle.dgtsv

    def counted(*args):
        nonlocal solves
        solves += 1
        return gtsv(*args)

    monkeypatch.setattr(oracle, "dgtsv", counted)
    ss.extrapolated_spectrum(q_exp, 30.0, 10)
    ladder, solves = solves, 0
    for h in DEFAULT_MESHES:
        ss.oracle_spectrum(q_exp, 30.0, h, 10)
    assert ladder < solves


def test_finer_mesh_on_a_neighbouring_eigenpair_is_a_numeric_error(q_exp, monkeypatch):
    # on the finer meshes the iteration is sent to the next eigenpair up,
    # whose eigenvector has one sign change too many for its label
    rqi = oracle._rqi

    def neighbour(op, shift, n, x):
        if op.h == DEFAULT_MESHES[0]:
            return rqi(op, shift, n, x)
        up = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(n, n),
                              eigvals_only=True)
        return rqi(op, up[0], n, np.ones(op.dim))

    monkeypatch.setattr(oracle, "_rqi", neighbour)
    with pytest.raises(NumericError, match=r"n=1, stage oracle RQI: the eigenvector at "
                                           r"lambda = .* changes sign 1 times, not 0, "
                                           r"at h = 0\.01"):
        ss.extrapolated_spectrum(q_exp, 30.0, 3)


def test_sign_changes_count_nodes_above_the_roundoff_floor():
    # two nodes, then a tail that decays below the floor, with sign flips
    # of roundoff size on top
    t = np.linspace(0.0, 1.0, 2001)[1:-1]
    psi = np.sin(3.0 * np.pi * t) * np.exp(-200.0 * np.clip(t - 0.7, 0.0, None))
    noise = 1e-14 * (-1.0) ** np.arange(t.size)
    assert np.max(np.abs(psi[-200:])) < 1e-8 * np.max(np.abs(psi))
    assert oracle._sign_changes(psi + noise) == 2
    assert oracle._sign_changes(psi) == 2
    # flips of roundoff size carry 100s of spurious nodes when counted
    assert np.count_nonzero(np.diff(np.signbit(psi + noise))) > 100
    assert oracle._sign_changes(-psi + noise) == 2
    assert oracle._sign_changes(np.sin(7.0 * np.pi * t) + noise) == 6
