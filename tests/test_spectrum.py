import functools
import gc
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

import starkspec as ss
from starkspec import spectrum
from conftest import POTENTIALS

# frozen high-precision values (50-digit quadrature/series oracles)
A = [-2.3381074104597670, -4.0879494441309706, -5.5205598280955511]
PI_AIP_SQ = {1: 1.5447104825915634, 2: 2.0262891605462046, 3: 2.3517271656187980}
DLAM1_EXP = 0.2599066122911657     # d lambda_1 [e^-x] at q = 0
DKAP1_EXP = -0.2599066122911657    # d kappa_1 [e^-x] at q = 0; equals -dlam by parts


@pytest.mark.parametrize("n", [1, 2, 3, 12])
def test_free_spectrum_is_airy_zeros(zero_records, n):
    q, recs = zero_records
    rec = recs[n]
    assert rec.lam == pytest.approx(-ss.airy_zero(n).a_n, abs=1e-9)
    assert abs(rec.kappa) <= 1e-8
    assert rec.bracket[0] < rec.lam < rec.bracket[1]
    assert rec.shoot_residual <= 1e-10 * abs(rec.psi_prime0)


def test_free_norm_squared_matches_airy_identity(zero_records):
    q, recs = zero_records
    for n in (1, 2, 3):
        assert recs[n].norm_sq == pytest.approx(PI_AIP_SQ[n], rel=1e-8)


def test_positive_perturbation_raises_ground_state(records_cache, zero_records):
    q, recs = records_cache("exp+", 1)
    assert recs[1].lam > zero_records[1][1].lam


def test_negative_perturbation_lowers(records_cache, zero_records):
    q, recs = records_cache("exp-", 1)
    assert recs[1].lam < zero_records[1][1].lam


def test_cross_method_small_sample(records_cache):
    q, recs = records_cache("exp+", 6)
    L = -ss.airy_zero(6).a_n + 21.0
    lam_o, kap_o = ss.extrapolated_spectrum(q, L, 6)
    for n in range(1, 7):
        assert recs[n].lam == pytest.approx(lam_o[n - 1], abs=1e-6)
        assert recs[n].kappa == pytest.approx(kap_o[n - 1], abs=1e-4)


def test_norm_identity_and_alt_kappa(records_cache):
    q, recs = records_cache("exp+", 8)
    for rec in recs.values():
        assert ss.norm_sq_psi(rec) <= 1e-6
        assert abs(rec.kappa - rec.kappa_alt) <= 1e-6


def test_oscillation_counts(records_cache):
    q, recs = records_cache("alg", 10)
    for n, rec in recs.items():
        assert ss.oscillation_count(rec) == n - 1


def test_crude_localization_window(records_cache):
    q, recs = records_cache("exp+", 20)
    ok_from = None
    for n in sorted(recs):
        width = 4.0 * (1.5 * math.pi * n) ** (-2.0 / 3.0 + 0.05)
        inside = abs(recs[n].lam + ss.airy_zero(n).a_n) <= width
        if inside and ok_from is None:
            ok_from = n
        if not inside:
            ok_from = None
    assert ok_from is not None and ok_from <= 5


def test_unperturbed_trace_diagnostics(records_cache):
    # psi0(lam_n, 0) shrinks like n^(-1/6) omega_r(n); psi0'(lam_n, 0) tracks
    # (-1)^(n+1) (3 pi n / 2)^(1/6)
    q, recs = records_cache("exp+", 30)
    ratios, signs = [], []
    for n in range(10, 31):
        b = ss.basis_eval(recs[n].lam, 0.0)
        scale = (1.5 * math.pi * n) ** (1.0 / 6.0)
        ratios.append(abs(b.psi0) * n ** (1.0 / 6.0) / ss.omega_r(q.r, n))
        signs.append(b.psi0_prime * (-1) ** (n + 1) / scale)
    assert max(ratios) < 5.0
    assert all(abs(s - 1.0) < 0.1 for s in signs[-8:])


def test_lambda_gradient_closed_form_at_zero(zero_records):
    q, recs = zero_records
    v = ss.exp_decay(1.0, 1.0, r=2.0)
    val = ss.lambda_directional_derivative(q, 1, v, recs[1])
    assert val == pytest.approx(DLAM1_EXP, rel=1e-7)
    assert ss.lambda_directional_derivative(q, 1, ss.bump(0.0, 1, 1), recs[1]) == 0.0


def test_kappa_gradient_closed_form_at_zero(zero_records):
    q, recs = zero_records
    v = ss.exp_decay(1.0, 1.0, r=2.0)
    val = ss.kappa_directional_derivative(q, 1, v, recs[1])
    assert val == pytest.approx(DKAP1_EXP, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_kappa_gradient_closed_form_general_n(zero_records, n):
    # at q = 0 the gradients reduce to Airy pairings divided by Ai'(a_n)^2
    q, recs = zero_records
    v = ss.exp_decay(1.0, 1.0, r=2.0)
    a_n = ss.airy_zero(n).a_n
    aip2 = special.airy(a_n)[1] ** 2

    def pairing(f):
        return integrate.quad(lambda x: f(*special.airy(x + a_n)) * math.exp(-x), 0, 60,
                              epsabs=1e-15, epsrel=1e-13, limit=800)[0] / aip2

    lam_exact = pairing(lambda ai, aip, bi, bip: ai * ai)
    kap_exact = -2.0 * pairing(lambda ai, aip, bi, bip: ai * aip)
    assert ss.lambda_directional_derivative(q, n, v, recs[n]) == pytest.approx(
        lam_exact, rel=1e-7)
    assert ss.kappa_directional_derivative(q, n, v, recs[n]) == pytest.approx(
        kap_exact, rel=1e-10)


def test_gradients_match_finite_differences(records_cache):
    q, recs = records_cache("exp-", 2)
    v = ss.bump(1.0, 2.0, 1.0, r=2.0)
    n, h = 2, 1e-4
    dl = ss.lambda_directional_derivative(q, n, v, recs[n])
    dk = ss.kappa_directional_derivative(q, n, v, recs[n])
    plus = ss.locate_eigenvalue(ss.blend(q, v, h), n)
    minus = ss.locate_eigenvalue(ss.blend(q, v, -h), n)
    assert dl == pytest.approx((plus.lam - minus.lam) / (2 * h), rel=1e-4)
    assert dk == pytest.approx((plus.kappa - minus.kappa) / (2 * h), rel=1e-3)


@pytest.mark.parametrize("c, v, oracle", [
    (0.3, ss.alg_decay(0.5, 3.0, r=2.0), False),
    (1.0, ss.alg_decay(1.0, 1.3, r=1.5), True),
], ids=["exp0.3-alg3", "exp1-alg1.3"])
def test_kappa_gradient_with_slow_direction(c, v, oracle):
    # v keeps mass past the grid end, where psi has decayed to the envelope
    # tolerance: that mass only rescales psi on the grid, so kappa ignores it
    q = ss.exp_decay(c, 1.0, r=2.0)
    n, h = 1, 1e-4
    dk = ss.kappa_directional_derivative(q, n, v, ss.locate_eigenvalue(q, n))
    plus = ss.locate_eigenvalue(ss.blend(q, v, h), n)
    minus = ss.locate_eigenvalue(ss.blend(q, v, -h), n)
    assert dk == pytest.approx((plus.kappa - minus.kappa) / (2 * h), rel=1e-6)
    if oracle:
        # Richardson difference in t of the finite-difference oracle's kappa
        def diff(t):
            return (ss.extrapolated_spectrum(ss.blend(q, v, t), 40.0, 1)[1][0]
                    - ss.extrapolated_spectrum(ss.blend(q, v, -t), 40.0, 1)[1][0]) / (2 * t)

        assert dk == pytest.approx((4.0 * diff(5e-3) - diff(1e-2)) / 3.0, rel=1e-5)


def test_kappa_gradient_solves_only_the_fundamental_pair(records_cache, monkeypatch):
    # psi and psi_dot come from the record; s and c need one solve, and
    # psi_ddot(0) comes from Green's identity, not from solves at nearby z
    calls = Counter()

    def count(name):
        fn = getattr(spectrum, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(spectrum, name, counted)

    q, recs = records_cache("exp+", 1)
    count("solve_psi")
    count("solve_sc")
    ss.kappa_directional_derivative(q, 1, ss.bump(1.0, 2.0, 1.0, r=2.0), recs[1])
    assert calls == {"solve_sc": 1}


def test_kappa_gradient_zero_direction(zero_records):
    q, recs = zero_records
    assert ss.kappa_directional_derivative(
        q, 1, ss.bump(0.0, 1.0, 1.0), recs[1]) == 0.0


def test_tabulated_potential_through_the_full_pipeline():
    import numpy as np
    xs = np.linspace(0.0, 30.0, 600)
    ys = 0.3 * np.exp(-xs)
    ys[-1] = 0.0
    qt = ss.tabulated(xs, ys, r=2.0)
    rec = ss.locate_eigenvalue(qt, 1)
    lam_o, _ = ss.extrapolated_spectrum(qt, 25.0, 1)
    assert rec.lam == pytest.approx(float(lam_o[0]), abs=1e-6)
    # the spline tracks the exponential family it sampled
    ref = ss.locate_eigenvalue(ss.exp_decay(0.3, 1.0, r=2.0), 1)
    assert rec.lam == pytest.approx(ref.lam, abs=1e-4)


# two wells that pull lambda_1 far below -a_1, the deeper one below 0, and
# a small potential: the lowest eigenvalue is lambda_1, whatever the well
@pytest.mark.parametrize("q", [
    pytest.param(ss.bump(-3.0, 1.0, 1.0, r=2.0), id="bump-3"),
    pytest.param(ss.exp_decay(0.3, 1.0, r=2.0), id="exp"),
    pytest.param(ss.bump(-8.0, 1.0, 1.0, r=2.0), id="bump-8"),
])
def test_locate_low_eigenvalues(q):
    lam_o, _ = ss.extrapolated_spectrum(q, 40.0, 4)
    recs = [ss.locate_eigenvalue(q, n) for n in range(1, 5)]
    for rec, ref in zip(recs, lam_o):
        assert rec.lam == pytest.approx(float(ref), abs=1e-6)
    # min-max: the spectrum sits above the free ground state minus sup|q|
    assert recs[0].lam >= -ss.airy_zero(1).a_n - q.sup_norm


def test_spline_root_does_not_depend_on_the_grid_centre():
    # panels straddling a knot, where the spline's third derivative jumps,
    # moved this root by 1.8e-12 between the three grids
    q = POTENTIALS["table30"]()
    lam = ss.locate_eigenvalue(q, 1).lam
    roots = []
    for z in (lam, lam + 3.7e-3, lam - 0.05):
        grid, root = ss.default_grid(q, z), lam
        for _ in range(4):
            prof = ss.solve_psi(q, root, grid)
            root -= prof.values[0] / prof.z_derivs[0]
        roots.append(root)
    assert max(roots) - min(roots) <= 1e-14


def test_locate_leaves_no_grid_in_reference_cycles(q_exp):
    # a Grid or Workspace caught in a cycle (a root finder's wrapper can
    # make one) lives with its Airy table until the next collection
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ss.locate_eigenvalue(q_exp, 3)
        gc.collect()
        caught = [type(o).__name__ for o in gc.garbage if isinstance(o, (ss.Grid, ss.Workspace))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert caught == []


@functools.lru_cache(maxsize=None)
def _oracle_exp(c, a):
    return ss.extrapolated_spectrum(ss.exp_decay(c, a, r=2.0), 40.0, 10)[0]


# strong potentials whose index the doubling bracket mislabelled: it returned
# 37.25, -5.87 and 6.71 for exp(-20, 1), n = 1..3, 6.62 and 12.41 for
# exp(5, 0.5), n = 2, 3, and "Bi overflow" and 8.58 for exp(-8, 1), n = 1, 3
@pytest.mark.parametrize("c, a, n, lam", [
    (-20.0, 1.0, 1, -5.87196), (-20.0, 1.0, 2, 0.35116), (-20.0, 1.0, 3, 3.39368),
    (5.0, 0.5, 2, 5.52818), (5.0, 0.5, 3, 6.62331),
    (-8.0, 1.0, 1, -0.34652), (-8.0, 1.0, 3, 4.72324),
])
def test_locate_certifies_the_index_of_strong_potentials(c, a, n, lam):
    rec = ss.locate_eigenvalue(ss.exp_decay(c, a, r=2.0), n)
    assert rec.lam == pytest.approx(float(_oracle_exp(c, a)[n - 1]), abs=1e-6)
    assert rec.lam == pytest.approx(lam, abs=1e-5)
    assert ss.oscillation_count(rec) == n - 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_locate_solves_or_names_the_failure(n):
    # Newton from the prediction of exp(20, 0.5) reaches higher eigenvalues;
    # the oscillation count must catch them (the doubling bracket returned
    # lambda_5 for n = 3)
    q = ss.exp_decay(20.0, 0.5, r=2.0)
    try:
        rec = ss.locate_eigenvalue(q, n)
    except ss.BracketError as err:
        msg = str(err)
        assert f"n={n}," in msg and "z = " in msg and "stage certificate" in msg
    else:
        assert rec.lam == pytest.approx(float(_oracle_exp(20.0, 0.5)[n - 1]), abs=1e-6)
        assert ss.oscillation_count(rec) == n - 1


@settings(max_examples=8, deadline=None)
@given(st.floats(-20.0, 20.0), st.floats(0.5, 2.0), st.integers(1, 10))
@example(-20.0, 1.0, 1)
@example(-20.0, 1.0, 3)
@example(5.0, 0.5, 2)
@example(-8.0, 1.0, 1)
@example(20.0, 0.5, 3)
@example(-20.0, 0.5, 3)
def test_locate_agrees_with_oracle_or_names_the_index(c, a, n):
    try:
        rec = ss.locate_eigenvalue(ss.exp_decay(c, a, r=2.0), n)
    except ss.StarkSpecError as err:
        assert f"n={n}," in str(err)
        return
    assert ss.oscillation_count(rec) == n - 1
    assert rec.lam == pytest.approx(float(_oracle_exp(c, a)[n - 1]), abs=1e-6)
