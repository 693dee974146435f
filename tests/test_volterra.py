import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import special

import starkspec as ss
from starkspec import spectrum, volterra
from starkspec.errors import DomainError, NumericError
from starkspec.volterra import (ENVELOPE_OFFSET, LATTICE_STEP, Workspace, airy_table,
                                default_grid, grid_from_nodes)
from conftest import POTENTIALS
from references import basis_eval, omega, scaled

A1 = 2.3381074104597670  # -a_1


def envelope_weights(grid, z, grow=False):
    w = grid.nodes - z
    E = (2.0 / 3.0) * np.maximum(w, 0.0) ** 1.5
    sigma = 1.0 + np.abs(w) ** 0.25
    return sigma * np.exp(-E if grow else E)


def test_grid_ending_at_or_before_the_origin_names_z(q_zero, q_exp):
    with pytest.raises(DomainError, match=r"z = -15 ends the grid at x_max = -1\.02"):
        ss.solve_psi(volterra.workspace(q_exp, -15.0), -15.0)
    with pytest.raises(DomainError, match=r"x_max = 0 <= 0"):
        default_grid(q_zero, -ENVELOPE_OFFSET)
    with pytest.raises(DomainError, match="default_grid: need a finite z"):
        default_grid(q_zero, math.nan)


def test_truncation_point_free_case(q_zero):
    offset = 11.9763771 + 2.0
    assert ENVELOPE_OFFSET == pytest.approx(offset, abs=1e-6)
    for z in (0.0, A1, 30.0):
        assert default_grid(q_zero, z).x_max == z + ENVELOPE_OFFSET


def test_truncation_point_respects_potential_decay():
    # one rule for every potential: the grid ends one envelope decay length
    # (plus the margin) past z, however slowly q decays; q past x_max only
    # rescales psi on [0, x_max] (test_tail_insensitivity)
    slow = ss.alg_decay(0.5, 3.0, r=2.0)
    for q in [slow] + [make() for make in POTENTIALS.values()]:
        for z in (0.0, A1, 30.0):
            assert default_grid(q, z).x_max == z + ENVELOPE_OFFSET
    assert abs(float(slow.q(ENVELOPE_OFFSET))) > 1e-12 * (1.0 + slow.sup_norm)


def test_truncation_point_translates(q_zero):
    assert default_grid(q_zero, 30.0).x_max == pytest.approx(
        30.0 + default_grid(q_zero, 0.0).x_max, rel=1e-12)


def test_table_grid_ends_a_panel_at_the_last_knot():
    # the spline is cut to 0 past its last knot, at 12, a kink of q
    q = POTENTIALS["table30"]()
    assert 12.0 in q.kinks
    assert 12.0 in default_grid(q, A1).nodes


def test_envelope_weights_match_the_closed_form(q_zero):
    # sigma e^{+-E}, sigma = 1 + |w|^(1/4), E = (2/3) max(w, 0)^(3/2), on a
    # grid that crosses the turning point x = z
    z = 6.5
    ws = Workspace(q_zero, z, grid_from_nodes(np.linspace(0.0, 40.0, 161)))
    w = ws.grid.gauss_x - z
    assert w.min() < 0.0 < w.max()
    E = (2.0 / 3.0) * np.maximum(w, 0.0) ** 1.5
    sigma = 1.0 + np.abs(w) ** 0.25
    assert_allclose(ws.weight_decay, sigma * np.exp(E), rtol=1e-13, atol=0.0)
    assert_allclose(ws.weight_grow, sigma * np.exp(-E), rtol=1e-13, atol=0.0)


def test_halved_phase_grid_agrees(records_cache, monkeypatch):
    # the grid's accuracy target: halving PANEL_PHASE moves no lambda_n or
    # kappa_n by more than 1e-12, about 100 times the largest move measured
    # (1.1e-14, alg, n = 1). The halving doubles the equal-phase panel ends;
    # q's kinks end panels on both grids, and on the bump they are most of
    # the ends of a wide-panel grid, so they are left out of the count
    ns = (1, 2, 4, 15, 30)
    coarse = {key: records_cache(key, 30) for key in POTENTIALS}   # before the patch
    monkeypatch.setattr(volterra, "PANEL_PHASE", volterra.PANEL_PHASE / 2)
    for key, (q, recs) in coarse.items():
        def phase_ends(rec):
            return np.setdiff1d(rec.psi.grid.nodes, q.kinks).size

        for n in ns:
            fine = ss.locate_eigenvalue(q, n)
            assert phase_ends(fine) > 1.8 * phase_ends(recs[n]), (key, n)
            assert abs(fine.lam - recs[n].lam) <= 1e-12, (key, n)
            assert abs(fine.kappa - recs[n].kappa) <= 1e-12, (key, n)


def test_running_integrals(q_zero):
    # a different polynomial of degree p - 1 on each panel of p Gauss nodes:
    # the Gauss rule and the interpolant make every running integral exact,
    # in both directions, to 1e-13 of the largest
    p = len(volterra._GAUSS_NODES)
    rng = np.random.default_rng(8)
    grid = grid_from_nodes(np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.6, 15))]))
    ws = Workspace(q_zero, 1.0, grid)
    coef = rng.normal(size=(3, grid.widths.size, p))   # powers of x - panel start
    t = grid.gauss_x - grid.nodes[:-1, None]
    integrands = sum(coef[..., k, None] * t ** k for k in range(p))

    def primitive(c, t):
        return sum(c[..., k] * t ** (k + 1) / (k + 1) for k in range(p))

    prefix = np.cumsum(primitive(coef, grid.widths), axis=-1)
    fwd_b = np.concatenate([np.zeros((3, 1)), prefix], axis=-1)
    fwd_g = fwd_b[:, :-1, None] + primitive(coef[..., None, :], t)
    total = prefix[:, -1:]
    exact = {"fwd": (fwd_g, fwd_b), "back": (total[..., None] - fwd_g, total - fwd_b)}
    got = {d: ws.integrals(integrands, d) for d in ("fwd", "back")}
    for d in ("fwd", "back"):
        for have, want in zip(got[d], exact[d]):
            assert have.shape == want.shape
            assert np.max(np.abs(have - want)) <= 1e-13 * np.max(np.abs(want))
        # a stacked call gives each row what a call on that row alone gives
        for i in range(3):
            single = ws.integrals(integrands[i], d)
            assert np.array_equal(single[0], got[d][0][i])
            assert np.array_equal(single[1], got[d][1][i])
    # back plus forward is the total at every boundary
    assert_allclose(got["back"][1] + got["fwd"][1], np.broadcast_to(total, fwd_b.shape),
                    rtol=1e-13, atol=0.0)


def test_free_solves_reproduce_basis(q_zero, monkeypatch):
    z = 3.7
    sweeps = []
    picard = Workspace.picard

    def recorded(self, inhom, direction, z):
        f, count = picard(self, inhom, direction, z)
        sweeps.append(count)
        return f, count

    monkeypatch.setattr(Workspace, "picard", recorded)
    psi = ss.solve_psi(volterra.workspace(q_zero, z), z)
    # with q = 0 the kernel vanishes: psi and psi_dot each take one sweep
    assert sweeps == [1, 1]
    ref = [basis_eval(z, x) for x in psi.grid.nodes]
    assert_allclose(psi.values, [b.psi0 for b in ref], rtol=1e-12)
    assert_allclose(psi.derivs, [b.psi0_prime for b in ref], rtol=1e-12)
    assert_allclose(psi.z_derivs, [-b.psi0_prime for b in ref], rtol=1e-12)
    theta = ss.solve_theta(volterra.workspace(q_zero, z), z)
    assert_allclose(theta.values, [b.theta0 for b in ref], rtol=1e-12)
    s, c = ss.solve_sc(volterra.workspace(q_zero, z), z)
    assert_allclose(s.values, [b.s0 for b in ref], rtol=1e-11, atol=1e-13)
    assert_allclose(c.values, [b.c0 for b in ref], rtol=1e-11, atol=1e-13)


def test_only_psi_solves_a_z_derivative(q_exp, monkeypatch):
    # psi and psi_dot take one Picard solve each, theta, s and c one per
    # class, which carries no z-derivative
    directions = []
    picard = Workspace.picard

    def recorded(self, inhom, direction, z):
        directions.append(direction)
        return picard(self, inhom, direction, z)

    monkeypatch.setattr(Workspace, "picard", recorded)
    z = 2.2
    ws = Workspace(q_exp, z, default_grid(q_exp, z))
    psi = ss.solve_psi(volterra.workspace(q_exp, z, ws), z)
    assert directions == ["back", "back"] and psi.z_derivs is not None
    assert psi.gauss_z_derivs.shape == psi.gauss_values.shape
    directions.clear()
    theta = ss.solve_theta(volterra.workspace(q_exp, z, ws), z)
    assert directions == ["fwd"] and theta.z_derivs is None
    directions.clear()
    s, c = ss.solve_sc(volterra.workspace(q_exp, z, ws), z)
    assert directions == ["fwd", "fwd"] and s.z_derivs is None and c.z_derivs is None
    assert theta.gauss_z_derivs is None and s.gauss_z_derivs is None and c.gauss_z_derivs is None


def test_profiles_have_small_defect():
    # f = inhom + sgn K f, with K applied afresh to the Gauss values Picard
    # returns for the psi, theta, s and c seeds, to 1e-10 of the
    # envelope-weighted size of f
    for q in (ss.exp_decay(0.3, 1.0), ss.exp_decay(-16.0, 0.5), ss.bump(16.0, 2.0, 1.0),
              ss.alg_decay(8.0, 1.3, r=1.5)):
        for z in (1.0, A1, 9.5):
            ws = Workspace(q, z, default_grid(q, z))
            b = ws.boundary
            seeds = {"psi": (ws.seed(-1, b[0, -1], b[1, -1]), "back"),
                     "theta": (ws.seed(0, b[2, 0], b[3, 0]), "fwd"),
                     "s": (ws.seed(0, 0.0, 1.0), "fwd"), "c": (ws.seed(0, 1.0, 0.0), "fwd")}
            for name, ((ig, ib), direction) in seeds.items():
                (f, _), _ = ws.picard((ig, ib), direction, z)
                sgn, weight = ((-1.0, ws.weight_decay) if direction == "back"
                               else (1.0, ws.weight_grow))
                k_g, _ = ws.kernel(*ws.integrals(ws.basis * ws.qg * f, direction))
                defect = np.max(np.abs(f - ig - sgn * k_g) * weight)
                assert defect <= 1e-10 * np.max(np.abs(f) * weight), (q, z, name)


def test_picard_writes_neither_its_seed_nor_an_earlier_result(q_exp):
    # the sweeps write into buffers made once per call: the seed keeps its
    # bits, and a second call on the same Workspace, at another z, leaves
    # the first call's result alone and shares no memory with it or the seed
    z = 2.2
    ws = Workspace(q_exp, z, default_grid(q_exp, z))
    b = ws.boundary
    for seed, direction in ((ws.seed(-1, b[0, -1], b[1, -1]), "back"),
                            (ws.seed(0, 0.0, 1.0), "fwd")):
        seed_bits = [a.tobytes() for a in seed]
        first, sweeps = ws.picard(seed, direction, z)
        first_bits = [a.tobytes() for a in first]
        second, _ = ws.picard(seed, direction, z + 0.5 * ws.reach)
        assert sweeps > 1
        assert [a.tobytes() for a in seed] == seed_bits
        assert [a.tobytes() for a in first] == first_bits
        assert not any(np.shares_memory(a, c) for a in first for c in (*second, *seed))
        assert not any(np.shares_memory(a, c) for a in second for c in seed)


def test_boundary_values_exact(q_exp):
    s, c = ss.solve_sc(volterra.workspace(q_exp, 2.2), 2.2)
    assert s.values[0] == 0.0
    assert s.derivs[0] == pytest.approx(1.0, rel=1e-12)
    assert c.values[0] == pytest.approx(1.0, rel=1e-12)
    assert abs(c.derivs[0]) < 1e-12


def test_perturbation_scale_is_first_order(q_zero, q_exp):
    z = 2.0
    dev = {}
    for t in (1e-3, 1e-4):
        qt = scaled(q_exp, t / 0.3)
        theta = ss.solve_theta(volterra.workspace(qt, z), z)
        th0 = np.array([basis_eval(z, x).theta0 for x in theta.grid.nodes])
        w = envelope_weights(theta.grid, z, grow=True)
        dev[t] = np.max(np.abs(theta.values - th0) * w)
    assert dev[1e-3] / dev[1e-4] == pytest.approx(10.0, rel=0.05)


def test_psi_perturbation_bound(q_zero):
    # |psi(q,z,0) - psi0(z,0)| <= C omega(q,z) / sigma(z); empirical C ~ 1.2
    q = ss.exp_decay(0.2, 1.0, r=2.0)
    z = A1
    psi = ss.solve_psi(volterra.workspace(q, z), z)
    psi0_0 = basis_eval(z, 0.0).psi0
    bound_unit = omega(q, z) / (1.0 + abs(z) ** 0.25)
    assert abs(psi.values[0] - psi0_0) <= 3.0 * bound_unit


def test_ode_residual_of_profiles(q_exp):
    # embed uniform 5-point probe stencils in the grid so the fd oracle
    # carries fourth-order truncation
    z = 4.0
    h = 1e-3
    probes = [0.9, 3.8, 7.3]
    base = default_grid(q_exp, z).nodes
    extra = np.concatenate([p + h * np.arange(-2, 3) for p in probes])
    nodes = np.unique(np.concatenate([base, extra]))
    from starkspec.volterra import grid_from_nodes
    psi = ss.solve_psi(Workspace(q_exp, z, grid_from_nodes(nodes)), z)
    idx = {x: i for i, x in enumerate(psi.grid.nodes)}
    scale = np.max(np.abs(psi.values))
    for p in probes:
        y = [psi.values[idx[p + k * h]] for k in (-2, -1, 0, 1, 2)]
        second = (-y[0] + 16 * y[1] - 30 * y[2] + 16 * y[3] - y[4]) / (12 * h**2)
        resid = second - (p - z + float(q_exp.q(p))) * y[2]
        assert abs(resid) <= 1e-5 * scale
        first = (y[0] - 8 * y[1] + 8 * y[3] - y[4]) / (12 * h)
        assert abs(first - psi.derivs[idx[p]]) <= 1e-8 * scale


def test_z_derivative_matches_finite_difference(q_exp):
    # at the panel boundaries and at the Gauss nodes
    z = A1 + 0.37
    grid = default_grid(q_exp, z)
    psi = ss.solve_psi(Workspace(q_exp, z, grid), z)
    h = 1e-4
    plus = ss.solve_psi(Workspace(q_exp, z + h, grid), z + h)
    minus = ss.solve_psi(Workspace(q_exp, z - h, grid), z - h)
    for name, z_name in (("values", "z_derivs"), ("gauss_values", "gauss_z_derivs")):
        fd = (getattr(plus, name) - getattr(minus, name)) / (2 * h)
        dot = getattr(psi, z_name)
        mask = np.abs(dot) > 1e-3 * np.max(np.abs(dot))
        rel = np.max(np.abs((fd[mask] - dot[mask]) / dot[mask]))
        assert rel <= 1e-5, z_name


def test_grid_stores_no_gauss_arrays(q_exp):
    # a record keeps its grid, whose (panels, p) Gauss abscissae and
    # weights are computed when read
    grid = default_grid(q_exp, 5.0)
    assert all(np.ndim(getattr(grid, f.name)) <= 1 for f in dataclasses.fields(grid))
    assert grid.gauss_x.shape == grid.weights.shape == (grid.widths.size, 8)
    assert np.sum(grid.weights) == pytest.approx(grid.x_max, rel=1e-14)
    assert np.all((grid.nodes[:-1, None] < grid.gauss_x) & (grid.gauss_x < grid.nodes[1:, None]))


def test_wronskian_psi_theta_exact_identity(q_exp):
    # W(psi, theta) is x-independent and equals 1 + int_0^M theta0 q psi;
    # the integral is O(omega(q,z)), not zero, so W itself sits near 1
    # only up to that first-order offset.
    for z in (2.0, 11.0):
        grid = default_grid(q_exp, z)
        ws = Workspace(q_exp, z, grid)
        psi = ss.solve_psi(ws, z)
        theta = ss.solve_theta(ws, z)
        wr = psi.values * theta.derivs - psi.derivs * theta.values
        corr = float(np.sum(grid.weights * ws.th0 * ws.qg * psi.gauss_values))
        assert np.max(np.abs(wr - (1.0 + corr))) <= 1e-8
        assert abs(corr) <= 2.0 * omega(q_exp, z)
        assert np.max(np.abs(wr - 1.0)) == pytest.approx(abs(corr), rel=1e-4)


def test_sc_wronskian_in_conditioned_region(q_exp):
    # envelope-based trust region: the two Wronskian products are
    # g_B(x-z)^2-sized and cancel to -1, so roundoff amplifies by g_B^2;
    # w <= 5 keeps that amplification near 1e-10. The region spans the WKB
    # phase of default_grid from x = 0 to z + 5, so it holds at least that
    # phase over PANEL_PHASE panel ends
    scale = 1.0 + q_exp.sup_norm      # default_grid's c
    for z in (6.0, ss.locate_eigenvalue(q_exp, 2).lam):
        s, c = ss.solve_sc(volterra.workspace(q_exp, z), z)
        wsc = s.values * c.derivs - s.derivs * c.values
        trust = (s.grid.nodes - z) <= 5.0
        phase = sum((2.0 / 3.0) * ((scale + d) ** 1.5 - scale ** 1.5) for d in (z, 5.0))
        assert trust.sum() >= phase / volterra.PANEL_PHASE
        assert np.max(np.abs(wsc[trust] + 1.0)) <= 1e-8


def test_s_is_proportional_to_psi_at_eigenvalue(q_exp):
    rec = ss.locate_eigenvalue(q_exp, 4)
    grid = rec.psi.grid
    s, _ = ss.solve_sc(Workspace(q_exp, rec.lam, grid), rec.lam)
    dev = np.abs(s.values * rec.psi_prime0 - rec.psi.values)
    w_grow = envelope_weights(grid, rec.lam, grow=True)
    w_decay = envelope_weights(grid, rec.lam, grow=False)
    scale = np.max(np.abs(rec.psi.values) * w_decay)
    # envelope-weighted comparison: past the turning point the forward
    # solution s carries the unavoidable growing-channel roundoff
    assert np.max(dev * w_grow) <= 1e-7 * scale


@pytest.mark.parametrize("q", [ss.exp_decay(0.3, 1.0), ss.exp_decay(-8.0, 0.5),
                               ss.bump(4.0, 2.0, 1.0)], ids=["exp0.3", "exp-8", "bump4"])
@pytest.mark.parametrize("z", [1.7, 6.3, 15.2])
def test_source_solve_meets_greens_identity(q, z):
    # W(psi, u) has derivative -psi g and vanishes at x_max, where u starts
    # from zero data, so psi(0) u'(0) - psi'(0) u(0) = int psi g
    grid = default_grid(q, z)
    ws = Workspace(q, z, grid)
    psi = ss.solve_psi(ws, z)
    g = np.cos(grid.gauss_x) * psi.gauss_values
    _, u_b = volterra.solve_source(ws, z, g, (0.0, 0.0))
    wronskian = psi.values[0] * u_b[1, 0] - psi.derivs[0] * u_b[0, 0]
    pairing = grid.weights * psi.gauss_values * g
    assert abs(wronskian - np.sum(pairing)) <= 1e-12 * np.sum(np.abs(pairing))


@pytest.mark.parametrize("key", list(POTENTIALS))
def test_source_orthogonal_to_psi_leaves_u_zero_at_0(records_cache, key):
    # eta = psi / ||psi|| moves along v by u - <u, eta> eta, where
    # (H_q - lambda) u = g = (d lambda - v) psi from zero data at x_max; g is
    # orthogonal to psi, so at a root, where psi(0) = 0, Green's identity
    # gives u(0) = 0, and d kappa = 2 (u'(0) / psi'(0) - <u, psi> / ||psi||^2),
    # the source-solve route that the Gauss sum of the kappa density matches
    q, recs = records_cache(key, 3)
    for n in (1, 3):
        for v in (ss.exp_decay(1.0, 1.0), ss.bump(1.0, 2.0, 1.0)):
            rec = spectrum.paired_record(q, n, v, recs[n])
            grid, psi = rec.psi.grid, rec.psi.gauss_values
            g = (ss.lambda_directional_derivative(q, n, v, rec) - v.q(grid.gauss_x)) * psi
            u_g, u_b = volterra.solve_source(Workspace(q, rec.lam, grid), rec.lam, g, (0.0, 0.0))
            assert abs(u_b[0, 0]) <= 1e-12 * max(np.max(np.abs(u_g)), np.max(np.abs(u_b[0])))
            norm_sq = -rec.psi_prime0 * rec.psi_dot0
            d_kappa = 2.0 * (u_b[1, 0] / rec.psi_prime0
                             - np.sum(grid.weights * u_g * psi) / norm_sq)
            assert ss.kappa_directional_derivative(q, n, v, rec) == pytest.approx(
                d_kappa, rel=1e-9), (n, v)


def _extended(grid):
    # the same grid with 6 more units of panels past x_max, interior nodes
    # unchanged, so a difference isolates what the truncation drops
    return grid_from_nodes(np.concatenate([grid.nodes, grid.x_max + 0.05 * np.arange(1, 121)]))


@pytest.mark.parametrize("key", list(POTENTIALS))
def test_tail_insensitivity(key):
    # q past x_max only rescales psi on [0, x_max] (and admixes the growing
    # solution by ~exp(-(4/3) (x_max - z)^(3/2))): the Weyl ratio
    # psi'(0)/psi(0), free of psi's scale, and kappa at a root, where
    # psi(0) = 0, do not see it. psi(0) itself moves with the scale.
    q = POTENTIALS[key]()
    for z in (2.5, 9.5):
        grid = default_grid(q, z)
        psi = ss.solve_psi(Workspace(q, z, grid), z)
        wide = ss.solve_psi(Workspace(q, z, _extended(grid)), z)
        ratio, ratio_wide = (p.derivs[0] / p.values[0] for p in (psi, wide))
        assert abs(ratio_wide - ratio) <= 1e-13 * abs(ratio), z
    for n in (1, 2):
        rec = ss.locate_eigenvalue(q, n)
        grid = _extended(rec.psi.grid)
        _, prof = spectrum._newton(q, rec.lam, Workspace(q, rec.lam, grid), rec.bracket)
        kappa = math.log(-prof.derivs[0] / prof.z_derivs[0])
        assert abs(kappa - rec.kappa) <= 1e-13, n


def test_picard_cap_signals(q_zero):
    # at lambda_1 of this potential the psi_dot sweeps need more than the cap
    q_big = ss.exp_decay(300.0, 1.0, r=2.0)
    with pytest.raises(NumericError):
        ss.solve_psi(volterra.workspace(q_big, 7.3977570023), 7.3977570023)


def _halved(grid):
    # every panel split at its midpoint
    nodes = grid.nodes
    return grid_from_nodes(np.union1d(nodes, 0.5 * (nodes[1:] + nodes[:-1])))


def test_picard_stops_on_a_solution_far_above_its_seed():
    # q - z > 0 near 0 makes psi there about 4e4 times its seed psi0, and
    # the update stalls at roundoff above PICARD_TOL of the seed's scale;
    # the stop relative to the solution ends the sweeps on a converged solve
    q = ss.exp_decay(20.0, 0.5, r=2.0)
    z = 3.4630284272953684
    grid = default_grid(q, z)
    psi = ss.solve_psi(Workspace(q, z, grid), z)
    fine = ss.solve_psi(Workspace(q, z, _halved(grid)), z)
    assert fine.values[0] == pytest.approx(psi.values[0], rel=1e-13)
    assert fine.z_derivs[0] == pytest.approx(psi.z_derivs[0], rel=1e-13)


def test_picard_stops_at_the_roundoff_floor_of_a_deep_well():
    # in the well of exp(-20, 0.5) the psi_dot iterates grow about 1e4-fold
    # before the series converges; on the grid of -a_5, at the first Newton
    # iterate for n = 5, the float sweeps end in a cycle whose update, 4.6e-12
    # of the solution, never reaches PICARD_TOL. The sweeps stop there, and
    # the solve agrees with one on the halved grid to the floor
    q = ss.exp_decay(-20.0, 0.5, r=2.0)
    z = 4.921329954278489
    grid = default_grid(q, -ss.airy_zero(5))
    psi = ss.solve_psi(Workspace(q, z, grid), z)
    fine = ss.solve_psi(Workspace(q, z, _halved(grid)), z)
    assert fine.derivs[0] == pytest.approx(psi.derivs[0], rel=1e-13)
    assert fine.z_derivs[0] == pytest.approx(psi.z_derivs[0], rel=1e-10)


def test_eigenvalue_shooting_consistency(q_exp):
    rec = ss.locate_eigenvalue(q_exp, 2)
    psi = ss.solve_psi(Workspace(q_exp, rec.lam, rec.psi.grid), rec.lam)
    assert abs(psi.values[0]) <= 1e-10 * abs(psi.derivs[0])


def test_concurrent_solves_are_pure(q_exp, monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor
    monkeypatch.setattr(volterra, "_lattice", {})   # the threads race through its growth
    zs = [1.5, 4.0, 7.5, 11.0, -2.0, 25.0]

    def solve(z):
        return ss.solve_psi(volterra.workspace(q_exp, z), z)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(zs)) as pool:
            futures = [pool.submit(solve, z) for z in zs]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for z, prof in zip(zs, results):
        ref = solve(z)
        assert np.array_equal(prof.values, ref.values)
        assert np.array_equal(prof.z_derivs, ref.z_derivs)
        assert np.array_equal(prof.gauss_z_derivs, ref.gauss_z_derivs)


def _airy_envelope_error(w, got, ref):
    """Largest |got - ref| over the (Ai, Ai', Bi, Bi') rows, the Ai rows
    weighted by sigma e^E and the Bi rows by sigma e^-E at w."""
    E = (2.0 / 3.0) * np.maximum(w, 0.0) ** 1.5
    sigma = 1.0 + np.abs(w) ** 0.25
    weights = (sigma * np.exp(E),) * 2 + (sigma * np.exp(-E),) * 2
    return max(float(np.max(np.abs(g - r) * wt)) for g, r, wt in zip(got, ref, weights))


@settings(max_examples=200, deadline=None)
@given(st.floats(-45.0, 46.0), st.floats(0.0, 6.0))
def test_airy_table_accuracy(w_lo, span):
    # every point steps from its nearest lattice point, anywhere in [-45, 46]
    w = np.linspace(w_lo, min(w_lo + span, 46.0), 7)
    assert _airy_envelope_error(w, airy_table(w), np.array(special.airy(w))) <= 1e-12


def test_airy_table_accuracy_across_the_range():
    # one table over the whole range, and the points halfway between
    # lattice points, where the step is longest
    for w in (np.linspace(-45.0, 46.0, 20001),
              (np.arange(-45 * 64, 46 * 64) + 0.5) * LATTICE_STEP):
        assert _airy_envelope_error(w, airy_table(w), np.array(special.airy(w))) <= 1e-12


def test_airy_table_is_amos_at_lattice_points():
    # the stored chunks, and around w = -200 a chunk grown by one AMOS call
    w = np.concatenate([np.arange(-45 * 64, 46 * 64 + 1, 7),
                        np.arange(-200 * 64 - 40, -200 * 64 + 41, 3)]) * LATTICE_STEP
    assert np.array_equal(airy_table(w), np.array(special.airy(w)))


def test_stored_lattice_chunks_are_amos_values():
    # airy_lattice.npy is np.save of the (6, 4, 1024) stack of these rows:
    # special.airy on lattice chunks -4..1, bit for bit
    stored = volterra._stored_lattice()
    assert sorted(stored) == list(range(-4, 2))
    for chunk, rows in stored.items():
        w = (chunk * volterra._CHUNK + np.arange(volterra._CHUNK)) * LATTICE_STEP
        assert np.array_equal(rows, np.array(special.airy(w)))


def test_airy_table_vs_mpmath_off_the_lattice():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    w = np.array([-40.123456789, -7.3, -0.01, 0.0071, 1.234567, 9.87654321, 29.99])
    got = airy_table(w)
    ref = np.array([[float(mpmath.airyai(x)), float(mpmath.airyai(x, 1)),
                     float(mpmath.airybi(x)), float(mpmath.airybi(x, 1))] for x in w]).T
    assert _airy_envelope_error(w, got, ref) <= 1e-12


def test_airy_table_does_not_depend_on_the_lattice_history(monkeypatch):
    # cold, warm, or grown from the other end: the same bits
    w_lo, w_hi = np.linspace(-44.0, -20.0, 999), np.linspace(10.0, 45.0, 999)
    monkeypatch.setattr(volterra, "_lattice", {})
    cold = airy_table(w_lo), airy_table(w_hi)
    warm = airy_table(w_lo), airy_table(w_hi)
    monkeypatch.setattr(volterra, "_lattice", {})
    reverse = airy_table(w_hi), airy_table(w_lo)
    for got in (warm, reverse[::-1]):
        assert all(np.array_equal(a, b) for a, b in zip(got, cold))


def test_airy_table_on_chunks_that_are_not_adjacent():
    # points near -40, 0 and +40 fall in lattice chunks with gaps between
    # them; mixed in one call with lattice points, each group gets the bits
    # of a call on that group alone, and the lattice points the AMOS bits
    rng = np.random.default_rng(17)
    groups = [centre + rng.uniform(-0.6, 0.6, 41) for centre in (-40.0, 0.0, 40.0)]
    lattice = (np.array([-40.0, 0.0, 40.0])[:, None]
               + LATTICE_STEP * np.arange(-3, 4)).ravel()
    mixed = np.concatenate([*groups, lattice])
    order = rng.permutation(mixed.size)
    table = np.empty((4, mixed.size))
    table[:, order] = airy_table(mixed[order])
    start = 0
    for group in groups:
        stop = start + group.size
        assert np.array_equal(table[:, start:stop], airy_table(group))
        start = stop
    assert np.array_equal(table[:, start:], np.array(special.airy(lattice)))


def test_airy_step_of_zero_returns_its_inputs():
    # floats and arrays alike: the bits of f and f'
    w = np.linspace(-30.0, 30.0, 13)
    table = airy_table(w)
    f, fp = table[0::2], table[1::2]            # Ai and Bi rows
    val, der = volterra._airy_step(f, fp, w, np.zeros_like(w))
    assert np.array_equal(val, f) and np.array_equal(der, fp)
    for row, i in np.ndindex(f.shape):
        assert volterra._airy_step(f[row, i], fp[row, i], w[i], 0.0) == (f[row, i], fp[row, i])


def test_airy_step_of_one_point_is_the_same_for_floats_and_arrays():
    rng = np.random.default_rng(5)
    for w, h in zip(rng.uniform(-30.0, 30.0, 40), rng.uniform(-0.125, 0.125, 40)):
        table = airy_table(np.array([w]))
        val, der = volterra._airy_step(table[0::2], table[1::2], np.array([w]), np.array([h]))
        for row in (0, 1):          # Ai, Bi
            f, fp = float(table[2 * row, 0]), float(table[2 * row + 1, 0])
            assert (val[row, 0], der[row, 0]) == volterra._airy_step(f, fp, w, h)


def test_airy_ai_of_one_float_is_the_table_of_that_point():
    # airy_zero's Newton steps read these bits, off the stored chunks too
    rng = np.random.default_rng(7)
    for w in [*rng.uniform(-64.0, 32.0, 40), -150.3, 40 * LATTICE_STEP, 0.0]:
        assert volterra.airy_ai(w) == tuple(airy_table(np.array([w]))[:2, 0])


def test_airy_step_within_the_reach_agrees_with_amos():
    # the shifted seeds of solve_psi and solve_theta: one float step per
    # point, |h| <= REACH_PHASE, from airy_table values on w in [-30, 30]
    rng = np.random.default_rng(11)
    w = np.linspace(-30.0, 30.0, 241)
    h = rng.uniform(-volterra.REACH_PHASE, volterra.REACH_PHASE, w.size)
    h[::40] = (-volterra.REACH_PHASE, volterra.REACH_PHASE) * 3 + (0.0,)
    table = airy_table(w)
    got = np.array([[c for row in (0, 2) for c in volterra._airy_step(
        table[row, i], table[row + 1, i], w[i], h[i])] for i in range(w.size)]).T
    assert _airy_envelope_error(w + h, got, np.array(special.airy(w + h))) <= 1e-12


@pytest.mark.parametrize("nodes", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [0.0, 2.0, 1.0]])
def test_grid_from_nodes_rejects_non_finite_nodes(nodes):
    with pytest.raises(ss.DomainError, match="grid_from_nodes"):
        grid_from_nodes(nodes)


def test_airy_table_rejects_non_finite_points():
    for bad in (np.nan, np.inf, 1e300):
        with pytest.raises(ss.DomainError, match="airy_table"):
            airy_table(np.array([0.0, bad]))


def test_airy_table_of_no_points_is_empty_and_calls_no_amos(monkeypatch):
    def airy(w):
        raise AssertionError("AMOS called for no points")

    monkeypatch.setattr(volterra, "special", SimpleNamespace(airy=airy))
    assert airy_table(np.array([])).shape == (4, 0)


def test_lattice_grows_by_new_chunks_only(monkeypatch):
    points = []

    def airy(w):
        points.extend(np.ravel(w))
        return special.airy(w)

    monkeypatch.setattr(volterra, "_lattice", {})
    monkeypatch.setattr(volterra, "special", SimpleNamespace(airy=airy))
    airy_table(np.linspace(-10.0, 10.0, 101))
    first = len(points)
    airy_table(np.linspace(-10.0, 10.0, 101))
    assert len(points) == first
    airy_table(np.linspace(-30.0, 30.0, 101))
    assert len(set(points)) == len(points)          # no lattice point twice


def test_concurrent_growth_keeps_every_chunk(monkeypatch):
    import threading
    from concurrent.futures import ThreadPoolExecutor
    barrier = threading.Barrier(2, timeout=60)

    def airy(w):
        rows = special.airy(w)
        barrier.wait()          # both threads are inside AMOS before either stores
        return rows

    monkeypatch.setattr(volterra, "_lattice", volterra._stored_lattice())
    monkeypatch.setattr(volterra, "special", SimpleNamespace(airy=airy))
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(airy_table, np.array([w])) for w in (-100.0, -200.0)]
        for f in futures:
            f.result(timeout=120)
    assert {-7, -13} <= volterra._lattice.keys()


def test_moved_workspace_solves_like_a_fresh_one(q_exp):
    # beyond the reach, on a grid that still ends DECAY_LENGTH past z, a
    # solve on the base runs on a table built at z on the base's grid
    z0 = 9.0
    grid = default_grid(q_exp, z0)
    base = Workspace(q_exp, z0, grid)
    for z in (z0 - 1.7, z0 + 0.05, z0 + 1.9):
        assert abs(z - z0) > base.reach
        picked, fresh = volterra.workspace(q_exp, z, base), Workspace(q_exp, z, grid)
        assert picked.grid is grid and picked.z == z
        for col in ("table", "weight_decay", "weight_grow"):
            assert np.array_equal(getattr(picked, col), getattr(fresh, col))
        on_base = ss.solve_psi(volterra.workspace(q_exp, z, base), z)
        on_grid = ss.solve_psi(Workspace(q_exp, z, grid), z)
        assert np.array_equal(on_base.values, on_grid.values)
        assert np.array_equal(on_base.z_derivs, on_grid.z_derivs)
        assert np.array_equal(on_base.gauss_z_derivs, on_grid.gauss_z_derivs)


def test_airy_shift_zero_step_is_exact(q_exp):
    # a point on the lattice takes a zero Taylor step: the AMOS bits
    w = np.arange(-45 * 64, 40 * 64 + 1) * LATTICE_STEP
    assert np.array_equal(airy_table(w), np.array(special.airy(w)))
    # z0 itself is served by the base, and a table built at z0 again, after
    # one at a neighbour, gives the base's bits
    grid = default_grid(q_exp, 6.0)
    base = Workspace(q_exp, 6.0, grid)
    assert volterra.workspace(q_exp, 6.0, base) is base
    back = volterra.workspace(q_exp, 6.0, volterra.workspace(q_exp, 6.05, base))
    assert back is not base and back.z == 6.0
    for col in ("table", "weight_decay", "weight_grow"):
        assert np.array_equal(getattr(back, col), getattr(base, col))


def test_moved_workspace_reports_bi_overflow(q_zero):
    # AMOS returns nan for Bi' past w ~ 103.4; a table that ends at 103 is
    # finite, and so is one built 0.15 lower on the same grid
    grid = grid_from_nodes(np.linspace(0.0, 103.0, 516))
    base = Workspace(q_zero, 0.0, grid)
    assert volterra.workspace(q_zero, 0.0, base) is base
    assert np.isfinite(Workspace(q_zero, -0.15, grid).boundary[3, -1])     # Bi' at x_max
    # the message says what is wrong and where: the table, z and max w
    with pytest.raises(NumericError, match=r"Airy table non-finite at z = -0\.6, max w = 103\.6;"):
        Workspace(q_zero, -0.6, grid)


def test_workspace_picks_the_table_of_every_solve(q_exp, q_zero):
    # the one rule, on a base whose grid ends DECAY_LENGTH + TRUNCATION_MARGIN
    # past its centre: the base within its reach, a table at z on its grid
    # beyond, and z's default grid once the grid ends less than DECAY_LENGTH
    # past z, so a Newton root is solved where the envelope decays
    assert volterra.DECAY_LENGTH == pytest.approx(11.9763771, abs=1e-6)
    z0 = 9.0
    grid = default_grid(q_exp, z0)
    base = Workspace(q_exp, z0, grid)
    for z in (z0 - 0.999 * base.reach, z0 + 0.999 * base.reach):
        assert volterra.workspace(q_exp, z, base) is base
    for z in (z0 - 1.01 * base.reach, z0 + 1.9):
        picked = volterra.workspace(q_exp, z, base)
        assert picked.grid is grid and picked.z == z
    for z in (z0 + 2.1, z0 + 6.0):
        assert grid.x_max < z + volterra.DECAY_LENGTH
        picked = volterra.workspace(q_exp, z, base)
        assert picked.z == z and picked.grid.x_max == z + ENVELOPE_OFFSET
        assert np.array_equal(picked.grid.nodes, default_grid(q_exp, z).nodes)
        assert picked.q is q_exp
        with pytest.raises(ss.DomainError, match="workspace"):
            volterra.workspace(q_zero, z, base)
        on_base = ss.solve_psi(volterra.workspace(q_exp, z, base), z)
        fresh = ss.solve_psi(volterra.workspace(q_exp, z), z)
        assert np.array_equal(on_base.values, fresh.values)
        assert np.array_equal(on_base.z_derivs, fresh.z_derivs)
        assert np.array_equal(on_base.gauss_z_derivs, fresh.gauss_z_derivs)


def test_a_workspace_of_another_potential_is_a_domain_error():
    # a Workspace of q picked from one built for another potential would
    # solve the base's potential: exp(0.3, 1) where exp(5, 1) was asked for
    q, other = ss.exp_decay(5.0, 1.0), ss.exp_decay(0.3, 1.0)
    ws = volterra.workspace(other, 3.0)
    for z in (3.0, 3.0 + 1.9, 3.0 + 6.0):       # within reach, on its grid, beyond it
        with pytest.raises(ss.DomainError, match="workspace"):
            volterra.workspace(q, z, ws)
        assert volterra.workspace(other, z, ws).q is other


def test_a_solve_builds_no_workspace(q_exp, monkeypatch):
    # the caller picks the Workspace: a solve, shifted within the reach
    # or not, runs on the one it is given
    ws = Workspace(q_exp, 4.0, default_grid(q_exp, 4.0))
    builds = []
    init = Workspace.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(Workspace, "__init__", counted)
    for z in (4.0, 4.0 + 0.5 * ws.reach):
        for solve in (ss.solve_psi, ss.solve_theta, ss.solve_sc):
            solve(ws, z)
    assert builds == []


def _four_classes(ws, z):
    # psi (decaying) and theta, s, c (growing), each with its envelope class
    s, c = ss.solve_sc(ws, z)
    return ((ss.solve_psi(ws, z), False), (ss.solve_theta(ws, z), True),
            (s, True), (c, True))


@pytest.mark.parametrize("z0", [A1, 9.0])
def test_shifted_solves_agree_with_a_fresh_workspace(q_exp, z0):
    # a solve at z on the table at z0 carries z - z0 as a constant potential
    grid = default_grid(q_exp, z0)
    base = Workspace(q_exp, z0, grid)
    for frac in (-0.999, -0.5, 0.5, 0.999):      # up to the reach, rounding aside
        z = z0 + frac * base.reach
        assert volterra.workspace(q_exp, z, base) is base
        for (shifted, grow), (fresh, _) in zip(
                _four_classes(volterra.workspace(q_exp, z, base), z),
                _four_classes(Workspace(q_exp, z, grid), z)):
            w = envelope_weights(grid, z, grow)
            # psi, the decaying class, alone carries a z-derivative
            for name in ("values", "derivs") + (() if grow else ("z_derivs",)):
                got, want = getattr(shifted, name), getattr(fresh, name)
                scale = np.max(np.abs(want) * w)
                assert np.max(np.abs(got - want) * w) <= 1e-12 * scale, (frac, name)


def test_shifted_psi_dot_matches_a_central_difference(q_exp):
    z0 = A1 + 0.37
    base = Workspace(q_exp, z0, default_grid(q_exp, z0))
    z, h = z0 + 0.5 * base.reach, 1e-4
    psi = ss.solve_psi(volterra.workspace(q_exp, z, base), z)
    fd = (ss.solve_psi(volterra.workspace(q_exp, z + h, base), z + h).values[0]
          - ss.solve_psi(volterra.workspace(q_exp, z - h, base), z - h).values[0]) / (2 * h)
    assert fd == pytest.approx(psi.z_derivs[0], rel=1e-7)


def test_beyond_the_reach_a_solve_moves_the_table(q_exp):
    # past the reach the table moves, and a move gives a fresh table's bits
    z0 = A1
    grid = default_grid(q_exp, z0)
    base = Workspace(q_exp, z0, grid)
    z = z0 + 1.01 * base.reach
    moved = volterra.workspace(q_exp, z, base)
    assert moved is not base and moved.z == z
    for (got, _), (want, _) in zip(_four_classes(volterra.workspace(q_exp, z, base), z),
                                   _four_classes(Workspace(q_exp, z, grid), z)):
        for name in ("values", "derivs", "z_derivs", "gauss_values", "gauss_z_derivs"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_concurrent_shifted_solves_are_pure(q_exp):
    # shifted solves only read the shared Workspace, so threads racing
    # through one table give the serial bits
    import sys
    from concurrent.futures import ThreadPoolExecutor
    z0 = 9.0
    base = Workspace(q_exp, z0, default_grid(q_exp, z0))
    zs = [z0 + f * base.reach for f in (-0.999, -0.6, -0.2, 0.3, 0.7, 0.999, 1.5)]

    def solve(z):
        return ss.solve_psi(volterra.workspace(q_exp, z, base), z)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve, z) for z in zs]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert base.z == z0
    for z, prof in zip(zs, results):
        ref = solve(z)
        assert np.array_equal(prof.values, ref.values)
        assert np.array_equal(prof.z_derivs, ref.z_derivs)
        assert np.array_equal(prof.gauss_z_derivs, ref.gauss_z_derivs)
