"""Shared fixtures: the test potential family and cached eigen-solves."""
import numpy as np
import pytest

import starkspec as ss
from starkspec import cli


def _table30():
    # the cubic spline of the asympt-table30 benchmark campaign: 49
    # equispaced knots on [0, 12], the last one 0
    xs = np.linspace(0.0, 12.0, 49)
    ys = 0.4 * np.exp(-xs / 2) * np.cos(1.3 * xs) * (1 - (xs / 12) ** 2) ** 3
    return ss.tabulated(xs, ys, r=2.0)


# the four cross-method potentials, a slow-decay low-r family and a spline
POTENTIALS = {
    "exp+": lambda: ss.exp_decay(0.3, 1.0, r=2.0),
    "exp-": lambda: ss.exp_decay(-0.3, 1.0, r=2.0),
    "alg": lambda: ss.alg_decay(0.5, 3.0, r=2.0),
    "bump": lambda: ss.bump(0.4, 2.0, 1.0, r=2.0),
    "low_r": lambda: ss.alg_decay(0.4, 1.5, r=1.5),
    "table30": _table30,
}


def asym_report(recs, n_hi=40):
    """build_report on the records' residuals against both first-order
    predictions, over n = 2..n_hi, with the default noise floors."""
    ns = [n for n in sorted(recs) if 2 <= n <= n_hi]
    tol = cli.DEFAULT_TOLERANCES
    return ss.build_report(ns, [recs[n].lam - recs[n].lam_pred for n in ns],
                           [recs[n].kappa - recs[n].kappa_pred for n in ns],
                           tol["lambda_noise_floor"], tol["kappa_noise_floor"])


@pytest.fixture(scope="session")
def q_zero():
    return ss.make_potential({"family": "exp", "params": {"c": 0.0, "a": 1.0}, "r": 2.0})


@pytest.fixture(scope="session")
def q_exp():
    return POTENTIALS["exp+"]()


@pytest.fixture(scope="session")
def records_cache():
    """Lazy per-potential eigen-solve cache shared across the session."""
    cache = {}

    def get(key: str, n_max: int):
        q = POTENTIALS[key]()
        have = cache.setdefault(key, {})
        for n in range(1, n_max + 1):
            if n not in have:
                have[n] = ss.locate_eigenvalue(q, n)
        return q, {n: have[n] for n in range(1, n_max + 1)}

    return get


@pytest.fixture(scope="session")
def zero_records():
    q = ss.make_potential({"family": "exp", "params": {"c": 0.0, "a": 1.0}, "r": 2.0})
    return q, {n: ss.locate_eigenvalue(q, n) for n in range(1, 31)}

