"""Shared fixtures: the test potential family and cached eigen-solves."""
import pytest

import starkspec as ss

# the four cross-method potentials plus a slow-decay low-r family
POTENTIALS = {
    "exp+": lambda: ss.exp_decay(0.3, 1.0, r=2.0),
    "exp-": lambda: ss.exp_decay(-0.3, 1.0, r=2.0),
    "alg": lambda: ss.alg_decay(0.5, 3.0, r=2.0),
    "bump": lambda: ss.bump(0.4, 2.0, 1.0, r=2.0),
    "low_r": lambda: ss.alg_decay(0.4, 1.5, r=1.5),
}


def asym_report(q, recs, n_hi=40):
    """build_report on the records' residuals against both first-order
    predictions, over n = 2..n_hi."""
    ns = [n for n in sorted(recs) if 2 <= n <= n_hi]
    return ss.build_report(ns, [recs[n].lam - recs[n].lam_pred for n in ns],
                           [recs[n].kappa - ss.kappa_prediction(q, n) for n in ns])


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

