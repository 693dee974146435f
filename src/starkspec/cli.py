"""Experiment configuration, verification campaigns, and report files.

A campaign computes spectral data for one potential over an index range,
compares methods, evaluates the first-order predictions, fits remainder
decay rates, and writes results.csv / summary.json / log.txt. All output
is deterministic: identical configs produce byte-identical CSV files.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import asymptotics, oracle, spectrum, volterra
from .airy import airy_zero, envelope_margin, zero_seed
from .errors import StarkSpecError, ValidationError
from .potentials import Potential, blend, bump, exp_decay, make_potential, omega_r
from .volterra import Workspace, envelope_offset, solve_sc, solve_theta

__all__ = ["ExperimentConfig", "parse_config", "run_verify", "main",
           "SUMMARY_SCHEMA", "EXIT_OK", "EXIT_CONFIG", "EXIT_NUMERIC", "EXIT_CHECK"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

CSV_COLUMNS = ("n", "lambda_shoot", "lambda_oracle", "lambda_pred", "lambda_resid",
               "kappa_shoot", "kappa_oracle", "kappa_pred", "kappa_resid", "omega_r")

_ALL_METHODS = ("shooting", "oracle")
_ALL_CHECKS = ("eigen_asym", "kappa_asym", "gradients", "invariants")

#: spec-pinned default tolerances; slope entries are decay magnitudes
DEFAULT_TOLERANCES = {
    "lambda_vs_oracle": 1e-6,
    "kappa_vs_oracle": 1e-4,
    "slope_decay_min": 0.8,
    "slope_decay_min_low_r": 0.75,
    "grad_lambda": 1e-4,
    "grad_kappa": 1e-3,
    "wronskian": 1e-8,
    "norm_identity_gap": 1e-6,
    "lambda_noise_floor": 1e-9,
    "kappa_noise_floor": 1e-8,
}

_DEFAULT_POTENTIAL = {"family": "exp", "params": {"c": 0.0, "a": 1.0}, "r": 2.0}

SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["potential", "n_range", "checks", "slopes", "constants", "all_passed"],
    "properties": {
        "potential": {"type": "object"},
        "n_range": {"type": "array", "items": {"type": "integer"},
                    "minItems": 2, "maxItems": 2},
        "checks": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["passed"],
                "properties": {"passed": {"type": "boolean"}},
            },
        },
        "slopes": {"type": "object"},
        "constants": {"type": "object"},
        "all_passed": {"type": "boolean"},
    },
}


@dataclass
class ExperimentConfig:
    potential: dict = field(default_factory=lambda: dict(_DEFAULT_POTENTIAL))
    n_min: int = 1
    n_max: int = 30
    methods: tuple = _ALL_METHODS
    checks: tuple = _ALL_CHECKS
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output_dir: str = "out"


def _int_field(raw: dict, key: str) -> int:
    val = raw[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValidationError(f"config.{key} must be an integer, got {val!r}")
    return val


def _names_field(raw: dict, key: str, allowed: tuple) -> tuple:
    names = raw[key]
    if not isinstance(names, list):
        raise ValidationError(f"config.{key} must be a list, got {names!r}")
    bad = [name for name in names if name not in allowed]
    if bad:
        raise ValidationError(f"config.{key}: unknown entries {bad}")
    return tuple(names)


def parse_config(text: str) -> ExperimentConfig:
    """Validated config from JSON text, defaults filled."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    known = {"potential", "n_min", "n_max", "methods", "checks",
             "tolerances", "output_dir"}
    for key in raw:
        if key not in known:
            raise ValidationError(f"config: unknown field {key!r}")
    cfg = ExperimentConfig()
    if "potential" in raw:
        make_potential(raw["potential"])  # validation; errors propagate
        cfg.potential = raw["potential"]
    if "n_min" in raw:
        cfg.n_min = _int_field(raw, "n_min")
    if "n_max" in raw:
        cfg.n_max = _int_field(raw, "n_max")
    if cfg.n_min < 1:
        raise ValidationError(f"config.n_min must be >= 1, got {cfg.n_min}")
    if cfg.n_max < cfg.n_min:
        raise ValidationError("config.n_max must be >= n_min")
    if "methods" in raw:
        cfg.methods = _names_field(raw, "methods", _ALL_METHODS)
    if "checks" in raw:
        cfg.checks = _names_field(raw, "checks", _ALL_CHECKS)
    if "tolerances" in raw:
        if not isinstance(raw["tolerances"], dict):
            raise ValidationError("config.tolerances must be an object")
        tol = dict(DEFAULT_TOLERANCES)
        for key, val in raw["tolerances"].items():
            if key not in DEFAULT_TOLERANCES:
                raise ValidationError(f"config.tolerances: unknown entry {key!r}")
            if (isinstance(val, bool) or not isinstance(val, (int, float))
                    or not 0 < val < math.inf):
                raise ValidationError(f"config.tolerances.{key} must be positive and finite")
            tol[key] = float(val)
        cfg.tolerances = tol
    if "output_dir" in raw:
        cfg.output_dir = raw["output_dir"]
        if not isinstance(cfg.output_dir, str):
            raise ValidationError(f"config.output_dir must be a string, got {cfg.output_dir!r}")
    return cfg


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(float(x), ".17g")


def _oracle_length(n_max: int) -> float:
    # envelope decay offset past the highest turning point, plus the spec margin
    return -airy_zero(n_max).a_n + envelope_offset() + 5.0


def _compute_rows(q: Potential, cfg: ExperimentConfig, log: list,
                  with_oracle: bool, with_pred: bool):
    ns = list(range(cfg.n_min, cfg.n_max + 1))
    records = {}
    for n in ns:
        records[n] = spectrum.locate_eigenvalue(q, n)
    log.append(f"shooting: solved n = {cfg.n_min}..{cfg.n_max}")
    lam_o = {n: float("nan") for n in ns}
    kap_o = {n: float("nan") for n in ns}
    if with_oracle:
        L = _oracle_length(cfg.n_max)
        lam, kap = oracle.extrapolated_spectrum(q, L, cfg.n_max)
        for n in ns:
            lam_o[n] = float(lam[n - 1])
            kap_o[n] = float(kap[n - 1])
        log.append(f"oracle: Richardson over meshes {oracle.DEFAULT_MESHES}, L = {L:.6g}")
    rows = []
    for n in ns:
        rec = records[n]
        lam_p = rec.lam_pred if with_pred else float("nan")
        kap_p = rec.kappa_pred if with_pred else float("nan")
        rows.append({
            "n": n,
            "lambda_shoot": rec.lam,
            "lambda_oracle": lam_o[n],
            "lambda_pred": lam_p,
            "lambda_resid": rec.lam - lam_p,
            "kappa_shoot": rec.kappa,
            "kappa_oracle": kap_o[n],
            "kappa_pred": kap_p,
            "kappa_resid": rec.kappa - kap_p,
            "omega_r": omega_r(q.r, n),
        })
    return rows, records


def _check_asym(q, rows, cfg) -> dict:
    """Both remainder-decay checks, keyed "lambda" and "kappa", from one
    report on the residuals the rows hold."""
    tol = cfg.tolerances
    decay_min = (tol["slope_decay_min"] if q.r >= 2.0 else tol["slope_decay_min_low_r"])
    fit = [row for row in rows if row["n"] >= 2]
    rep = asymptotics.build_report([row["n"] for row in fit],
                                   [row["lambda_resid"] for row in fit],
                                   [row["kappa_resid"] for row in fit],
                                   lambda_floor=tol["lambda_noise_floor"],
                                   kappa_floor=tol["kappa_noise_floor"])
    checks = {}
    for which, slope_fit, resid in (("lambda", rep.fitted_slope_lambda, rep.lambda_resid),
                                    ("kappa", rep.fitted_slope_kappa, rep.kappa_resid)):
        slope, half = slope_fit or (None, None)
        checks[which] = {
            "passed": slope is None or bool(slope <= -decay_min),
            "slope": slope,
            "half_width": half,
            "threshold": -decay_min,
            "noise_floor": tol[f"{which}_noise_floor"],
        }
        if slope is None:
            # too few residuals above the noise to fit (all at the floor for
            # the zero potential, or a short index range): nothing to falsify
            above = int(np.sum(asymptotics.above_noise(resid, tol[f"{which}_noise_floor"])))
            checks[which]["note"] = (
                f"{above} residuals above 10x the noise floor, the fit needs "
                f"{asymptotics.MIN_FIT_POINTS}; vacuously consistent")
    return checks


def _check_gradients(q, records, cfg):
    tol = cfg.tolerances
    n = cfg.n_min
    rec = records[n]
    probes = [exp_decay(1.0, 1.0, r=q.r), bump(1.0, 2.0, 1.0, r=q.r)]
    h = 1e-4
    worst_l, worst_k = 0.0, 0.0
    for v in probes:
        dl = spectrum.lambda_directional_derivative(q, n, v, rec)
        dk = spectrum.kappa_directional_derivative(q, n, v, rec)
        plus = spectrum.locate_eigenvalue(blend(q, v, h), n)
        minus = spectrum.locate_eigenvalue(blend(q, v, -h), n)
        fd_l = (plus.lam - minus.lam) / (2 * h)
        fd_k = (plus.kappa - minus.kappa) / (2 * h)
        worst_l = max(worst_l, abs(dl - fd_l) / max(abs(fd_l), 1e-300))
        worst_k = max(worst_k, abs(dk - fd_k) / max(abs(fd_k), 1e-300))
    return {
        "passed": bool(worst_l <= tol["grad_lambda"] and worst_k <= tol["grad_kappa"]),
        "lambda_rel_err": worst_l,
        "kappa_rel_err": worst_k,
        "n": n,
        "fd_step": h,
    }


def _check_invariants(q, records, cfg):
    tol = cfg.tolerances
    gaps = []
    osc_ok = True
    for n, rec in records.items():
        gaps.append(spectrum.norm_sq_psi(rec))
        if spectrum.oscillation_count(rec) != n - 1:
            osc_ok = False
    # Wronskian checks at the mid-range eigenvalue
    mid = sorted(records)[len(records) // 2]
    lam = records[mid].lam
    psi = records[mid].psi
    ws = Workspace(q, lam, psi.grid)
    theta = solve_theta(q, lam, ws)
    wr = psi.values * theta.derivs - psi.derivs * theta.values
    # exact identity: W = 1 + int_0^M theta0 q psi; the raw deviation
    # from 1 is the value of that integral, O(omega(q, lam)), not zero
    corr = float(np.sum(psi.grid.weights * ws.th0 * ws.qg * psi.gauss_values))
    w_dev_corrected = float(np.max(np.abs(wr - (1.0 + corr))))
    w_dev_raw = float(np.max(np.abs(wr - 1.0)))
    s_prof, c_prof = solve_sc(q, lam, ws)
    wsc = s_prof.values * c_prof.derivs - s_prof.derivs * c_prof.values
    # the two products are g_B^2-sized and cancel to -1, so roundoff
    # amplifies by g_B(w)^2; w <= 5 keeps the check meaningful at 1e-8
    trust = (psi.grid.nodes - lam) <= 5.0
    wsc_dev = float(np.max(np.abs(wsc[trust] + 1.0)))
    passed = (max(gaps) <= tol["norm_identity_gap"] and osc_ok
              and w_dev_corrected <= tol["wronskian"]
              and wsc_dev <= tol["wronskian"])
    return {
        "passed": bool(passed),
        "norm_identity_worst_gap": max(gaps),
        "oscillation_counts_exact": osc_ok,
        "psi_theta_wronskian_identity_dev": w_dev_corrected,
        "psi_theta_wronskian_raw_dev": w_dev_raw,
        "sc_wronskian_dev": wsc_dev,
        "checked_at_n": mid,
    }


def run_verify(config: ExperimentConfig, with_oracle=None, with_pred: bool = True,
               enabled_checks=None):
    """Run the campaign and write results.csv, summary.json, log.txt.

    Returns (exit_code, summary). Files are only written once the whole
    computation has finished, so failures leave no partial outputs. The
    asymptotics checks fit the rows' predictions, so enabling one computes
    them even when ``with_pred`` is off.
    """
    q = make_potential(config.potential)
    log = [f"potential: {json.dumps(config.potential, sort_keys=True)}",
           f"n range: {config.n_min}..{config.n_max}",
           f"methods: {','.join(config.methods)}"]
    use_oracle = ("oracle" in config.methods) if with_oracle is None else with_oracle
    enabled = config.checks if enabled_checks is None else enabled_checks
    with_asym = "eigen_asym" in enabled or "kappa_asym" in enabled
    rows, records = _compute_rows(q, config, log, use_oracle, with_pred or with_asym)

    checks = {}
    slopes = {}
    constants = {"envelope_margin": envelope_margin(np.arange(-30.0, 30.0, 0.01))}
    if with_asym:
        asym = _check_asym(q, rows, config)
        for name, which in (("eigen_asym", "lambda"), ("kappa_asym", "kappa")):
            if name in enabled:
                checks[name] = asym[which]
                slopes[which] = asym[which]["slope"]
    if "gradients" in enabled:
        checks["gradients"] = _check_gradients(q, records, config)
    if "invariants" in enabled:
        checks["invariants"] = _check_invariants(q, records, config)
    if use_oracle:
        dl = max(abs(r["lambda_shoot"] - r["lambda_oracle"]) for r in rows)
        dk = max(abs(r["kappa_shoot"] - r["kappa_oracle"]) for r in rows)
        checks["cross_method"] = {
            "passed": bool(dl <= config.tolerances["lambda_vs_oracle"]
                           and dk <= config.tolerances["kappa_vs_oracle"]),
            "lambda_max_diff": dl,
            "kappa_max_diff": dk,
        }
    all_passed = all(c["passed"] for c in checks.values()) if checks else True
    for name, res in checks.items():
        log.append(f"check {name}: {'pass' if res['passed'] else 'FAIL'}")

    summary = {
        "potential": config.potential,
        "n_range": [config.n_min, config.n_max],
        "checks": checks,
        "slopes": slopes,
        "constants": constants,
        "all_passed": all_passed,
    }
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        csv_lines.append(",".join(
            str(row["n"]) if c == "n" else _fmt(row[c]) for c in CSV_COLUMNS))
    (out / "results.csv").write_text("\n".join(csv_lines) + "\n")
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    (out / "log.txt").write_text("\n".join(log) + "\n")
    return (EXIT_OK if all_passed else EXIT_CHECK), summary


def _airy_selftest() -> int:
    import scipy.special as sp
    # the Wronskian of the table every Workspace reads, not of AMOS itself
    ai, aip, bi, bip = volterra.airy_table(np.arange(-20.0, 10.0, 0.01))
    wr = ai * bip - aip * bi
    wr_dev = float(np.max(np.abs(wr * math.pi - 1.0)))
    zeros_ok = all(abs(float(sp.airy(airy_zero(n).a_n)[0])) <= 1e-12 for n in range(1, 21))
    margin = envelope_margin(np.arange(-30.0, 30.0, 0.01))
    margin_fine = envelope_margin(np.arange(-30.0, 30.0, 0.001))
    stable = abs(margin - margin_fine) <= 0.01 * margin
    seeds = [abs(airy_zero(n).a_n - zero_seed(n)) * n ** (4.0 / 3.0) for n in range(5, 51)]
    seeds_ok = max(seeds) < 0.05
    print(f"wronskian grid dev: {wr_dev:.3e} ({'pass' if wr_dev <= 1e-10 else 'FAIL'})")
    print(f"zero residuals <= 1e-12 for n=1..20: {'pass' if zeros_ok else 'FAIL'}")
    print(f"envelope margin: {margin:.6f}, refinement-stable: {'pass' if stable else 'FAIL'}")
    print(f"seed accuracy constant: {max(seeds):.4f} ({'pass' if seeds_ok else 'FAIL'})")
    ok = wr_dev <= 1e-10 and zeros_ok and stable and seeds_ok
    return EXIT_OK if ok else EXIT_CHECK


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = parse_config(Path(args.config).read_text())
    else:
        cfg = ExperimentConfig()
    if args.n_max is not None:
        cfg.n_max = args.n_max
        if cfg.n_max < cfg.n_min:
            raise ValidationError("--n-max below config n_min")
    if args.method is not None:
        cfg.methods = (args.method,)
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="starkspec",
        description="Spectral data of the Dirichlet perturbed Stark operator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("eig", "eigenvalues and norming constants over the index range"),
            ("asympt", "first-order predictions and remainder decay fits"),
            ("verify", "full verification campaign with pass/fail checks"),
            ("airy-selftest", "internal Airy-layer consistency checks")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--method", default=None, choices=_ALL_METHODS)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.command == "airy-selftest":
        return _airy_selftest()
    try:
        cfg = _load_config(args)
    except (ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "eig":
            code, _ = run_verify(cfg, with_pred=False, enabled_checks=())
        elif args.command == "asympt":
            code, _ = run_verify(cfg, with_oracle=False,
                                 enabled_checks=tuple(c for c in cfg.checks
                                                      if c.endswith("asym")))
        else:
            code, _ = run_verify(cfg)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StarkSpecError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
