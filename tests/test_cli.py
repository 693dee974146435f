import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from scipy import special

import starkspec.cli as cli
from starkspec import asymptotics, oracle, spectrum, volterra
from starkspec.errors import NumericError, ValidationError

EXP_03 = {"family": "exp", "params": {"c": 0.3, "a": 1.0}, "r": 2.0}


def _fresh_python(code, *args):
    """stdout of ``code`` run by a fresh interpreter that imports the
    package under test, which sees only what the code itself loads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_only_the_pipeline():
    # the references the tests check against stay out of the package, and
    # with them QUADPACK; the spline, and the optimizers it pulls in, load
    # only when a table potential is built, LAPACK's tridiagonal routines
    # only when the oracle runs, and AMOS only for Airy values off the
    # stored lattice or the decay fit's t quantile: no scipy module at all
    out = _fresh_python(
        "import sys, starkspec.cli; "
        "print(sorted(m for m in ('scipy', 'scipy.integrate', 'scipy.interpolate', "
        "'scipy.linalg', 'scipy.optimize', 'scipy.special', 'starkspec.basis') "
        "if m in sys.modules))")
    assert out.strip() == "[]"


def test_shooting_only_campaigns_never_load_scipy_linalg(tmp_path):
    # eig, asympt and verify without the oracle run on shooting alone; the
    # last campaign, verify with the oracle, is the control that loads it.
    # No campaign loads scipy.special: Airy values come from the stored
    # lattice, and three indices are too few for the decay fit's t
    # quantile; an Airy value off the stored chunks is its control
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"potential": EXP_03, "n_max": 3}))
    out = _fresh_python(
        "import sys, starkspec.cli as cli\n"
        "cfg, out = sys.argv[1:]\n"
        "for argv in (['eig', '--method', 'shooting'], ['asympt'],\n"
        "             ['verify', '--method', 'shooting'], ['verify']):\n"
        "    code = cli.main([*argv, '--config', cfg, '--out', out])\n"
        "    print(argv[0], code, 'scipy.linalg' in sys.modules, 'scipy.special' in sys.modules)\n"
        "cli.volterra.airy_table([-200.0])\n"
        "print('scipy.special' in sys.modules)",
        str(cfgfile), str(tmp_path / "o"))
    assert out.splitlines() == [f"eig {cli.EXIT_OK} False False",
                                f"asympt {cli.EXIT_OK} False False",
                                f"verify {cli.EXIT_OK} False False",
                                f"verify {cli.EXIT_OK} True False", "True"]


def test_empty_config_gets_defaults():
    cfg = cli.parse_config("{}")
    assert cfg.n_min == 1 and cfg.n_max == 30
    assert cfg.methods == ("shooting", "oracle")
    assert set(cfg.checks) == {"eigen_asym", "kappa_asym", "gradients", "invariants"}
    assert cfg.tolerances["lambda_vs_oracle"] == 1e-6
    assert cfg.potential["params"]["c"] == 0.0


def test_valid_potential_config():
    cfg = cli.parse_config(
        '{"potential": {"family": "exp", "params": {"c": 0.3, "a": 1}, "r": 2}}')
    assert cfg.potential["family"] == "exp"


def test_invalid_potential_rejected():
    with pytest.raises(ValidationError):
        cli.parse_config(
            '{"potential": {"family": "alg", "params": {"c": 1, "p": 1}, "r": 2}}')


def test_unknown_field_named():
    with pytest.raises(ValidationError, match="n_maxx"):
        cli.parse_config('{"n_maxx": 10}')


def test_bad_tolerance_rejected():
    with pytest.raises(ValidationError, match="tolerances"):
        cli.parse_config('{"tolerances": {"lambda_vs_oracle": -1}}')
    with pytest.raises(ValidationError, match="mystery"):
        cli.parse_config('{"tolerances": {"mystery": 1.0}}')


def test_malformed_json():
    with pytest.raises(ValidationError):
        cli.parse_config("{not json")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = cli.parse_config(json.dumps({
        "potential": {"family": "exp", "params": {"c": 0.2, "a": 1.0}, "r": 2.0},
        "n_min": 1, "n_max": 3,
        "methods": ["shooting", "oracle"],
        "checks": ["invariants"],
        "output_dir": str(out),
    }))
    code, summary = cli.run_verify(cfg)
    return out, code, summary


def test_run_verify_exit_ok(tiny_run):
    _, code, summary = tiny_run
    assert code == cli.EXIT_OK
    assert summary["all_passed"]


def test_csv_contract(tiny_run):
    out, _, _ = tiny_run
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 4
    row = lines[1].split(",")
    assert len(row) == len(cli.CSV_COLUMNS)
    assert int(row[0]) == 1
    # 17-significant-digit rendering round-trips
    assert abs(float(row[1]) - float(row[2])) < 1e-6


def test_summary_schema(tiny_run):
    out, _, summary = tiny_run
    on_disk = json.loads((out / "summary.json").read_text())
    jsonschema.validate(on_disk, cli.SUMMARY_SCHEMA)
    assert on_disk["checks"]["invariants"]["passed"] is True
    assert on_disk["checks"]["cross_method"]["lambda_max_diff"] <= 1e-6


def test_log_written(tiny_run):
    out, _, _ = tiny_run
    text = (out / "log.txt").read_text()
    assert "check invariants: pass" in text


def test_determinism_byte_identical(tmp_path):
    base = {
        "potential": {"family": "bump", "params": {"c": 0.4, "x0": 2.0, "w": 1.0},
                      "r": 2.0},
        "n_min": 1, "n_max": 2, "methods": ["shooting"], "checks": [],
    }
    outputs = []
    for tag in ("a", "b"):
        cfg = cli.parse_config(json.dumps({**base, "output_dir": str(tmp_path / tag)}))
        cli.run_verify(cfg)
        outputs.append((tmp_path / tag / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_envelope_margin_is_computed_once_per_process(tmp_path, monkeypatch):
    # the summary's envelope constant does not depend on the config: a
    # second campaign in the same process reads the first one's
    from starkspec import airy
    calls = Counter()
    margin = airy.envelope_margin

    def counted(grid):
        calls["envelope_margin"] += 1
        return margin(grid)

    monkeypatch.setattr(airy, "envelope_margin", counted)
    airy.standard_envelope_margin.cache_clear()
    summaries = []
    for tag in ("a", "b"):
        cfg = cli.parse_config(json.dumps({
            "potential": EXP_03, "n_min": 1, "n_max": 2, "methods": ["shooting"],
            "checks": [], "output_dir": str(tmp_path / tag)}))
        cli.run_verify(cfg)
        summaries.append((tmp_path / tag / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    assert calls["envelope_margin"] == 1


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"potential": {"family": "alg", "params": {"c": 1, "p": 1}, "r": 2}}')
    assert cli.main(["verify", "--config", str(bad)]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--config", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG
    assert cli.main(["eig", "--n-max", "0"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("config", [
    '{"n_max": "abc"}',
    '{"n_min": [1]}',
    '{"potential": {"family": "exp", "params": {"a": 1}, "r": 2}}',
    '{"potential": {"family": "exp", "params": {"c": "x", "a": 1}, "r": 2}}',
    '{"potential": {"family": "exp", "params": {"c": NaN, "a": 1}, "r": 2}}',
    '{"potential": {"family": "exp", "params": {"c": 1, "a": 1}, "r": Infinity}}',
    '{"methods": 3}',
    '{"tolerances": [1e-6]}',
    '{"tolerances": {"wronskian": Infinity}}',
    '{"n_max": 2.5}',
    '{"n_max": true}',
    '{"n_min": "7"}',
    '{"tolerances": {"wronskian": true}}',
    '{"output_dir": null}',
    '{"output_dir": 3}',
    '{"potential": {"family": "exp", "params": {"c": "0.3", "a": 1}, "r": 2}}',
    '{"potential": {"family": "exp", "params": {"c": true, "a": 1}, "r": 2}}',
    '{"potential": {"family": "table", "params": {"x": ["0", "1", "2", "3"], '
    '"y": [1, 0.5, 0, 0]}, "r": 2}}',
    '[]',
    '{"methods": ["bogus"]}',
    '{"checks": ["bogus"]}',
    '{"n_min": 0}',
    '{"n_min": 5, "n_max": 3}',
])
def test_malformed_config_exits_with_config_error(tmp_path, config):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(config)
    assert cli.main(["eig", "--config", str(cfgfile)]) == cli.EXIT_CONFIG


def test_a_failed_solve_exits_numeric_and_writes_nothing(tmp_path, monkeypatch, capsys):
    def fail(ws, z):
        raise NumericError("injected")

    monkeypatch.setattr(spectrum, "solve_psi", fail)
    out = tmp_path / "out"
    code = cli.main(["eig", "--n-max", "2", "--method", "shooting", "--out", str(out)])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric error: n=1, stage newton: at z = ")
    assert not (out / "results.csv").exists()


def test_asympt_computes_each_prediction_once(tmp_path, monkeypatch):
    # and reads both from each index's Airy table, with no Airy call of its own
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(spectrum, "lambda_prediction")
    count(spectrum, "kappa_prediction")
    count(asymptotics, "lambda_prediction")
    count(asymptotics, "kappa_prediction")
    count(asymptotics, "build_report")

    class CountedSpecial:
        def __getattr__(self, attr):
            return getattr(special, attr)

        def airy(self, w):
            calls["special.airy"] += 1
            return special.airy(w)

    monkeypatch.setattr(asymptotics, "special", CountedSpecial())
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"potential": EXP_03, "n_max": 8,
                                   "output_dir": str(tmp_path / "o")}))
    assert cli.main(["asympt", "--config", str(cfgfile)]) in (cli.EXIT_OK, cli.EXIT_CHECK)
    assert calls == {"lambda_prediction": 8, "kappa_prediction": 8, "build_report": 1}


def test_eig_campaign_airy_evaluations(tmp_path, monkeypatch):
    # AMOS calls behind a_n and every Workspace Airy table in an eig
    # campaign, the table points themselves, and the Picard solves and
    # sweeps; Newton from the prediction on one grid per index took these down from 50 calls, 287,405 points, 99 solves and 705
    # sweeps, and the shared lattice from 8 calls and 51,258 points (180
    # calls and 516,380 points before the tables were moved to nearby z).
    # Equal-phase panels took the table points from 204,652 to 98,572, and
    # Newton iterates within a Workspace's reach, solved on its table with
    # the shift as a constant potential, took the tables (builds plus moves)
    # from 32 to 11, the points to 34,556 and the sweeps from 339 to 370.
    # Ending every grid one envelope decay length past z, with no chase of
    # q's decay, took the tables to 10, the points to 21,095 and the Gauss
    # nodes the sweeps run over from 910,580 to 658,168; the sweeps rose to
    # 376, since index 3's shorter grid widens its reach to take in the
    # prediction, so the table no longer moves. Eight-point Gauss panels one
    # unit of WKB phase wide, in place of four-point panels an eighth of a
    # unit wide, took the table points to 4,798 and the swept Gauss nodes
    # to 165,896, with the sweeps and tables unchanged. Each solve applies
    # the operator once per Picard sweep and takes one more set of running
    # integrals for its z-derivative's coupling, none for assembly. The
    # lattice chunks stored with the package took the AMOS calls from one
    # of 3,072 points (the tables', from a cold lattice) to none
    work = Counter()
    table = volterra.airy_table

    def counted_table(w):
        work["tables"] += 1
        work["table_points"] += np.size(w)
        return table(w)

    def airy(w):
        work["amos_calls"] += 1
        work["amos_points"] += np.size(w)
        return special.airy(w)

    picard = volterra.Workspace.picard

    def counted_picard(self, inhom, direction, z):
        f, sweeps = picard(self, inhom, direction, z)
        work["picard_calls"] += 1
        work["picard_sweeps"] += sweeps
        work["swept_nodes"] += sweeps * self.grid.gauss_x.size
        return f, sweeps

    integrals = volterra.Workspace.integrals

    def counted_integrals(self, integrands, direction):
        work["integral_calls"] += 1
        return integrals(self, integrands, direction)

    # the stored chunks, whatever else ran before
    monkeypatch.setattr(volterra, "_lattice", volterra._stored_lattice())
    monkeypatch.setattr(volterra, "special", SimpleNamespace(airy=airy))
    monkeypatch.setattr(volterra, "airy_table", counted_table)
    monkeypatch.setattr(volterra.Workspace, "picard", counted_picard)
    monkeypatch.setattr(volterra.Workspace, "integrals", counted_integrals)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"potential": EXP_03, "n_max": 8,
                                   "output_dir": str(tmp_path / "o")}))
    assert cli.main(["eig", "--config", str(cfgfile), "--method", "shooting"]) == cli.EXIT_OK
    # the stored lattice chunks serve a_n and every table: no AMOS call
    assert work["amos_calls"] == 0
    assert work["tables"] <= 10 and work["table_points"] <= 4_798
    # the grid of the eig-exp60 benchmark's last index: 3,556 panels before
    # equal-phase panels, 1,873 with them, 235 on panels one phase unit wide
    assert volterra.default_grid(cli.make_potential(EXP_03),
                                 -cli.airy_zero(60)).widths.size <= 250
    assert work["picard_calls"] <= 48 and work["swept_nodes"] <= 165_896
    assert work["integral_calls"] == work["picard_sweeps"] + work["picard_calls"] // 2


def test_verify_decomposes_each_oracle_mesh_once(tmp_path, monkeypatch):
    # lambda and kappa come from the same eigenpairs: one eigenvalue-only
    # Sturm bisection to BRACKET_TOL on the coarsest mesh of DEFAULT_MESHES
    # labels them, Rayleigh-quotient iteration gives the digits and the
    # vectors, and each finer mesh starts from the coarser eigenpair;
    # exp(0.3, 1) has no close pair to bisect again
    calls = []
    eigh = oracle.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append((len(args[0]), kwargs.get("eigvals_only")))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(oracle, "eigh_tridiagonal", counted)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"potential": EXP_03, "n_max": 8,
                                   "output_dir": str(tmp_path / "o")}))
    assert cli.main(["verify", "--config", str(cfgfile)]) == cli.EXIT_OK
    coarsest = int(round(oracle.oracle_length(8) / oracle.DEFAULT_MESHES[0])) - 1
    assert calls == [(coarsest, True)]


@pytest.mark.parametrize("tolerances, code", [({}, cli.EXIT_CHECK),
                                              ({"norm_identity_gap": 1e-4}, cli.EXIT_OK)])
def test_norm_identity_gap_is_gated_by_the_config(tmp_path, monkeypatch, tolerances, code):
    # a 5e-5 gap between the quadrature and -psi'(0) psi_dot(0) is a check
    # failure at the default 1e-6 and passes under a looser tolerance
    norm_sq = spectrum._norm_sq_from_profile
    monkeypatch.setattr(spectrum, "_norm_sq_from_profile",
                        lambda prof: norm_sq(prof) * (1.0 + 5e-5))
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"potential": EXP_03, "n_max": 3,
                                   "methods": ["shooting"], "checks": ["invariants"],
                                   "tolerances": tolerances,
                                   "output_dir": str(tmp_path / "o")}))
    assert cli.main(["verify", "--config", str(cfgfile)]) == code
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["checks"]["invariants"]["norm_identity_worst_gap"] == pytest.approx(
        5e-5, rel=1e-3)


def test_noise_floor_of_one_slope_leaves_the_other_fitted(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"potential": EXP_03, "n_max": 12,
                                   "tolerances": {"kappa_noise_floor": 1.0},
                                   "output_dir": str(tmp_path / "o")}))
    cli.main(["asympt", "--config", str(cfgfile)])
    checks = json.loads((tmp_path / "o" / "summary.json").read_text())["checks"]
    # no kappa residual of exp(0.3, 1) reaches 10x a floor of 1.0
    assert checks["kappa_asym"] == {
        "passed": True, "slope": None, "half_width": None, "threshold": -0.8,
        "noise_floor": 1.0,
        "note": "0 residuals above 10x the noise floor, the fit needs 8; vacuously consistent"}
    assert isinstance(checks["eigen_asym"]["slope"], float)
    assert set(checks["eigen_asym"]) == {"passed", "slope", "half_width", "threshold",
                                         "noise_floor"}


def test_cli_eig_subcommand(tmp_path):
    potential = {"family": "exp", "params": {"c": 0.1, "a": 1.0}, "r": 2.0}
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "potential": potential, "n_max": 2, "methods": ["shooting"], "checks": [],
        "output_dir": str(tmp_path / "out")}))
    assert cli.main(["eig", "--config", str(cfgfile), "--n-max", "2"]) == cli.EXIT_OK
    lines = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
    row = dict(zip(cli.CSV_COLUMNS, lines[1].split(",")))
    # eig writes the predictions its records already hold
    rec = spectrum.locate_eigenvalue(cli.make_potential(potential), 1)
    assert row["lambda_pred"] == cli._fmt(rec.lam_pred)
    assert row["kappa_pred"] == cli._fmt(rec.kappa_pred)
    assert float(row["lambda_shoot"]) > 2.3


def test_cli_unwritable_output(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "potential": {"family": "exp", "params": {"c": 0.0, "a": 1.0}, "r": 2.0},
        "n_max": 1, "methods": ["shooting"], "checks": [],
        "output_dir": "/proc/definitely/not/writable"}))
    code = cli.main(["eig", "--config", str(cfgfile)])
    assert code != cli.EXIT_OK


def test_airy_selftest():
    assert cli.main(["airy-selftest"]) == cli.EXIT_OK


@pytest.mark.parametrize("flags", [["--n-max", "3"], ["--config", "c.json"],
                                   ["--method", "shooting"], ["--out", "out"]])
def test_airy_selftest_takes_no_campaign_flags(flags):
    with pytest.raises(SystemExit) as exc:
        cli.main(["airy-selftest", *flags])
    assert exc.value.code == 2


def test_airy_selftest_checks_the_solver_table(monkeypatch):
    # a 1e-8 error in the Bi column of volterra.airy_table breaks the
    # Wronskian line although AMOS itself is untouched
    table = volterra.airy_table

    def perturbed(w):
        ai, aip, bi, bip = table(w)
        return np.stack([ai, aip, bi * (1.0 + 1e-8), bip])

    monkeypatch.setattr(volterra, "airy_table", perturbed)
    assert cli.main(["airy-selftest"]) == cli.EXIT_CHECK


def test_free_potential_verify_is_vacuously_green(tmp_path):
    cfg = cli.parse_config(json.dumps({
        "n_max": 4,
        "checks": ["eigen_asym", "kappa_asym", "invariants"],
        "methods": ["shooting"],
        "output_dir": str(tmp_path / "free")}))
    code, summary = cli.run_verify(cfg)
    assert code == cli.EXIT_OK
    assert summary["checks"]["eigen_asym"]["passed"]
    assert summary["checks"]["eigen_asym"]["slope"] is None
    rows = (tmp_path / "free" / "results.csv").read_text().strip().splitlines()[1:]
    for line in rows:
        row = dict(zip(cli.CSV_COLUMNS, line.split(",")))
        assert abs(float(row["lambda_resid"])) <= 1e-9
        assert abs(float(row["kappa_resid"])) <= 1e-8


def test_log_names_the_methods_that_ran(tmp_path):
    # shooting always runs: `eig --method oracle` runs it and the oracle,
    # and an empty methods list runs it alone
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"potential": EXP_03, "n_max": 2, "methods": []}))
    for flags, tag, methods in (([], "none", "shooting"),
                                (["--method", "oracle"], "oracle", "shooting,oracle")):
        out = tmp_path / tag
        argv = ["eig", "--config", str(cfgfile), *flags, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert f"\nmethods: {methods}\n" in (out / "log.txt").read_text()
        header, *rows = (out / "results.csv").read_text().strip().splitlines()
        column = header.split(",").index("lambda_shoot")
        assert len(rows) == 2 and all(float(row.split(",")[column]) > 0 for row in rows)


def test_short_index_range_note_counts_the_residuals(tmp_path):
    # n = 2..5 gives 4 fitted residuals of about 1e-3 on exp(0.3, 1): well
    # above the noise, but fewer than the fit takes
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"potential": EXP_03, "n_max": 5,
                                   "output_dir": str(tmp_path / "o")}))
    assert cli.main(["asympt", "--config", str(cfgfile)]) == cli.EXIT_OK
    # asympt runs no oracle, and its log says so
    assert "methods: shooting\n" in (tmp_path / "o" / "log.txt").read_text()
    checks = json.loads((tmp_path / "o" / "summary.json").read_text())["checks"]
    for name in ("eigen_asym", "kappa_asym"):
        assert checks[name]["passed"] and checks[name]["slope"] is None
        assert checks[name]["note"] == (
            "4 residuals above 10x the noise floor, the fit needs 8; vacuously consistent")


def test_method_flag_disables_oracle(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "potential": {"family": "exp", "params": {"c": 0.1, "a": 1.0}, "r": 2.0},
        "n_max": 1, "checks": [], "output_dir": str(tmp_path / "o")}))
    assert cli.main(["eig", "--config", str(cfgfile), "--method", "shooting"]) == 0
    line = (tmp_path / "o" / "results.csv").read_text().strip().splitlines()[1]
    row = dict(zip(cli.CSV_COLUMNS, line.split(",")))
    assert row["lambda_oracle"] == "nan"


def test_asympt_subcommand_low_r_threshold(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "potential": {"family": "alg", "params": {"c": 0.4, "p": 1.5}, "r": 1.5},
        "n_min": 1, "n_max": 14,
        "checks": ["eigen_asym"],
        "output_dir": str(tmp_path / "o")}))
    code = cli.main(["asympt", "--config", str(cfgfile)])
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    # the r < 2 family is held to the -0.75 threshold
    assert summary["checks"]["eigen_asym"]["threshold"] == -0.75
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK)
