"""The traced benchmark (bench/tracing.py) wraps starkspec names from
outside; renaming or deleting one of them must fail here, not only in a
traced benchmark run."""
import importlib
from pathlib import Path

from starkspec import asymptotics, cli, oracle, spectrum, volterra

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _names():
    owners = (asymptotics, cli, oracle, spectrum, volterra, volterra.Workspace)
    return {(owner.__name__, attr): value
            for owner in owners for attr, value in vars(owner).items()}


def test_tracer_installs_and_restores_its_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    before = _names()
    uninstall = tracing.install(tracing.Tracer())
    try:
        during = _names()
    finally:
        uninstall()
    patched = {key for key in before if during[key] is not before[key]}
    assert ("starkspec.spectrum", "locate_eigenvalue") in patched
    assert ("Workspace", "__init__") in patched
    after = _names()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
