"""bench_fpvm's own self-checks (``pytest -m perf_smoke``).

``bench_fpvm/check.py`` runs the benchmark's quick suite against the
committed reference fingerprints plus its failure paths (corrupted
reference, ``FPVM_*`` environment, ``--compare`` judgements, a bare
directory) and exits non-zero if any of them misbehaves."""

import importlib.util
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.perf_smoke
def test_bench_fpvm_self_checks(monkeypatch):
    # check.py imports the benchmark's ``run``/``spans`` modules by bare
    # name off a prepended sys.path; keep both from leaking past here.
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("run", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location(
        "bench_fpvm_check", REPO / "bench_fpvm" / "check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    assert check.main() == 0
