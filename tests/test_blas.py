"""The native bindings of ``kfrflow._blas``: one module holds them, and a
numpy that exports none of them gives the same run through the fallbacks."""

import ast
from pathlib import Path

import pytest

import kfrflow
from kfrflow import _blas
from kfrflow.config import RunConfig
from kfrflow.harness import run_experiment, write_record_csv

from test_references import ATOL, RTOL, deviations, read_csv

SRC = Path(kfrflow.__file__).resolve().parent
HANDLES = ("_DSYRK", "_DSYR2K", "_DTRTTF", "_DPFTRF", "_DPFTRS", "_GET_THREADS", "_SET_THREADS")


def _native_imports(path: Path) -> set:
    """The ctypes, numpy.linalg._umath_linalg and scipy imports of a module,
    also those inside functions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name.split(".")[0] in ("ctypes", "scipy"):
                found.add(name.split(".")[0])
            elif name.startswith("numpy.linalg._umath_linalg"):
                found.add("_umath_linalg")
    return found


def test_only_the_blas_module_binds_native_code():
    offenders = {p.name: _native_imports(p) for p in sorted(SRC.glob("*.py"))}
    offenders = {name: found for name, found in offenders.items() if found}
    assert offenders == {"_blas.py": {"ctypes", "_umath_linalg", "scipy"}}


@pytest.mark.parametrize("target, sampler", [("donut", "kfrflow-i"), ("funnel:5", "kfrflow-euler")])
def test_all_fallback_run_matches_native(monkeypatch, tmp_path, target, sampler):
    # every handle unbound at once, as on a numpy that exports no OpenBLAS
    # symbol: matmul updates, scipy's RFP routines and no thread count
    cfg = RunConfig(target=target, sampler=sampler, J=40, N=3, trials=1, lam=1e-3, seed=11)
    write_record_csv(run_experiment(cfg), tmp_path / "native.csv")
    get, put = _blas._GET_THREADS, _blas._SET_THREADS
    saved = get() if get else None
    try:
        if put:
            put(2)  # two threads where the machine allows them, so that a change shows
        before = get() if get else None
        with monkeypatch.context() as patch:
            for name in HANDLES:
                patch.setattr(_blas, name, None)
            record = run_experiment(cfg)
        after = get() if get else None
    finally:
        if put:
            put(saved)
    assert after == before
    assert record.all_stable and len(record.rows) == cfg.N + 1
    write_record_csv(record, tmp_path / "fallback.csv")
    got, ref = read_csv(tmp_path / "fallback.csv"), read_csv(tmp_path / "native.csv")
    for col, a, b in deviations(got, ref):
        assert abs(a - b) <= RTOL * abs(b) + ATOL, (col, a, b)
