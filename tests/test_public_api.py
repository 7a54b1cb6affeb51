"""The public surface: ``kfrflow.__all__`` and the README's library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import kfrflow

README = Path(__file__).resolve().parents[1] / "README.md"

# what the command line, the benchmark under perfbench/ and the README use;
# everything else is reached through its submodule
PUBLIC = [
    "__version__",
    "CapabilityError", "Ensemble", "KernelSpec", "KsdConfig",
    "NumericalStabilityError", "RunConfig",
    "bench_step", "build_workspace", "kernel_matrix", "kfrflow_i_step", "ksd",
    "make_funnel", "make_gaussian", "make_rng", "median_bandwidth",
    "parse_config", "parse_grid", "run_experiment", "run_unit_time", "sweep",
    "target_by_name", "write_record_csv", "write_selection_csv",
    "write_sidecar",
]


def test_all_is_the_agreed_list():
    assert sorted(kfrflow.__all__) == sorted(PUBLIC)
    assert len(set(kfrflow.__all__)) == len(kfrflow.__all__)


def test_every_public_name_resolves():
    for name in kfrflow.__all__:
        assert hasattr(kfrflow, name), name


def test_readme_library_import_resolves():
    found = re.findall(r"^from kfrflow import \(([^)]*)\)", README.read_text(), re.M)
    assert found
    for body in found:
        names = [n.strip() for n in body.split(",") if n.strip()]
        namespace: dict = {}
        exec(f"from kfrflow import ({', '.join(names)})", namespace)
        assert set(names) <= set(kfrflow.__all__)


def test_import_leaves_scipy_out():
    # importing scipy.linalg costs about 0.3 s and 27 MB, which every kfrflow
    # run would carry; the library measures pairs itself and solves on
    # numpy's own OpenBLAS
    code = (
        "import sys, kfrflow, kfrflow.cli, kfrflow.harness; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _run_python(code) == "[]"


def test_default_run_loads_nothing_it_does_not_use():
    # the thread pool (which loads logging) serves KFRFLOW_WORKERS > 1 only
    # and the INI parser a config file only; every run's set-up paid for both
    code = (
        "import sys, kfrflow\n"
        "cfg = kfrflow.parse_config(overrides=dict(target='donut', sampler='kfrflow-i', "
        "J=20, N=2, trials=2))\n"
        "kfrflow.run_experiment(cfg)\n"
        "print(sorted(m for m in ('concurrent.futures', 'configparser', 'logging', 'scipy') "
        "if m in sys.modules))"
    )
    assert _run_python(code) == "[]"


def _run_python(code: str) -> str:
    """Standard output of ``code`` in a fresh interpreter on this kfrflow,
    trials sequential."""
    src = str(Path(kfrflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("KFRFLOW_WORKERS", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()
