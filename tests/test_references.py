"""Same numbers: every sampler's CSV against a committed reference.

``tests/references`` holds one small ``kfrflow run`` CSV per sampler and
target (J = 40, N = 20, two trials, observed every 10 steps, timings
zeroed), and a few short Newton runs on the paths that those miss (see
``NEWTON``).  The test reruns all of them in one subprocess on one OpenBLAS
thread and compares every column but ``step_time_ns``.  A change that
alters sampler output on purpose regenerates them with
``python tests/test_references.py`` and says why.

``references/PROVENANCE.json`` records numpy's version and the core name
of its OpenBLAS that wrote them, as ``tools/bench.py``'s ``blas_provenance``
reads them.  Where the
rerun's match both, every cell must be the same string: a change at
rounding level, such as another summation order of M, fails.  Elsewhere
OpenBLAS runs other kernels, so the comparison allows a tolerance: under
``OPENBLAS_CORETYPE`` Haswell and Sandybridge the largest deviation from
SkylakeX references was 9.7e-10 relative (on a mean near 0 of the
``kfrflow-euler`` Gaussian run), and RTOL and ATOL leave a factor of 100
above that.  A KFRFlow-I step without its bandwidth bound, or ULA noise
drawn in another stream order, moved a KSD by 6% or more.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kfrflow

REFS = Path(__file__).parent / "references"
BENCH_TOOL = Path(__file__).parents[1] / "tools" / "bench.py"
PROVENANCE = REFS / "PROVENANCE.json"
RTOL, ATOL = 1e-7, 1e-10

SAMPLERS = ("kfrflow-euler", "kfrflow-ab4", "kfrflow-i", "kfrflow-i-newton:2", "kfrd",
            "svgd", "ula", "rwm-serial", "rwm-parallel")
TARGETS = {"donut": "donut", "funnel5": "funnel:5", "gauss2": "gaussian:1;0,0.5"}
ARGS = ["--J", "40", "--N", "20", "--trials", "2", "--observe_every", "10",
        "--lambda", "1e-3", "--epsilon", "0.1", "--seed", "11"]
# Newton paths that the runs above miss, every step observed: the
# distance-form Jacobian (d = 20); s in row strips and a pair pass of several
# strips (d = 2, J = 400); and at lambda = 0, the divergence guard, which
# trips 1 to 24 times per run, and the spd_solve retry (donut, 15 times)
_NEWTON = ["--trials", "2", "--observe_every", "1", "--seed", "11"]
NEWTON = {
    "newton3_funnel20": ["--target", "funnel:20", "--sampler", "kfrflow-i-newton:3",
                         "--J", "40", "--N", "5", "--lambda", "1e-3"],
    "newton3_donut_J400": ["--target", "donut", "--sampler", "kfrflow-i-newton:3",
                           "--J", "400", "--N", "2", "--lambda", "1e-3"],
    **{f"newton{k}_{name}_lam0": ["--target", target, "--sampler", f"kfrflow-i-newton:{k}",
                                  "--J", "60", "--N", "15", "--lambda", "0"]
       for k in (3, 5) for name, target in (("donut", "donut"), ("funnel5", "funnel:5"))},
}
# the lambda = 0 donut runs amplify rounding: under OPENBLAS_CORETYPE Haswell
# and Sandybridge they left RTOL and ATOL by factors of 2e6 to 1e8, so they
# are compared where the references' kernels run, and only there
EXACT_ONLY = {"newton3_donut_lam0", "newton5_donut_lam0"}


def _key(sampler: str, target: str) -> str:
    return f"{sampler.replace(':', '-')}_{target}"


def configs() -> dict:
    """Every reference key and its ``kfrflow run`` arguments but ``--out``."""
    runs = {_key(s, k): ["--target", t, "--sampler", s, *ARGS]
            for s in SAMPLERS for k, t in TARGETS.items()}
    return runs | {key: [*argv, *_NEWTON] for key, argv in NEWTON.items()}


def run_references(out: Path, **env) -> dict:
    """Run every reference config through ``kfrflow run`` in one fresh
    interpreter on one OpenBLAS thread, writing ``out/<key>/*.csv``; returns
    that interpreter's provenance."""
    runs = [["run", *argv, "--out", str(out / key)] for key, argv in configs().items()]
    src = str(Path(kfrflow.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", **env, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    env.pop("KFRFLOW_WORKERS", None)
    # the last line of its output is its provenance
    code = "import json, runpy, sys; from kfrflow.cli import main\n" \
           "for argv in json.loads(sys.argv[1]): main(argv)\n" \
           "print(json.dumps(runpy.run_path(sys.argv[2])['blas_provenance']()))"
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs), str(BENCH_TOOL)],
                          env=env, capture_output=True, check=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def read_csv(path: Path) -> list:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def deviations(got: list, ref: list):
    """(column, got, ref) of every cell but ``step_time_ns``; NaN equals NaN."""
    assert len(got) == len(ref) and list(got[0]) == list(ref[0])
    for g, r in zip(got, ref):
        for col in r:
            a, b = float(g[col]), float(r[col])
            if col != "step_time_ns" and not (a == b or math.isnan(a) and math.isnan(b)):
                yield col, a, b


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> tuple:
    """The rerun's directory, and whether its numpy and OpenBLAS core are
    those that wrote the references."""
    out = tmp_path_factory.mktemp("references")
    return out, run_references(out) == json.loads(PROVENANCE.read_text())


def check_reference(fresh, key: str) -> None:
    out, exact = fresh
    (path,) = (out / key).glob("*.csv")
    got, ref = read_csv(path), read_csv(REFS / f"{key}.csv")
    if exact:
        assert len(got) == len(ref) and list(got[0]) == list(ref[0]), key
        for step, (g, r) in enumerate(zip(got, ref)):
            diff = {col: (g[col], r[col]) for col in r
                    if col != "step_time_ns" and g[col] != r[col]}
            assert not diff, (key, step, diff)
    for col, a, b in deviations(got, ref):
        assert abs(a - b) <= RTOL * abs(b) + ATOL, (key, col, a, b)


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_sampler_output_matches_its_references(fresh, sampler):
    for target in TARGETS:
        check_reference(fresh, _key(sampler, target))


@pytest.mark.parametrize("key", NEWTON)
def test_newton_paths_match_their_references(fresh, key):
    if key in EXACT_ONLY and not fresh[1]:
        pytest.skip("other OpenBLAS kernels than the references': no bound holds at lambda = 0")
    check_reference(fresh, key)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        provenance = run_references(Path(tmp))
        REFS.mkdir(exist_ok=True)
        for key in configs():
            (path,) = (Path(tmp) / key).glob("*.csv")
            rows = read_csv(path)
            for row in rows:
                row["step_time_ns"] = 0  # timing is not part of the output
            with open(REFS / f"{key}.csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
    PROVENANCE.write_text(json.dumps(provenance, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(configs())} references and their provenance to {REFS}")
