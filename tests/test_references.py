"""Same numbers: every sampler's CSV against a committed reference.

``tests/references`` holds one small ``kfrflow run`` CSV per sampler and
target (J = 40, N = 20, two trials, observed every 10 steps, timings
zeroed).  The test reruns all of them in one subprocess on one OpenBLAS
thread and compares every column but ``step_time_ns``.  A change that
alters sampler output on purpose regenerates them with
``python tests/test_references.py`` and says why.

OpenBLAS picks its kernels by CPU, so the comparison allows a tolerance.
On an Intel Xeon VM whose OpenBLAS runs SkylakeX kernels the references
came out bit for bit; under ``OPENBLAS_CORETYPE`` Haswell and Sandybridge
the largest deviation was 9.7e-10 relative (on a mean near 0 of the
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
RTOL, ATOL = 1e-7, 1e-10

SAMPLERS = ("kfrflow-euler", "kfrflow-ab4", "kfrflow-i", "kfrflow-i-newton:2", "kfrd",
            "svgd", "ula", "rwm-serial", "rwm-parallel")
TARGETS = {"donut": "donut", "funnel5": "funnel:5", "gauss2": "gaussian:1;0,0.5"}
ARGS = ["--J", "40", "--N", "20", "--trials", "2", "--observe_every", "10",
        "--lambda", "1e-3", "--epsilon", "0.1", "--seed", "11"]


def _key(sampler: str, target: str) -> str:
    return f"{sampler.replace(':', '-')}_{target}"


def run_references(out: Path, **env) -> None:
    """Run every reference config through ``kfrflow run`` in one fresh
    interpreter on one OpenBLAS thread, writing ``out/<key>/*.csv``."""
    runs = [["run", "--target", t, "--sampler", s, *ARGS, "--out", str(out / _key(s, k))]
            for s in SAMPLERS for k, t in TARGETS.items()]
    src = str(Path(kfrflow.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", **env, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    env.pop("KFRFLOW_WORKERS", None)
    code = "import json, sys; from kfrflow.cli import main\n" \
           "for argv in json.loads(sys.argv[1]): main(argv)"
    subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                   capture_output=True, check=True)


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
def fresh(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("references")
    run_references(out)
    return out


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_sampler_output_matches_its_references(fresh, sampler):
    for target in TARGETS:
        key = _key(sampler, target)
        (path,) = (fresh / key).glob("*.csv")
        for col, got, ref in deviations(read_csv(path), read_csv(REFS / f"{key}.csv")):
            assert abs(got - ref) <= RTOL * abs(ref) + ATOL, (key, col, got, ref)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_references(Path(tmp))
        REFS.mkdir(exist_ok=True)
        for s in SAMPLERS:
            for k in TARGETS:
                (path,) = (Path(tmp) / _key(s, k)).glob("*.csv")
                rows = read_csv(path)
                for row in rows:
                    row["step_time_ns"] = 0  # timing is not part of the output
                with open(REFS / f"{_key(s, k)}.csv", "w", newline="") as fh:
                    writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
                    writer.writeheader()
                    writer.writerows(rows)
    print(f"wrote {len(SAMPLERS) * len(TARGETS)} references to {REFS}")
