"""Record this checkout's benchmark figures in one JSON file.

Run from the root of a source checkout:

    python3 tools/bench.py --out BENCH_22.json

It runs the unchanged ``perfbench/run.py --trace 0 --seconds 8`` eight
times on each workload of ``BENCHMARK.json`` (run i, seed i, takes every
workload in turn, so that a drift of the machine's speed spreads over all
of them),
then the Tier-1 suite once, as ROADMAP.md gives it, with ``-rP`` so that
the acceptance criteria's lines are kept.  The file holds, per workload and
metric, the median, the quartiles and the IQR; whether every run was
correct; the Tier-1 summary and wall time; the durations that criteria 3,
5, 6 and 11 print (and criterion 11's step times); and the provenance:
nproc, numpy and its BLAS with the OpenBLAS core name, the git revision
and the digest of ``src/kfrflow``, as perfbench reports them.
``blas_provenance`` is also the platform key of ``tests/references``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
from numpy.linalg import _umath_linalg

RUNS = 8  # perfbench runs per workload, seeds 1..RUNS: enough for quartiles
SECONDS = 8  # perfbench --seconds
CRITERIA = (3, 5, 6, 11)
# "PASS criterion 11: median step times 0.47 / 1.27 / 7.22 ms; ...; 41s"
CRITERION_LINE = re.compile(r"^(PASS|FAIL) criterion (\d+): (.*); (\d+(?:\.\d+)?)s$")
STEP_TIMES = re.compile(r"median step times ([\d.]+) / ([\d.]+) / ([\d.]+) ms")


def quartiles(values: list) -> dict:
    """Median, quartiles (inclusive method) and IQR of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def perfbench(workload: str, seed: int, seconds: int) -> tuple:
    """One ``perfbench/run.py --trace 0`` run: its JSON result and provenance."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(line.removeprefix("provenance "))
                      for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), provenance


def criteria(output: str) -> dict:
    """The criteria of ``CRITERIA`` that printed a line: verdict and
    seconds, and for criterion 11 its three median step times in ms."""
    found = {}
    for line in output.splitlines():
        m = CRITERION_LINE.match(line.strip())
        if m and int(m[2]) in CRITERIA:
            entry = {"verdict": m[1], "elapsed_s": float(m[4])}
            steps = STEP_TIMES.search(m[3])
            if steps:
                entry["median_step_ms"] = [float(v) for v in steps.groups()]
            found[m[2]] = entry
    return found


def tier1() -> dict:
    """Run Tier-1 once; its summary line, wall time and printed criteria."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ("src", os.environ.get("PYTHONPATH")))))
    tic = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rP"],
        env=env, capture_output=True, text=True)
    wall = time.monotonic() - tic
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"summary": summary.strip("= "), "exit_code": proc.returncode,
            "wall_s": round(wall, 1), "criteria": criteria(proc.stdout)}


def blas_provenance() -> dict:
    """numpy's version and the core name of its OpenBLAS (None where numpy
    exports none): the platform that a run's rounding depends on."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    name = getattr(lib, "scipy_openblas_get_corename64_", None)
    if name is not None:
        name.restype = ctypes.c_char_p
        name = name().decode()
    return {"numpy": numpy.__version__, "openblas_core": name}


def src_modified() -> bool | None:
    """Whether ``src`` differs from the git revision; None outside git."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                          capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    if not Path("perfbench/run.py").is_file() or not Path("src/kfrflow").is_dir():
        parser.error("run from the root of a source checkout")

    workloads = [w["name"] for w in json.loads(Path("BENCHMARK.json").read_text())["workloads"]]
    results = {w: [] for w in workloads}
    provenance = None
    for seed in range(1, RUNS + 1):
        for w in workloads:
            result, provenance = perfbench(w, seed, SECONDS)
            results[w].append(result)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    bench = {}
    for w, runs in results.items():
        names = runs[0]["metrics"]
        bench[w] = {name: dict(quartiles([r["metrics"][name]["value"] for r in runs]),
                               unit=runs[0]["metrics"][name]["unit"]) for name in names}
        bench[w]["correct"] = all(r["correct"] for r in runs)
        bench[w]["failed_trials"] = sum(r["failed"] for r in runs)
    tests = tier1()
    print(f"tier-1: {tests['summary']} ({tests['wall_s']} s wall)", flush=True)
    record = {
        "perfbench": {"command": "perfbench/run.py --trace 0", "seconds": SECONDS,
                      "seeds": list(range(1, RUNS + 1)), "workloads": bench},
        "tier1": tests,
        "provenance": {
            "nproc": provenance["nproc"], "python": provenance["python"],
            **blas_provenance(), "blas": provenance["blas"],
            "git_revision": provenance["git_revision"],
            "src_modified": src_modified(), "src_sha256": provenance["src_sha256"],
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if tests["exit_code"] == 0 and all(b["correct"] for b in bench.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
