"""End-to-end and per-layer benchmark of the kfrflow samplers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload donut-observed --seed 1 --seconds 28 --trace 0

Each run starts fresh child processes (``child.py``) on the checkout's
``src``: several that only set up, for ``setup_s``, then one that runs the
workload's repeats back to back (a closed loop with one client, trials
sequential, one BLAS thread).  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` runs traced and untraced repeats
alternately and reports the per-layer metrics.
Every trial is checked (see ``workloads.py``); a failed check counts in
``failed`` and never stops the run.  The last line of standard output is
the JSON result; the lines before it are a readable report and the run's
provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_CHILDREN = 4
# On a 2-vCPU VM, run_s spread two to five times more across runs with two
# BLAS threads than with one (the idle OpenBLAS worker spins against the
# main thread), and was no shorter at these sizes.
BLAS_THREADS = 1
# child.calibrate() seconds on a quiet 2-vCPU Xeon VM (OpenBLAS 0.3.31, one
# thread).  That VM's speed drifted by 15-25% over minutes, so run_s is the
# median repeat wall time scaled by CAL_REF_S / (the run's median
# calibration): seconds at the reference speed.
CAL_REF_S = 0.29
DEADLINE_S = 170.0
# Milliseconds from the layer table of the ROADMAP re-anchor (scratch copy,
# 2 cores, OpenBLAS, median of 15 reps).  Kernel costs depend on J and d
# only, so the gaussian J=1000 (d=2) workload is compared with donut J=1000.
ROADMAP_MS = {
    "donut J=300": {"median bandwidth": 1.7, "build_workspace": 12.7,
                    "Cholesky solve": 1.9, "KFRFlow velocity step": 16.5,
                    "KFRFlow-I step": 18.0, "KSD target": 13.4, "KSD tempered": 13.8},
    "donut J=1000": {"median bandwidth": 19.1, "build_workspace": 126.0,
                     "Cholesky solve": 24.7, "KFRFlow velocity step": 172.0,
                     "KFRFlow-I step": 205.0, "KSD target": 118.0, "KSD tempered": 119.0},
    "funnel:20 J=300": {"median bandwidth": 1.6, "build_workspace": 42.2,
                        "Cholesky solve": 1.6, "KFRFlow velocity step": 47.9,
                        "KFRFlow-I step": 57.1, "KSD target": 16.7, "KSD tempered": 15.9},
}
ROADMAP_COLUMN = {"donut-observed": "donut J=300", "baselines-donut": "donut J=300",
                  "funnel20-sparse": "funnel:20 J=300", "gauss-ab4-J1000": "donut J=1000"}

SELF_TIMES = (
    "diagnostics.ksd_target", "diagnostics.ksd_tempered",
    "particles.build_workspace", "particles.spd_solve", "particles.importance_weights",
    "flows.kfrflow_i_step", "flows.sample_ot_newton", "flows.kfrflow_velocity",
    "integrators.run_unit_time", "targets.log_ratio", "targets.score",
    "baselines.rwm_run", "harness.observe", "harness.write",
)
CALLS = ("diagnostics.ksd_target", "diagnostics.ksd_tempered", "particles.build_workspace",
         "particles.spd_solve", "integrators.step", "targets.log_ratio", "targets.score")
WARNING_METRICS = ("particles.spd_solve.fallbacks", "flows.weights_degenerate",
                   "flows.newton_diverged", "baselines.rwm.tune_misses",
                   "diagnostics.overflow")
PROBE_UNITS = {"kernels.median_bandwidth.ms": "ms", "kernels.kernel_matrix.ms": "ms",
               "particles.build_workspace.ms": "ms", "particles.spd_solve.ms": "ms",
               "particles.workspace.mb": "MB", "kernels.pair_tensor.mb_computed": "MB",
               "kernels.gram.gflop_computed": "GFLOP",
               "particles.cholesky.gflop_computed": "GFLOP",
               "diagnostics.ksd.mb_computed": "MB"}


class ChildFailed(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("KFRFLOW_WORKERS", None)  # trials run sequentially
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, mode, seconds, env, deadline, out_dir) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--out-dir", str(out_dir), "--spawned", repr(time.monotonic())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"child timed out after {remaining:.0f} s") from err
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "kfrflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def final_ksd(trials) -> float:
    """Mean over experiments of each experiment's trial-mean final KSD."""
    by_label: dict = {}
    for label, ksd, _ in trials:
        by_label.setdefault(label, []).append(ksd)
    return statistics.mean(statistics.mean(v) for v in by_label.values())


def tail_percentile(values) -> tuple:
    """The highest of the usual percentiles with at least 10 samples beyond it."""
    import numpy as np

    if not values:
        return 50.0, 0.0
    for per_mille in (999, 990, 950, 900, 750, 500):
        if len(values) * (1000 - per_mille) >= 10 * 1000:
            break
    return per_mille / 10.0, float(np.percentile(values, per_mille / 10.0))


def layer_metrics(res) -> dict:
    """Per-layer metrics from a traced child, per traced repeat."""
    spans, probe = res["spans"], res["probe"]["metrics"]
    traced = res["traced_repeat_s"]
    n = len(traced)
    calls, self_s, total_s = spans["calls"], spans["self_s"], spans["total_s"]
    durations, counters = spans["durations"], spans["counters"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    def p50_ms(name):
        vals = durations.get(name)
        return statistics.median(vals) * 1e3 if vals else 0.0

    for name in SELF_TIMES:
        put(f"{name}.self_s", self_s.get(name, 0.0) / n, "s")
    for name in CALLS:
        put(f"{name}.calls", calls.get(name, 0) / n, "count")
    traced_s = sum(traced)
    ksd_s = total_s.get("diagnostics.ksd_target", 0.0) + total_s.get("diagnostics.ksd_tempered", 0.0)
    put("diagnostics.share", ksd_s / traced_s, "frac")
    for name in WARNING_METRICS:
        put(name, res["warnings"].get(name, 0), "count")
    for name, unit in PROBE_UNITS.items():
        put(name, probe[name], unit)
    put("particles.ess_frac_min", counters.get("particles.ess_frac_min", 0.0), "frac")
    steps = durations.get("integrators.step", [])
    pct, tail = tail_percentile(steps)
    put("integrators.step.p50_ms", p50_ms("integrators.step"), "ms")
    put("integrators.step.ptail_ms", tail * 1e3, "ms")
    put("integrators.step.samples", len(steps), "count")
    rows = counters.get("targets.log_ratio.rows", 0.0)
    lr_calls = calls.get("targets.log_ratio", 0)
    put("targets.log_ratio.rows_per_call", rows / lr_calls if lr_calls else 0.0, "rows")
    rwm = res["rwm"]
    put("baselines.rwm.tune_rounds",
        statistics.mean(r[0] for r in rwm) if rwm else 0.0, "count")
    put("baselines.rwm.acceptance",
        statistics.median(r[1] for r in rwm) if rwm else 0.0, "frac")
    put("baselines.svgd_step.p50_ms", p50_ms("baselines.svgd_step"), "ms")
    put("baselines.ula_step.p50_ms", p50_ms("baselines.ula_step"), "ms")
    put("harness.rows", statistics.mean(res["rows_per_trial"]), "rows")
    put("harness.final_ksd", final_ksd(res["trials"]), "ksd")
    put("trace.overhead_frac",
        statistics.median(traced) / statistics.median(res["repeat_s"]) - 1.0, "frac")
    put("trace.unaccounted_frac", 1.0 - sum(self_s.values()) / traced_s, "frac")
    return m


def roadmap_rows(workload, res) -> list:
    """(row, roadmap ms, measured ms) for the comparable ROADMAP table rows."""
    column = ROADMAP_MS[ROADMAP_COLUMN[workload]]
    probe, durations = res["probe"]["metrics"], res["spans"]["durations"]
    measured = {
        "median bandwidth": probe["kernels.median_bandwidth.ms"],
        "build_workspace": probe["particles.build_workspace.ms"],
        "Cholesky solve": probe["particles.spd_solve.ms"],
    }
    for row, span in (("KFRFlow velocity step", "flows.kfrflow_velocity"),
                      ("KFRFlow-I step", "flows.kfrflow_i_step"),
                      ("KSD target", "diagnostics.ksd_target"),
                      ("KSD tempered", "diagnostics.ksd_tempered")):
        if durations.get(span):
            measured[row] = statistics.median(durations[span]) * 1e3
    return [(row, column[row], ms) for row, ms in measured.items()]


def report(args, res, setups, metrics, provenance) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"  setup samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    for (traced, wall), cal in zip(res["repeats"], res["calibration_s"]):
        print(f"  repeat {'traced  ' if traced else 'untraced'} wall {wall:.3f} s, "
              f"then calibration {cal:.4f} s")
    print(f"  untraced wall median {statistics.median(res['repeat_s']):.4f} s, "
          f"calibration median {statistics.median(res['calibration_s']):.4f} s")
    print(f"  trials {len(res['trials'])}, final KSD (trial mean) {final_ksd(res['trials']):.4f}")
    for label, problems in res["failures"]:
        print(f"  FAILED {label}: {'; '.join(problems)}")
    if res["warnings"]:
        print(f"  warnings: {json.dumps(res['warnings'], sort_keys=True)}")
    if args.trace:
        spans = res["spans"]
        n = len(res["traced_repeat_s"])
        print("  layer self time per traced repeat:")
        for name, s in sorted(spans["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:32s} {s / n:9.4f} s  {spans['calls'][name] / n:10.0f} calls")
        steps = spans["durations"].get("integrators.step", [])
        pct, tail = tail_percentile(steps)
        print(f"  integrators.step.ptail_ms is p{pct:g} of {len(steps)} steps")
        probe = res["probe"]
        print(f"  kernels probe on {WORKLOADS[args.workload].probe} ensembles "
              f"(J={probe['metrics']['probe.J']}, d={probe['metrics']['probe.d']}), ms:")
        for which, times in probe["per_ensemble"].items():
            print(f"    {which:5s} " + "  ".join(f"{k} {v:.2f}" for k, v in times.items()))
        for row, ref, ms in roadmap_rows(args.workload, res):
            off = ms / ref - 1.0
            flag = "  OFF >20%" if abs(off) > 0.2 else ""
            print(f"  roadmap {ROADMAP_COLUMN[args.workload]:16s} {row:22s} "
                  f"{ref:8.1f} ms  measured {ms:8.2f} ms  {off:+.0%}{flag}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("provenance " + json.dumps(provenance, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "kfrflow" / "__init__.py").is_file():
        print(f"perfbench: no kfrflow sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    out_dir = HERE / ".out" / str(os.getpid())
    deadline = start + DEADLINE_S
    try:
        setups = [run_child(args, "setup", 0, env, deadline, out_dir)["setup_s"]
                  for _ in range(SETUP_ONLY_CHILDREN)]
        mode = "trace" if args.trace else "run"
        res = run_child(args, mode, args.seconds, env, deadline, out_dir)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()
    setups.append(res["setup_s"])
    res["repeat_s"] = [r[1] for r in res["repeats"] if not r[0]]
    res["traced_repeat_s"] = [r[1] for r in res["repeats"] if r[0]]

    attempted = len(res["trials"])
    failed = len(res["failures"])
    if args.trace:
        metrics = layer_metrics(res)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(res["repeat_s"]) * CAL_REF_S
                      / statistics.median(res["calibration_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    workload = WORKLOADS[args.workload]
    provenance = dict(res["provenance"], nproc=len(os.sched_getaffinity(0)), seed=args.seed,
                      git_revision=git_revision(root), src_sha256=source_digest(root),
                      workload={e.label: e.config for e in workload.experiments},
                      trial_seeds=f"1000*{args.seed} + repeat index",
                      attempted=attempted, failed=failed,
                      failed_frac=failed / attempted)
    report(args, res, setups, metrics, provenance)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
