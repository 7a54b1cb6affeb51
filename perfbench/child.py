"""One benchmark process: set up, run a workload's repeats, print one JSON line.

Started by ``run.py`` with the monotonic time of its spawn, so ``setup_s``
covers interpreter start, importing kfrflow, parsing the workload's configs
and building its targets.  Modes:

* ``setup``: stop after set-up;
* ``run``: untraced repeats for ``--seconds``;
* ``trace``: repeats alternate untraced and traced (the difference is the
  tracing overhead), then the kernels layer is probed on the t=0 and final
  ensembles of the workload's probe experiment.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings

from workloads import WORKLOADS, gauss_problems, ksd_problems, trial_problems

WARNING_KINDS = (
    ("coupling-matrix solve failed", "particles.spd_solve.fallbacks"),
    ("importance weights degenerate", "flows.weights_degenerate"),
    ("transport Newton iteration diverging", "flows.newton_diverged"),
    ("proposal tuning did not reach", "baselines.rwm.tune_misses"),
)
PROBE_REPS = 5
PAIR_PASSES = 80
MATMULS = 32


def classify(warning) -> str:
    if not issubclass(warning.category, RuntimeWarning):
        return "other"
    text = str(warning.message)
    for needle, kind in WARNING_KINDS:
        if needle in text:
            return kind
    if "overflow" in text and warning.filename.endswith("diagnostics.py"):
        return "diagnostics.overflow"
    return "other"


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        name = version = "unknown"
    return {"name": name, "version": version,
            "threads": os.environ.get("OPENBLAS_NUM_THREADS")}


class Runner:
    """Runs repeats of one workload and keeps what the checks need."""

    def __init__(self, workload, seed, out_dir):
        from kfrflow import parse_config

        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.configs = [parse_config(None, dict(e.config, trials=1))
                        for e in workload.experiments]
        self.targets = [c.build_target() for c in self.configs]
        self.rwm_results = []
        self.trials = []  # (label, final KSD, problems)
        self.gauss_finals = []
        self.rows_per_trial = []
        self.label = None
        self.ensembles = {}  # label -> (t=0, final) of its first traced run

    def note_ensembles(self, initial, final):
        self.ensembles.setdefault(self.label, (initial, final))

    def capture_rwm(self, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.rwm_results.append(result)
            return result
        return wrapped

    def repeat(self, i, tracer=None) -> float:
        """Run every experiment once; returns the timed wall seconds."""
        from kfrflow import run_experiment, write_record_csv, write_sidecar

        wall = 0.0
        for exp, base in zip(self.workload.experiments, self.configs):
            cfg = dataclasses.replace(base, seed=1000 * self.seed + i)
            stem = os.path.join(self.out_dir, exp.label)
            n_rwm = len(self.rwm_results)
            self.label = exp.label
            tic = time.perf_counter()
            record = run_experiment(cfg)
            if tracer is None:
                write_record_csv(record, stem + ".csv")
                write_sidecar(record, stem + ".json")
            else:
                with tracer.span("harness.write"):
                    write_record_csv(record, stem + ".csv")
                    write_sidecar(record, stem + ".json")
            wall += time.perf_counter() - tic
            rwm = self.rwm_results[n_rwm] if len(self.rwm_results) > n_rwm else None
            self.trials.append((exp.label, record.final_mean_ksd(),
                                trial_problems(record, rwm)))
            self.rows_per_trial.append(len(record.rows))
            final = record.summary[-1] if record.summary else None
            if final and record.config.target.startswith("gaussian"):
                d = record.dim
                self.gauss_finals.append(
                    ([final[f"mean_{k + 1}"] for k in range(d)],
                     [final[f"var_{k + 1}"] for k in range(d)]))
        return wall

    def warm_up(self):
        """One tiny run per experiment so lazy imports and BLAS start-up
        are not timed."""
        from kfrflow import run_experiment

        for cfg in self.configs:
            run_experiment(dataclasses.replace(cfg, J=min(cfg.J, 20), N=2,
                                               observe_every=1, seed=0))
        self.rwm_results.clear()

    def failures(self) -> list:
        """(label, reasons) per failed trial.  The KSD and moment bands hold
        for trial means, so a miss fails every trial in the mean."""
        failed = {i: list(problems) for i, (_, _, problems) in enumerate(self.trials)
                  if problems}
        for exp in self.workload.experiments:
            mine = [i for i, (label, _, _) in enumerate(self.trials) if label == exp.label]
            problems = ksd_problems(exp, [self.trials[i][1] for i in mine if i not in failed])
            if self.gauss_finals:  # the gauss workload has one experiment
                problems += gauss_problems(self.targets[0], self.gauss_finals)
            for i in mine:
                failed.setdefault(i, []).extend(problems)
        return [(self.trials[i][0], problems)
                for i, problems in sorted(failed.items()) if problems]


def calibrate() -> float:
    """Seconds for a fixed job that calls no kfrflow code, to measure how
    fast the host runs right now.  Equal parts of the three kinds of work
    the workloads do: single-row numpy calls (RWM), in-place elementwise
    passes over a (300, 300, 2) tensor (pair tensors, KSD) and 400x400
    matrix products (Gram, Cholesky)."""
    import numpy as np

    rng = np.random.default_rng(0)
    rows = rng.standard_normal((18000, 2))
    pairs = rng.standard_normal((300, 300, 2))
    scratch = np.empty_like(pairs)
    mat = rng.standard_normal((400, 400))
    tic = time.perf_counter()
    for row in rows:
        float(-0.5 * np.sum(row**2))
    for _ in range(PAIR_PASSES):
        np.multiply(pairs, 1.0001, out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        scratch.sum(axis=-1)
    for _ in range(MATMULS):
        mat @ mat
    return time.perf_counter() - tic


def run_repeats(runner, seconds, min_repeats, tracer=None) -> dict:
    """Repeats until the next one would overrun ``seconds``, and at least
    ``min_repeats``; with a tracer, every second one is traced.  The host
    speed is calibrated after each repeat; peak RSS is read after the
    first, before any calibration could add to it."""
    if tracer is not None:
        from tracing import layer_bindings, patched

        bindings = layer_bindings(tracer, runner.note_ensembles)
    out = {"repeats": [], "calibration_s": []}
    start = time.perf_counter()
    while True:
        i = len(out["repeats"])
        traced = tracer is not None and i % 2 == 1
        if traced:
            with patched(bindings):
                wall = runner.repeat(i, tracer)
            tracer.fold()
        else:
            wall = runner.repeat(i)
        out["repeats"].append([traced, wall])
        if i == 0:
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["calibration_s"].append(calibrate())
        elapsed = time.perf_counter() - start
        longest = max(w for _, w in out["repeats"])
        if i + 1 >= min_repeats and elapsed + longest > seconds:
            return out


def probe_kernels(ensembles, lam) -> dict:
    """Time the public kernel primitives on the t=0 and final ensembles."""
    import numpy as np
    from kfrflow import KernelSpec, build_workspace, kernel_matrix, median_bandwidth
    from kfrflow.particles import spd_solve

    spec = KernelSpec()
    times = {"kernels.median_bandwidth.ms": [], "kernels.kernel_matrix.ms": [],
             "particles.build_workspace.ms": [], "particles.spd_solve.ms": []}

    def timed(key, fn, *args):
        for _ in range(PROBE_REPS):
            tic = time.perf_counter()
            out = fn(*args)
            times[key].append((time.perf_counter() - tic) * 1e3)
        return out

    per_ensemble = {}
    for which, ens in zip(("t0", "final"), ensembles):
        before = {k: len(v) for k, v in times.items()}
        timed("kernels.median_bandwidth.ms", median_bandwidth, ens)
        timed("kernels.kernel_matrix.ms", kernel_matrix, ens, spec)
        ws = timed("particles.build_workspace.ms", build_workspace, ens, spec)
        rhs = ws.Kmat.mean(axis=0)
        timed("particles.spd_solve.ms", spd_solve, ws.M, lam, rhs)
        per_ensemble[which] = {k: statistics.median(v[before[k]:]) for k, v in times.items()}
    arrays = {id(a.base if a.base is not None else a): (a.base if a.base is not None else a)
              for a in vars(ws).values() if isinstance(a, np.ndarray)}
    J, d = ensembles[-1].positions.shape
    out = {k: statistics.median(v) for k, v in times.items()}
    out.update({
        "particles.workspace.mb": sum(a.nbytes for a in arrays.values()) / 1e6,
        "kernels.pair_tensor.mb_computed": J * J * d * 8 / 1e6,
        "kernels.gram.gflop_computed": 2.0 * J * J * (J * d) / 1e9,
        "particles.cholesky.gflop_computed": J ** 3 / 3.0 / 1e9,
        "diagnostics.ksd.mb_computed": (J * J * d + J * J) * 8 / 1e6,
        "probe.J": J, "probe.d": d,
    })
    return {"metrics": out, "per_ensemble": per_ensemble}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import kfrflow.harness

    runner = Runner(workload, args.seed, args.out_dir)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import numpy
    import scipy

    os.makedirs(args.out_dir, exist_ok=True)
    kfrflow.harness.rwm_run = runner.capture_rwm(kfrflow.harness.rwm_run)
    tracer = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runner.warm_up()
            caught.clear()
            if args.mode == "trace":
                from tracing import Tracer

                tracer = Tracer()
                timing = run_repeats(runner, args.seconds,
                                     max(2, workload.min_repeats), tracer)
            else:
                timing = run_repeats(runner, args.seconds, workload.min_repeats)
    finally:
        shutil.rmtree(args.out_dir, ignore_errors=True)

    warning_counts = {}
    for w in caught:
        kind = classify(w)
        warning_counts[kind] = warning_counts.get(kind, 0) + 1
    result.update(timing)
    result.update({
        "trials": [[label, ksd, problems] for label, ksd, problems in runner.trials],
        "failures": runner.failures(),
        "rows_per_trial": runner.rows_per_trial,
        "warnings": warning_counts,
        "rwm": [[r.tune_rounds_used, r.tune_acceptance, r.tuned] for r in runner.rwm_results],
        "provenance": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "kfrflow": kfrflow.__version__,
            "blas": blas_info(),
        },
    })
    if tracer is not None:
        result["spans"] = {
            "calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "durations": {k: list(v) for k, v in tracer.durations.items()},
            "counters": dict(tracer.counters),
        }
        labels = [e.label for e in workload.experiments]
        # SVGD has no lambda; probe its ensembles at the flows' 1e-3
        lam = runner.configs[labels.index(workload.probe)].lam or 1e-3
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            result["probe"] = probe_kernels(runner.ensembles[workload.probe], lam)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
