"""Experiment orchestration: seeded multi-trial runs, sweeps, and step timing.

Every run is determined by (config, seed): trial seeds are seed + trial_index,
every draw of a trial comes from its one generator, and rows are assembled
in (trial, step) order.  :func:`run_experiment`, and so :func:`sweep`, runs on
one thread of numpy's OpenBLAS (:func:`kfrflow._blas.one_thread`), so results
do not depend on ``OPENBLAS_NUM_THREADS``.  A trial is unstable when it
raises :class:`NumericalStabilityError`: a non-finite coordinate, velocity,
log ratio or diagnostic, or a failed solve.
Unstable trials keep their rows up to the failure, are flagged, and are
excluded from the cross-trial summary.  Every other error (a target
returning the wrong shape, say) propagates.

Results serialize to one CSV per run plus a JSON sidecar echoing the resolved
config.  ``KFRFLOW_WORKERS=n`` in the environment, an integer n >= 1, runs
trials on n threads; the output is identical to a sequential run.

Every trial creates one buffer pool (:mod:`kfrflow.kernels`) that its
steps and its KSD observations share, so no step allocates its J x J arrays
again; trials never share a pool.  The ULA and RWM steps hold no J x J
array, so there only the observations use it.  ULA, like KFRD, draws each
step's noise in one call on the trial's generator.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _blas
from .baselines import rwm_run, svgd_step, ula_step
from .config import _RUN_KEYS, _SWEEP_KEYS, RunConfig, UNIT_TIME_SAMPLERS, parse_sampler
# perfbench/tracing.py rebinds kfrflow.harness.ksd
from .diagnostics import ksd, stein_discrepancies  # noqa: F401
from .errors import NumericalStabilityError
from .flows import kfrd_drift, kfrflow_i_step, kfrflow_velocity, sample_ot_newton
from .integrators import make_rng, run_unit_time, sde_stepper, velocity_stepper
from .kernels import _BufferPool
from .particles import Ensemble

SCHEMA_VERSION = 1
WORKERS_ENV = "KFRFLOW_WORKERS"
BENCH_WARMUP = 3  # untimed bench_step calls, enough for AB4's history


@dataclass
class RunRecord:
    config: RunConfig
    dim: int
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)
    unstable_trials: list = field(default_factory=list)

    @property
    def all_stable(self) -> bool:
        return not self.unstable_trials

    def final_mean_ksd(self) -> float:
        """Trial-mean KSD against the target at the last observation."""
        return self.summary[-1]["ksd_target"] if self.summary else float("nan")


def _row(trial, step, t, positions, step_ns, ksd_cfg, target, tempered, pool=None):
    ksd_target = ksd_temp = float("nan")
    if target.score_target is not None:
        # one Stein pass scores both; pi_t's score reuses the target score
        s1 = target.score_target(positions)
        scores = [s1]
        if tempered and target.has_scores:
            scores.append((1.0 - t) * target.score_reference(positions) + t * s1)
        ksd_target, *rest = stein_discrepancies(positions, scores, ksd_cfg, pool=pool)
        ksd_temp = rest[0] if rest else ksd_temp
        if not math.isfinite(ksd_target):
            raise NumericalStabilityError("non-finite KSD", step=step)
    J, dim = positions.shape
    mean = positions.mean(axis=0)
    var = positions.var(axis=0, ddof=1) if J > 1 else np.zeros(dim)
    row = {
        "schema_version": SCHEMA_VERSION,
        "trial": trial,
        "step": step,
        "t": t,
        "ksd_target": ksd_target,
        "ksd_tempered": ksd_temp,
        "step_time_ns": int(step_ns),
        "stable": 1,
    }
    for i in range(dim):
        row[f"mean_{i + 1}"] = float(mean[i])
        row[f"var_{i + 1}"] = float(var[i])
    return row


def _make_stepper(base, iters, config, target, rng, pool=None):
    """The sampler's update as a stepper ``step(ens) -> Ensemble``, with
    ``config``'s step, regularization, noise and kernel; the kfrflow
    samplers and SVGD work in the buffer pool ``pool``."""
    dt, lam, eps, spec = config.dt, config.lam, config.eps, config._kernel_spec()
    if base in ("kfrflow-euler", "kfrflow-ab4"):
        return velocity_stepper(
            lambda e: kfrflow_velocity(e, target, spec, lam, pool=pool), dt,
            base.removeprefix("kfrflow-"),
        )
    if base in ("kfrflow-i", "kfrflow-i-newton"):
        if (iters or 1) == 1:  # one Newton step is the KFRFlow-I map
            return lambda e: kfrflow_i_step(e, target, spec, dt, lam, pool=pool)
        return lambda e: sample_ot_newton(e, target, spec, dt, lam, iters, pool=pool)
    if base == "kfrd":
        return sde_stepper(
            lambda e: kfrd_drift(e, target, spec, lam, eps, pool=pool), dt, rng
        )
    if base == "svgd":
        return lambda e: svgd_step(e, target, spec, dt, pool)
    if base == "ula":
        return lambda e: ula_step(e, target, dt, rng)
    raise ValueError(f"no stepper for sampler {base!r}")


def _run_trial(config: RunConfig, target, trial: int) -> tuple:
    """One seeded trial; returns (rows, stable)."""
    ksd_cfg = config._ksd_config()
    base, iters = parse_sampler(config.sampler)
    rng = make_rng(config.seed + trial)
    x0 = target.sample_reference(rng, config.J)
    obs_steps = set(range(0, config.N + 1, config.observe_every)) | {0, config.N}
    tempered = base in UNIT_TIME_SAMPLERS
    pool = _BufferPool()
    rows = []

    def observe(k, t, positions, step_ns):
        if k in obs_steps:
            rows.append(_row(trial, k, t, positions, step_ns, ksd_cfg, target, tempered, pool))

    try:
        if base.startswith("rwm-"):
            observe(0, 0.0, x0, 0)
            tic = time.perf_counter_ns()
            result = rwm_run(target, config.N, config.J, base.removeprefix("rwm-"), rng)
            elapsed = time.perf_counter_ns() - tic
            observe(config.N, 1.0, result.samples, elapsed // config.N)
        else:
            run_unit_time(
                Ensemble(x0, 0.0),
                _make_stepper(base, iters, config, target, rng, pool),
                config.N, [lambda k, t, ens, ns: observe(k, t, ens.positions, ns)],
                total_time=config.T,
            )
    except NumericalStabilityError:
        for row in rows:
            row["stable"] = 0
        return rows, False
    return rows, True


def run_experiment(config: RunConfig) -> RunRecord:
    """Run ``config.trials`` seeded trials, on one OpenBLAS thread, and
    average the diagnostics."""
    raw = os.environ.get(WORKERS_ENV, "1")
    workers = int(raw) if raw.strip().isdecimal() else 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    target = config.build_target()
    record = RunRecord(config=config, dim=target.dim)

    with _blas.one_thread():
        if workers > 1:
            # imported here: it loads logging, which a sequential run never needs
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(lambda i: _run_trial(config, target, i), range(config.trials))
                )
        else:
            results = [_run_trial(config, target, i) for i in range(config.trials)]

    for trial, (rows, stable) in enumerate(results):
        record.rows.extend(rows)
        if not stable:
            record.unstable_trials.append(trial)

    stable_rows = [r for r in record.rows if r["stable"] == 1]
    by_step: dict = {}
    for row in stable_rows:
        by_step.setdefault(row["step"], []).append(row)
    skip = {"schema_version", "trial", "step", "stable"}
    for step in sorted(by_step):
        group = by_step[step]
        summary = {"schema_version": SCHEMA_VERSION, "trial": -1, "step": step, "stable": 1}
        for key in (k for k in group[0] if k not in skip):
            mean = np.mean([g[key] for g in group])
            summary[key] = int(mean) if key == "step_time_ns" else float(mean)
        record.summary.append(summary)
    return record


def _columns(dim: int) -> list:
    cols = ["schema_version", "trial", "step", "t", "ksd_target", "ksd_tempered"]
    cols += [f"mean_{i + 1}" for i in range(dim)]
    cols += [f"var_{i + 1}" for i in range(dim)]
    cols += ["step_time_ns", "stable"]
    return cols


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: str, cols: list, rows: list) -> None:
    """A header of ``cols``, then one line per row dict; a missing value is nan."""
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_format(row.get(c, float("nan"))) for c in cols) + "\n")


def write_record_csv(record: RunRecord, path: str) -> None:
    """Rows then summary rows (trial column -1), in (trial, step) order."""
    _write_csv(path, _columns(record.dim), record.rows + record.summary)


def write_sidecar(record: RunRecord, path: str) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "config": record.config.resolved(),
        "unstable_trials": record.unstable_trials,
        "n_rows": len(record.rows),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class SweepResult:
    records: list  # (cell dict, RunRecord) in grid order
    selection: list  # best cell per (J, N) by final mean KSD

    @property
    def all_stable(self) -> bool:
        return all(record.all_stable for _, record in self.records)


def sweep(config: RunConfig, grid: dict) -> SweepResult:
    """Cartesian-product sweep with best-per-(J, N) selection.

    Selection minimizes the trial-mean final KSD; ties break toward smaller
    lambda, then epsilon, then T.  An empty grid runs the template config
    once.
    """
    unknown = set(grid) - set(_SWEEP_KEYS)
    if unknown:
        raise ValueError(f"unknown sweep keys: {sorted(unknown)}")
    for key, vals in grid.items():
        if not list(vals):
            raise ValueError(f"sweep.{key}: empty grid")
    keys = [k for k in _SWEEP_KEYS if k in grid]
    combos = itertools.product(*(grid[k] for k in keys)) if keys else [()]

    # build (and so validate) every cell before running any
    cells = [dict(zip(keys, combo)) for combo in combos]
    cfgs = [
        dataclasses.replace(config, **{_RUN_KEYS[k].name: v for k, v in cell.items()})
        for cell in cells
    ]
    records = [(cell, run_experiment(cfg)) for cell, cfg in zip(cells, cfgs)]

    by_jn: dict = {}
    for cell, record in records:
        entry = {k: cell.get(k, getattr(config, _RUN_KEYS[k].name)) for k in _SWEEP_KEYS}
        final = entry["final_ksd"] = record.final_mean_ksd()
        entry["unstable_trials"] = len(record.unstable_trials)
        jn = (entry["J"], entry["N"])
        # J and N are equal within a (J, N) group, so the later keys break ties
        key = (final if math.isfinite(final) else float("inf"), *(entry[k] for k in _SWEEP_KEYS))
        if jn not in by_jn or key < by_jn[jn][0]:
            by_jn[jn] = (key, entry)
    selection = [entry for _, entry in (by_jn[jn] for jn in sorted(by_jn))]
    return SweepResult(records=records, selection=selection)


def write_selection_csv(result: SweepResult, path: str) -> None:
    _write_csv(path, [*_SWEEP_KEYS, "final_ksd", "unstable_trials"], result.selection)


@dataclass
class BenchResult:
    median_ns: int
    times_ns: list


def bench_step(config: RunConfig, reps: int = 30) -> BenchResult:
    """Median wall time of one ensemble update, from a fixed warmed-up state.

    Every call steps the same initial ensemble; stateful steppers keep their
    state, so after the ``BENCH_WARMUP`` untimed calls kfrflow-ab4 times the
    Adams-Bashforth update.  The steps share one buffer pool, as in a trial,
    so the timed steps run with it warm.  They run on one thread of numpy's
    OpenBLAS, so no thread-pool stall enters the timings; the thread count
    is restored on return.
    """
    base, iters = parse_sampler(config.sampler)
    if base.startswith("rwm-"):
        raise ValueError("bench_step does not support rwm samplers")
    target = config.build_target()
    rng = make_rng(config.seed)
    ens = Ensemble(target.sample_reference(rng, config.J), 0.0)
    stepper = _make_stepper(base, iters, config, target, rng, _BufferPool())

    times = []
    with _blas.one_thread():
        for _ in range(BENCH_WARMUP):
            stepper(ens)
        for _ in range(max(int(reps), 30)):
            tic = time.perf_counter_ns()
            stepper(ens)
            times.append(time.perf_counter_ns() - tic)
    return BenchResult(median_ns=int(np.median(times)), times_ns=times)
