"""Command-line interface: run, sweep, bench, and ksd subcommands."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import _RUN_KEYS, _SWEEP_KEYS, _parser, parse_config, parse_grid
from .diagnostics import KsdConfig, ksd
from .harness import (
    bench_step,
    run_experiment,
    sweep,
    write_record_csv,
    write_selection_csv,
    write_sidecar,
)
from .targets import target_by_name

def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file with a [run] section")
    for key, f in _RUN_KEYS.items():
        # a key with its own parser reaches parse_config as a string, so that
        # "--bandwidth median" (None) still overrides a file's bandwidth
        typ = str if f.metadata["parse"] else _parser(key)
        p.add_argument(f"--{key}", type=typ, help=f.metadata["help"])


def _overrides(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in _RUN_KEYS if getattr(args, k, None) is not None}


def _stem(cfg) -> str:
    name = f"{cfg.target}_{cfg.sampler}_J{cfg.J}_N{cfg.N}_seed{cfg.seed}"
    return name.replace(":", "-").replace(",", "_")


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    record = run_experiment(cfg)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, _stem(cfg))
    write_record_csv(record, stem + ".csv")
    write_sidecar(record, stem + ".json")
    print(f"wrote {stem}.csv ({len(record.rows)} rows)")
    print(f"final mean KSD vs target: {record.final_mean_ksd():.6g}")
    if record.unstable_trials:
        print(f"unstable trials: {record.unstable_trials}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    grid = parse_grid(args.config, {k: getattr(args, f"grid_{k}") or None for k in _SWEEP_KEYS})
    result = sweep(cfg, grid)
    os.makedirs(args.out, exist_ok=True)
    for cell, record in result.records:
        tag = "_".join(f"{k}{v}" for k, v in cell.items()) or "single"
        stem = os.path.join(args.out, _stem(record.config) + "_" + tag)
        write_record_csv(record, stem + ".csv")
        write_sidecar(record, stem + ".json")
    sel_path = os.path.join(args.out, "selection.csv")
    write_selection_csv(result, sel_path)
    print(f"wrote {len(result.records)} runs and {sel_path}")
    for entry in result.selection:
        swept = " ".join(f"{k}={entry[k]}" for k in _SWEEP_KEYS[2:])
        print(f"best (J={entry['J']}, N={entry['N']}): {swept} final KSD={entry['final_ksd']:.6g}")
    return 0 if result.all_stable else 1


def _cmd_bench(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    result = bench_step(cfg, reps=args.reps)
    print(
        f"{cfg.sampler} J={cfg.J}: median step time "
        f"{result.median_ns} ns ({result.median_ns / 1e6:.3f} ms)"
    )
    return 0


def _load_samples(path: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline()
    delim = "," if "," in first else None
    tokens = [t for t in first.replace(",", " ").split() if t]
    try:
        [float(t) for t in tokens]
        skip = 0
    except ValueError:
        skip = 1
    return np.loadtxt(path, delimiter=delim, skiprows=skip, ndmin=2)


def _cmd_ksd(args) -> int:
    target = target_by_name(args.target)
    samples = _load_samples(args.samples)
    if samples.shape[1] != target.dim:
        raise SystemExit(
            f"samples have d={samples.shape[1]} but target {args.target!r} "
            f"has d={target.dim}"
        )
    value = ksd(samples, target.score_target, KsdConfig(h=args.h, estimator=args.estimator))
    print(f"{value!r}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kfrflow",
        description="Unit-time kernelized particle transport samplers and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment (multi-trial)")
    _add_run_flags(p_run)
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid sweep with best-per-(J,N) selection")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--out", default="results", help="output directory")
    for key in _SWEEP_KEYS:
        p_sweep.add_argument(f"--grid-{key}", help=f"comma-separated {key} values")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_bench = sub.add_parser("bench", help="median time of one ensemble update")
    _add_run_flags(p_bench)
    p_bench.add_argument("--reps", type=int, default=30, help="timed repetitions (>=30)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_ksd = sub.add_parser("ksd", help="KSD between a sample file and a named target")
    p_ksd.add_argument("--samples", required=True, help="CSV, one particle per row")
    p_ksd.add_argument("--target", required=True, help="target name")
    p_ksd.add_argument("--h", type=float, default=1.0, help="KSD kernel bandwidth")
    p_ksd.add_argument("--estimator", choices=("v", "u"), default="v")
    p_ksd.set_defaults(fn=_cmd_ksd)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
