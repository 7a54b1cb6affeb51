"""Unit-time kernelized particle transport sampling.

Interacting particle systems that move an ensemble from a reference Gaussian
to an unnormalized target density in unit time along the geometric mixture of
the two densities, plus baseline samplers, benchmark targets, and kernel
Stein discrepancy diagnostics.
"""

__version__ = "0.1.0"

from .baselines import RwmConfig, RwmResult, rwm_run, svgd_step, ula_step
from .config import RunConfig, parse_config, parse_grid, parse_sampler
from .diagnostics import KsdConfig, ksd, moments, tempered_ksd_trace
from .errors import CapabilityError, NumericalStabilityError
from .flows import (
    FlowConfig,
    kfrd_drift,
    kfrflow_i_step,
    kfrflow_velocity,
    sample_ot_newton,
    tempered_score,
)
from .harness import (
    BenchResult,
    RunRecord,
    SweepResult,
    bench_step,
    run_experiment,
    sweep,
    write_record_csv,
    write_selection_csv,
    write_sidecar,
)
from .integrators import (
    Schedule,
    ab4_step,
    euler_maruyama_step,
    euler_step,
    make_rng,
    run_unit_time,
    split_rngs,
)
from .kernels import (
    KernelSpec,
    imq_eval,
    imq_grad1,
    kernel_jacobian,
    kernel_matrix,
    median_bandwidth,
)
from .particles import (
    Ensemble,
    FlowWorkspace,
    assemble_M,
    build_workspace,
    importance_weights,
    regularize,
    solve_M,
)
from .targets import (
    TargetModel,
    make_bayesian_2d,
    make_funnel,
    make_gaussian,
    target_by_name,
)

__all__ = [
    "__version__",
    "BenchResult", "CapabilityError", "Ensemble", "FlowConfig", "FlowWorkspace",
    "KernelSpec", "KsdConfig", "NumericalStabilityError",
    "RunConfig", "RunRecord", "RwmConfig", "RwmResult", "Schedule",
    "SweepResult", "TargetModel",
    "ab4_step", "assemble_M", "bench_step", "build_workspace",
    "euler_maruyama_step", "euler_step", "imq_eval", "imq_grad1",
    "importance_weights", "kernel_jacobian", "kernel_matrix",
    "kfrd_drift", "kfrflow_i_step", "kfrflow_velocity", "ksd",
    "make_bayesian_2d", "make_funnel", "make_gaussian", "make_rng",
    "median_bandwidth", "moments", "parse_config", "parse_grid",
    "parse_sampler", "regularize", "run_experiment", "run_unit_time",
    "rwm_run", "sample_ot_newton", "solve_M", "split_rngs", "svgd_step",
    "sweep", "tempered_ksd_trace", "tempered_score", "target_by_name",
    "ula_step", "write_record_csv", "write_selection_csv",
    "write_sidecar",
]
