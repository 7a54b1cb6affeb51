"""Unit-time kernelized particle transport sampling.

Interacting particle systems that move an ensemble from a reference Gaussian
to an unnormalized target density in unit time along the geometric mixture of
the two densities, plus baseline samplers, benchmark targets, and kernel
Stein discrepancy diagnostics.

The top level holds what the command line and the README's examples use; the
other update rules and building blocks live in the submodules (``flows``,
``baselines``, ``integrators``, ``targets``, ...).
"""

__version__ = "0.1.0"

from .config import RunConfig, parse_config, parse_grid
from .diagnostics import KsdConfig, ksd
from .errors import CapabilityError, NumericalStabilityError
from .flows import kfrflow_i_step
from .harness import (
    bench_step,
    run_experiment,
    sweep,
    write_record_csv,
    write_selection_csv,
    write_sidecar,
)
from .integrators import make_rng, run_unit_time
from .kernels import KernelSpec, build_workspace, kernel_matrix, median_bandwidth
from .particles import Ensemble
from .targets import make_funnel, make_gaussian, target_by_name

__all__ = [
    "__version__",
    "CapabilityError", "Ensemble", "KernelSpec", "KsdConfig",
    "NumericalStabilityError", "RunConfig",
    "bench_step", "build_workspace", "kernel_matrix", "kfrflow_i_step", "ksd",
    "make_funnel", "make_gaussian", "make_rng", "median_bandwidth",
    "parse_config", "parse_grid", "run_experiment", "run_unit_time", "sweep",
    "target_by_name", "write_record_csv", "write_selection_csv",
    "write_sidecar",
]
