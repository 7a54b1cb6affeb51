"""Experiment configuration: dataclass, INI parsing, and validation.

Config files are INI-style ("key = value" under sections).  The [run] section
configures a single experiment; the optional [sweep] section lists
comma-separated grids.  Every key can be overridden by a command-line flag.

[run] keys: target, sampler, J, N, T, lambda, epsilon, seed, trials,
observe_every, bandwidth, h_floor, ksd_estimator.
[sweep] keys: J, N, lambda, epsilon, T (comma-separated values).
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from .targets import TargetModel, target_by_name

UNIT_TIME_SAMPLERS = frozenset(
    {"kfrflow-euler", "kfrflow-ab4", "kfrflow-i", "kfrflow-i-newton", "kfrd"}
)
INFINITE_TIME_SAMPLERS = frozenset({"svgd", "ula", "rwm-serial", "rwm-parallel"})
SAMPLERS = UNIT_TIME_SAMPLERS | INFINITE_TIME_SAMPLERS


def parse_sampler(name: str) -> tuple:
    """Split a sampler name into (base, Newton iteration count or None)."""
    name = name.strip().lower()
    if name.startswith("kfrflow-i-newton:"):
        iters = int(name.split(":", 1)[1])
        if iters < 1:
            raise ValueError(f"newton iteration count must be >= 1, got {iters}")
        return "kfrflow-i-newton", iters
    if name == "kfrflow-i-newton":
        return "kfrflow-i-newton", 1
    if name not in SAMPLERS:
        raise ValueError(f"unknown sampler {name!r}; known: {sorted(SAMPLERS)}")
    return name, None


@dataclass(frozen=True)
class RunConfig:
    target: str
    sampler: str
    J: int
    N: int
    T: float = 1.0
    lam: float = 0.0
    eps: float = 0.0
    seed: int = 0
    trials: int = 30
    observe_every: int = 1
    bandwidth: Optional[float] = None  # None selects the median heuristic
    h_floor: float = 1e-6
    ksd_estimator: str = "v"

    def __post_init__(self):
        base, _ = parse_sampler(self.sampler)
        target_by_name(self.target)  # validates the name
        if self.J < 1:
            raise ValueError(f"J must be >= 1, got {self.J}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not self.T > 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if base in UNIT_TIME_SAMPLERS and self.T != 1.0:
            raise ValueError(
                f"sampler {self.sampler!r} runs in unit time; T={self.T} rejected"
            )
        for key, value in (("lambda", self.lam), ("epsilon", self.eps)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{key} must be finite and >= 0, got {value}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.observe_every < 1:
            raise ValueError(f"observe_every must be >= 1, got {self.observe_every}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("bandwidth must be > 0 or omitted for median heuristic")
        if not self.h_floor > 0:
            raise ValueError("h_floor must be > 0")
        if self.ksd_estimator not in ("v", "u"):
            raise ValueError(f"ksd_estimator must be 'v' or 'u', got {self.ksd_estimator!r}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    def build_target(self) -> TargetModel:
        return target_by_name(self.target)

    def resolved(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_PARSERS = {
    "target": str,
    "sampler": str,
    "J": int,
    "N": int,
    "T": float,
    "lambda": float,
    "epsilon": float,
    "seed": int,
    "trials": int,
    "observe_every": int,
    "bandwidth": lambda v: None if str(v).strip().lower() in ("", "median", "none") else float(v),
    "h_floor": float,
    "ksd_estimator": str,
}

# INI/flag key -> dataclass field
_FIELD_NAMES = {
    "lambda": "lam",
    "epsilon": "eps",
}

_GRID_KEYS = ("J", "N", "lambda", "epsilon", "T")


def _read_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (J vs j matters)
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    return parser


def parse_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Build a validated RunConfig from an INI file and/or override values.

    Unknown keys are rejected with their section path; overrides (typically
    CLI flags, keyed like the INI keys) win over file values.
    """
    values: dict = {}
    if path is not None:
        parser = _read_ini(path)
        if parser.has_section("run"):
            for key, raw in parser.items("run"):
                if key not in _FIELD_PARSERS:
                    raise ValueError(f"run.{key}: unknown key")
                values[key] = _FIELD_PARSERS[key](raw)
    for key, val in (overrides or {}).items():
        if key not in _FIELD_PARSERS:
            raise ValueError(f"{key}: unknown key")
        if val is not None:
            values[key] = _FIELD_PARSERS[key](val) if isinstance(val, str) else val
    missing = [k for k in ("target", "sampler", "J", "N") if k not in values]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    kwargs = {_FIELD_NAMES.get(k, k): v for k, v in values.items()}
    return RunConfig(**kwargs)


def parse_grid(path: Optional[str] = None, overrides: Optional[dict] = None) -> dict:
    """Sweep grid {key: [values]} from the [sweep] section plus overrides."""
    grid: dict = {}
    if path is not None:
        parser = _read_ini(path)
        if parser.has_section("sweep"):
            for key, raw in parser.items("sweep"):
                if key not in _GRID_KEYS:
                    raise ValueError(f"sweep.{key}: unknown key")
                grid[key] = [_FIELD_PARSERS[key](v) for v in raw.split(",") if v.strip()]
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _GRID_KEYS:
            raise ValueError(f"sweep.{key}: unknown key")
        if isinstance(val, str):
            val = [_FIELD_PARSERS[key](v) for v in val.split(",") if v.strip()]
        grid[key] = list(val)
    for key, vals in grid.items():
        if not vals:
            raise ValueError(f"sweep.{key}: empty grid")
    return grid
