"""Experiment configuration: dataclass, INI parsing, and validation.

Config files are INI-style ("key = value" under sections; " ;" starts an
inline comment).  The [run] section configures a single experiment; the
optional [sweep] section lists comma-separated grids.  Every key can be
overridden by a command-line flag.

Each run key is declared once, on its :class:`RunConfig` field: its INI and
flag name, parser, help text and default.  The [run] keys, the command-line
flags and the sweep derive from those declarations, and ``_SWEEP_KEYS`` names
the keys a [sweep] may grid, in the order of the sweep's cells and columns.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Optional

from .diagnostics import KsdConfig
from .kernels import KernelSpec
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
        count = name.split(":", 1)[1]
        if not count.strip().isdecimal() or int(count) < 1:
            raise ValueError(f"sampler {name!r} needs a Newton count >= 1, got {count!r}")
        return "kfrflow-i-newton", int(count)
    if name == "kfrflow-i-newton":
        return "kfrflow-i-newton", 1
    if name not in SAMPLERS:
        raise ValueError(f"unknown sampler {name!r}; known: {sorted(SAMPLERS)}")
    return name, None


def _bandwidth(raw: str) -> Optional[float]:
    return None if raw.strip().lower() in ("", "median", "none") else float(raw)


def _key(help_text: str, default=dataclasses.MISSING, name=None, parse=None):
    """A run key's field: ``name`` is its INI and flag name where that is not
    the field's, ``parse`` reads a raw string where the field's type does not."""
    meta = {"help": help_text, "name": name, "parse": parse}
    return dataclasses.field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    target: str = _key("target name (donut, butterfly, spaceships, funnel:<d>, "
                       "gaussian:<mean>,<s>)")
    sampler: str = _key("sampler name (kfrflow-euler, kfrflow-ab4, kfrflow-i, "
                        "kfrflow-i-newton:<iters>, kfrd, svgd, ula, rwm-serial, rwm-parallel)")
    J: int = _key("ensemble size")
    N: int = _key("number of steps")
    T: float = _key("stopping time (infinite-time samplers only; unit-time fixes T=1)", 1.0)
    lam: float = _key("Tikhonov regularization of the coupling matrix", 0.0, name="lambda")
    eps: float = _key("KFRD noise level", 0.0, name="epsilon")
    seed: int = _key("base seed; trial t uses seed+t", 0)
    trials: int = _key("number of independent trials", 30)
    observe_every: int = _key("diagnostic cadence in steps (endpoints always observed)", 1)
    # None selects the median heuristic
    bandwidth: Optional[float] = _key("fixed kernel bandwidth, or 'median'", None, parse=_bandwidth)
    h_floor: float = _key("lower clamp for the median-heuristic bandwidth", 1e-6)
    ksd_estimator: str = _key("'v' or 'u' statistic for KSD", "v")

    def __post_init__(self):
        base, _ = parse_sampler(self.sampler)
        target_by_name(self.target)  # validates the name
        for key in (f.name for f in dataclasses.fields(self) if f.type == "int"):
            value = getattr(self, key)
            try:
                value = operator.index(value)  # np.int64 passes, 2.0 does not
            except TypeError:
                raise ValueError(f"{key} must be an integer, got {value!r}") from None
            object.__setattr__(self, key, value)  # a plain int, which JSON takes
            if key != "seed" and value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        if not self.T > 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if self.T == math.inf:
            raise ValueError(f"T must be finite, got {self.T}")
        if base in UNIT_TIME_SAMPLERS and self.T != 1.0:
            raise ValueError(
                f"sampler {self.sampler!r} runs in unit time; T={self.T} rejected"
            )
        for key, value in (("lambda", self.lam), ("epsilon", self.eps)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{key} must be finite and >= 0, got {value}")
        self._kernel_spec(), self._ksd_config()  # check bandwidth, h_floor, ksd_estimator

    @property
    def dt(self) -> float:
        return self.T / self.N

    def build_target(self) -> TargetModel:
        return target_by_name(self.target)

    def _kernel_spec(self) -> KernelSpec:
        return KernelSpec(bandwidth=self.bandwidth, h_floor=self.h_floor)

    def _ksd_config(self) -> KsdConfig:
        return KsdConfig(h=1.0, estimator=self.ksd_estimator)

    def resolved(self) -> dict:
        return dataclasses.asdict(self)


# INI/flag key -> RunConfig field, in declaration order
_RUN_KEYS = {f.metadata["name"] or f.name: f for f in dataclasses.fields(RunConfig)}
# the keys a [sweep] may grid; it selects per (J, N), its first two
_SWEEP_KEYS = ("J", "N", "lambda", "epsilon", "T")
_TYPES = {"str": str, "int": int, "float": float}  # by annotation string


def _parser(key: str):
    """The raw-string parser of a run key."""
    f = _RUN_KEYS[key]
    return f.metadata["parse"] or _TYPES[f.type]


def _parse(key: str, raw: str, where: str):
    """``raw`` read by the parser of run key ``key``; a value it rejects is
    reported under ``where``, the key's section path."""
    try:
        return _parser(key)(raw)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from err


def _read_ini(path: str):
    import configparser  # only a --config file needs it

    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
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
                if key not in _RUN_KEYS:
                    raise ValueError(f"run.{key}: unknown key")
                values[key] = _parse(key, raw, f"run.{key}")
    for key, val in (overrides or {}).items():
        if key not in _RUN_KEYS:
            raise ValueError(f"{key}: unknown key")
        if val is not None:
            values[key] = _parse(key, val, key) if isinstance(val, str) else val
    required = [k for k, f in _RUN_KEYS.items() if f.default is dataclasses.MISSING]
    missing = [k for k in required if k not in values]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    return RunConfig(**{_RUN_KEYS[k].name: v for k, v in values.items()})


def parse_grid(path: Optional[str] = None, overrides: Optional[dict] = None) -> dict:
    """Sweep grid {key: [values]} from the [sweep] section plus overrides."""
    given: dict = {}
    if path is not None:
        parser = _read_ini(path)
        if parser.has_section("sweep"):
            given.update(parser.items("sweep"))
    given.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    grid: dict = {}
    for key, val in given.items():
        if key not in _SWEEP_KEYS:
            raise ValueError(f"sweep.{key}: unknown key")
        if isinstance(val, str):
            val = [_parse(key, v, f"sweep.{key}") for v in val.split(",") if v.strip()]
        grid[key] = list(val)
        if not grid[key]:
            raise ValueError(f"sweep.{key}: empty grid")
    return grid
