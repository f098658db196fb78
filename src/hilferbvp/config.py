"""Run and sweep configuration files.

The format is flat ``key = value`` lines under ``[section]`` headers, with
``#`` comments; it is parsed by hand so every validation error can point at
the offending line.  Unknown sections and keys are rejected.  See the README
for the full grammar and an annotated example.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .core import GradedMesh, HilferProblem, composite_order, default_grading
from .errors import ConfigError
from .expressions import parse_expression

RHS_KINDS = ("constant", "linear", "power", "logistic", "expression")

SWEEP_PARAMETERS = ("alpha", "beta", "lambda", "d", "lipschitz")

_RHS_PARAM_KEYS = {
    "constant": ("c",),
    "linear": ("a", "b"),
    "power": ("sigma",),
    "logistic": ("scale",),
    "expression": ("expr",),
}


@dataclass(frozen=True)
class RhsSpec:
    """A right-hand side from the built-in catalog or a user expression."""

    kind: str
    c: float = 0.0
    a: float = 0.0
    b: float = 0.0
    sigma: float = 1.0
    scale: float = 1.0
    expr: str = ""

    def build(self) -> Callable[[float, float], float]:
        if self.kind == "constant":
            c = self.c
            return lambda t, y: c
        if self.kind == "linear":
            a, b = self.a, self.b
            return lambda t, y: a * y + b
        if self.kind == "power":
            sigma = self.sigma
            return lambda t, y: t ** (sigma - 1.0)
        if self.kind == "logistic":
            scale = self.scale
            return lambda t, y: scale * y / (1.0 + y)
        return parse_expression(self.expr)

    def catalog_lipschitz(self) -> Optional[float]:
        """Analytic Lipschitz constant in y, None for opaque expressions."""
        if self.kind in ("constant", "power"):
            return 0.0
        if self.kind == "linear":
            return abs(self.a)
        if self.kind == "logistic":
            return abs(self.scale)
        return None

    def describe(self) -> str:
        if self.kind == "constant":
            return f"f(t, y) = {self.c:g}"
        if self.kind == "linear":
            return f"f(t, y) = {self.a:g}*y + {self.b:g}"
        if self.kind == "power":
            return f"f(t, y) = t^({self.sigma:g} - 1)"
        if self.kind == "logistic":
            return f"f(t, y) = {self.scale:g}*y/(1 + y)"
        return f"f(t, y) = {self.expr}"


@dataclass(frozen=True)
class RunConfig:
    alpha: float
    beta: float
    lam: float
    d: float
    rhs: RhsSpec
    mesh_n: int = 256
    mesh_r: Optional[float] = None        # None: r = max(1, 2/gamma)
    tol: float = 1e-10
    max_iter: int = 200
    lower: Optional[float] = None
    upper: Optional[float] = None
    lipschitz: Optional[float] = None     # user override of the catalog value
    output_dir: str = "."

    def effective_lipschitz(self) -> Optional[float]:
        if self.lipschitz is not None:
            return self.lipschitz
        return self.rhs.catalog_lipschitz()

    def to_problem(self) -> HilferProblem:
        return HilferProblem(
            alpha=self.alpha, beta=self.beta, lam=self.lam, d=self.d,
            rhs=self.rhs.build(), lipschitz=self.effective_lipschitz(),
            lower_bound=self.lower, upper_bound=self.upper,
        )

    def mesh(self) -> GradedMesh:
        if self.mesh_r is not None:
            return GradedMesh(self.mesh_n, self.mesh_r)
        gamma = composite_order(self.alpha, self.beta)
        return GradedMesh(self.mesh_n, default_grading(gamma))


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    start: float
    stop: float
    steps: int

    def values(self) -> List[float]:
        span = self.stop - self.start
        return [self.start + span * k / (self.steps - 1) for k in range(self.steps)]


@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig
    axes: Tuple[SweepAxis, ...]

    def cells(self) -> List[Tuple[Tuple[float, ...], RunConfig]]:
        """Axis values and per-cell configs in deterministic order, the
        first axis outermost."""
        out = []
        for values in itertools.product(*(axis.values() for axis in self.axes)):
            cfg = self.base
            for axis, v in zip(self.axes, values):
                cfg = apply_parameter(cfg, axis.parameter, v)
            out.append((values, cfg))
        return out


def apply_parameter(cfg: RunConfig, parameter: str, value: float) -> RunConfig:
    if parameter == "lambda":
        return replace(cfg, lam=value)
    if parameter == "lipschitz":
        return replace(cfg, lipschitz=value)
    if parameter in ("alpha", "beta", "d"):
        return replace(cfg, **{parameter: value})
    raise ConfigError(f"unknown sweep parameter {parameter!r}; "
                      f"expected one of {SWEEP_PARAMETERS}")


# --- low-level reader ----------------------------------------------------

class _Item:
    __slots__ = ("value", "line", "used")

    def __init__(self, value: str, line: int):
        self.value = value
        self.line = line
        self.used = False


def _read_sections(text: str, path: str) -> Dict[str, Dict[str, _Item]]:
    sections: Dict[str, Dict[str, _Item]] = {}
    section_lines: Dict[str, int] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {raw.strip()!r}",
                                  path, lineno)
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"duplicate section [{name}] "
                                  f"(first seen on line {section_lines[name]})",
                                  path, lineno)
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}",
                              path, lineno)
        if current is None:
            raise ConfigError("key outside any [section]", path, lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", path, lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", path, lineno)
        sections[current][key] = _Item(value, lineno)
    return sections


class _SectionView:
    def __init__(self, sections, name, path):
        self.items = sections.get(name, {})
        self.name = name
        self.path = path

    def take(self, key: str) -> Optional[_Item]:
        item = self.items.get(key)
        if item is not None:
            item.used = True
        return item

    def require(self, key: str) -> _Item:
        item = self.take(key)
        if item is None:
            raise ConfigError(f"missing key {key!r} in [{self.name}]", self.path)
        return item

    def parse(self, key: str, conv, default=None, required=False):
        item = self.require(key) if required else self.take(key)
        if item is None:
            return default
        try:
            return conv(item.value)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", self.path, item.line)


def _to_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _to_int(text: str) -> int:
    return int(text, 10)


def _unknown_key_check(sections, known: FrozenSet[str], path: str):
    """Reject a section not in ``known`` and a key that no parser read."""
    for name, items in sections.items():
        if name not in known:
            line = min(item.line for item in items.values()) if items else None
            raise ConfigError(f"unknown section [{name}]", path, line)
        for key, item in items.items():
            if not item.used:
                raise ConfigError(f"unknown key {key!r} in [{name}]", path, item.line)


def _parse_rhs(sections, path: str) -> Tuple[RhsSpec, Optional[float]]:
    rhs = _SectionView(sections, "rhs", path)
    kind_item = rhs.require("kind")
    kind = kind_item.value
    if kind not in RHS_KINDS:
        raise ConfigError(f"unknown rhs kind {kind!r}; expected one of {RHS_KINDS}",
                          path, kind_item.line)
    fields: Dict[str, object] = {"kind": kind}
    for key in _RHS_PARAM_KEYS[kind]:
        if key == "expr":
            item = rhs.require("expr")
            parse_expression(item.value)      # fail early, with the line number
            fields["expr"] = item.value
        else:
            fields[key] = rhs.parse(key, _to_float, required=True)
    if kind == "power" and fields["sigma"] < 1.0:
        raise ConfigError(f"power rhs needs sigma >= 1, got {fields['sigma']}", path)
    lipschitz = rhs.parse("lipschitz", _to_float)
    if lipschitz is not None and lipschitz < 0.0:
        raise ConfigError(f"lipschitz must be >= 0, got {lipschitz}", path)
    return RhsSpec(**fields), lipschitz


def _parse_run(sections, path: str) -> RunConfig:
    problem = _SectionView(sections, "problem", path)
    if not problem.items:
        raise ConfigError("missing [problem] section", path)
    alpha = problem.parse("alpha", _to_float, required=True)
    beta = problem.parse("beta", _to_float, required=True)
    lam = problem.parse("lambda", _to_float, required=True)
    d = problem.parse("d", _to_float, required=True)

    rhs_spec, lipschitz = _parse_rhs(sections, path)

    mesh = _SectionView(sections, "mesh", path)
    mesh_n = mesh.parse("n", _to_int, default=256)
    r_item = mesh.take("r")
    mesh_r: Optional[float] = None
    if r_item is not None and r_item.value != "auto":
        try:
            mesh_r = _to_float(r_item.value)
        except Exception as exc:
            raise ConfigError(f"bad value for 'r': {exc}", path, r_item.line)

    picard = _SectionView(sections, "picard", path)
    tol = picard.parse("tol", _to_float, default=1e-10)
    max_iter = picard.parse("max_iter", _to_int, default=200)

    bounds = _SectionView(sections, "bounds", path)
    lower = bounds.parse("lower", _to_float)
    upper = bounds.parse("upper", _to_float)

    output = _SectionView(sections, "output", path)
    dir_item = output.take("dir")
    output_dir = dir_item.value if dir_item is not None else "."

    return check_run_config(
        RunConfig(alpha=alpha, beta=beta, lam=lam, d=d, rhs=rhs_spec,
                  mesh_n=mesh_n, mesh_r=mesh_r, tol=tol, max_iter=max_iter,
                  lower=lower, upper=upper, lipschitz=lipschitz,
                  output_dir=output_dir),
        path)


def check_run_config(cfg: RunConfig, path: Optional[str]) -> RunConfig:
    """cfg, once its mesh, Picard settings and problem are in range; the
    config parser and the CLI overrides both go through this check."""
    if cfg.mesh_n < 4:
        raise ConfigError(f"mesh n must be >= 4, got {cfg.mesh_n}", path)
    if cfg.mesh_r is not None and not (math.isfinite(cfg.mesh_r) and cfg.mesh_r >= 1.0):
        raise ConfigError(f"mesh r must be finite and >= 1 (or 'auto'), "
                          f"got {cfg.mesh_r}", path)
    if not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
        raise ConfigError(f"tol must be > 0, got {cfg.tol}", path)
    if cfg.max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {cfg.max_iter}", path)
    try:
        cfg.to_problem()
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid problem: {exc}", path)
    return cfg


def parse_run_text(text: str, path: str = "<config>") -> RunConfig:
    sections = _read_sections(text, path)
    cfg = _parse_run(sections, path)
    _unknown_key_check(sections, _KNOWN_RUN, path)
    return cfg


def parse_run_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path)
    return parse_run_text(text, path)


def parse_sweep_text(text: str, path: str = "<config>") -> SweepConfig:
    sections = _read_sections(text, path)
    base = _parse_run(sections, path)
    sweep = _SectionView(sections, "sweep", path)
    if not sweep.items:
        raise ConfigError("missing [sweep] section", path)
    axes: List[SweepAxis] = []
    for index in (1, 2):
        name_item = sweep.take(f"axis{index}")
        if name_item is None:
            if index == 1:
                raise ConfigError("missing key 'axis1' in [sweep]", path)
            break
        parameter = name_item.value
        if parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}",
                path, name_item.line)
        if any(axis.parameter == parameter for axis in axes):
            raise ConfigError(f"axis{index} repeats the sweep parameter {parameter!r} "
                              f"of axis1", path, name_item.line)
        start = sweep.parse(f"axis{index}_start", _to_float, required=True)
        stop = sweep.parse(f"axis{index}_stop", _to_float, required=True)
        steps = sweep.parse(f"axis{index}_steps", _to_int, required=True)
        if steps < 2:
            raise ConfigError(f"axis{index}_steps must be >= 2, got {steps}", path)
        axis = SweepAxis(parameter=parameter, start=start, stop=stop, steps=steps)
        # The values are monotone in k and every bound is an interval, so
        # the first and last value stand for all of them.
        values = axis.values()
        for key, value in ((f"axis{index}_start", values[0]),
                           (f"axis{index}_stop", values[-1])):
            try:
                check_run_config(apply_parameter(base, parameter, value), None)
            except ConfigError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}", path,
                                  sweep.items[key].line) from None
        axes.append(axis)
    _unknown_key_check(sections, _KNOWN_SWEEP, path)
    return SweepConfig(base=base, axes=tuple(axes))


def parse_sweep_file(path: str) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path)
    return parse_sweep_text(text, path)


_KNOWN_RUN = frozenset({"problem", "rhs", "mesh", "picard", "bounds", "output"})
_KNOWN_SWEEP = _KNOWN_RUN | {"sweep"}
