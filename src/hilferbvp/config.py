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
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .core import GradedMesh, HilferProblem, composite_order
from .errors import ConfigError
from .expressions import parse_expression


class _RhsKind(NamedTuple):
    """One row of the rhs catalog."""

    keys: Tuple[str, ...]                      # its parameters, in config order
    build: Callable[..., Callable]             # f(t, y) from the parameters
    lipschitz: Callable[..., Optional[float]]  # analytic constant in y, None if opaque
    describe: str                              # "f(t, y) = ..." text, formatted with them


_RHS_CATALOG: Dict[str, _RhsKind] = {
    "constant": _RhsKind(("c",), lambda c: lambda t, y: c, lambda c: 0.0, "{c:g}"),
    "linear": _RhsKind(("a", "b"), lambda a, b: lambda t, y: a * y + b,
                       lambda a, b: abs(a), "{a:g}*y + {b:g}"),
    "power": _RhsKind(("sigma",), lambda sigma: lambda t, y: t ** (sigma - 1.0),
                      lambda sigma: 0.0, "t^({sigma:g} - 1)"),
    "logistic": _RhsKind(("scale",), lambda scale: lambda t, y: scale * y / (1.0 + y),
                         lambda scale: abs(scale), "{scale:g}*y/(1 + y)"),
    "expression": _RhsKind(("expr",), lambda expr: parse_expression(expr),
                           lambda expr: None, "{expr}"),
}

RHS_KINDS = tuple(_RHS_CATALOG)

SWEEP_PARAMETERS = ("alpha", "beta", "lambda", "d", "lipschitz")


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

    def _row(self) -> Tuple[_RhsKind, Dict[str, object]]:
        row = _RHS_CATALOG[self.kind]
        return row, {key: getattr(self, key) for key in row.keys}

    def build(self) -> Callable[[float, float], float]:
        row, params = self._row()
        return row.build(**params)

    def catalog_lipschitz(self) -> Optional[float]:
        """Analytic Lipschitz constant in y, None for opaque expressions."""
        row, params = self._row()
        return row.lipschitz(**params)

    def describe(self) -> str:
        row, params = self._row()
        return "f(t, y) = " + row.describe.format(**params)


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

    def to_problem(self, rhs: Optional[Callable] = None) -> HilferProblem:
        return HilferProblem(
            alpha=self.alpha, beta=self.beta, lam=self.lam, d=self.d,
            rhs=self.rhs.build() if rhs is None else rhs,
            lipschitz=self.effective_lipschitz(),
            lower_bound=self.lower, upper_bound=self.upper,
        )

    def mesh(self) -> GradedMesh:
        if self.mesh_r is not None:
            return GradedMesh(self.mesh_n, self.mesh_r)
        return GradedMesh.graded_for(self.mesh_n, composite_order(self.alpha, self.beta))


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
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; "
                          f"expected one of {SWEEP_PARAMETERS}")
    return replace(cfg, **{"lam" if parameter == "lambda" else parameter: value})


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
        return convert(key, item.value, conv, self.path, item.line)


def convert(key: str, text: str, conv, path: Optional[str], line: Optional[int] = None):
    """conv(text), its failure raised as a ConfigError naming ``key``.  A
    ConfigError of conv's own keeps its type and message and gains the
    location when it has none."""
    try:
        return conv(text)
    except ConfigError as exc:
        if exc.path is not None:
            raise
        raise type(exc)(str(exc), path, line) from None
    except Exception as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", path, line) from None


def _to_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _to_int(text: str) -> int:
    return int(text, 10)


def to_grading(text: str) -> Optional[float]:
    """A mesh grading exponent, ``[mesh] r`` or ``--mesh-r``: None for
    'auto' (RunConfig.mesh then picks it), else a finite number."""
    return None if text == "auto" else _to_float(text)


def _to_expression(text: str) -> str:
    parse_expression(text)      # fail early, at parse time
    return text


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
    for key in _RHS_CATALOG[kind].keys:
        fields[key] = rhs.parse(key, _to_expression if key == "expr" else _to_float,
                                required=True)
    if fields.get("sigma", 1.0) < 1.0:
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
    mesh_r = mesh.parse("r", to_grading)

    picard = _SectionView(sections, "picard", path)
    tol = picard.parse("tol", _to_float, default=1e-10)
    max_iter = picard.parse("max_iter", _to_int, default=200)

    bounds = _SectionView(sections, "bounds", path)
    lower = bounds.parse("lower", _to_float)
    upper = bounds.parse("upper", _to_float)

    output_dir = _SectionView(sections, "output", path).parse("dir", str, default=".")

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


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", path)


def parse_run_file(path: str) -> RunConfig:
    return parse_run_text(_read_file(path), path)


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
    return parse_sweep_text(_read_file(path), path)


_KNOWN_RUN = frozenset({"problem", "rhs", "mesh", "picard", "bounds", "output"})
_KNOWN_SWEEP = _KNOWN_RUN | {"sweep"}
