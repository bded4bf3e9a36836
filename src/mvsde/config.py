"""Flat experiment configs: one ``key = value`` per line, ``#`` comments.

Keys are dotted (``model.id``, ``sim.N``, ...).  Parsing validates everything
before any simulation starts and reports the offending line and key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .models import FIXED_DIM, PARAM_SCHEMA
from .solver import GaussianLaw, InitialLaw, PointMass, UniformBox

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "load_config", "KINDS"]

KINDS = ("run", "rate", "moments", "metric", "check")

_KNOWN_KEYS = {
    "experiment.kind",
    "model.id",
    "sim.N",
    "sim.T",
    "sim.d",
    "sim.seed",
    "sim.level",
    "sim.levels",
    "sim.finest",
    "sim.record_level",
    "init.law",
    "init.x0",
    "init.mean",
    "init.cov",
    "init.lo",
    "init.hi",
    "moments.p",
    "metric.seed_b",
    "check.count",
    "check.pairs",
    "gate.slope_min",
    "gate.slope_max",
    "gate.monotone",
    "out.dir",
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    model_id: str
    model_params: dict[str, float]
    dim: int
    n_particles: int
    horizon: float
    seed: int
    law: InitialLaw
    level: int | None = None
    levels: tuple[int, ...] | None = None
    finest: int | None = None
    record_level: int | None = None
    moment_order: int = 1
    seed_b: int | None = None
    check_count: int = 2000
    check_pairs: int = 2000
    gate_slope_min: float = -1.4
    gate_slope_max: float = -0.6
    gate_monotone: bool = False
    out_dir: Path | None = None


def parse_config_text(text: str) -> dict[str, tuple[int, str]]:
    """Key -> (line number, raw value); rejects syntax errors and duplicates."""
    table: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in table:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {table[key][0]})")
        table[key] = (lineno, value)
    return table


class _Table:
    def __init__(self, raw: dict[str, tuple[int, str]]):
        self.raw = raw

    def _fail(self, key: str, message: str):
        lineno = self.raw[key][0] if key in self.raw else "?"
        raise ConfigError(f"line {lineno}: key {key!r}: {message}")

    def has(self, key: str) -> bool:
        return key in self.raw

    def get_str(self, key: str, default: str | None = None) -> str | None:
        if key not in self.raw:
            return default
        return self.raw[key][1]

    def get_int(self, key: str, default: int | None = None) -> int | None:
        if key not in self.raw:
            return default
        value = self.raw[key][1]
        try:
            return int(value)
        except ValueError:
            self._fail(key, f"expected an integer, got {value!r}")

    def get_float(self, key: str, default: float | None = None) -> float | None:
        if key not in self.raw:
            return default
        value = self.raw[key][1]
        try:
            out = float(value)
        except ValueError:
            self._fail(key, f"expected a number, got {value!r}")
        if not math.isfinite(out):
            self._fail(key, f"expected a finite number, got {value!r}")
        return out

    def get_bool(self, key: str, default: bool) -> bool:
        if key not in self.raw:
            return default
        value = self.raw[key][1].lower()
        if value in ("true", "yes", "1", "on"):
            return True
        if value in ("false", "no", "0", "off"):
            return False
        self._fail(key, f"expected a boolean, got {value!r}")

    def get_vector(self, key: str, default=None):
        if key not in self.raw:
            return default
        value = self.raw[key][1].replace(",", " ")
        try:
            vec = np.array([float(tok) for tok in value.split()])
        except ValueError:
            self._fail(key, f"expected numbers, got {self.raw[key][1]!r}")
        if vec.size == 0 or not np.isfinite(vec).all():
            self._fail(key, "expected one or more finite numbers")
        return float(vec[0]) if vec.size == 1 else vec

    def get_levels(self, key: str):
        if key not in self.raw:
            return None
        value = self.raw[key][1].replace(",", " ")
        try:
            levels = tuple(int(tok) for tok in value.split())
        except ValueError:
            self._fail(key, f"expected integers, got {self.raw[key][1]!r}")
        if not levels:
            self._fail(key, "expected at least one level")
        return levels


def _build_law(table: _Table) -> InitialLaw:
    law_name = (table.get_str("init.law", "point") or "point").lower()
    if law_name == "point":
        return PointMass(x0=table.get_vector("init.x0", 0.0))
    if law_name == "gaussian":
        return GaussianLaw(
            mean_vec=table.get_vector("init.mean", 0.0),
            cov=table.get_vector("init.cov", 1.0),
        )
    if law_name == "uniform":
        return UniformBox(lo=table.get_vector("init.lo", -1.0), hi=table.get_vector("init.hi", 1.0))
    raise ConfigError(f"init.law must be point, gaussian or uniform, got {law_name!r}")


def load_config(
    path,
    kind: str,
    seed_override: int | None = None,
    out_override=None,
) -> ExperimentConfig:
    """Read, validate and freeze a config for the given experiment kind."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    raw = parse_config_text(text)
    unknown = [k for k in raw if k not in _KNOWN_KEYS and not k.startswith("model.")]
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"line {raw[key][0]}: unknown key {key!r}")
    table = _Table(raw)

    declared = table.get_str("experiment.kind")
    if declared is not None and declared != kind:
        raise ConfigError(f"config declares experiment.kind = {declared!r} but the {kind!r} command was invoked")

    model_id = table.get_str("model.id")
    if model_id is None:
        raise ConfigError("missing required key 'model.id'")
    if model_id not in PARAM_SCHEMA:
        raise ConfigError(f"unknown model id {model_id!r}; known: {sorted(PARAM_SCHEMA)}")
    params: dict[str, float] = {}
    for key in raw:
        if key.startswith("model.") and key != "model.id":
            name = key.split(".", 1)[1]
            if name not in PARAM_SCHEMA[model_id]:
                raise ConfigError(
                    f"line {raw[key][0]}: model {model_id!r} has no parameter {name!r}; "
                    f"schema: {sorted(PARAM_SCHEMA[model_id])}"
                )
            params[name] = table.get_float(key)

    dim = table.get_int("sim.d", 1)
    if dim < 1:
        raise ConfigError("sim.d must be at least 1")
    fixed = FIXED_DIM.get(model_id)
    if fixed is not None and dim != fixed:
        raise ConfigError(f"model {model_id!r} is {fixed}-dimensional; set sim.d = {fixed}")
    n_particles = table.get_int("sim.N")
    if n_particles is None:
        raise ConfigError("missing required key 'sim.N'")
    if n_particles < 1:
        raise ConfigError("sim.N must be at least 1")
    horizon = table.get_float("sim.T", 1.0)
    if horizon <= 0:
        raise ConfigError("sim.T must be positive")
    seed = table.get_int("sim.seed", 0)
    if seed_override is not None:
        seed = seed_override
    if seed < 0:
        source = "sim.seed" if seed_override is None else "--seed"
        raise ConfigError(f"{source} must be nonnegative, got {seed}")

    level = table.get_int("sim.level")
    levels = table.get_levels("sim.levels")
    finest = table.get_int("sim.finest")
    record_level = table.get_int("sim.record_level")

    if kind == "rate":
        if levels is None:
            raise ConfigError("rate experiments require 'sim.levels'")
        if finest is None:
            raise ConfigError("rate experiments require 'sim.finest'")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("sim.levels must be strictly increasing")
        if levels[0] < 0:
            raise ConfigError("sim.levels must be nonnegative")
        if max(levels) > finest - 4:
            raise ConfigError(
                f"rate studies need max(sim.levels) <= sim.finest - 4, got {max(levels)} vs finest {finest}"
            )
    elif kind in ("run", "moments", "metric"):
        if level is None:
            raise ConfigError(f"{kind} experiments require 'sim.level'")
        if level < 0:
            raise ConfigError("sim.level must be nonnegative")
        if finest is not None and finest < level:
            raise ConfigError("sim.finest must be at least sim.level")
    if record_level is not None:
        base = level if level is not None else (min(levels) if levels else None)
        if record_level < 0 or (base is not None and record_level > base):
            raise ConfigError("sim.record_level must lie between 0 and the coarsest simulated level")

    moment_order = table.get_int("moments.p", 1)
    if moment_order < 1:
        raise ConfigError("moments.p must be at least 1")
    seed_b = table.get_int("metric.seed_b", seed + 1 if kind == "metric" else None)
    check_count = table.get_int("check.count", 2000)
    check_pairs = table.get_int("check.pairs", 2000)
    if check_count < 1000:
        raise ConfigError("check.count must be at least 1000")
    if check_pairs < 100:
        raise ConfigError("check.pairs must be at least 100")

    gate_slope_min = table.get_float("gate.slope_min", -1.4)
    gate_slope_max = table.get_float("gate.slope_max", -0.6)
    if gate_slope_min >= gate_slope_max:
        raise ConfigError("gate.slope_min must be below gate.slope_max")
    gate_monotone = table.get_bool("gate.monotone", False)

    out_dir = table.get_str("out.dir")
    if out_override is not None:
        out_dir = str(out_override)

    law = _build_law(table)
    return ExperimentConfig(
        kind=kind,
        model_id=model_id,
        model_params=params,
        dim=dim,
        n_particles=n_particles,
        horizon=horizon,
        seed=seed,
        law=law,
        level=level,
        levels=levels,
        finest=finest,
        record_level=record_level,
        moment_order=moment_order,
        seed_b=seed_b,
        check_count=check_count,
        check_pairs=check_pairs,
        gate_slope_min=gate_slope_min,
        gate_slope_max=gate_slope_max,
        gate_monotone=gate_monotone,
        out_dir=None if out_dir is None else Path(out_dir),
    )
