"""Flat experiment configs: one ``key = value`` per line, ``#`` comments.

Keys are dotted (``model.id``, ``sim.N``, ...).  ``KEYS`` is the one list of
accepted keys with their parsers and defaults.  Parsing validates everything
before any simulation starts and reports the offending line and key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import MIN_RATE_LEVELS
from .models import MODELS
from .solver import BLOWUP_LIMIT, GaussianLaw, InitialLaw, PointMass, UniformBox

__all__ = ["ConfigError", "ExperimentConfig", "KEYS", "parse_config_text", "load_config", "KINDS"]

KINDS = ("run", "rate", "moments", "metric", "check")


class ConfigError(ValueError):
    pass


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _number(text: str) -> float:
    try:
        out = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {text!r}")
    return out


def _boolean(text: str) -> bool:
    value = text.lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _vector(text: str):
    """One finite number, or an array of several (separated by spaces or commas)."""
    try:
        vec = np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError:
        raise ValueError(f"expected numbers, got {text!r}") from None
    if vec.size == 0 or not np.isfinite(vec).all():
        raise ValueError("expected one or more finite numbers")
    return float(vec[0]) if vec.size == 1 else vec


def _location(text: str):
    """A ``_vector`` whose components the solver's blow-up guard admits."""
    vec = _vector(text)
    if np.max(np.abs(vec)) > BLOWUP_LIMIT:
        raise ValueError(f"magnitude above the blow-up limit {BLOWUP_LIMIT:g}")
    return vec


def _covariance(text: str):
    """A ``_vector`` of nonnegative variances whose standard deviations the
    blow-up guard admits."""
    vec = _vector(text)
    if np.min(vec) < 0:
        raise ValueError("variance must be nonnegative")
    if np.max(vec) > BLOWUP_LIMIT**2:
        raise ValueError(f"variance above the squared blow-up limit {BLOWUP_LIMIT**2:g}")
    return vec


def _levels(text: str) -> tuple[int, ...]:
    try:
        levels = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"expected integers, got {text!r}") from None
    if not levels:
        raise ValueError("expected at least one level")
    return levels


#: default of a key that every config must set
REQUIRED = object()

#: every accepted key besides ``model.<param>``: key -> (ExperimentConfig
#: field, parser, default).  Keys without a field check the subcommand or
#: describe the initial law.  ``metric.seed_b`` defaults to the seed plus one.
KEYS = {
    "experiment.kind": (None, str, None),
    "model.id": ("model_id", str, REQUIRED),
    "sim.d": ("dim", _integer, 1),
    "sim.N": ("n_particles", _integer, REQUIRED),
    "sim.T": ("horizon", _number, 1.0),
    "sim.seed": ("seed", _integer, 0),
    "sim.level": ("level", _integer, None),
    "sim.levels": ("levels", _levels, None),
    "sim.finest": ("finest", _integer, None),
    "sim.record_level": ("record_level", _integer, None),
    "init.law": (None, str.lower, "point"),
    "init.x0": (None, _location, 0.0),
    "init.mean": (None, _location, 0.0),
    "init.cov": (None, _covariance, 1.0),
    "init.lo": (None, _location, -1.0),
    "init.hi": (None, _location, 1.0),
    "moments.p": ("moment_order", _integer, 1),
    "metric.seed_b": ("seed_b", _integer, None),
    "gate.slope_min": ("gate_slope_min", _number, -1.4),
    "gate.slope_max": ("gate_slope_max", _number, -0.6),
    "gate.monotone": ("gate_monotone", _boolean, False),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config: the subcommand's kind, the model parameters, the
    initial law, and one field per ``KEYS`` entry that names one."""

    kind: str
    model_params: dict[str, float]
    law: InitialLaw
    model_id: str
    dim: int
    n_particles: int
    horizon: float
    seed: int
    level: int | None
    levels: tuple[int, ...] | None
    finest: int | None
    record_level: int | None
    moment_order: int
    seed_b: int
    gate_slope_min: float
    gate_slope_max: float
    gate_monotone: bool


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


def _parse(raw: dict[str, tuple[int, str]], key: str, parser):
    lineno, text = raw[key]
    try:
        return parser(text)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from None


#: each initial law and the init keys it reads, in constructor order
_LAWS = {
    "point": (PointMass, ("init.x0",)),
    "gaussian": (GaussianLaw, ("init.mean", "init.cov")),
    "uniform": (UniformBox, ("init.lo", "init.hi")),
}


def _build_law(values: dict) -> InitialLaw:
    law_name = values["init.law"]
    if law_name not in _LAWS:
        raise ConfigError(f"init.law must be point, gaussian or uniform, got {law_name!r}")
    law, keys = _LAWS[law_name]
    for key in keys:
        size = np.size(values[key])
        if size not in (1, values["sim.d"]):
            raise ConfigError(f"key {key!r}: {size} components, expected 1 or sim.d = {values['sim.d']}")
    if law_name == "uniform" and np.any(np.less_equal(values["init.hi"], values["init.lo"])):
        raise ConfigError("key 'init.lo': must lie below init.hi in every coordinate")
    return law(*(values[key] for key in keys))


def _validate(cfg: ExperimentConfig, seed_source: str) -> None:
    if cfg.dim < 1:
        raise ConfigError("sim.d must be at least 1")
    _, _, pinned = MODELS[cfg.model_id]
    if pinned is not None and cfg.dim != pinned:
        raise ConfigError(f"model {cfg.model_id!r} is {pinned}-dimensional; set sim.d = {pinned}")
    if cfg.n_particles < 1:
        raise ConfigError("sim.N must be at least 1")
    if cfg.horizon <= 0:
        raise ConfigError("sim.T must be positive")
    # seeds key 64-bit Philox streams; only a metric study reads seed_b
    seeds = [(seed_source, cfg.seed)]
    if cfg.kind == "metric":
        seeds.append(("metric.seed_b", cfg.seed_b))
    for key, seed in seeds:
        if not 0 <= seed < 2**64:
            raise ConfigError(f"{key} must be nonnegative and below 2^64, got {seed}")

    level, levels, finest = cfg.level, cfg.levels, cfg.finest
    if cfg.kind == "rate":
        if levels is None:
            raise ConfigError("rate experiments require 'sim.levels'")
        if finest is None:
            raise ConfigError("rate experiments require 'sim.finest'")
        if len(levels) < MIN_RATE_LEVELS:
            raise ConfigError(
                f"sim.levels must list at least {MIN_RATE_LEVELS} levels to fit a rate, got {len(levels)}"
            )
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("sim.levels must be strictly increasing")
        if levels[0] < 0:
            raise ConfigError("sim.levels must be nonnegative")
        if max(levels) > finest - 4:
            raise ConfigError(
                f"rate studies need max(sim.levels) <= sim.finest - 4, got {max(levels)} vs finest {finest}"
            )
    elif cfg.kind in ("run", "moments", "metric"):
        if level is None:
            raise ConfigError(f"{cfg.kind} experiments require 'sim.level'")
        if level < 0:
            raise ConfigError("sim.level must be nonnegative")
        if finest is not None and finest < level:
            raise ConfigError("sim.finest must be at least sim.level")
    if cfg.record_level is not None:
        base = level if level is not None else (min(levels) if levels else None)
        if cfg.record_level < 0 or (base is not None and cfg.record_level > base):
            raise ConfigError("sim.record_level must lie between 0 and the coarsest simulated level")

    if cfg.moment_order < 1:
        raise ConfigError("moments.p must be at least 1")
    if cfg.gate_slope_min >= cfg.gate_slope_max:
        raise ConfigError("gate.slope_min must be below gate.slope_max")


def load_config(path, kind: str, seed_override: int | None = None) -> ExperimentConfig:
    """Read, validate and freeze a config for the given experiment kind."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    raw = parse_config_text(text)
    unknown = sorted(k for k in raw if k not in KEYS and not k.startswith("model."))
    if unknown:
        raise ConfigError(f"line {raw[unknown[0]][0]}: unknown key {unknown[0]!r}")

    values = {}
    for key, (_, parser, default) in KEYS.items():
        if key in raw:
            values[key] = _parse(raw, key, parser)
        elif default is REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            values[key] = default

    declared = values["experiment.kind"]
    if declared is not None and declared != kind:
        raise ConfigError(f"config declares experiment.kind = {declared!r} but the {kind!r} command was invoked")
    model_id = values["model.id"]
    if model_id not in MODELS:
        raise ConfigError(f"unknown model id {model_id!r}; known: {sorted(MODELS)}")
    _, names, _ = MODELS[model_id]
    params: dict[str, float] = {}
    for key in raw:
        if key.startswith("model.") and key != "model.id":
            name = key.split(".", 1)[1]
            if name not in names:
                raise ConfigError(
                    f"line {raw[key][0]}: model {model_id!r} has no parameter {name!r}; "
                    f"schema: {sorted(names)}"
                )
            params[name] = _parse(raw, key, _number)

    if seed_override is not None:
        values["sim.seed"] = seed_override
    if values["metric.seed_b"] is None:
        values["metric.seed_b"] = values["sim.seed"] + 1
    cfg = ExperimentConfig(
        kind=kind,
        model_params=params,
        law=_build_law(values),
        **{field: values[key] for key, (field, _, _) in KEYS.items() if field is not None},
    )
    _validate(cfg, "sim.seed" if seed_override is None else "--seed")
    return cfg
