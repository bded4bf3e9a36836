"""Flat experiment configs: one ``key = value`` per line, ``#`` comments.

Keys are dotted (``model.id``, ``sim.N``, ...).  Each ``ExperimentConfig``
field declares its key, parser and default, and each initial law in
``_LAWS`` its ``init.*`` keys; ``KEYS`` is derived from the two.  Parsing
validates everything before any simulation starts.  A parser checks one
key's value, bounds included, and its refusal names the line and the key
(``line N: key 'sim.N': ...``); a rule between keys, or between a key and
the kind, names the keys it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .analysis import MIN_RATE_LEVELS
from .models import MODELS
from .paths import MAX_LATTICE_LEVEL
from .solver import BLOWUP_LIMIT, DEFAULT_MEMORY_CAP, GaussianLaw, InitialLaw, PointMass, UniformBox

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


def _positive(parse):
    """``parse``, refusing a value not above 0: an integer below 1."""
    def parse_positive(text: str):
        value = parse(text)
        if value <= 0:
            raise ValueError(f"must be positive, got {text!r}")
        return value
    return parse_positive


def _level(text: str) -> int:
    level = _integer(text)
    if not 0 <= level <= MAX_LATTICE_LEVEL:
        raise ValueError(f"level {level} not between 0 and the lattice level limit {MAX_LATTICE_LEVEL}")
    return level


def _levels(text: str) -> tuple[int, ...]:
    levels = tuple(_level(tok) for tok in text.replace(",", " ").split())
    if not levels:
        raise ValueError("expected at least one level")
    return levels


def _name_in(table, fold=str):
    """A parser of a key of ``table``, after ``fold``."""
    def parse_name(text: str) -> str:
        name = fold(text)
        if name not in table:
            raise ValueError(f"expected one of {', '.join(sorted(table))}, got {name!r}")
        return name
    return parse_name


#: each initial law and its init keys in constructor order: key -> (parser, default)
_LAWS = {
    "point": (PointMass, {"init.x0": (_location, 0.0)}),
    "gaussian": (GaussianLaw, {"init.mean": (_location, 0.0), "init.cov": (_covariance, 1.0)}),
    "uniform": (UniformBox, {"init.lo": (_location, -1.0), "init.hi": (_location, 1.0)}),
}

#: default of a key that every config must set
REQUIRED = object()


def _key(key: str, parser, default):
    """A field read from ``key`` by ``parser``, or ``default`` where the key is absent."""
    return field(metadata={"key": key, "spec": (parser, default)})


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config: a field per key, and the model parameters.  ``kind``
    is the subcommand's (``experiment.kind`` must match it); ``law`` is built
    from the keys of the law ``init.law`` names.  ``metric.seed_b`` defaults
    to the seed plus one; ``rate --gate`` requires the slope window."""

    kind: str = _key("experiment.kind", str, None)
    model_id: str = _key("model.id", _name_in(MODELS), REQUIRED)
    dim: int = _key("sim.d", _positive(_integer), 1)
    n_particles: int = _key("sim.N", _positive(_integer), REQUIRED)
    horizon: float = _key("sim.T", _positive(_number), 1.0)
    seed: int = _key("sim.seed", _integer, 0)
    level: int | None = _key("sim.level", _level, None)
    levels: tuple[int, ...] | None = _key("sim.levels", _levels, None)
    finest: int | None = _key("sim.finest", _level, None)
    record_level: int | None = _key("sim.record_level", _level, None)
    law: InitialLaw = _key("init.law", _name_in(_LAWS, str.lower), "point")
    moment_order: int = _key("moments.p", _positive(_integer), 1)
    seed_b: int = _key("metric.seed_b", _integer, None)
    gate_slope_min: float | None = _key("gate.slope_min", _number, None)
    gate_slope_max: float | None = _key("gate.slope_max", _number, None)
    gate_monotone: bool = _key("gate.monotone", _boolean, False)
    model_params: dict[str, float]


def _keys():
    for f in fields(ExperimentConfig):
        if "key" in f.metadata:
            yield f.metadata["key"], (f.name, *f.metadata["spec"])
        if f.name == "law":
            for _, keys in _LAWS.values():
                yield from ((key, (None, *spec)) for key, spec in keys.items())


#: every accepted key besides ``model.<param>``: key -> (ExperimentConfig
#: field, parser, default); the law keys follow ``init.law``, with no field
KEYS = dict(_keys())


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


def _build_law(values: dict) -> InitialLaw:
    law, keys = _LAWS[values["init.law"]]
    for key in keys:
        size = np.size(values[key])
        if size not in (1, values["sim.d"]):
            raise ConfigError(f"key {key!r}: {size} components, expected 1 or sim.d = {values['sim.d']}")
    if law is UniformBox:
        lo, hi = keys
        if np.any(np.less_equal(values[hi], values[lo])):
            raise ConfigError(f"key {lo!r}: must lie below {hi} in every coordinate")
    return law(*(values[key] for key in keys))


def _validate(cfg: ExperimentConfig, seeds: dict[str, int]) -> None:
    _, _, pinned = MODELS[cfg.model_id]
    if pinned is not None and cfg.dim != pinned:
        raise ConfigError(f"model {cfg.model_id!r} is {pinned}-dimensional; set sim.d = {pinned}")
    # seeds key 64-bit Philox streams; ``seeds`` maps each to the key or flag that set it
    for key, seed in seeds.items():
        if not 0 <= seed < 2**64:
            raise ConfigError(f"{key} must be nonnegative and below 2^64, got {seed}")
    if cfg.kind == "metric" and cfg.seed_b == cfg.seed:
        seed_source = "--seed" if "--seed" in seeds else "sim.seed"
        raise ConfigError(f"metric.seed_b must differ from {seed_source} ({cfg.seed}): the runs would be one ensemble")

    level, levels, finest = cfg.level, cfg.levels, cfg.finest
    if cfg.kind == "rate":
        for key, value in (("sim.levels", levels), ("sim.finest", finest)):
            if value is None:
                raise ConfigError(f"rate experiments require {key!r}")
        if len(levels) < MIN_RATE_LEVELS:
            raise ConfigError(
                f"sim.levels must list at least {MIN_RATE_LEVELS} levels to fit a rate, got {len(levels)}"
            )
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("sim.levels must be strictly increasing")
        if max(levels) > finest - 4:
            raise ConfigError(
                f"rate studies need max(sim.levels) <= sim.finest - 4, got {max(levels)} vs finest {finest}"
            )
    elif cfg.kind in ("run", "moments", "metric"):
        if level is None:
            raise ConfigError(f"{cfg.kind} experiments require 'sim.level'")
        if finest is not None and finest < level:
            raise ConfigError("sim.finest must be at least sim.level")
    elif cfg.kind == "check":
        # the checks sample sigma as a (d, d) matrix, bounded like a run's arrays
        nbytes = cfg.dim * cfg.dim * 8
        if nbytes > DEFAULT_MEMORY_CAP:
            raise ConfigError(
                f"sim.d = {cfg.dim} needs a (d, d) diffusion matrix of {nbytes} bytes, "
                f"above the memory limit of {DEFAULT_MEMORY_CAP} bytes"
            )
    base = level if level is not None else (min(levels) if levels else None)
    if None not in (cfg.record_level, base) and cfg.record_level > base:
        raise ConfigError(f"sim.record_level must not lie above the coarsest simulated level, {base}")
    if None not in (cfg.gate_slope_min, cfg.gate_slope_max) and cfg.gate_slope_min >= cfg.gate_slope_max:
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

    # every seed the file or --seed sets is checked, and the defaulted
    # metric.seed_b (the seed plus one) only where a metric study reads it
    seeds = {"sim.seed": values["sim.seed"]}
    if seed_override is not None:
        values["sim.seed"] = seeds["--seed"] = seed_override
    explicit_b = values["metric.seed_b"] is not None
    if not explicit_b:
        values["metric.seed_b"] = values["sim.seed"] + 1
    if explicit_b or kind == "metric":
        seeds["metric.seed_b"] = values["metric.seed_b"]
    values["experiment.kind"] = kind
    values["init.law"] = _build_law(values)
    cfg = ExperimentConfig(model_params=params, **{name: values[key] for key, (name, _, _) in KEYS.items() if name})
    _validate(cfg, seeds)
    return cfg
