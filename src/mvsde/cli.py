"""Config-driven experiment runner.

Subcommands: run | rate | moments | metric | check | selftest.  Each reads a
flat key=value config (see config.py), validates everything up front, runs
the experiment, and writes CSV data plus a flat key=value summary (and a
gnuplot script where a plot makes sense).  Floats are serialized with
shortest round-trip decimals so reruns are byte-comparable.

Exit codes: 0 success, 2 config error, 3 numeric blow-up, 4 gate failure,
5 analysis error (a numeric failure while turning trajectories into numbers).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, models
from .config import ConfigError, ExperimentConfig, load_config
from .models import make_model
from .solver import BlowUpError, em_multilevel, run_single

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_GATE = 4
EXIT_ANALYSIS = 5


class GateFailure(RuntimeError):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


#: rows formatted and written at a time, bounding the writer's memory
_CSV_BLOCK_ROWS = 4096


def _format_column(values) -> list[str]:
    """Strings equal to ``_fmt`` of each value, formatted a column at a time."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        # tolist() gives Python floats and ints, whose repr is _fmt's output;
        # one list repr formats them all, and repr([]) would give one empty cell
        return repr(values.tolist())[1:-1].split(", ") if values.size else []
    # _fmt of a str is the str itself, so formatted cells pass through
    return [v if type(v) is str else _fmt(v) for v in values]


def _open(path: Path):
    """Open ``path`` for writing, making its directory first, so a run that
    fails before its first write leaves no output directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """Write CSV rows given as an iterable of blocks of equal-length columns.

    Consecutive blocks continue the table.  Each block is formatted and
    written ``_CSV_BLOCK_ROWS`` rows at a time, so only that much text is
    held at once.
    """
    with _open(path) as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
                hi = lo + _CSV_BLOCK_ROWS
                cells = [_format_column(c[lo:hi]) for c in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_summary(path: Path, mapping: dict) -> None:
    with _open(path) as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {_fmt(value)}\n")


def _write_gnuplot(path: Path, body: str) -> None:
    with _open(path) as fh:
        fh.write("set datafile separator ','\n")
        fh.write(body)


def _out_dir(cli_out: str | None, kind: str) -> Path:
    """The output directory's path; it is made only once there is output."""
    if cli_out is not None:
        return Path(cli_out)
    return Path(os.environ.get("MVSDE_OUT") or "mvsde-out") / kind


# ---------------------------------------------------------------------------
# the experiment pipeline: build model -> simulate -> analyse -> write -> gate
# ---------------------------------------------------------------------------

def _simulate(cfg: ExperimentConfig, model, runs: int):
    """Every level of a rate study off one lattice; for the other kinds,
    ``runs`` runs at ``sim.level`` seeded by ``sim.seed``, then ``metric.seed_b``."""
    shared = {
        "finest": cfg.finest,
        "n_particles": cfg.n_particles,
        "horizon": cfg.horizon,
        "record_level": cfg.record_level,
    }
    if cfg.kind == "rate":
        return em_multilevel(model, cfg.law, cfg.seed, list(cfg.levels), **shared)
    return [run_single(model, cfg.law, seed, cfg.level, **shared) for seed in (cfg.seed, cfg.seed_b)[:runs]]


def _report(out: Path, summary: dict, failure: str | None) -> dict:
    """Write summary.txt, then fail the gate if a failure was found."""
    _write_summary(out / "summary.txt", summary)
    if failure is not None:
        raise GateFailure(failure)
    return summary


def _pipeline(analyse, cfg: ExperimentConfig, out: Path, gate: bool, runs: int = 0) -> dict:
    """One experiment.  ``analyse(cfg, model, trajectories, out, gate)``
    writes the kind's data files and returns its summary entries and its gate
    failure (None when the gate is off or passes)."""
    model = make_model(cfg.model_id, dim=cfg.dim, params=cfg.model_params)
    trajectories = _simulate(cfg, model, runs)
    entries, failure = analyse(cfg, model, trajectories, out, gate)
    return _report(out, {"experiment": cfg.kind, "model": cfg.model_id, **entries}, failure)


def _analyse_run(cfg, model, trajectories, out, gate):
    (traj,) = trajectories
    # one block per time slice, its rows particle-major; the times and the
    # "particle,dim" labels are formatted once
    times = _format_column(traj.times)
    labels = [f"{p},{k}" for p in range(traj.n_particles) for k in range(traj.dim)]
    _write_csv(
        out / "trajectories.csv",
        ["time", "particle", "dim", "value"],
        ([[t] * len(labels), labels, state.reshape(-1)] for t, state in zip(times, traj.states)),
    )

    means = traj.states.mean(axis=1)
    mean_norms = np.linalg.norm(means, axis=1)
    entries = {
        "seed": cfg.seed,
        "N": cfg.n_particles,
        "T": cfg.horizon,
        "level": cfg.level,
        "points": traj.times.shape[0],
        "final_mean_norm": float(mean_norms[-1]),
    }
    if (mean_norms > 1e-12).all() and traj.times.shape[0] >= 3:
        decay, _ = np.polyfit(traj.times, np.log(mean_norms), 1)
        entries["mean_decay_rate"] = float(decay)
    return entries, None


def _analyse_rate(cfg, model, trajectories, out, gate):
    ref = trajectories[cfg.finest]
    errors, stderrs = [], []
    for lvl in cfg.levels:
        est, se = analysis.strong_error(ref, trajectories[lvl])
        errors.append(est)
        stderrs.append(se)
    report = analysis.fit_rate(cfg.levels, errors)
    _write_csv(out / "rate.csv", ["level", "error", "stderr"], [[cfg.levels, errors, stderrs]])
    _write_gnuplot(
        out / "rate.gp",
        "set logscale y 2\nset xlabel 'level n'\nset ylabel 'mean squared sup gap'\n"
        "plot 'rate.csv' skip 1 using 1:2:3 with yerrorlines title 'coupled error'\n",
    )
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    entries = {
        "seed": cfg.seed,
        "N": cfg.n_particles,
        "T": cfg.horizon,
        "finest": cfg.finest,
        "levels": " ".join(str(v) for v in cfg.levels),
        "slope": report.slope,
        "intercept": report.intercept,
        "monotone": monotone,
    }
    for lvl, err, se in zip(cfg.levels, errors, stderrs):
        entries[f"error.{lvl}"] = err
        entries[f"stderr.{lvl}"] = se
    if not gate:
        return entries, None
    ok = cfg.gate_slope_min <= report.slope <= cfg.gate_slope_max
    if cfg.gate_monotone:
        ok = ok and monotone
    entries["gate"] = "pass" if ok else "fail"
    entries["gate.slope_window"] = f"[{cfg.gate_slope_min} {cfg.gate_slope_max}]"
    failure = None if ok else (
        f"rate gate failed: slope {report.slope:.4f} outside "
        f"[{cfg.gate_slope_min}, {cfg.gate_slope_max}]"
        + (" or errors not monotone" if cfg.gate_monotone and not monotone else "")
    )
    return entries, failure


def _analyse_moments(cfg, model, trajectories, out, gate):
    (traj,) = trajectories
    report = analysis.moment_curve(traj, cfg.moment_order)
    oracle_vals = None
    if model.model_id == "mf-ou" and cfg.moment_order == 1:
        d = cfg.dim
        _, moment_fn = models.mf_ou_oracles(
            **model.parameters, dim=d, m0=cfg.law.mean(d), u0=cfg.law.second_moment(d)
        )
        oracle_vals = np.array([moment_fn(t) for t in report.times])
    header = ["time", "moment", "stderr", "envelope"]
    columns = [report.times, report.moments, report.stderrs, report.envelope]
    if oracle_vals is not None:
        header.append("oracle")
        columns.append(oracle_vals)
    _write_csv(out / "moments.csv", header, [columns])
    _write_gnuplot(
        out / "moments.gp",
        "set xlabel 'time'\nset ylabel 'moment'\n"
        "plot 'moments.csv' skip 1 using 1:2:3 with yerrorlines title 'empirical', "
        "'moments.csv' skip 1 using 1:4 with lines title 'envelope'\n",
    )
    entries = {
        "seed": cfg.seed,
        "N": cfg.n_particles,
        "T": cfg.horizon,
        "level": cfg.level,
        "p": cfg.moment_order,
        "envelope_constant": report.envelope_constant,
        "envelope_dominates": report.dominated,
    }
    ok = report.dominated
    if oracle_vals is not None:
        dev = np.abs(report.moments - oracle_vals)
        # t = 0 has zero spread; compare later points in standard-error units
        with np.errstate(divide="ignore", invalid="ignore"):
            units = np.where(report.stderrs > 0, dev / report.stderrs, np.where(dev > 0, np.inf, 0.0))
        entries["oracle_max_dev_se"] = float(units.max())
        ok = ok and entries["oracle_max_dev_se"] <= 3.0
    failure = None if ok or not gate else "moment gate failed: oracle deviation above 3 standard errors"
    return entries, failure


def _analyse_metric(cfg, model, trajectories, out, gate):
    traj_a, traj_b = trajectories
    report = analysis.law_gap_curve(traj_a, traj_b)
    _write_csv(
        out / "metric.csv",
        ["time", "rho_upper", "rho_lower"],
        [[report.times, report.upper, report.lower]],
    )
    _write_gnuplot(
        out / "metric.gp",
        "set xlabel 'time'\nset ylabel 'law gap'\n"
        "plot 'metric.csv' skip 1 using 1:2 with lines title 'upper', "
        "'metric.csv' skip 1 using 1:3 with lines title 'lower'\n",
    )
    entries = {
        "seed_a": cfg.seed,
        "seed_b": cfg.seed_b,
        "N": cfg.n_particles,
        "coupling": report.coupling,
        "max_upper": float(report.upper.max()),
        "max_lower": float(report.lower.max()),
        # law_gap_curve raises AnalysisError at any point where the sandwich
        # fails, so a written summary always holds it
        "sandwich": True,
    }
    return entries, None


def _analyse_check(cfg, model, trajectories, out, gate):
    growth = models.check_linear_growth(model, seed=cfg.seed)
    rows = [("linear_growth", growth.passed, growth.fitted_l1, "", growth.failure)]
    entries = {
        "seed": cfg.seed,
        "linear_growth.passed": growth.passed,
        "linear_growth.fitted_l1": growth.fitted_l1,
    }
    if growth.failure:
        entries["linear_growth.failure"] = growth.failure
    ok = growth.passed
    if model.moduli is not None:
        h2p = models.check_h2prime(model, seed=cfg.seed)
        rows.append(("h2prime", h2p.passed, h2p.fitted_lambda1, h2p.fitted_lambda2, h2p.failure))
        entries["h2prime.passed"] = h2p.passed
        entries["h2prime.fitted_lambda1"] = h2p.fitted_lambda1
        entries["h2prime.fitted_lambda2"] = h2p.fitted_lambda2
        entries["h2prime.measure_term"] = models.MEASURE_TERM
        ok = ok and h2p.passed
    _write_csv(out / "check.csv", ["check", "passed", "fitted_1", "fitted_2", "note"], [list(zip(*rows))])
    return entries, None if ok or not gate else "assumption check failed; see check.csv"


def cmd_selftest(out: Path) -> dict:
    """Solver-free pipeline checks against closed forms; always gated."""
    levels = [1, 2, 3, 4, 5, 6]
    errors = [2.0 ** (-n) for n in levels]
    report = analysis.fit_rate(levels, errors)
    _write_csv(out / "rate.csv", ["level", "error", "stderr"], [[levels, errors, [0.0] * len(levels)]])

    kappa = models.ModulusKappaEta()
    knee_gap = abs(
        models.kappa_eta(kappa.eta, kappa.eta)
        - ((math.log(1.0 / kappa.eta) - 1.0) * kappa.eta + kappa.eta)
    )
    osgood_val = analysis.osgood_integral(kappa, 1e-8, kappa.eta)
    osgood_exact = math.log(math.log(1e8)) - math.log(2.0)
    bihari = analysis.bihari_ode_check(kappa, 1.0, 1e-8, 1.0)
    bihari_exact = 1e-8 ** math.exp(-1.0)

    checks = {
        "synthetic_slope": abs(report.slope + 1.0) <= 1e-12,
        "modulus_knee_continuity": knee_gap <= 1e-12,
        "osgood_closed_form": abs(osgood_val - osgood_exact) <= 1e-6 * osgood_exact,
        "bihari_closed_form": abs(bihari.path[-1] - bihari_exact) <= 1e-6 * bihari_exact,
    }
    summary = {
        "experiment": "selftest",
        "synthetic_slope": report.slope,
        "osgood_value": osgood_val,
        "bihari_final": float(bihari.path[-1]),
    }
    for name, ok in checks.items():
        summary[f"check.{name}"] = "pass" if ok else "fail"
    failed = [k for k, v in checks.items() if not v]
    return _report(out, summary, "selftest failed: " + ", ".join(failed) if failed else None)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "run": partial(_pipeline, _analyse_run, runs=1),
    "rate": partial(_pipeline, _analyse_rate),
    "moments": partial(_pipeline, _analyse_moments, runs=1),
    "metric": partial(_pipeline, _analyse_metric, runs=2),
    "check": partial(_pipeline, _analyse_check),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvsde",
        description="particle simulation and verification experiments for mean-field SDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "selftest"):
        p = sub.add_parser(name)
        if name != "selftest":
            p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=None, help="output directory (default: $MVSDE_OUT/<command> or ./mvsde-out/<command>)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility (at least 1); changes nothing")
        p.add_argument("--gate", action="store_true", help="enable acceptance thresholds (exit 4 on failure)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "selftest":
            out = _out_dir(args.out, "selftest")
            cmd_selftest(out)
            print(f"selftest pass ({out})")
            return EXIT_OK
        cfg = load_config(args.config, args.command, seed_override=args.seed)
        out = _out_dir(args.out, args.command)
        summary = _COMMANDS[args.command](cfg, out, args.gate)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"numeric blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except GateFailure as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    except analysis.AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except ValueError as exc:
        # solver, measure and model preconditions: through the CLI they
        # arise only from config values
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for key, value in summary.items():
        print(f"{key} = {_fmt(value)}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
