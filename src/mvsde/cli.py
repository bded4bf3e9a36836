"""Config-driven experiment runner.

Subcommands: run | rate | moments | metric | check | selftest.  Each reads a
flat key=value config (see config.py; selftest, which takes only ``--out``,
reads none), validates everything up front, runs the experiment, and writes
CSV data plus a flat key=value summary (and a gnuplot script where a plot
makes sense).  Only the kinds with a gate take ``--gate``: rate, moments, check.  Floats are serialized with
shortest round-trip decimals so reruns are byte-comparable.  ``_report`` is
the one output path: an experiment hands it each file as text chunks, and
it stages them beside their final names and moves them into place together
after the last one, summary.txt.  The writers only format text: a small
table a row per line, ``run``'s trajectories a time slice at a time.

Exit codes follow the error's type: 0 success, 2 config error (``ConfigError``,
``SolverError``, or ``make_model``'s ``ModelError``), 3 numeric blow-up, 4 gate
failure, 5 analysis error; any other exception is a bug: a traceback, exit 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import suppress
from functools import partial
from operator import add
from pathlib import Path

import numpy as np

from . import analysis, models
from .config import ConfigError, ExperimentConfig, load_config
from .models import ModelError, make_model
from .solver import BlowUpError, SolverError, em_multilevel, run_single

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


#: lines of ``run``'s trajectories.csv formatted and written at a time,
#: bounding the writer's memory
_CSV_BLOCK_ROWS = 4096


def _csv(header: list[str], rows):
    """CSV text a line at a time: the header, then each row's values through ``_fmt``."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(_fmt, row)) + "\n"


def _trajectory_csv(slices, n_particles: int, dim: int):
    """trajectories.csv's text from ``(time, (N, d) states)`` slices, each
    particle-major, at most ``_CSV_BLOCK_ROWS`` lines a chunk.

    The "particle,dim," keys are formatted once per run and each time once
    per slice, placed by the join's separator, so a line costs its value's
    ``repr`` (``_fmt`` of a float64) and one concatenation.
    """
    yield "time,particle,dim,value\n"
    keys = [f"{p},{k}," for p in range(n_particles) for k in range(dim)]
    for t, states in slices:
        head = _fmt(t) + ","
        values = states.reshape(-1)
        for lo in range(0, len(keys), _CSV_BLOCK_ROWS):
            hi = lo + _CSV_BLOCK_ROWS
            # every repr first, then the concatenations: about 5% faster than
            # one chained map; left unnamed, the cells are freed at the yield
            yield head + ("\n" + head).join(map(add, keys[lo:hi], list(map(repr, values[lo:hi].tolist())))) + "\n"


def _gnuplot(body: str):
    return "set datafile separator ','\n", body


def _out_dir(cli_out: str | None, kind: str) -> Path:
    """The output directory's path; it is made only once there is output."""
    if cli_out is not None:
        return Path(cli_out)
    return Path(os.environ.get("MVSDE_OUT") or "mvsde-out") / kind


# ---------------------------------------------------------------------------
# the experiment pipeline: build model -> simulate -> analyse -> write -> gate
# ---------------------------------------------------------------------------

def _run(cfg: ExperimentConfig, model, seed: int):
    """One run at ``sim.level`` from ``seed``: ``(times, rows)``, each row stepped as it is read."""
    return run_single(model, cfg.law, seed, cfg.level, finest=cfg.finest, n_particles=cfg.n_particles,
                      horizon=cfg.horizon, record_level=cfg.record_level)


def _report(out: Path, heading: dict, experiment) -> dict:
    """Run ``experiment(write)``, which writes the data files and returns its
    summary entries and its gate failure (None when the gate is off or
    passes); write summary.txt, the last file, and move every file into place
    together.  Then fail the gate if a failure was found, so a failed gate
    keeps its outputs.

    ``write(name, chunks)`` writes the text chunks to ``.<name>.tmp`` in
    ``out``, made at the first write, so a run that fails before it leaves no
    output directory.  If anything fails before the moves are done, every
    temporary file and every directory made for them is removed, and the
    earlier files of those names stay as they were; the files moved before a
    failed move stay.  An ``OSError`` while writing or moving a file is a
    ``ConfigError`` that names it.
    """
    staged, made = [], []

    def write(name: str, chunks) -> None:
        path = out / name
        tmp = out / f".{name}.tmp"
        try:
            made.extend(d for d in (out, *out.parents) if not d.exists())
            out.mkdir(parents=True, exist_ok=True)
            staged.append((tmp, path))
            with open(tmp, "w", newline="\n") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                    del chunk  # freed before the next chunk is formatted
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc

    done = False
    try:
        entries, failure = experiment(write)
        summary = {**heading, **entries}
        write("summary.txt", (f"{key} = {_fmt(value)}\n" for key, value in summary.items()))
        for tmp, path in staged:
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise ConfigError(f"cannot write output {path}: {exc}") from exc
        done = True
    finally:
        if not done:
            # the cleanup must not hide the error that stopped the experiment
            for tmp, _ in staged:
                with suppress(OSError):
                    tmp.unlink()
            for d in made:
                with suppress(OSError):
                    d.rmdir()
    if failure is not None:
        raise GateFailure(failure)
    return summary


def _pipeline(analyse, cfg: ExperimentConfig, out: Path, **flags) -> dict:
    """One experiment.  ``analyse(cfg, model, write, **flags)`` runs its kind's
    simulations, writes its data files through ``write`` and returns its
    summary entries and its gate failure; a gated kind's flags hold ``gate``."""
    try:
        model = make_model(cfg.model_id, dim=cfg.dim, params=cfg.model_params)
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc
    heading = {"experiment": cfg.kind, "model": cfg.model_id}
    return _report(out, heading, partial(analyse, cfg, model, **flags))


def _analyse_run(cfg, model, write):
    # each record row is written as soon as it is stepped, so one block of
    # increments is held, not the trajectory, and a failure midway leaves no
    # trajectories.csv (see _report)
    times, rows = _run(cfg, model, cfg.seed)
    means = np.empty((times.shape[0], cfg.dim))

    def slices():
        # rows first, so the block loop runs to its end and frees its block
        for j, (row, t) in enumerate(zip(rows, times)):
            # the same floats as the trajectory's mean(axis=1)
            means[j] = row.mean(axis=0)
            yield t, row

    write("trajectories.csv", _trajectory_csv(slices(), cfg.n_particles, cfg.dim))

    mean_norms = np.linalg.norm(means, axis=1)
    entries = {
        "seed": cfg.seed,
        "N": cfg.n_particles,
        "T": cfg.horizon,
        "level": cfg.level,
        "points": times.shape[0],
        "final_mean_norm": float(mean_norms[-1]),
    }
    if (mean_norms > 1e-12).all() and times.shape[0] >= 3:
        decay, _ = np.polyfit(times, np.log(mean_norms), 1)
        entries["mean_decay_rate"] = float(decay)
    return entries, None


def _analyse_rate(cfg, model, write, gate):
    window = {"gate.slope_min": cfg.gate_slope_min, "gate.slope_max": cfg.gate_slope_max}
    missing = [key for key, value in window.items() if value is None]
    if gate and missing:
        raise ConfigError(f"rate --gate requires the slope window; missing {', '.join(map(repr, missing))}")
    _, rows = em_multilevel(model, cfg.law, cfg.seed, list(cfg.levels), cfg.finest, cfg.n_particles,
                            cfg.horizon, cfg.record_level)
    estimates = analysis.strong_error(rows, cfg.finest)
    errors = [estimates[lvl][0] for lvl in cfg.levels]
    stderrs = [estimates[lvl][1] for lvl in cfg.levels]
    report = analysis.fit_rate(cfg.levels, errors)
    write("rate.csv", _csv(["level", "error", "stderr"], zip(cfg.levels, errors, stderrs)))
    write("rate.gp", _gnuplot(
        "set logscale y 2\nset xlabel 'level n'\nset ylabel 'mean squared sup gap'\n"
        "plot 'rate.csv' skip 1 using 1:2:3 with yerrorlines title 'coupled error'\n",
    ))
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


def _analyse_moments(cfg, model, write, gate):
    times, rows = _run(cfg, model, cfg.seed)
    report = analysis.moment_curve(times, rows, cfg.moment_order)
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
    write("moments.csv", _csv(header, zip(*columns)))
    write("moments.gp", _gnuplot(
        "set xlabel 'time'\nset ylabel 'moment'\n"
        "plot 'moments.csv' skip 1 using 1:2:3 with yerrorlines title 'empirical', "
        "'moments.csv' skip 1 using 1:4 with lines title 'envelope'\n",
    ))
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


def _analyse_metric(cfg, model, write):
    # seed b is primed first, so both seeds are checked before any work; the
    # curve steps both runs in lockstep, one block of increments each
    _, rows_b = _run(cfg, model, cfg.seed_b)
    times, rows_a = _run(cfg, model, cfg.seed)
    report = analysis.law_gap_curve(times, rows_a, rows_b)
    write("metric.csv", _csv(["time", "rho_upper", "rho_lower"], zip(report.times, report.upper, report.lower)))
    write("metric.gp", _gnuplot(
        "set xlabel 'time'\nset ylabel 'law gap'\n"
        "plot 'metric.csv' skip 1 using 1:2 with lines title 'upper', "
        "'metric.csv' skip 1 using 1:3 with lines title 'lower'\n",
    ))
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


def _analyse_check(cfg, model, write, gate):
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
    write("check.csv", _csv(["check", "passed", "fitted_1", "fitted_2", "note"], rows))
    return entries, None if ok or not gate else "assumption check failed; see check.csv"


def _analyse_selftest(write):
    """Solver-free pipeline checks against closed forms; always gated."""
    levels = [1, 2, 3, 4, 5, 6]
    errors = [2.0 ** (-n) for n in levels]
    report = analysis.fit_rate(levels, errors)
    write("rate.csv", _csv(["level", "error", "stderr"], zip(levels, errors, [0.0] * len(levels))))

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
    entries = {
        "synthetic_slope": report.slope,
        "osgood_value": osgood_val,
        "bihari_final": float(bihari.path[-1]),
    }
    for name, ok in checks.items():
        entries[f"check.{name}"] = "pass" if ok else "fail"
    failed = [k for k, v in checks.items() if not v]
    return entries, "selftest failed: " + ", ".join(failed) if failed else None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "run": partial(_pipeline, _analyse_run),
    "rate": partial(_pipeline, _analyse_rate),
    "moments": partial(_pipeline, _analyse_moments),
    "metric": partial(_pipeline, _analyse_metric),
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
        p.add_argument("--out", default=None, help="output directory (default: $MVSDE_OUT/<command> or ./mvsde-out/<command>)")
        if name == "selftest":
            continue
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility (at least 1); changes nothing")
        if name in ("rate", "moments", "check"):
            p.add_argument("--gate", action="store_true", help="enable acceptance thresholds (exit 4 on failure)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        out = _out_dir(args.out, args.command)
        if args.command == "selftest":
            _report(out, {"experiment": "selftest"}, _analyse_selftest)
            print(f"selftest pass ({out})")
            return EXIT_OK
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        cfg = load_config(args.config, args.command, seed_override=args.seed)
        flags = {"gate": args.gate} if "gate" in args else {}
        summary = _COMMANDS[args.command](cfg, out, **flags)
    except (ConfigError, SolverError) as exc:
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
    for key, value in summary.items():
        print(f"{key} = {_fmt(value)}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
