"""In-memory span tracing of mvsde, installed from outside the package.

Spans are recorded around the public entry points of each module by
replacing the names where the calling module looks them up (a function
imported with ``from x import f`` must be replaced in the importer, or the
layer silently reads zero).  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, experiment]``; self time is its
duration minus the durations of its direct children.  Layer metrics are sums
of self time per layer, so they add up to the traced wall time of the calls
that were wrapped.
"""

from __future__ import annotations

import csv
import dataclasses
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: span name -> per-layer time metric that its self time is billed to
SELF_TIME_METRIC = {
    "config.load": "config.load_s",
    "cli.command": "cli.write_s",
    "solver.step": "solver.step_self_s",
    "paths.lattice": "paths.lattice_s",
    "paths.coarsen": "paths.coarsen_s",
    "measure.law_build": "measure.law_s",
    # the lazy EmpiricalMeasure.mean, first read inside the model's drift
    "measure.law_mean": "measure.law_s",
    "models.drift": "models.drift_s",
    "models.diffusion": "models.diffusion_s",
    "measure.integrate": "measure.integrate_s",
    "analysis.law_gap": "analysis.law_gap_s",
    "analysis.strong_error": "analysis.strong_error_s",
    "analysis.fit_rate": "analysis.fit_rate_s",
}

#: per-layer count metric -> span names whose calls it counts
CALL_COUNT_METRIC = {
    "measure.law_builds": ("measure.law_build",),
    "models.calls": ("models.drift", "models.diffusion"),
    "paths.coarsen_calls": ("paths.coarsen",),
}

#: exact counts recorded from call arguments and results, not from spans
RECORDED_COUNTS = ("paths.lattice_bytes", "paths.coarsen_bytes", "solver.steps")


class Tracer:
    """Single-threaded span recorder; one per traced benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.experiment = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.experiment]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counter, args, kwargs, result)`` adds
        exact counts for the current experiment."""

        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts[self.experiment], args, kwargs, out)
            return out

        return traced

    def layer_metrics(self, experiment: int) -> dict[str, float]:
        """Self times, call counts and recorded counts of one experiment."""
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == experiment]
        child_time = Counter()
        for _, (name, start, end, parent, _) in mine:
            if parent >= 0:
                child_time[parent] += end - start
        out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
        calls = Counter()
        step_loop_s = 0.0
        for i, (name, start, end, _, _) in mine:
            calls[name] += 1
            if name in SELF_TIME_METRIC:
                out[SELF_TIME_METRIC[name]] += (end - start) - child_time[i]
            if name == "solver.step":
                step_loop_s += end - start
        for metric, names in CALL_COUNT_METRIC.items():
            out[metric] = sum(calls[n] for n in names)
        counts = self.counts[experiment]
        for metric in RECORDED_COUNTS:
            out[metric] = counts[metric]
        # inclusive time of the step loops (law, model, noise, coarsening and
        # guard together) per simulated particle step
        particle_steps = counts["solver.particle_steps"]
        out["solver.ns_per_particle_step"] = step_loop_s * 1e9 / particle_steps if particle_steps else 0.0
        return out

    def calls_by_name(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["experiment", "span", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent, experiment) in enumerate(self.spans):
                out.writerow([experiment, i, name, repr(start), repr(end), parent])


def _count_lattice(counter, args, kwargs, lattice) -> None:
    counter["paths.lattice_bytes"] += lattice.increments.nbytes


def _count_coarsen(counter, args, kwargs, arr) -> None:
    counter["paths.coarsen_bytes"] += arr.nbytes


def _em_run_counter(em_run):
    signature = inspect.signature(em_run)

    def count(counter, args, kwargs, traj) -> None:
        bound = signature.bind(*args, **kwargs).arguments
        steps = 1 << int(bound["level"])
        counter["solver.steps"] += steps
        counter["solver.particle_steps"] += steps * bound["ensemble"].n_particles

    return count


@contextmanager
def installed(tracer: Tracer, cli, solver, analysis):
    """Patch the lookup sites of every traced entry point; undo on exit."""
    undo = []

    def put(target, key, make):
        if isinstance(target, dict):
            old = target[key]
            target[key] = make(old)
            undo.append(lambda: target.__setitem__(key, old))
        else:
            old = getattr(target, key)
            setattr(target, key, make(old))
            undo.append(lambda: setattr(target, key, old))

    def span(name, count=None):
        return lambda fn: tracer.wrap(name, fn, count)

    def traced_model(make_model):
        def build(*args, **kwargs):
            model = make_model(*args, **kwargs)
            drift = model.drift

            def traced_drift(states, mu):
                def body():
                    tracer.call("measure.law_mean", getattr, mu, "mean")
                    return drift(states, mu)

                return tracer.call("models.drift", body)

            changes = {"drift": traced_drift}
            if model.diffusion_apply is not None:
                changes["diffusion_apply"] = tracer.wrap("models.diffusion", model.diffusion_apply)
            return dataclasses.replace(model, **changes)

        return build

    try:
        put(cli, "load_config", span("config.load"))
        put(cli, "make_model", traced_model)
        put(cli, "run_single", span("solver.driver"))
        put(cli, "em_multilevel", span("solver.driver"))
        for kind in list(cli._COMMANDS):
            put(cli._COMMANDS, kind, span("cli.command"))
        put(solver, "em_run", lambda fn: tracer.wrap("solver.step", fn, _em_run_counter(fn)))
        put(solver, "sample_lattice", span("paths.lattice", _count_lattice))
        put(solver, "coarsen", span("paths.coarsen", _count_coarsen))
        put(solver, "EmpiricalMeasure", span("measure.law_build"))
        for name in ("uniform_measure", "rho_upper", "rho_lower"):
            put(analysis, name, span("measure.integrate"))
        put(analysis, "law_gap_curve", span("analysis.law_gap"))
        put(analysis, "strong_error", span("analysis.strong_error"))
        put(analysis, "fit_rate", span("analysis.fit_rate"))
        yield tracer
    finally:
        for step in reversed(undo):
            step()

