"""Benchmark of mvsde's coupled experiments, run in-process through ``mvsde.cli.main``.

    python3 mvbench/run.py --workload rate-osgood --seed 0 --seconds 40 --trace 0

Closed loop: one caller runs experiments of one workload back to back in this
process, each with ``--threads 1``, until ``--seconds`` is spent.  Every
experiment gets a generated config whose seeds derive from ``--seed``; its
output files are checked byte for byte (against ``digests.json`` on seed 0,
against the first run of the same experiment seed otherwise) and for the
structure the experiment promises.  The last line of standard output is one
JSON object; a full record (machine, software, samples, digests) is written
to ``.bench_out/results/``.  See ``METRICS.md`` for the metric definitions
and the per-layer predictions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
#: the declared metrics and their units
SPEC = ROOT / "BENCHMARK.json"

#: experiments cycle over this many derived seeds, so every run repeats seeds
#: and can check determinism even where no committed digest exists
SEED_CYCLE = 3
#: fresh-process set-up measurements per run (median reported)
SETUP_REPEATS = {"full": 3, "tiny": 2}

# Base configs.  rate-osgood is configs/rate_osgood.cfg as it stood when the
# benchmark was defined, copied so later edits to the canonical configs do
# not move the workload.  Seeds are filled in per experiment.
RATE_OSGOOD = {
    "experiment.kind": "rate",
    "model.id": "osgood",
    "model.c": "1.0",
    "model.beta": "0.25",
    "model.s": "0.3",
    "sim.d": "1",
    "sim.N": "2000",
    "sim.T": "1.0",
    "sim.levels": "3 4 5 6 7 8",
    "sim.finest": "12",
    "init.law": "gaussian",
    "init.mean": "0.0",
    "init.cov": "1.0",
    "gate.slope_min": "-1.5",
    "gate.slope_max": "-0.5",
    "gate.monotone": "true",
}
# configs/metric_mf_ou.cfg widened to N = 10^4 at level 7, every point recorded
LAWGAP_WIDE = {
    "experiment.kind": "metric",
    "model.id": "mf-ou",
    "sim.N": "10000",
    "sim.T": "1.0",
    "sim.level": "7",
    "init.law": "gaussian",
    "init.mean": "0.0",
    "init.cov": "1.0",
}
# configs/run_mf_ou.cfg at N = 2000, every grid point recorded
DUMP_CSV = {
    "experiment.kind": "run",
    "model.id": "mf-ou",
    "model.theta": "1.0",
    "model.alpha": "0.5",
    "model.s": "0.4",
    "sim.N": "2000",
    "sim.T": "1.0",
    "sim.level": "8",
    "init.law": "point",
    "init.x0": "1.0",
}

#: workload -> (base config, canonical seed, tiny-size overrides for tests)
WORKLOADS = {
    "rate-osgood": (RATE_OSGOOD, 101, {"sim.N": "64", "sim.levels": "2 3 4", "sim.finest": "8"}),
    "lawgap-wide": (LAWGAP_WIDE, 11, {"sim.N": "200", "sim.level": "4"}),
    "dump-csv": (DUMP_CSV, 7, {"sim.N": "50", "sim.level": "4"}),
}

#: per workload, the layers the prediction table marks "most work"; a traced
#: run in which one of these spans never fired is refused
MOST_WORK = {
    "rate-osgood": ("measure.law_build", "measure.law_mean", "models.drift", "models.diffusion",
                    "paths.lattice", "paths.coarsen", "solver.step"),
    "lawgap-wide": ("measure.integrate", "analysis.law_gap"),
    "dump-csv": ("cli.command",),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, or a traced layer is dead)."""


# ---------------------------------------------------------------------------
# experiment definition
# ---------------------------------------------------------------------------

def experiment_config(workload: str, seed: int, k: int, size: str) -> dict[str, str]:
    """Config of experiment ``k`` of a run: seed 0 gives the canonical seed."""
    base, canonical, tiny = WORKLOADS[workload]
    cfg = dict(base)
    if size == "tiny":
        cfg.update(tiny)
    exp_seed = canonical + 10_000 * seed + 2 * (k % SEED_CYCLE)
    cfg["sim.seed"] = str(exp_seed)
    if cfg["experiment.kind"] == "metric":
        cfg["metric.seed_b"] = str(exp_seed + 1)
    return cfg


def particle_steps(cfg: dict[str, str]) -> int:
    """Sum of N * 2^level over every level the experiment simulates."""
    n = int(cfg["sim.N"])
    kind = cfg["experiment.kind"]
    if kind == "rate":
        levels = [int(v) for v in cfg["sim.levels"].split()] + [int(cfg["sim.finest"])]
        return n * sum(1 << lvl for lvl in levels)
    runs = 2 if kind == "metric" else 1
    return runs * n * (1 << int(cfg["sim.level"]))


def expected_outputs(cfg: dict[str, str]) -> dict[str, int]:
    """Output file -> number of CSV data rows (-1: not a CSV)."""
    kind = cfg["experiment.kind"]
    if kind == "rate":
        return {"rate.csv": len(cfg["sim.levels"].split()), "rate.gp": -1, "summary.txt": -1}
    points = (1 << int(cfg["sim.level"])) + 1
    if kind == "metric":
        return {"metric.csv": points, "metric.gp": -1, "summary.txt": -1}
    return {"trajectories.csv": points * int(cfg["sim.N"]) * int(cfg.get("sim.d", "1")), "summary.txt": -1}


def structure_problems(cfg: dict[str, str], files: dict[str, dict], summary_text: str) -> list[str]:
    """What the experiment promises about its outputs, on any seed."""
    problems = []
    expected = expected_outputs(cfg)
    if sorted(files) != sorted(expected):
        return [f"output files {sorted(files)}, expected {sorted(expected)}"]
    for name, rows in expected.items():
        found = files[name]["lines"] - 1
        if rows >= 0 and found != rows:
            problems.append(f"{name}: {found} data rows, expected {rows}")
    summary = dict(
        line.split(" = ", 1) for line in summary_text.splitlines() if " = " in line
    )
    kind = cfg["experiment.kind"]
    if kind == "rate" and not math.isfinite(float(summary.get("slope", "nan"))):
        problems.append("summary.txt: no finite slope")
    if kind == "metric" and summary.get("sandwich") != "true":
        problems.append("summary.txt: metric sandwich does not hold")
    if kind == "run" and summary.get("points") != str((1 << int(cfg["sim.level"])) + 1):
        problems.append("summary.txt: wrong point count")
    return problems


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def import_mvsde():
    """Import the package from this checkout's sources, never an installed copy."""
    if not (SRC / "mvsde" / "__init__.py").is_file():
        raise BenchError(f"no mvsde sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from mvsde import analysis, cli, solver

    if Path(cli.__file__).resolve().parent != (SRC / "mvsde").resolve():
        raise BenchError(f"mvsde imported from {cli.__file__}, not from {SRC}")
    return cli, solver, analysis


def write_config(path: Path, cfg: dict[str, str]) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items()))


SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mvsde.cli
from mvsde.config import load_config
from mvsde.models import make_model
cfg = load_config(sys.argv[2], sys.argv[3])
make_model(cfg.model_id, dim=cfg.dim, params=cfg.model_params)
print(time.perf_counter() - t0)
"""


def measure_setup(config_path: Path, kind: str, repeats: int) -> list[float]:
    """Seconds to import mvsde, load the config and build the model, each in
    a fresh interpreter (the probe times itself, excluding interpreter start)."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config_path), kind],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def scan_output(path: Path) -> dict:
    """SHA-256, line count and size, read in chunks so the check adds little
    to the process's peak memory."""
    digest, lines, size = hashlib.sha256(), 0, 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
    return {"sha256": digest.hexdigest(), "lines": lines, "bytes": size}


def run_experiment(cli, cfg: dict[str, str], workdir: Path) -> dict:
    """One ``main()`` call plus output verification, timed together."""
    config_path = workdir / "experiment.cfg"
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    write_config(config_path, cfg)
    argv = [cfg["experiment.kind"], "--config", str(config_path), "--out", str(out), "--threads", "1"]
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        error = None if code == 0 else f"exit code {code}"
    except Exception as exc:  # an experiment that raises is a failed sample, not a dead run
        code, error = None, f"{type(exc).__name__}: {exc}"
    files = {p.name: scan_output(p) for p in sorted(out.iterdir())} if out.is_dir() else {}
    summary_text = (out / "summary.txt").read_text() if "summary.txt" in files else ""
    problems = [error] if error else structure_problems(cfg, files, summary_text)
    wall = perf_counter() - start
    return {
        "seed": int(cfg["sim.seed"]),
        "wall_s": wall,
        "exit_code": code,
        "digests": {name: f["sha256"] for name, f in files.items()},
        "rows_written": sum(f["lines"] - 1 for name, f in files.items() if name.endswith(".csv")),
        "bytes_written": sum(f["bytes"] for f in files.values()),
        "problems": problems,
    }


def check_digests(sample: dict, k: int, reference: dict | None, seen: dict) -> None:
    """Committed digests on seed 0; otherwise the first run of the same seed."""
    if reference is not None:
        expected = reference.get(str(k))
        if expected is None:
            sample["problems"].append(f"no committed digests for experiment {k}")
        elif sample["digests"] != expected:
            sample["problems"].append("output digests differ from digests.json")
    first = seen.setdefault(sample["seed"], sample["digests"])
    if sample["digests"] != first:
        sample["problems"].append("output digests differ from an earlier run of the same seed")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full", cli_modules=None) -> dict:
    cli, solver, analysis = cli_modules or import_mvsde()
    workdir = WORK / workload
    workdir.mkdir(parents=True, exist_ok=True)
    reference = None
    if seed == 0:
        reference = json.loads(DIGESTS.read_text())[size][workload]

    probe_cfg = workdir / "setup.cfg"
    write_config(probe_cfg, experiment_config(workload, seed, 0, size))
    setup = measure_setup(probe_cfg, WORKLOADS[workload][0]["experiment.kind"], SETUP_REPEATS[size])

    tracer = spans.Tracer()
    samples: list[dict] = []
    layers: list[dict] = []
    seen: dict = {}
    min_samples = 2 if trace else 1
    start = perf_counter()
    while True:
        k = len(samples)
        cfg = experiment_config(workload, seed, k, size)
        traced = trace and k % 2 == 1
        if traced:
            tracer.experiment = k
            with spans.installed(tracer, cli, solver, analysis):
                sample = run_experiment(cli, cfg, workdir)
            row = tracer.layer_metrics(k)
            row["cli.rows_written"] = sample["rows_written"]
            row["cli.bytes_written"] = sample["bytes_written"]
            layers.append(row)
        else:
            sample = run_experiment(cli, cfg, workdir)
        sample["traced"] = traced
        sample["particle_steps"] = particle_steps(cfg)
        check_digests(sample, k % SEED_CYCLE, reference, seen)
        samples.append(sample)
        typical = statistics.median(s["wall_s"] for s in samples)
        if len(samples) >= min_samples and perf_counter() - start + typical > seconds:
            break

    if trace:
        calls = tracer.calls_by_name()
        dead = [name for name in MOST_WORK[workload] if calls[name] == 0]
        if dead:
            raise BenchError(f"traced run of {workload}: no calls recorded for {', '.join(dead)}")
    return {"samples": samples, "setup_s": setup, "layers": layers, "tracer": tracer if trace else None}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest integer percentile with at least ten samples beyond it."""
    p = math.floor(100 * (1 - 10 / len(values)))
    if p <= 0:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": None,
        "git_dirty": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    import numpy
    import scipy

    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True, timeout=30)
        if head.returncode == 0 and status.returncode == 0:
            info["git_commit"] = head.stdout.strip()
            info["git_dirty"] = bool(status.stdout.strip())
    return info


def summarize(workload: str, seed: int, trace: bool, size: str, result: dict) -> tuple[dict, dict]:
    samples = result["samples"]
    failed = sum(1 for s in samples if s["problems"])
    good = [s for s in samples if not s["problems"]] or samples
    timed = [s for s in good if not s["traced"]] or good
    walls = [s["wall_s"] for s in timed]
    wall = statistics.median(walls)
    if trace:
        traced_walls = [s["wall_s"] for s in good if s["traced"]] or walls
        values = {"trace.overhead_s": statistics.median(traced_walls) - wall}
        for key in result["layers"][0]:
            # counts repeat exactly; the low median keeps them whole numbers
            exact = isinstance(result["layers"][0][key], int)
            median = statistics.median_low if exact else statistics.median
            values[key] = median(row[key] for row in result["layers"])
    else:
        values = {
            "wall_s": wall,
            "particle_steps_per_s": statistics.median(s["particle_steps"] for s in timed) / wall,
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    declared = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    line = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "size": size,
        "machine": machine_info(),
        "result": line,
        "failed_frac": failed / len(samples),
        "wall_s_samples": len(walls),
        "wall_s_high_percentile": high_percentile(walls),
        "setup_s_samples": result["setup_s"],
        "samples": samples,
    }
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long experiments for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    trace = bool(args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, trace, args.size)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    line, record = summarize(args.workload, args.seed, trace, args.size, result)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if result["tracer"] is not None:
        result["tracer"].write_csv(results / f"{stem}.spans.csv")

    machine = record["machine"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, size {args.size}")
    print(f"machine: {machine['nproc']} cpus, {machine['cpu_model']}, caches {machine['caches']}; "
          f"python {machine['python']}, numpy {machine['numpy']}, scipy {machine['scipy']}; "
          f"commit {machine['git_commit']} dirty {machine['git_dirty']}")
    high = record["wall_s_high_percentile"]
    print(f"experiments: {line['attempted']} attempted, {line['failed']} failed, "
          f"failed_frac = {record['failed_frac']!r}; wall_s over n = {record['wall_s_samples']} samples, "
          + (f"p{high[0]} = {high[1]!r} s" if high else "no percentile has 10 samples beyond it"))
    for sample in record["samples"]:
        for problem in sample["problems"]:
            print(f"FAILED seed {sample['seed']}: {problem}")
    for name, entry in line["metrics"].items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
