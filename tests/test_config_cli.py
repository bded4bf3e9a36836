import errno
import math
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mvsde import cli, solver
from mvsde.cli import (
    _CSV_BLOCK_ROWS,
    EXIT_ANALYSIS,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_GATE,
    EXIT_OK,
    _csv,
    _fmt,
    _trajectory_csv,
    main,
)
from mvsde.config import KEYS, REQUIRED, ConfigError, load_config, parse_config_text
from mvsde.models import MODELS, ModelError, make_model
from mvsde.paths import coarsen

from conftest import stacked

ROOT = Path(__file__).resolve().parent.parent

RUN_CFG = """\
# smoke configuration
experiment.kind = run
model.id = mf-ou
model.theta = 1.0
model.alpha = 0.5
model.s = 0.4
sim.d = 1
sim.N = 32
sim.T = 1.0
sim.seed = 7
sim.level = 4
sim.record_level = 2
init.law = point
init.x0 = 1.0
"""

RATE_CFG = """\
model.id = mf-ou
sim.N = 64
sim.T = 1.0
sim.seed = 3
sim.levels = 1 2 3
sim.finest = 7
init.law = gaussian
init.mean = 0.0
init.cov = 1.0
"""

# initial laws the solver would reject: (law, extra lines, the key to name)
BAD_INIT = [
    pytest.param("gaussian", "init.cov = -1", "init.cov", id="negative-cov"),
    pytest.param("gaussian", "sim.d = 2\ninit.cov = 1 2 3", "init.cov", id="cov-length"),
    pytest.param("gaussian", "sim.d = 2\ninit.mean = 1 2 3", "init.mean", id="mean-length"),
    pytest.param("point", "sim.d = 2\ninit.x0 = 1 2 3", "init.x0", id="x0-length"),
    pytest.param("uniform", "init.lo = 1\ninit.hi = 0", "init.lo", id="lo-above-hi"),
    pytest.param("uniform", "sim.d = 2\ninit.lo = 0 1\ninit.hi = 1", "init.lo", id="lo-above-hi-2d"),
]


def _bad_init_text(law: str, lines: str) -> str:
    return f"model.id = mf-ou\nsim.N = 4\nsim.level = 3\ninit.law = {law}\n{lines}\n"


def _write(tmp_path: Path, text: str, name: str = "exp.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def _patch_writes(monkeypatch, fail_at=None, fail_in=None):
    """Route every file ``cli`` opens through a wrapper that records the rows
    of each write and raises ENOSPC on write number ``fail_at`` (from 1), or
    on every write to a file whose name contains ``fail_in``; returns the
    list of rows per write."""
    rows_per_write = []

    class RecordingFile:
        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)
            self.full = fail_in is not None and fail_in in Path(args[0]).name

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if self.full or len(rows_per_write) + 1 == fail_at:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            rows_per_write.append(text.count("\n"))
            return self.fh.write(text)

    monkeypatch.setattr(cli, "open", RecordingFile, raising=False)
    return rows_per_write


# x' = 30 x from N(0, 4): seed 5's four particles stay below the blow-up limit
# at t = 1, seed 6's do not, at level 4's last step
BLOWUP_AT_LAST_STEP_CFG = (
    "model.id = mf-ou\nmodel.theta = -30\nmodel.alpha = 0\nmodel.s = 0\n"
    "sim.N = 4\nsim.level = 4\nsim.seed = 5\ninit.law = gaussian\ninit.cov = 4\n"
)


class TestConfigParsing:
    def test_comments_and_blanks(self):
        table = parse_config_text("# note\n\nmodel.id = mf-ou  # trailing\n")
        assert table["model.id"] == (3, "mf-ou")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("model.id mf-ou")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("sim.N = 1\nsim.N = 2\n")

    def test_unknown_key_reports_line(self, tmp_path):
        path = _write(tmp_path, RUN_CFG + "sim.bogus = 1\n")
        with pytest.raises(ConfigError, match="sim.bogus"):
            load_config(path, "run")

    def test_unknown_model_parameter(self, tmp_path):
        path = _write(tmp_path, RUN_CFG + "model.zeta = 1\n")
        with pytest.raises(ConfigError, match="zeta"):
            load_config(path, "run")

    def test_kind_mismatch(self, tmp_path):
        path = _write(tmp_path, RUN_CFG)
        with pytest.raises(ConfigError, match="experiment.kind"):
            load_config(path, "rate")

    def test_rate_requires_reference_margin(self, tmp_path):
        bad = RATE_CFG.replace("sim.finest = 7", "sim.finest = 5")
        with pytest.raises(ConfigError, match="finest - 4"):
            load_config(_write(tmp_path, bad), "rate")

    def test_levels_must_increase(self, tmp_path):
        bad = RATE_CFG.replace("sim.levels = 1 2 3", "sim.levels = 3 2 1")
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(_write(tmp_path, bad), "rate")

    def test_rate_needs_enough_levels_to_fit(self, tmp_path):
        bad = RATE_CFG.replace("sim.levels = 1 2 3", "sim.levels = 2 3")
        with pytest.raises(ConfigError, match="sim.levels"):
            load_config(_write(tmp_path, bad), "rate")

    def test_fixed_dim_model(self, tmp_path):
        bad = RUN_CFG.replace("model.id = mf-ou", "model.id = osgood").replace(
            "sim.d = 1", "sim.d = 2"
        )
        bad = "\n".join(l for l in bad.splitlines() if not l.startswith(("model.theta", "model.alpha", "model.s")))
        with pytest.raises(ConfigError, match="1-dimensional"):
            load_config(_write(tmp_path, bad), "run")

    def test_seed_override(self, tmp_path):
        cfg = load_config(_write(tmp_path, RUN_CFG), "run", seed_override=99)
        assert cfg.seed == 99
        assert load_config(_write(tmp_path, RUN_CFG), "run", seed_override=2**64 - 1).seed == 2**64 - 1

    def test_negative_seed_override_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nonnegative"):
            load_config(_write(tmp_path, RUN_CFG), "run", seed_override=-1)

    @pytest.mark.parametrize("law, lines, key", BAD_INIT)
    def test_initial_law_checked_at_load_time(self, tmp_path, law, lines, key):
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            load_config(_write(tmp_path, _bad_init_text(law, lines)), "run")

    def test_initial_law_vectors_of_length_d_accepted(self, tmp_path):
        text = _bad_init_text("uniform", "sim.d = 2\ninit.lo = -1 0\ninit.hi = 1")
        assert load_config(_write(tmp_path, text), "run").law.mean(2).tolist() == [0.0, 0.5]

    def test_levels_accept_commas(self, tmp_path):
        text = RATE_CFG.replace("sim.levels = 1 2 3", "sim.levels = 1,2,3")
        cfg = load_config(_write(tmp_path, text), "rate")
        assert cfg.levels == (1, 2, 3)

    def test_seed_b_defaults_to_seed_plus_one(self, tmp_path):
        path = _write(tmp_path, RUN_CFG.replace("experiment.kind = run\n", ""))
        assert load_config(path, "metric").seed_b == 8
        assert load_config(path, "metric", seed_override=20).seed_b == 21
        explicit = _write(tmp_path, RUN_CFG.replace("experiment.kind = run\n", "metric.seed_b = 3\n"), "b.cfg")
        assert load_config(explicit, "metric", seed_override=20).seed_b == 3

    @pytest.mark.parametrize("model_id", sorted(MODELS))
    def test_config_and_make_model_agree_on_the_catalog(self, tmp_path, model_id):
        _, names, pinned = MODELS[model_id]
        dim = pinned or 2
        params = {name: 0.1 for name in sorted(names)}
        text = f"model.id = {model_id}\nsim.N = 4\nsim.level = 2\nsim.d = {dim}\n"
        text += "".join(f"model.{name} = {value}\n" for name, value in params.items())
        cfg = load_config(_write(tmp_path, text), "run")
        assert cfg.model_params == params
        model = make_model(model_id, dim=cfg.dim, params=cfg.model_params)
        assert (model.model_id, model.dim, model.parameters) == (model_id, dim, params)

        unknown = text + "model.zeta = 1\n"
        lineno = len(unknown.splitlines())
        with pytest.raises(ConfigError, match=f"line {lineno}: model '{model_id}' has no parameter 'zeta'"):
            load_config(_write(tmp_path, unknown, "unknown.cfg"), "run")
        with pytest.raises(ModelError, match="zeta"):
            make_model(model_id, dim=dim, params={**params, "zeta": 1.0})

        if pinned is not None:
            wrong = text.replace(f"sim.d = {dim}", f"sim.d = {pinned + 1}")
            with pytest.raises(ConfigError, match=f"{pinned}-dimensional"):
                load_config(_write(tmp_path, wrong, "wrong.cfg"), "run")
            with pytest.raises(ModelError, match=f"{pinned}-dimensional"):
                make_model(model_id, dim=pinned + 1, params=params)

    def test_readme_key_table_matches_keys(self):
        section = (ROOT / "README.md").read_text().split("### Config format", 1)[1].split("\n## ", 1)[0]
        rows = dict(re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, flags=re.M))
        assert sorted(rows) == sorted([*KEYS, "model.<param>"])
        for key, (_, _, default) in KEYS.items():
            if default is REQUIRED:
                assert rows[key] == "required", key
            elif default is not None:
                assert rows[key] == f"`{_fmt(default)}`", key


class TestCliRun:
    def test_constant_columns_for_zero_model(self, tmp_path, capsys):
        text = (
            "model.id = mf-ou\nmodel.theta = 0\nmodel.alpha = 0\nmodel.s = 0\n"
            "sim.N = 4\nsim.level = 3\ninit.law = point\ninit.x0 = 2.5\n"
        )
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        lines = (out / "trajectories.csv").read_text().splitlines()
        values = {line.split(",")[3] for line in lines[1:]}
        assert values == {"2.5"}

    def test_rerun_is_byte_identical(self, tmp_path):
        path = _write(tmp_path, RUN_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(path), "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "--config", str(path), "--out", str(out_b)]) == EXIT_OK
        for name in ("trajectories.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_mean_decay_matches_oracle(self, tmp_path):
        # point mass at 1: empirical mean decays like exp((alpha - theta) t)
        text = RUN_CFG.replace("sim.N = 32", "sim.N = 4000").replace("sim.level = 4", "sim.level = 8")
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summary = dict(
            line.split(" = ") for line in (out / "summary.txt").read_text().splitlines()
        )
        assert float(summary["mean_decay_rate"]) == pytest.approx(-0.5, abs=0.1)

    def test_csv_floats_round_trip(self, tmp_path):
        path = _write(tmp_path, RUN_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        lines = (out / "trajectories.csv").read_text().splitlines()[1:]
        import mvsde

        model = mvsde.mf_ou(theta=1.0, alpha=0.5, s=0.4)
        times, states = stacked(mvsde.run_single(model, mvsde.PointMass(1.0), seed=7, level=4,
                                                 n_particles=32, horizon=1.0, record_level=2))
        for line in lines[:50]:
            t, p, k, v = line.split(",")
            j = int(np.nonzero(times == float(t))[0][0])
            assert float(v) == states[j, int(p), int(k)]

    def test_recorded_trajectories_above_memory_limit(self, tmp_path, monkeypatch, capsys):
        # 2^24 + 1 recorded states of 64 particles would take 8.6 GB; the
        # refusal comes before any lattice is drawn
        def no_draw(*args):
            raise AssertionError("lattice drawn")

        monkeypatch.setattr(solver, "sample_lattice", no_draw)
        text = "model.id = mf-ou\nsim.N = 64\nsim.level = 24\n"
        out = tmp_path / "o"
        assert main(["run", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_CONFIG
        assert "memory limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("before", ["new", "unrelated-file", "earlier-run"])
    def test_blowup_after_rows_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys, before):
        # seed 6 blows up at level 4's last step, after 16 record rows were
        # handed to the writer; the partial trajectories.csv is removed, and
        # with it the output directory if the run made it
        path = _write(tmp_path, BLOWUP_AT_LAST_STEP_CFG)
        out = tmp_path / "o"
        if before == "unrelated-file":
            out.mkdir()
            (out / "notes.txt").write_text("kept\n")
        elif before == "earlier-run":
            assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        kept = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        rows_per_write = _patch_writes(monkeypatch)
        assert main(["run", "--config", str(path), "--out", str(out), "--seed", "6"]) == EXIT_BLOWUP
        assert "numeric blow-up: blow-up at level 4, step 15 (t=1)" in capsys.readouterr().err
        assert sum(rows_per_write) == 1 + 16 * 4
        if kept is None:
            assert not out.exists()
        else:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == kept

    @pytest.mark.parametrize("before", ["new", "earlier-run"])
    def test_write_error_is_config_error_and_leaves_no_file(self, tmp_path, monkeypatch, capsys, before):
        # the disk fills on the second write, after the header: a config
        # error naming the file, with no partial trajectories.csv left behind
        path = _write(tmp_path, RUN_CFG)
        out = tmp_path / "o"
        if before == "earlier-run":
            assert main(["run", "--config", str(path), "--out", str(out), "--seed", "8"]) == EXIT_OK
        kept = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        _patch_writes(monkeypatch, fail_at=2)
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: cannot write output {out / 'trajectories.csv'}: " in err
        assert os.strerror(errno.ENOSPC) in err
        if kept is None:
            assert not out.exists()
        else:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == kept

    def test_failure_in_the_last_file_leaves_an_earlier_run_as_it_was(self, tmp_path, monkeypatch, capsys):
        # the disk fills while seed 2's summary.txt is written, after its
        # trajectories.csv is complete: the files are moved together after
        # the last one, so none of seed 2's replaces one of seed 1's
        path = _write(tmp_path, RUN_CFG)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out), "--seed", "1"]) == EXIT_OK
        kept = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(kept) == {"trajectories.csv", "summary.txt"}
        _patch_writes(monkeypatch, fail_in="summary.txt")
        assert main(["run", "--config", str(path), "--out", str(out), "--seed", "2"]) == EXIT_CONFIG
        assert f"config error: cannot write output {out / 'summary.txt'}: " in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == kept

    @pytest.mark.parametrize("dim", [2, 3])
    def test_summary_matches_trajectory_mean_formula(self, tmp_path, dim):
        # the streamed per-row means give the floats of the collected
        # trajectory's states.mean(axis=1), at every dimension
        text = RUN_CFG.replace("sim.d = 1", f"sim.d = {dim}").replace("sim.N = 32", "sim.N = 1000")
        text = text.replace("init.law = point\ninit.x0 = 1.0", "init.law = gaussian\ninit.mean = 1.0")
        out = tmp_path / "out"
        assert main(["run", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_OK
        summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
        import mvsde

        model = mvsde.mf_ou(theta=1.0, alpha=0.5, s=0.4, dim=dim)
        times, states = stacked(mvsde.run_single(model, mvsde.GaussianLaw(1.0, 1.0), seed=7, level=4,
                                                 n_particles=1000, horizon=1.0, record_level=2))
        mean_norms = np.linalg.norm(states.mean(axis=1), axis=1)
        decay, _ = np.polyfit(times, np.log(mean_norms), 1)
        assert summary["final_mean_norm"] == repr(float(mean_norms[-1]))
        assert summary["mean_decay_rate"] == repr(float(decay))

    def test_run_holds_one_block_not_its_trajectory(self, tmp_path):
        # N = 64 at level 12, every point recorded: 2.1 MB of states, drawn
        # in 8 blocks of 0.26 MB.  The rows are written as they are stepped,
        # so the trajectory is never held
        text = "model.id = mf-ou\nsim.N = 64\nsim.level = {}\ninit.law = point\ninit.x0 = 1.0\n"
        # a small run first, so lazy imports are not counted
        small = _write(tmp_path, text.format(2), "small.cfg")
        assert main(["run", "--config", str(small), "--out", str(tmp_path / "small")]) == EXIT_OK
        path = _write(tmp_path, text.format(12))
        trajectory = ((1 << 12) + 1) * 64 * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak - before < trajectory / 2


class TestCliRate:
    def test_writes_rate_csv_and_summary(self, tmp_path):
        path = _write(tmp_path, RATE_CFG)
        out = tmp_path / "out"
        assert main(["rate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        lines = (out / "rate.csv").read_text().splitlines()
        assert lines[0] == "level,error,stderr"
        assert len(lines) == 4
        assert (out / "rate.gp").exists()
        summary = (out / "summary.txt").read_text()
        assert "slope = " in summary

    def test_gate_failure_exit_code(self, tmp_path):
        # an impossible slope window forces exit 4
        text = RATE_CFG + "gate.slope_min = -0.01\ngate.slope_max = 0.0\n"
        path = _write(tmp_path, text)
        code = main(["rate", "--config", str(path), "--out", str(tmp_path / "g"), "--gate"])
        assert code == EXIT_GATE

    def test_gate_failure_keeps_its_outputs(self, tmp_path):
        # the files are moved into place before the gate fails
        text = RATE_CFG + "gate.slope_min = -0.01\ngate.slope_max = 0.0\n"
        out = tmp_path / "g"
        assert main(["rate", "--config", str(_write(tmp_path, text)), "--out", str(out), "--gate"]) == EXIT_GATE
        assert sorted(p.name for p in out.iterdir()) == ["rate.csv", "rate.gp", "summary.txt"]
        assert "gate = fail\n" in (out / "summary.txt").read_text()

    def test_failed_move_is_config_error_and_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        # the second of the three moves fails: rate.csv is already in place and
        # stays (a failure during the moves can leave a mix), and the
        # temporary files of rate.gp and summary.txt are removed
        out = tmp_path / "r"
        replace, moves = os.replace, []

        def second_fails(src, dst):
            moves.append(Path(dst).name)
            if len(moves) == 2:
                raise OSError(errno.EACCES, os.strerror(errno.EACCES))
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", second_fails)
        assert main(["rate", "--config", str(_write(tmp_path, RATE_CFG)), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: cannot write output {out / 'rate.gp'}: " in capsys.readouterr().err
        assert moves == ["rate.csv", "rate.gp"]
        assert [p.name for p in out.iterdir()] == ["rate.csv"]

    @pytest.mark.parametrize(
        "lines, missing",
        [
            ("", "'gate.slope_min', 'gate.slope_max'"),
            ("gate.slope_max = -0.5\n", "'gate.slope_min'"),
            ("gate.slope_min = -3.0\n", "'gate.slope_max'"),
        ],
        ids=["both", "min", "max"],
    )
    def test_gate_without_slope_window_is_config_error(self, tmp_path, capsys, lines, missing):
        # the window has no default; without --gate it is not needed
        path = _write(tmp_path, RATE_CFG + lines)
        out = tmp_path / "g"
        assert main(["rate", "--config", str(path), "--out", str(out), "--gate"]) == EXIT_CONFIG
        assert f"rate --gate requires the slope window; missing {missing}" in capsys.readouterr().err
        assert not out.exists()
        assert main(["rate", "--config", str(path), "--out", str(out)]) == EXIT_OK


class TestCliMomentsMetricCheck:
    def test_moments_with_oracle_gate(self, tmp_path):
        text = (
            "model.id = mf-ou\nsim.N = 2000\nsim.level = 8\nsim.record_level = 4\n"
            "moments.p = 1\ninit.law = point\ninit.x0 = 0.0\n"
        )
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["moments", "--config", str(path), "--out", str(out), "--gate"]) == EXIT_OK
        header = (out / "moments.csv").read_text().splitlines()[0]
        assert header == "time,moment,stderr,envelope,oracle"

    def test_moments_without_oracle(self, tmp_path):
        # only mf-ou has a closed-form moment curve
        text = (
            "model.id = osgood\nsim.N = 64\nsim.level = 4\n"
            "moments.p = 1\ninit.law = point\ninit.x0 = 0.5\n"
        )
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["moments", "--config", str(path), "--out", str(out)]) == EXIT_OK
        header = (out / "moments.csv").read_text().splitlines()[0]
        assert header == "time,moment,stderr,envelope"
        assert "oracle" not in (out / "summary.txt").read_text()

    @pytest.mark.parametrize(
        "lines, flags, source",
        [
            ("sim.seed = 5\nmetric.seed_b = 5\n", [], "sim.seed"),
            ("sim.seed = 11\nmetric.seed_b = 12\n", ["--seed", "12"], "--seed"),
        ],
        ids=["sim.seed", "flag"],
    )
    def test_metric_seed_b_equal_to_the_seed_is_config_error(self, tmp_path, capsys, lines, flags, source):
        # both runs would be one ensemble, whose law gap reads zero
        path = _write(tmp_path, f"model.id = mf-ou\nsim.N = 64\nsim.level = 4\n{lines}")
        out = tmp_path / "out"
        assert main(["metric", "--config", str(path), "--out", str(out), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"metric.seed_b must differ from {source}" in err
        assert not out.exists()

    def test_metric_holds_one_trajectory_and_one_block(self, tmp_path):
        # N = 2,000 at level 7: a 2.06 MB trajectory and a 2.05 MB block,
        # which here is the whole path.  The law-gap curve steps both seeds
        # row by row, so one block each is held, not two trajectories
        path = _write(tmp_path, "model.id = mf-ou\nsim.N = 2000\nsim.level = 7\ninit.law = gaussian\n")
        trajectory, block = 129 * 2000 * 8, 128 * 2000 * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            code = main(["metric", "--config", str(path), "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak - before < 1.5 * (trajectory + block)

    def test_lockstep_metric_holds_two_blocks(self, tmp_path):
        # N = 1,000 at level 10: each seed's 8.2 MB trajectory is two 4.1 MB
        # blocks.  The law-gap curve steps both seeds row by row, so one
        # block each is held, not a trajectory and a block
        text = "model.id = mf-ou\nsim.N = 1000\nsim.level = {}\ninit.law = gaussian\n"
        # a small run first, so lazy imports are not counted
        small = _write(tmp_path, text.format(2), "small.cfg")
        assert main(["metric", "--config", str(small), "--out", str(tmp_path / "small")]) == EXIT_OK
        path = _write(tmp_path, text.format(10))
        block = 2**9 * 1000 * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            code = main(["metric", "--config", str(path), "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak - before < 2.5 * block

    def test_metric_seed_b_blowup_exit_code(self, tmp_path, capsys):
        path = _write(tmp_path, BLOWUP_AT_LAST_STEP_CFG)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == EXIT_OK
        out = tmp_path / "o"
        assert main(["metric", "--config", str(path), "--out", str(out)]) == EXIT_BLOWUP
        assert "numeric blow-up: blow-up at level 4, step 15 (t=1)" in capsys.readouterr().err
        assert not out.exists()

    def test_metric_reports_the_first_blowup_in_row_order(self, tmp_path, capsys):
        # x' = 30 x from N(0, 10^4): seed 2 blows up at step 13, seed 3 at
        # step 12.  The seeds are stepped row by row, so seed b's blow-up,
        # the first in record-row order, is the one reported
        text = BLOWUP_AT_LAST_STEP_CFG.replace("sim.seed = 5", "sim.seed = 2\nmetric.seed_b = 3")
        text = text.replace("init.cov = 4", "init.cov = 1e4")
        for seed, step in ((2, 13), (3, 12)):
            out = tmp_path / f"run{seed}"
            assert main(["run", "--config", str(_write(tmp_path, text)), "--out", str(out),
                         "--seed", str(seed)]) == EXIT_BLOWUP
            assert f"blow-up at level 4, step {step} " in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["metric", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_BLOWUP
        assert "numeric blow-up: blow-up at level 4, step 12 " in capsys.readouterr().err
        assert not out.exists()

    def test_metric_checks_seed_b_before_it_simulates_seed_a(self, tmp_path, monkeypatch, capsys):
        # with a standard deviation of 1e8, seed 1 draws its one particle at
        # -0.62e8 and seed 0 at -1.72e8, beyond the blow-up limit: seed b's
        # initial draw is refused before any lattice is drawn for seed a
        def no_draw(*args, **kwargs):
            raise AssertionError("lattice drawn")

        monkeypatch.setattr(solver, "sample_lattice", no_draw)
        text = ("model.id = mf-ou\nsim.N = 1\nsim.level = 2\nsim.seed = 1\nmetric.seed_b = 0\n"
                "init.law = gaussian\ninit.cov = 1e16\n")
        out = tmp_path / "o"
        assert main(["metric", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_CONFIG
        assert "initial law drew particle 0" in capsys.readouterr().err
        assert not out.exists()

    def test_check_passes_catalog_model(self, tmp_path):
        text = "model.id = mf-ou\nsim.N = 1\nsim.level = 0\n"
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["check", "--config", str(path), "--out", str(out), "--gate"]) == EXIT_OK
        body = (out / "check.csv").read_text()
        assert "linear_growth,true" in body
        assert "h2prime,true" in body

    def test_check_flags_quadratic_fixture(self, tmp_path):
        text = "model.id = x2-fixture\nsim.N = 1\nsim.level = 0\n"
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        code = main(["check", "--config", str(path), "--out", str(out), "--gate"])
        assert code == EXIT_GATE
        summary = (out / "summary.txt").read_text()
        assert "linear_growth.passed = false" in summary
        assert "scale ladder" in summary

    @pytest.mark.parametrize("dim", [16385, 10**6])
    def test_check_diffusion_matrix_above_memory_limit(self, tmp_path, monkeypatch, capsys, dim):
        # a (d, d) float64 sigma above 2^31 bytes is refused before any sample
        def no_sample(*args, **kwargs):
            raise AssertionError("assumption check sampled")

        monkeypatch.setattr(cli.models, "check_linear_growth", no_sample)
        text = f"model.id = mf-ou\nsim.N = 1\nsim.level = 0\nsim.d = {dim}\n"
        out = tmp_path / "out"
        assert main(["check", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"sim.d = {dim}" in err and "memory limit of 2147483648 bytes" in err
        assert not out.exists()


class TestCliSelftestAndCodes:
    def test_selftest_synthetic_slope(self, tmp_path, capsys):
        out = tmp_path / "self"
        assert main(["selftest", "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "synthetic_slope = -1.0" in summary
        assert "check.synthetic_slope = pass" in summary
        assert (out / "rate.csv").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG

    def test_numeric_analysis_failure_is_not_a_config_error(self, tmp_path, capsys):
        # a valid config whose levels all coincide: zero errors cannot be fitted
        text = RATE_CFG + "model.theta = 0\nmodel.alpha = 0\nmodel.s = 0\n"
        out = tmp_path / "o"
        assert main(["rate", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_ANALYSIS
        err = capsys.readouterr().err
        assert "analysis error: errors must be positive and finite" in err
        assert "config error" not in err
        assert not out.exists()

    def test_value_error_from_a_bug_is_not_a_config_error(self, tmp_path, monkeypatch, capsys):
        # a ValueError raised after the config was checked, as a tuple
        # unpacking bug in the analysis would raise it: a traceback, not exit 2
        def buggy(rows, reference):
            raise ValueError("too many values to unpack (expected 2)")

        monkeypatch.setattr(cli.analysis, "strong_error", buggy)
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="too many values to unpack"):
            main(["rate", "--config", str(_write(tmp_path, RATE_CFG)), "--out", str(out)])
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, text",
        [
            pytest.param("rate", RATE_CFG, id="rate-em_multilevel"),
            pytest.param("moments", "model.id = mf-ou\nsim.N = 16\nsim.level = 4\n", id="moments-run_single"),
        ],
    )
    def test_value_error_mid_simulation_is_not_a_config_error(self, tmp_path, monkeypatch, capsys, kind, text):
        # every driver check has passed and the run is stepping: a ValueError
        # from the block loop, as a shape bug in coarsening would raise it, is
        # a traceback, not exit 2, and leaves no output directory
        calls = []

        def buggy(increments, halvings):
            calls.append(halvings)
            if len(calls) == 4:
                raise ValueError("operands could not be broadcast together")
            return coarsen(increments, halvings)

        monkeypatch.setattr(solver, "coarsen", buggy)
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="operands could not be broadcast"):
            main([kind, "--config", str(_write(tmp_path, text)), "--out", str(out)])
        assert len(calls) == 4
        assert "config error" not in capsys.readouterr().err
        assert not out.exists()

    def test_model_error_after_make_model_is_not_a_config_error(self, tmp_path, monkeypatch, capsys):
        # only make_model's ModelError is a config value; one from an
        # assumption checker, once the model is built, is a bug
        def buggy(model, seed):
            raise ModelError("modulus argument must be nonnegative")

        monkeypatch.setattr(cli.models, "check_h2prime", buggy)
        text = "model.id = mf-ou\nsim.N = 1\nsim.level = 0\n"
        out = tmp_path / "o"
        with pytest.raises(ModelError, match="modulus argument"):
            main(["check", "--config", str(_write(tmp_path, text)), "--out", str(out)])
        assert "config error" not in capsys.readouterr().err
        assert not out.exists()

    def test_blowup_exit_code(self, tmp_path, capsys):
        text = (
            "model.id = osgood\nmodel.c = 100.0\nsim.N = 4\nsim.T = 8.0\n"
            "sim.level = 3\ninit.law = point\ninit.x0 = 1.0\n"
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_BLOWUP
        assert "blow-up" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            pytest.param("model.id = osgood\nmodel.eta = 0.5\nsim.level = 3\n", "eta", id="model-parameter"),
            pytest.param("model.id = mf-ou\nsim.level = 31\n", "level limit", id="lattice-level"),
        ],
    )
    def test_refused_run_makes_no_output_directory(self, tmp_path, capsys, lines, message):
        # refused by the model's parameters or the config's lattice level
        out = tmp_path / "o"
        code = main(["run", "--config", str(_write(tmp_path, lines + "sim.N = 4\n")), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_stream_positions_above_memory_limit_exit_2(self, tmp_path, capsys, monkeypatch):
        # level 0, N = 1000: 8,000 bytes of lattice and 16,000 of states fit
        # in 20,000 bytes, 72,000 bytes of stream positions do not
        monkeypatch.setattr(solver, "DEFAULT_MEMORY_CAP", 20_000)
        text = "model.id = mf-ou\nsim.N = 1000\nsim.level = 0\n"
        code = main(["run", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "stream positions would need 72000 bytes, above the memory limit of 20000 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, lines, key",
        [
            pytest.param("run", "sim.level = 31\n", "sim.level", id="run-level"),
            pytest.param("run", "sim.level = 3\nsim.finest = 31\n", "sim.finest", id="run-finest"),
            pytest.param("rate", "sim.levels = 1 2 3\nsim.finest = 40\n", "sim.finest", id="rate-finest"),
            pytest.param("rate", "sim.levels = 3 4 31\nsim.finest = 35\n", "sim.levels", id="rate-levels"),
        ],
    )
    def test_lattice_level_above_limit_names_the_key(self, tmp_path, capsys, kind, lines, key):
        text = f"model.id = mf-ou\nsim.N = 4\n{lines}"
        out = tmp_path / "o"
        assert main([kind, "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "level limit 30" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e9", "1e200"])
    @pytest.mark.parametrize(
        "law, key, sign",
        [("point", "init.x0", ""), ("gaussian", "init.mean", ""), ("uniform", "init.lo", "-"), ("uniform", "init.hi", "")],
    )
    def test_initial_location_beyond_blowup_limit(self, tmp_path, capsys, law, key, sign, value):
        # rejected where the config is read: not a step-0 blow-up (exit 3),
        # and no overflow warnings from the law's mass norm
        text = f"model.id = mf-ou\nsim.N = 4\nsim.level = 3\ninit.law = {law}\n{key} = {sign}{value}\n"
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(_write(tmp_path, text)), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"key '{key}'" in err and "blow-up limit" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("value", ["1e20", "1e300"])
    def test_initial_covariance_beyond_blowup_limit(self, tmp_path, capsys, value):
        # a standard deviation beyond the blow-up limit is a config error
        # (exit 2), not a step-0 blow-up of a sampled particle (exit 3)
        text = f"model.id = mf-ou\nsim.N = 4\nsim.level = 3\ninit.law = gaussian\ninit.cov = {value}\n"
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(_write(tmp_path, text)), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "line 5: key 'init.cov'" in err and "blow-up limit" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_sampled_initial_state_beyond_blowup_limit(self, tmp_path, capsys):
        # init.cov = 1e16 passes the key's bound, but a standard deviation of
        # 1e8 puts sampled particles beyond the limit: the law, not the
        # scheme, is at fault, so this is exit 2 and not a step-0 blow-up
        text = "model.id = mf-ou\nsim.N = 4\nsim.level = 3\ninit.law = gaussian\ninit.cov = 1e16\n"
        code = main(["run", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config error: initial law drew particle" in err and "blow-up limit" in err

    @pytest.mark.parametrize("law, lines, key", BAD_INIT)
    def test_initial_law_rejected_before_output(self, tmp_path, capsys, law, lines, key):
        # the solver would reject these laws later, without naming a key and
        # after the output directory exists
        out = tmp_path / "o"
        code = main(["run", "--config", str(_write(tmp_path, _bad_init_text(law, lines))), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MVSDE_OUT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path, RUN_CFG)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert (tmp_path / "root" / "run" / "trajectories.csv").exists()

    def test_seed_flag_changes_output(self, tmp_path):
        path = _write(tmp_path, RUN_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(path), "--out", str(out_a)])
        main(["run", "--config", str(path), "--out", str(out_b), "--seed", "8"])
        assert (out_a / "trajectories.csv").read_bytes() != (out_b / "trajectories.csv").read_bytes()

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        path = _write(tmp_path, RUN_CFG)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
        assert "--seed must be nonnegative" in capsys.readouterr().err
        assert not (out / "trajectories.csv").exists()

    @pytest.mark.parametrize(
        "kind, lines, flags, key",
        [
            ("metric", "metric.seed_b = -1\n", [], "metric.seed_b"),
            ("run", f"sim.seed = {2**64}\n", [], "sim.seed"),
            ("run", "", ["--seed", str(2**64)], "--seed"),
            # the default metric.seed_b is the seed plus one
            ("metric", f"sim.seed = {2**64 - 1}\n", [], "metric.seed_b"),
        ],
        ids=["negative-seed_b", "sim.seed-2^64", "flag-2^64", "default-seed_b-2^64"],
    )
    def test_seed_outside_64_bits_is_config_error(self, tmp_path, capsys, kind, lines, flags, key):
        # the streams key on the seed mod 2^64, so 2^64 would replay seed 0
        text = RUN_CFG.replace("experiment.kind = run\n", "").replace("sim.seed = 7\n", lines)
        out = tmp_path / "o"
        assert main([kind, "--config", str(_write(tmp_path, text)), "--out", str(out), *flags]) == EXIT_CONFIG
        assert f"config error: {key} must be nonnegative and below 2^64" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_config_error(self, tmp_path, capsys, threads):
        path, out = _write(tmp_path, RUN_CFG), tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out), "--threads", threads]) == EXIT_CONFIG
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_nested_experiment_keeps_its_own_outputs(self, tmp_path, monkeypatch, capsys):
        # an experiment run inside another one's analysis moves its own files
        # into place when it ends, and the outer one's failure leaves them
        other, out = tmp_path / "other", tmp_path / "o"

        def nested_then_fail(*args):
            assert main(["selftest", "--out", str(other)]) == EXIT_OK
            raise cli.analysis.AnalysisError("outer analysis failed")

        monkeypatch.setattr(cli.analysis, "strong_error", nested_then_fail)
        assert main(["rate", "--config", str(_write(tmp_path, RATE_CFG)), "--out", str(out)]) == EXIT_ANALYSIS
        captured = capsys.readouterr()
        assert f"selftest pass ({other})" in captured.out
        assert "analysis error: outer analysis failed" in captured.err
        assert sorted(p.name for p in other.iterdir()) == ["rate.csv", "summary.txt"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "selftest"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, command):
        # --out names an existing regular file, so no directory can be made there
        out = tmp_path / "taken"
        out.write_text("")
        config = [] if command == "selftest" else ["--config", str(_write(tmp_path, RUN_CFG))]
        assert main([command, *config, "--out", str(out)]) == EXIT_CONFIG
        assert "config error: cannot write output" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_threads_never_change_bytes(self, tmp_path):
        path = _write(tmp_path, RUN_CFG)
        outs = []
        for threads in (1, 4, 8):
            out = tmp_path / f"t{threads}"
            assert main(["run", "--config", str(path), "--out", str(out), "--threads", str(threads)]) == EXIT_OK
            outs.append((out / "trajectories.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]


def _write_csv_per_value(path, header, rows):
    # the row-by-row writer the columnar one replaced, kept as the reference
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _run_csv(tmp_path, n, dim, level):
    """trajectories.csv of a fully recorded `run` and the per-value writer's
    bytes for the same trajectories."""
    text = RUN_CFG.replace("sim.d = 1", f"sim.d = {dim}").replace("sim.N = 32", f"sim.N = {n}")
    text = text.replace("sim.level = 4", f"sim.level = {level}").replace("sim.record_level = 2\n", "")
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_OK
    import mvsde

    model = mvsde.mf_ou(theta=1.0, alpha=0.5, s=0.4, dim=dim)
    times, states = stacked(mvsde.run_single(model, mvsde.PointMass(1.0), seed=7, level=level, n_particles=n,
                                             horizon=1.0))
    rows = (
        (times[j], p, k, states[j, p, k])
        for j in range(times.shape[0])
        for p in range(n)
        for k in range(dim)
    )
    _write_csv_per_value(tmp_path / "ref.csv", ["time", "particle", "dim", "value"], rows)
    return (out / "trajectories.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()


class TestCsvWriter:
    def test_run_trajectories_match_per_value_writer(self, tmp_path):
        # d = 2 and 33 * 300 * 2 rows: one block per time slice
        new, ref = _run_csv(tmp_path, n=300, dim=2, level=5)
        assert new == ref

    def test_run_single_particle_matches_per_value_writer(self, tmp_path):
        new, ref = _run_csv(tmp_path, n=1, dim=1, level=4)
        assert new == ref

    def test_run_slice_above_block_rows_is_split(self, tmp_path, monkeypatch):
        # d = 3: each time slice holds 1400 * 3 rows, more than one block, and
        # no single write may cover more than a block
        assert 1400 * 3 > _CSV_BLOCK_ROWS
        rows_per_write = _patch_writes(monkeypatch)
        new, ref = _run_csv(tmp_path, n=1400, dim=3, level=2)
        assert new == ref
        assert sum(rows_per_write) > 5 * 1400 * 3
        assert max(rows_per_write) <= _CSV_BLOCK_ROWS

    @pytest.mark.parametrize("n", [4096, 4097])
    def test_run_slice_at_block_rows_edge(self, tmp_path, monkeypatch, n):
        # d = 1, level 1: three time slices of exactly one block, or of one
        # block and one row
        assert _CSV_BLOCK_ROWS == 4096
        rows_per_write = _patch_writes(monkeypatch)
        new, ref = _run_csv(tmp_path, n=n, dim=1, level=1)
        assert new == ref
        assert max(rows_per_write) <= _CSV_BLOCK_ROWS
        # the header, then each slice's writes; summary.txt's lines follow
        header_and_slices = [1, *([4096] if n == 4096 else [4096, 1]) * 3]
        assert rows_per_write[:len(header_and_slices)] == header_and_slices

    def test_keyed_rows_match_fmt(self):
        # a hand-made d = 2 time slice of three particles: signed zero, the
        # smallest subnormal, exponent forms either side of plain decimals
        values = np.array([-0.0, 5e-324, 1e16, 1e-05, 2.0, -1.5e-300])
        times = np.array([0.0, 0.125])
        slices = [(times[0], values.reshape(3, 2)), (times[1], -values.reshape(3, 2))]
        lines = "".join(_trajectory_csv(slices, 3, 2)).splitlines()
        expected = [
            f"{_fmt(t)},{p},{k},{_fmt(sign * values[2 * p + k])}"
            for t, sign in zip(times, (1.0, -1.0))
            for p in range(3)
            for k in range(2)
        ]
        assert lines == ["time,particle,dim,value", *expected]
        assert lines[1:7] == ["0.0,0,0,-0.0", "0.0,0,1,5e-324", "0.0,1,0,1e+16",
                              "0.0,1,1,1e-05", "0.0,2,0,2.0", "0.0,2,1,-1.5e-300"]
        assert lines[7] == "0.125,0,0,0.0"

    def test_mixed_columns_match_per_value_writer(self, tmp_path):
        # check.csv mixes bools, floats, empty cells and text
        header = ["check", "passed", "fitted_1", "fitted_2", "note"]
        rows = [
            ("linear_growth", True, 0.30000000000000004, "", ""),
            ("h2prime", np.bool_(False), np.float64(1e-300), np.float32(0.1), "ratio 2.5 at x=-0.0"),
            ("count", 3, np.int64(-7), -0.0, None),
        ]
        _write_csv_per_value(tmp_path / "ref.csv", header, rows)
        assert "".join(_csv(header, rows)).encode() == (tmp_path / "ref.csv").read_bytes()

    def test_tuple_of_ints_column_matches_per_value_writer(self, tmp_path):
        # rate.csv's level column is the config's tuple of levels
        header = ["level", "error", "stderr"]
        columns = [(3, 4, 12), [0.5, 0.25, 1e-17], np.array([0.1, 0.0, 2.5])]
        _write_csv_per_value(tmp_path / "ref.csv", header, zip(*columns))
        assert "".join(_csv(header, zip(*columns))).encode() == (tmp_path / "ref.csv").read_bytes()

    def test_array_columns_match_per_value_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 10_001
        columns = [
            rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n),
            rng.integers(-(2**62), 2**62, n),
            rng.integers(0, 2**63, n, dtype=np.uint64),
            rng.standard_normal(n) > 0,
            rng.standard_normal(n).astype(np.float32),
        ]
        header = ["f64", "i64", "u64", "bool", "f32"]
        _write_csv_per_value(tmp_path / "ref.csv", header, zip(*columns))
        assert "".join(_csv(header, zip(*columns))).encode() == (tmp_path / "ref.csv").read_bytes()

    def test_empty_numeric_column_matches_per_value_writer(self, tmp_path):
        for empty in (np.empty(0), np.empty(0, dtype=np.int64)):
            assert "".join(_csv(["x"], zip(empty))) == "x\n"
        blocks = [[np.array([1.5])], [np.empty(0)], [np.array([-0.0])]]
        _write_csv_per_value(tmp_path / "ref.csv", ["x"], [(1.5,), (-0.0,)])
        rows = (row for block in blocks for row in zip(*block))
        assert "".join(_csv(["x"], rows)).encode() == (tmp_path / "ref.csv").read_bytes()

    def test_empty_table_is_header_only(self):
        assert "".join(_csv(["a", "b"], zip([], np.empty(0)))) == "a,b\n"
