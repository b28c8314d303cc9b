"""End-to-end CLI tests: config validation, the three subcommands, exit
codes, CSV schemas, and byte-level reproducibility.

Everything runs in-process through cli.main(argv) against tmp_path."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import artifact.asymptotics as asymptotics_module
import artifact.cli as cli_module
import artifact.gaussian as gaussian_module
import artifact.qp as qp_module
import artifact.simulate as simulate_module
from artifact.asymptotics import MAX_ENUMERATION_DIM, MarginalSpec
from artifact.gaussian import OrthantEstimate
from artifact.cli import (
    GAUSSIAN_KAPPAS,
    GAUSSIAN_T_GRID,
    PARETO_KAPPAS,
    PARETO_T_GRID,
    _write_csv,
    cmd_simulate,
    load_job_config,
    main,
)
from artifact.gaussian import _ndtr
from artifact.simulate import (
    _CHUNK_ROWS,
    BLOCK_ROWS,
    SimulationConfig,
    _gaussian_sample,
    _row_chunks,
    sample_rvgc,
)
from conftest import (
    coupled_pair_matrix,
    equi_matrix,
    near_tie_4x4,
    random_correlation,
    tie_block_matrix,
    two_block_6x6,
)
from oracles import masked_conditional_curves, sorted_hill_estimator

IDENTITY_JOB = {
    "sigma": [[1.0, 0.0], [0.0, 1.0]],
    "alpha": 2.0,
    "sets": [{"type": "rectangular", "subset": [1, 2], "thresholds": [1.0, 1.0]}],
    "t_grid": [100.0],
}

VERIFY_JOB = {
    "sigma": [[1.0, 0.0], [0.0, 1.0]],
    "alpha": 2.0,
    "sets": [{"type": "rectangular", "subset": [1, 2], "thresholds": [0.3, 0.3]}],
    "t_grid": [10.0, 13.0, 17.0, 22.0, 28.0],
    "simulation": {"n": 300000, "seed": 11},
}

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# Float columns compare to a relative 1e-12; every other column exactly.
GOLDEN_FLOAT_COLUMNS = {
    "cones.csv": {"gamma", "alpha"},
    "sets.csv": {"a", "beta", "log_constant", "mu", "t", "log_probability"},
}

# 1e400 written out: a JSON integer too large for a float, one field at a time.
HUGE = 10**400
OVERSIZED = {
    "sigma": dict(VERIFY_JOB, sigma=[[HUGE, 0.0], [0.0, 1.0]]),
    "alpha": dict(VERIFY_JOB, alpha=HUGE),
    "scale_c": dict(VERIFY_JOB, scale_c=HUGE),
    "sets[0].thresholds": dict(VERIFY_JOB, sets=[{**VERIFY_JOB["sets"][0], "thresholds": [0.3, HUGE]}]),
    "sets[0].slope_target": dict(VERIFY_JOB, sets=[{**VERIFY_JOB["sets"][0], "slope_target": HUGE}]),
    "t_grid": dict(VERIFY_JOB, t_grid=[10.0, HUGE]),
    "simulation.n": dict(VERIFY_JOB, simulation={"n": HUGE, "seed": 1}),
}

SIMULATE_JOB = {
    "sigma": [[1.0, 0.5], [0.5, 1.0]],
    "alpha": 2.0,
    "sets": [],
    "t_grid": [],
    "simulation": {"n": 5000, "seed": 3},
}


@pytest.fixture
def runner(tmp_path, capsys):
    """Write a config dict, invoke main, return (exit_code, stdout, stderr, out_dir)."""

    def run(cfg_obj, command, *extra, out_name="out"):
        cfg_path = tmp_path / f"{out_name}.json"
        cfg_path.write_text(json.dumps(cfg_obj))
        out_dir = tmp_path / out_name
        code = main([command, "--config", str(cfg_path), "--out", str(out_dir), *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out_dir

    return run


def run_python(code, *args):
    """python -c code args with this checkout's src first on the path."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def test_import_loads_no_scipy():
    # scipy is a test reference only: importing it would add to every
    # command's set-up time.
    probe = "import sys, artifact.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = run_python(probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "command,job",
    [
        # A 4-dimensional boundary block: the constant takes the orthant QMC.
        ("analyze", json.loads((GOLDEN_DIR / "tie_block_6x6.json").read_text())),
        ("simulate", SIMULATE_JOB),
        ("verify", VERIFY_JOB),
    ],
    ids=["analyze", "simulate", "verify"],
)
def test_commands_run_without_scipy(tmp_path, command, job):
    # With scipy unimportable, each command still runs to exit 0.
    config = tmp_path / "job.json"
    config.write_text(json.dumps(job))
    code = (
        "import sys; sys.modules['scipy'] = None; from artifact.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    out = run_python(code, command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr


def assert_config_error(result, field):
    code, _, err, _ = result
    assert code == 2
    assert f"config error in field '{field}':" in err


class TestConfigErrors:
    def test_missing_sigma(self, runner):
        assert_config_error(runner({"alpha": 2.0}, "analyze"), "sigma")

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code = main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error in field 'config':" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["analyze", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_sigma_not_positive_definite(self, runner):
        cfg = {"sigma": [[1.0, 1.01], [1.01, 1.0]], "alpha": 2.0}
        assert_config_error(runner(cfg, "analyze"), "sigma")

    def test_sigma_dimension_cap(self, runner):
        d = 17
        eye = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
        result = runner({"sigma": eye, "alpha": 2.0}, "analyze")
        assert_config_error(result, "sigma")
        assert "cone analysis supports d <= 16, got d=17" in result[2]

    def test_missing_alpha(self, runner):
        assert_config_error(runner({"sigma": [[1.0]]}, "analyze"), "alpha")

    def test_negative_alpha(self, runner):
        assert_config_error(runner({"sigma": [[1.0]], "alpha": -2.0}, "analyze"), "alpha")

    def test_unknown_set_type(self, runner):
        cfg = dict(IDENTITY_JOB, sets=[{"type": "diagonal"}])
        result = runner(cfg, "analyze")
        assert_config_error(result, "sets[0].type")
        assert "rectangular, at-least, complement-box" in result[2]

    @pytest.mark.parametrize(
        "cfg, field",
        [
            ([IDENTITY_JOB], "config"),
            (dict(IDENTITY_JOB, sets=IDENTITY_JOB["sets"][0]), "sets"),
            (dict(IDENTITY_JOB, sets=["rectangular"]), "sets[0]"),
            (dict(IDENTITY_JOB, sets=[{**IDENTITY_JOB["sets"][0], "label": 7}]), "sets[0].label"),
            (dict(IDENTITY_JOB, t_grid=[10.0, "100"]), "t_grid"),
            (dict(IDENTITY_JOB, t_grid=[0.0, 100.0]), "t_grid"),
            (dict(IDENTITY_JOB, t_grid=[-10.0, 100.0]), "t_grid"),
            (dict(VERIFY_JOB, simulation=[300000, 11]), "simulation"),
        ],
        ids=["root", "sets", "set", "label", "t-not-number", "t-zero", "t-negative", "simulation"],
    )
    def test_config_shape_names_the_field(self, runner, cfg, field):
        result = runner(cfg, "analyze")
        assert_config_error(result, field)
        assert "Traceback" not in result[2]

    @pytest.mark.parametrize(
        "cfg, field, command",
        [
            ({**VERIFY_JOB, "scale": 3.0}, "scale", "analyze"),
            (dict(VERIFY_JOB, sets=[{**VERIFY_JOB["sets"][0], "levle": 2}]), "sets[0].levle", "verify"),
            (dict(VERIFY_JOB, simulation={"n": 300000, "sede": 11}), "simulation.sede", "simulate"),
        ],
        ids=["top", "set", "simulation"],
    )
    def test_unknown_key_names_the_field(self, runner, cfg, field, command):
        # A misspelled key (scale for scale_c, levle, sede) is refused
        # before any output, not ignored.
        result = runner(cfg, command)
        assert_config_error(result, field)
        assert f"unknown field '{field.rsplit('.', 1)[-1]}'" in result[2]
        assert result[1] == ""
        assert not result[3].exists()

    @pytest.mark.parametrize(
        "tail_set, key",
        [
            ({"type": "rectangular", "subset": [1, 2], "thresholds": [1.0, 1.0], "level": 2}, "level"),
            ({"type": "complement-box", "thresholds": [1.0] * 3, "level": 2}, "level"),
            ({"type": "at-least", "level": 2, "thresholds": [1.0] * 3, "subset": [1, 2]}, "subset"),
            ({"type": "complement-box", "thresholds": [1.0] * 3, "subset": [1, 2]}, "subset"),
        ],
        ids=[
            "level-on-rectangular",
            "level-on-complement-box",
            "subset-on-at-least",
            "subset-on-complement-box",
        ],
    )
    def test_key_its_type_does_not_read(self, runner, tail_set, key):
        # A key valid on another type is refused, not ignored: a subset on
        # an at-least set would otherwise count "at least 2 of all 3", not
        # "at least 2 of {1, 2}".
        cfg = {"sigma": np.eye(3).tolist(), "alpha": 2.0, "sets": [tail_set], "t_grid": [100.0]}
        result = runner(cfg, "analyze")
        assert_config_error(result, f"sets[0].{key}")
        assert f"unknown field '{key}' for type '{tail_set['type']}'" in result[2]
        assert result[2].count("\n") == 1
        assert result[1] == ""
        assert not result[3].exists()

    def test_at_least_needs_integer_level(self, runner):
        cfg = dict(IDENTITY_JOB, sets=[{"type": "at-least", "level": 1.5, "thresholds": [1.0, 1.0]}])
        assert_config_error(runner(cfg, "analyze"), "sets[0].level")

    def test_threshold_count_mismatch(self, runner):
        cfg = dict(IDENTITY_JOB, sets=[{"type": "complement-box", "thresholds": [1.0]}])
        result = runner(cfg, "analyze")
        assert_config_error(result, "sets[0].thresholds")
        assert "need 2 thresholds, got 1" in result[2]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_slope_target_must_be_finite(self, runner, value):
        cfg = dict(VERIFY_JOB, sets=[{**VERIFY_JOB["sets"][0], "slope_target": value}])
        result = runner(cfg, "verify")
        assert_config_error(result, "sets[0].slope_target")
        assert "finite number" in result[2]
        assert result[1] == ""

    @pytest.mark.parametrize("value", [0, 0.0, -0.0])
    def test_slope_target_must_be_nonzero(self, runner, value):
        # the deviation is relative to the target, so 0 could never pass
        cfg = dict(VERIFY_JOB, sets=[{**VERIFY_JOB["sets"][0], "slope_target": value}])
        result = runner(cfg, "verify")
        assert_config_error(result, "sets[0].slope_target")
        assert "nonzero" in result[2]
        assert result[1] == ""

    @pytest.mark.parametrize(
        "tail_set",
        [
            {"type": "rectangular", "subset": [1, 2]},
            {"type": "at-least", "level": 1},
            {"type": "complement-box"},
        ],
    )
    def test_missing_thresholds_names_the_field(self, runner, tail_set):
        result = runner(dict(IDENTITY_JOB, sets=[tail_set]), "analyze")
        assert_config_error(result, "sets[0].thresholds")
        assert "missing required field 'thresholds'" in result[2]

    def test_at_least_checks_threshold_count_before_level(self, runner):
        cfg = dict(IDENTITY_JOB, sets=[{"type": "at-least", "level": 2, "thresholds": [1.0]}])
        result = runner(cfg, "analyze")
        assert_config_error(result, "sets[0].thresholds")
        assert "need 2 thresholds, got 1" in result[2]
        assert "level" not in result[2]

    def test_rectangular_threshold_count_names_the_field(self, runner):
        cfg = dict(IDENTITY_JOB, sets=[{"type": "rectangular", "subset": [1, 2], "thresholds": [1.0]}])
        result = runner(cfg, "analyze")
        assert_config_error(result, "sets[0].thresholds")
        assert "need 2 thresholds, got 1" in result[2]

    @pytest.mark.parametrize(
        "tail_set, field",
        [
            ({"type": "rectangular", "subset": [None, 2], "thresholds": [1.0, 1.0]}, "subset"),
            ({"type": "rectangular", "subset": [1.7, 2], "thresholds": [1.0, 1.0]}, "subset"),
            ({"type": "rectangular", "subset": [True, 2], "thresholds": [1.0, 1.0]}, "subset"),
            ({"type": "rectangular", "subset": "12", "thresholds": [1.0, 1.0]}, "subset"),
            ({"type": "rectangular", "subset": [1, 2], "thresholds": [None, 1]}, "thresholds"),
            ({"type": "rectangular", "subset": [1, 2], "thresholds": 5}, "thresholds"),
            ({"type": "rectangular", "subset": [1, 2], "thresholds": "11"}, "thresholds"),
            ({"type": "rectangular", "subset": [1, 2], "thresholds": [True, 1.0]}, "thresholds"),
            ({"type": "at-least", "level": 1, "thresholds": [None, 1]}, "thresholds"),
            ({"type": "at-least", "level": 1, "thresholds": "11"}, "thresholds"),
            ({"type": "complement-box", "thresholds": 5}, "thresholds"),
            ({"type": "complement-box", "thresholds": [1.0, False]}, "thresholds"),
        ],
    )
    def test_set_members_and_thresholds_are_typed(self, runner, tail_set, field):
        result = runner(dict(IDENTITY_JOB, sets=[tail_set]), "analyze")
        assert_config_error(result, f"sets[0].{field}")
        assert "Traceback" not in result[2]

    @pytest.mark.parametrize(
        "tail_set, field, message",
        [
            ({"type": "at-least", "level": 4, "thresholds": [1.0] * 3}, "level", "level must be an integer in 1..3"),
            ({"type": "rectangular", "subset": [1, 4], "thresholds": [1.0] * 2}, "subset", "label 4 out of range"),
            ({"type": "rectangular", "subset": [1, 1], "thresholds": [1.0] * 2}, "subset", "duplicate index labels"),
            ({"type": "rectangular", "subset": [0, 1], "thresholds": [1.0] * 2}, "subset", "labels must be >= 1"),
        ],
        ids=["level", "label-out-of-range", "duplicate-label", "label-below-one"],
    )
    def test_set_member_ranges_name_the_field(self, runner, tail_set, field, message):
        cfg = {"sigma": np.eye(3).tolist(), "alpha": 2.0, "sets": [tail_set]}
        result = runner(cfg, "analyze")
        assert_config_error(result, f"sets[0].{field}")
        assert message in result[2]

    def test_t_grid_below_guard(self, runner):
        cfg = dict(IDENTITY_JOB, t_grid=[5.0, 100.0])
        result = runner(cfg, "analyze")
        assert_config_error(result, "t_grid")
        assert ">= 10" in result[2]

    def test_t_grid_not_increasing(self, runner):
        cfg = dict(IDENTITY_JOB, t_grid=[100.0, 50.0])
        assert_config_error(runner(cfg, "analyze"), "t_grid")

    def test_simulation_n(self, runner):
        cfg = dict(VERIFY_JOB, simulation={"n": 0, "seed": 1})
        assert_config_error(runner(cfg, "verify"), "simulation.n")

    def test_simulation_seed(self, runner):
        cfg = dict(VERIFY_JOB, simulation={"n": 100, "seed": -3})
        assert_config_error(runner(cfg, "verify"), "simulation.seed")

    def test_simulation_k_grid_above_n(self, runner):
        cfg = dict(SIMULATE_JOB, simulation={"n": 100, "seed": 1, "k_grid": [10, 200]})
        result = runner(cfg, "simulate")
        assert_config_error(result, "simulation.k_grid")
        assert "k_grid must be an integer in 1..99, got 200" in result[2]

    @pytest.mark.parametrize("entry, shown", [(5.5, "5.5"), (True, "True")])
    def test_simulation_k_grid_entry_not_an_integer(self, runner, entry, shown):
        cfg = dict(SIMULATE_JOB, simulation={"n": 100, "seed": 1, "k_grid": [entry]})
        result = runner(cfg, "simulate")
        assert_config_error(result, "simulation.k_grid")
        assert f"k_grid must be an integer in 1..99, got {shown}" in result[2]

    def test_simulation_k_grid_not_a_list(self, runner):
        cfg = dict(SIMULATE_JOB, simulation={"n": 100, "seed": 1, "k_grid": 10})
        result = runner(cfg, "simulate")
        assert_config_error(result, "simulation.k_grid")
        assert "'k_grid' must be a list" in result[2]

    def test_simulation_k_grid_not_increasing(self, runner):
        cfg = dict(SIMULATE_JOB, simulation={"n": 100, "seed": 1, "k_grid": [50, 20]})
        assert_config_error(runner(cfg, "simulate"), "simulation.k_grid")

    def test_simulation_n_below_default_k_grid(self, runner):
        cfg = dict(SIMULATE_JOB, simulation={"n": 30, "seed": 1})
        result = runner(cfg, "simulate")
        assert_config_error(result, "simulation.n")
        assert "n >= 41" in result[2]

    @pytest.mark.parametrize("value", ["-5", "nan"])
    def test_tolerance_must_be_finite_nonnegative(self, runner, value):
        assert_config_error(runner(VERIFY_JOB, "verify", "--tolerance", value), "tolerance")

    def test_verify_without_simulation_block(self, runner):
        assert_config_error(runner(IDENTITY_JOB, "verify"), "simulation")

    def test_simulation_demands_unit_scale(self, runner):
        cfg = dict(VERIFY_JOB, scale_c=2.0)
        assert_config_error(runner(cfg, "verify"), "scale_c")

    def test_seed_override_range(self, runner):
        assert_config_error(runner(SIMULATE_JOB, "simulate", "--seed", "-1"), "seed")

    @pytest.mark.parametrize("field", list(OVERSIZED))
    def test_integer_too_large_for_a_float(self, runner, field):
        result = runner(OVERSIZED[field], "analyze")
        assert_config_error(result, field)
        assert "Traceback" not in result[2]
        # the message shortens the 401-digit value: one short line
        assert result[2].count("\n") == 1 and len(result[2]) < 200, result[2]

    def test_integer_too_long_to_parse(self, tmp_path, capsys):
        # Python's int parser stops at 4300 digits.
        cfg = tmp_path / "long.json"
        cfg.write_text('{"sigma": [[1.0]], "alpha": ' + "1" * 5000 + "}")
        code = main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error in field 'config':" in capsys.readouterr().err

    # Laws past the largest float, with the field each command reports.
    # power-exponent: a = alpha * gamma of the level-2 cone, which analyze
    # scans first; verify meets the first set's log probability at t = 10,
    # 0 * log(inf) for its beta = 0. log-constant: the second set's constant,
    # through alpha times the log of a tiny threshold; the first set's law
    # is finite.
    OVERFLOWING_LAWS = {
        "power-exponent": (1.7e308, [1.0, 1.0], {"analyze": "alpha", "verify": "sets[0]"}),
        "log-constant": (5e305, [1e-300, 1e-300], {"analyze": "sets[1]", "verify": "sets[1]"}),
    }

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("law", list(OVERFLOWING_LAWS))
    def test_overflowing_decay_law_names_the_set(self, runner, command, law):
        alpha, thresholds, fields = self.OVERFLOWING_LAWS[law]
        cfg = {
            "sigma": [[1.0, 0.5], [0.5, 1.0]],
            "alpha": alpha,
            "sets": [
                {"type": "complement-box", "thresholds": [1.0, 1.0]},
                {"type": "rectangular", "subset": [1, 2], "thresholds": thresholds},
            ],
            "t_grid": [10.0],
            "simulation": {"n": 1000, "seed": 1},
        }
        result = runner(cfg, command)
        assert_config_error(result, fields[command])
        assert "Traceback" not in result[2]

    def test_overflowing_limit_mass_names_the_set(self, runner):
        # x^{-alpha} (k = 1) or exp of the log mass (k = 2) of thresholds
        # below 1 overflows while the decay law, in logs, and the cone index
        # alpha * 4/3 are finite.
        for tail_set in (
            {"type": "complement-box", "thresholds": [0.5, 0.5]},
            {"type": "rectangular", "subset": [1, 2], "thresholds": [0.5, 0.5]},
        ):
            cfg = dict(IDENTITY_JOB, sigma=[[1.0, 0.5], [0.5, 1.0]], alpha=1e308, sets=[tail_set])
            result = runner(cfg, "analyze")
            assert_config_error(result, "sets[0]")
            assert "limit mass" in result[2] and "alpha = 1e+308" in result[2]

    # Thresholds of 0.001 at t = 10: t x_j = 0.01, inside the Pareto
    # support's lower end, where the limit law gives log probabilities of
    # 9.90 (complement box) and 11.88 (rectangle), and still 0.693 for the
    # box at t = 1000.
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize(
        "tail_set",
        [
            {"type": "complement-box", "thresholds": [0.001, 0.001]},
            {"type": "rectangular", "subset": [1, 2], "thresholds": [0.001, 0.001]},
        ],
        ids=["complement-box", "rectangular"],
    )
    def test_log_probability_above_zero_names_the_set(self, runner, command, tail_set):
        cfg = {
            "sigma": [[1.0, 0.5], [0.5, 1.0]],
            "alpha": 2.0,
            "sets": [{"type": "complement-box", "thresholds": [1.0, 1.0]}, tail_set],
            "t_grid": [10.0, 1000.0],
            "simulation": {"n": 1000, "seed": 1},
        }
        result = runner(cfg, command)
        assert_config_error(result, "sets[1]")
        assert "above 0" in result[2] and "Traceback" not in result[2]
        # verify refuses before it samples, so it writes no table.
        assert not (result[3] / "verify_1.csv").exists()

    # Thresholds (0.05, 1) on the rectangle {1, 2}: at t = 10, X1 > 0.5
    # holds surely (X1 >= 1), so the probability is P(X2 > 10), log -4.605,
    # where the law gives -2.544, below 0. t * 0.05 is 0.5 at t = 10, 0.95 at
    # t = 19 and 1 at t = 20, all refused; 1.05 at t = 21 is not.
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("t_grid", [[10.0, 19.0, 21.0, 100.0], [20.0, 100.0]], ids=["t10", "t20"])
    def test_scaled_threshold_at_most_one_names_the_set(self, runner, command, t_grid):
        rect_set = {"type": "rectangular", "subset": [1, 2], "thresholds": [0.05, 1.0]}
        cfg = {
            "sigma": [[1.0, 0.5], [0.5, 1.0]],
            "alpha": 2.0,
            "sets": [rect_set],
            "t_grid": t_grid,
            "simulation": {"n": 1000, "seed": 1},
        }
        result = runner(cfg, command)
        assert_config_error(result, "sets[0]")
        assert f"t * min(thresholds) = {t_grid[0]!r} * 0.05 is at most 1" in result[2]
        assert "Traceback" not in result[2]
        assert not (result[3] / "verify_1.csv").exists()
        cfg["t_grid"] = [21.0, 100.0]
        code, _, _, out_dir = runner(cfg, command, out_name="above")
        # At n = 1000 both verify rows have too few hits for a slope: exit 4.
        assert code == {"analyze": 0, "verify": 4}[command]
        if command == "analyze":
            rows = list(csv.DictReader(open(out_dir / "sets.csv")))
            assert [float(r["t"]) for r in rows] == [21.0, 100.0]
            assert all(float(r["log_probability"]) < 0.0 for r in rows)

    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    def test_unusable_out_names_the_field(self, tmp_path, capsys, below):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(IDENTITY_JOB))
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below else taken
        code = main(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "config error in field 'out':" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, job, blocked",
        [
            ("analyze", IDENTITY_JOB, "cones.csv"),
            ("simulate", SIMULATE_JOB, "hill.csv"),
            ("verify", dict(VERIFY_JOB, simulation={"n": 1000, "seed": 1}), "verify_1.csv"),
        ],
        ids=["analyze", "simulate", "verify"],
    )
    def test_unwritable_output_file_names_the_field(self, tmp_path, capsys, command, job, blocked):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(job))
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        code = main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error in field 'out':" in err
        assert str(out / blocked) in err

    @pytest.mark.parametrize(
        "sigma",
        [[[True, 0.5], [0.5, True]], [[1.0, "0.5"], ["0.5", 1.0]], [[1.0, None], [None, 1.0]]],
        ids=["bool", "str", "null"],
    )
    def test_sigma_entries_must_be_json_numbers(self, runner, sigma):
        result = runner(dict(IDENTITY_JOB, sigma=sigma), "analyze")
        assert_config_error(result, "sigma")
        assert "'sigma' must be a list of rows of numbers" in result[2]

    def test_argparse_rejects_unknown_command(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", "x", "--out", str(tmp_path)])

    def test_argparse_requires_config(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["analyze", "--out", str(tmp_path)])


class TestAnalyze:
    def test_identity_report_and_csvs(self, runner):
        code, out, _, out_dir = runner(IDENTITY_JOB, "analyze")
        assert code == 0
        assert "dimension d=2, alpha=2, scale_c=1" in out
        assert "level 2: gamma=2 alpha_2=4 |I|=2 minimizing: {1,2} principal: {1,2}" in out
        assert "rect{1,2}#1: a=4 beta=0 log_constant=0" in out
        assert "t=100: log_probability=-18.420680744" in out

        cones = (out_dir / "cones.csv").read_text().splitlines()
        assert cones[0] == "level,gamma,alpha,min_active_size,minimizing_family,principal_family"
        assert cones[1] == '2,2.0,4.0,2,"{1,2}","{1,2}"'

        sets = (out_dir / "sets.csv").read_text().splitlines()
        assert sets[0] == "set,type,a,beta,log_constant,mu,mu_flag,t,log_probability"
        # exact independent case: log P = log(100^-4)
        assert sets[1].endswith(f"ok,100.0,{math.log(1e-8)!r}")
        assert sets[1].startswith('"rect{1,2}#1",rectangular,4.0,0.0,0.0,')

    def test_coupled_pair_cone_report(self, runner):
        sigma = coupled_pair_matrix(0.2)
        cfg = {"sigma": sigma.entries.tolist(), "alpha": 2.0, "sets": [], "t_grid": []}
        code, out, _, _ = runner(cfg, "analyze")
        assert code == 0
        assert "alpha_2=3.11807516315 |I|=2 minimizing: {1,3} {2,3}" in out
        assert "alpha_3=3.97813298096 |I|=3 minimizing: {1,2,3}" in out

    def test_two_block_tie_report(self, runner):
        cfg = {"sigma": two_block_6x6().entries.tolist(), "alpha": 2.0, "sets": [], "t_grid": []}
        code, out, _, out_dir = runner(cfg, "analyze")
        assert code == 0
        assert (
            "level 3: gamma=1.25 alpha_3=2.5 |I|=2 "
            "minimizing: {1,2,3} {4,5,6} principal: {1,2,3}" in out
        )
        cones = (out_dir / "cones.csv").read_text().splitlines()
        level3 = next(line for line in cones if line.startswith("3,"))
        assert '"{1,2,3}|{4,5,6}"' in level3

    def test_degenerate_gap_exits_three(self, runner):
        cfg = {
            "sigma": near_tie_4x4().entries.tolist(),
            "alpha": 2.0,
            "sets": [{"type": "at-least", "level": 3, "thresholds": [1.0, 1.0, 1.0, 1.0]}],
            "t_grid": [100.0],
        }
        code, _, err, _ = runner(cfg, "analyze")
        assert code == 3
        assert err.startswith("unsupported degeneracy: levels 3 and 4 share")

    def test_degenerate_gap_keeps_the_rows_before_it(self, runner):
        # a passing set listed before the failing one: exit 3 leaves
        # cones.csv and the passing set's rows of sets.csv, and its report
        cfg = {
            "sigma": near_tie_4x4().entries.tolist(),
            "alpha": 2.0,
            "sets": [
                {"type": "rectangular", "subset": [1, 2], "thresholds": [1.0, 1.0]},
                {"type": "at-least", "level": 3, "thresholds": [1.0, 1.0, 1.0, 1.0]},
            ],
            "t_grid": [10.0, 100.0],
        }
        code, out, err, out_dir = runner(cfg, "analyze")
        assert code == 3
        assert err.startswith("unsupported degeneracy: levels 3 and 4 share")
        assert len((out_dir / "cones.csv").read_text().splitlines()) == 4
        sets = (out_dir / "sets.csv").read_text()
        assert sets.startswith("set,type,a,beta,log_constant,mu,mu_flag,t,log_probability\n")
        rows = [(row["set"], row["type"], row["t"]) for row in csv.DictReader(io.StringIO(sets))]
        assert rows == [("rect{1,2}#1", "rectangular", "10.0"), ("rect{1,2}#1", "rectangular", "100.0")]
        assert out.endswith("  t=100: log_probability=-12.9094662532\n")

    def test_orthant_missing_its_relative_target_exits_three(self, runner):
        # Coordinates 1-2 as in the tie block and 3-8 at 0.75 to both:
        # the full set's boundary set is {3..8}, whose conditional
        # correlation is equi(6, -0.197). Its orthant QMC ends with a
        # relative se of 0.2%, above the 1e-4 target.
        sigma = np.full((8, 8), 0.75 - 0.197 * 0.25)
        sigma[:2, :] = sigma[:, :2] = 0.75
        sigma[0, 1] = sigma[1, 0] = 0.5
        np.fill_diagonal(sigma, 1.0)
        code, _, err, _ = runner({"sigma": sigma.tolist(), "alpha": 2.0, "sets": [], "t_grid": []}, "analyze")
        assert code == 3
        assert err == (
            "unsupported degeneracy: the orthant factor of boundary set {3,4,5,6,7,8}: the orthant QMC "
            "over a component of 6 coordinates reached a relative standard error of 0.00207, above the "
            "target 0.0001\n"
        )

    def test_underflowing_masses(self, runner):
        # every limit mass underflows to 0 at thresholds 1e200; the at-least
        # law stays in log space, and a set is flagged null by structure
        big = [1e200] * 3
        cfg = {
            "sigma": [[1.0, 0.5, 0.1], [0.5, 1.0, 0.1], [0.1, 0.1, 1.0]],
            "alpha": 2.0,
            "sets": [
                {"type": "at-least", "level": 2, "thresholds": big},
                {"type": "rectangular", "subset": [1, 2], "thresholds": big[:2]},
                {"type": "rectangular", "subset": [1, 3], "thresholds": big[:2]},
            ],
            "t_grid": [100.0],
        }
        code, out, err, out_dir = runner(cfg, "analyze")
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO((out_dir / "sets.csv").read_text())))
        assert [row["mu"] for row in rows] == ["0.0"] * 3
        assert [row["mu_flag"] for row in rows] == ["ok", "ok", "null-at-cone-scale"]
        # {1,2} is the only principal member of level 2
        assert rows[0]["log_constant"] == rows[1]["log_constant"]
        assert math.isfinite(float(rows[0]["log_constant"]))
        assert "rect{1,3}#3: " in out and out.count("mass null at the cone scale") == 1

    def test_rectangle_thresholds_follow_their_labels(self, runner):
        # the labels are sorted; each threshold stays with its label
        base = {"sigma": coupled_pair_matrix(0.2).entries.tolist(), "alpha": 2.0, "t_grid": [100.0]}
        spellings = {
            "unsorted": {"subset": [3, 1, 2], "thresholds": [1.0, 2.0, 5.0]},
            "sorted": {"subset": [1, 2, 3], "thresholds": [2.0, 5.0, 1.0]},
        }
        written = []
        for name, members in spellings.items():
            cfg = dict(base, sets=[{"type": "rectangular", **members}])
            code, _, err, out_dir = runner(cfg, "analyze", out_name=name)
            assert (code, err) == (0, "")
            written.append((out_dir / "sets.csv").read_bytes())
        assert written[0] == written[1]

    def test_analyze_at_the_dimension_cap(self, runner):
        d = MAX_ENUMERATION_DIM
        cfg = {
            "sigma": tie_block_matrix(d).entries.tolist(),
            "alpha": 2.0,
            "sets": [{"type": "at-least", "level": 2, "thresholds": [1.0] * d}],
            "t_grid": [100.0],
        }
        code, _, err, out_dir = runner(cfg, "analyze")
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO((out_dir / "cones.csv").read_text())))
        assert [int(row["level"]) for row in rows] == list(range(2, d + 1))

    def test_independent_near_singular_pairs(self, runner):
        # diag(near_tie_4x4, near_tie_4x4): the full set's boundary block is
        # two independent 2 x 2 blocks at correlation -1 + eps, whose
        # product is a closed form, where one QMC over the four coordinates
        # integrated exactly 0
        nt = near_tie_4x4().entries
        sigma = np.zeros((8, 8))
        sigma[:4, :4] = sigma[4:, 4:] = nt
        cfg = {
            "sigma": sigma.tolist(),
            "alpha": 2.0,
            "sets": [{"type": "rectangular", "subset": [1, 2], "thresholds": [1.0, 1.0]}],
            "t_grid": [100.0],
        }
        code, _, err, out_dir = runner(cfg, "analyze")
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO((out_dir / "cones.csv").read_text())))
        assert [int(row["level"]) for row in rows] == list(range(2, 9))

    def test_zero_orthant_factor_exits_three(self, runner, monkeypatch):
        # tie_block_6x6's rectangle {1..6} has the 4-dim boundary set {3,4,5,6}
        monkeypatch.setattr(
            gaussian_module, "_rqmc_orthant", lambda corr, seed: OrthantEstimate(0.0, 0.0)
        )
        job = json.loads((GOLDEN_DIR / "tie_block_6x6.json").read_text())
        code, _, err, _ = runner(job, "analyze")
        assert code == 3
        assert err.startswith("unsupported degeneracy: the orthant factor of boundary set {3,4,5,6} is 0.0")
        assert len(err.splitlines()) == 1

    def test_solver_breakdown_exits_five(self, runner, monkeypatch):
        # no candidate active set can pass the weight-positivity gate
        monkeypatch.setattr(qp_module, "H_TOLERANCE", math.inf)
        code, _, err, _ = runner(IDENTITY_JOB, "analyze")
        assert code == 5
        assert err.startswith("numerical breakdown: no candidate active set is feasible")
        assert "Traceback" not in err

    def test_rerun_is_byte_identical(self, runner):
        _, _, _, first = runner(IDENTITY_JOB, "analyze", out_name="a")
        _, _, _, second = runner(IDENTITY_JOB, "analyze", out_name="b")
        for name in ("cones.csv", "sets.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_labels_respect_config(self, runner):
        cfg = dict(
            IDENTITY_JOB,
            sets=[
                {
                    "type": "rectangular",
                    "subset": [1, 2],
                    "thresholds": [1.0, 1.0],
                    "label": "corner",
                }
            ],
        )
        code, out, _, out_dir = runner(cfg, "analyze")
        assert code == 0
        assert "corner: a=4" in out
        assert (out_dir / "sets.csv").read_text().splitlines()[1].startswith("corner,")


class TestGoldenAnalyze:
    """analyze against recorded outputs, at alpha = 1.7, scale_c = 2.5 and
    non-unit thresholds, so that every part of the set constant (scale,
    Upsilon, threshold weights) reaches the CSVs; every set kind appears.
    In tie_block_6x6 the rectangle {1..6} has a 4-dimensional boundary set,
    so its Upsilon goes through the orthant QMC. tie_block_5x5 is its
    leading 5 x 5 block, where the rectangle {1..5} has the boundary set
    {3,4,5}, so its orthant factor is a closed form."""

    @pytest.mark.parametrize("name", ["two_block_6x6", "equi4", "tie_block_6x6", "tie_block_5x5"])
    def test_matches_recorded_csvs(self, runner, name):
        job = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        code, _, _, out_dir = runner(job, "analyze", out_name=name)
        assert code == 0
        for csv_name, float_columns in GOLDEN_FLOAT_COLUMNS.items():
            got = list(csv.DictReader(io.StringIO((out_dir / csv_name).read_text())))
            want = list(csv.DictReader(io.StringIO((GOLDEN_DIR / name / csv_name).read_text())))
            assert len(got) == len(want)
            for got_row, want_row in zip(got, want):
                assert got_row.keys() == want_row.keys()
                for key, value in want_row.items():
                    if key in float_columns:
                        expected = pytest.approx(float(value), rel=1e-12, abs=0.0)
                        assert float(got_row[key]) == expected, (csv_name, key, want_row)
                    else:
                        assert got_row[key] == value, (csv_name, key, want_row)


class TestVerify:
    def test_identity_verification_passes(self, runner):
        code, out, _, out_dir = runner(VERIFY_JOB, "verify")
        assert code == 0
        assert "verification: n=300000 seed=11 tolerance=15%" in out
        assert "target=-4" in out and "PASS" in out
        rows = (out_dir / "verify_1.csv").read_text().splitlines()
        assert rows[0] == "t,empirical,se,asymptotic,ratio,flag"
        assert len(rows) == 6
        assert all(row.endswith(",ok") for row in rows[1:])

    def test_slope_target_override_fails(self, runner):
        cfg = dict(VERIFY_JOB, sets=[{**VERIFY_JOB["sets"][0], "slope_target": -99.0}])
        code, out, _, _ = runner(cfg, "verify")
        assert code == 4
        assert "target=-99" in out and "FAIL" in out

    def test_runs_below_the_default_hill_grid(self, runner):
        # verify draws no Hill curves, so the n >= 41 of simulate's default
        # grid does not bind it. 40 rows leave every t low on hits, so
        # there is no slope to pass.
        code, out, err, out_dir = runner(dict(VERIFY_JOB, simulation={"n": 40, "seed": 11}), "verify")
        assert code == 4, err
        assert "verification: n=40 seed=11" in out and "FAIL" in out
        rows = (out_dir / "verify_1.csv").read_text().splitlines()
        assert len(rows) == 6 and all(row.endswith(",low-hits") for row in rows[1:])

    def test_computes_each_sets_law_once(self, runner, monkeypatch):
        # Every module binding of asymptotic_estimate counts its calls; the
        # checked laws are the ones the tables use.
        law = asymptotics_module.asymptotic_estimate
        calls = []

        def counted(sigma, marg, tail_set):
            calls.append(tail_set)
            return law(sigma, marg, tail_set)

        for module in (asymptotics_module, cli_module, simulate_module):
            if hasattr(module, "asymptotic_estimate"):
                monkeypatch.setattr(module, "asymptotic_estimate", counted)
        job = dict(
            VERIFY_JOB,
            sigma=[[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]],
            sets=[
                {"type": "rectangular", "subset": [1, 2], "thresholds": [0.3, 0.3]},
                {"type": "at-least", "level": 2, "thresholds": [0.3, 0.3, 0.3]},
                {"type": "complement-box", "thresholds": [1.0, 1.0, 1.0]},
            ],
            simulation={"n": 2 * BLOCK_ROWS + 5, "seed": 11},
        )
        code, out, err, out_dir = runner(job, "verify")
        assert code in (0, 4), err
        assert len(calls) == 3
        assert sorted(p.name for p in out_dir.iterdir()) == ["verify_1.csv", "verify_2.csv", "verify_3.csv"]

    def test_verify_needs_sets_and_grid(self, runner):
        assert_config_error(runner(dict(VERIFY_JOB, sets=[]), "verify"), "sets")
        assert_config_error(runner(dict(VERIFY_JOB, t_grid=[]), "verify"), "t_grid")


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    rows = iter([(np.float64(0.1), 1.0 / 3.0, 7, "a,b", math.nan), (np.float64(-2.0), 1e300, -1, "x", 2.0)])
    _write_csv(path, ["f64", "float", "int", "str", "nan"], rows)
    text = path.read_bytes()
    assert b"\r" not in text
    assert text.decode() == (
        "f64,float,int,str,nan\n"
        f'0.1,{1.0 / 3.0!r},7,"a,b",nan\n'
        "-2.0,1e+300,-1,x,2.0\n"
    )


class TestSimulate:
    def test_outputs_and_reproducibility(self, runner):
        code, out, _, first = runner(SIMULATE_JOB, "simulate", out_name="s1")
        assert code == 0
        assert "simulated n=5000 seed=3 d=2" in out
        assert "hill.csv: 6 series over k in [10, 1250]" in out

        hill = (first / "hill.csv").read_bytes()
        cond = (first / "condprob.csv").read_bytes()
        assert hill.decode().splitlines()[0] == "series,k,alpha_hat"
        assert cond.decode().splitlines()[0] == "side,kappa,t,probability,conditioning_count"
        labels = {row[0] for row in csv.reader(io.StringIO(hill.decode()))} - {"series"}
        assert labels == {"X1", "X2", "min(X1,X2)", "X_(2)", "min_all", "max_all"}

        _, _, _, second = runner(SIMULATE_JOB, "simulate", out_name="s2")
        assert (second / "hill.csv").read_bytes() == hill
        assert (second / "condprob.csv").read_bytes() == cond

    def test_seed_override_changes_output(self, runner):
        _, _, _, first = runner(SIMULATE_JOB, "simulate", out_name="s1")
        code, out, _, third = runner(SIMULATE_JOB, "simulate", "--seed", "4", out_name="s3")
        assert code == 0
        assert "seed=4" in out
        assert (third / "hill.csv").read_bytes() != (first / "hill.csv").read_bytes()

    def test_simulate_without_block_is_config_error(self, runner):
        assert_config_error(runner(IDENTITY_JOB, "simulate"), "simulation")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_small_alpha_overflow_is_config_error(self, runner):
        # At alpha = 0.01 the top rows of n = 2e4 map past the largest float
        # on the Pareto scale, which the Pareto map refuses without a warning:
        # stderr is the one line of the config error.
        cfg = dict(SIMULATE_JOB, alpha=0.01, simulation={"n": 20000, "seed": 1})
        result = runner(cfg, "simulate")
        assert_config_error(result, "alpha")
        assert result[2] == (
            "config error in field 'alpha': the Pareto sample at alpha = 0.01 "
            "passes the largest float\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_in_a_helper_chunk_is_config_error(self, runner, set_workers, workers):
        # At seed 35 and alpha = 0.018 only the second of three 65,536-row
        # chunks, the helper's on two workers, maps past the largest float.
        n, alpha = 2 * _CHUNK_ROWS + 37, 0.018
        cfg = SimulationConfig(equi_matrix(2, 0.5), MarginalSpec(alpha=alpha), n, 35)
        with np.errstate(over="ignore"):
            x = np.power(_ndtr(-_gaussian_sample(cfg)), -1.0 / alpha)
        assert [bool(np.isinf(x[rows]).any()) for rows in _row_chunks(n)] == [False, True, False]
        set_workers(workers)
        result = runner(dict(SIMULATE_JOB, alpha=alpha, simulation={"n": n, "seed": 35}), "simulate")
        assert_config_error(result, "alpha")
        assert result[2] == (
            "config error in field 'alpha': the Pareto sample at alpha = 0.018 "
            "passes the largest float\n"
        )

    def test_one_coordinate_writes_hill_curves_only(self, runner):
        # At d = 1 there is no pair to condition on: hill.csv holds the
        # coordinate, the minimum and the maximum, and no condprob.csv is
        # written.
        job = dict(SIMULATE_JOB, sigma=[[1.0]])
        code, out, err, out_dir = runner(job, "simulate")
        assert (code, err) == (0, "")
        assert "hill.csv: 3 series over k in [10, 1250]" in out
        hill = (out_dir / "hill.csv").read_text()
        labels = [row[0] for row in csv.reader(io.StringIO(hill))][1:]
        assert list(dict.fromkeys(labels)) == ["X1", "min_all", "max_all"]
        assert not (out_dir / "condprob.csv").exists()


def wide_job(d: int, sets) -> dict:
    """A job at dimension d past the cone scan's cap, on a random matrix."""
    return {
        "sigma": random_correlation(np.random.default_rng(d), d).entries.tolist(),
        "alpha": 2.0,
        "sets": sets,
        "t_grid": [10.0, 13.0, 17.0],
        "simulation": {"n": 20000, "seed": 1},
    }


def wide_sets(d: int) -> list:
    """Two rectangles and a box complement: laws that scan no cone below
    their top level, so they hold at any d."""
    return [
        {"type": "rectangular", "subset": [1, 2], "thresholds": [0.3, 0.3]},
        {"type": "rectangular", "subset": [3, 4, 5, 6, 7], "thresholds": [0.3] * 5},
        {"type": "complement-box", "thresholds": [1.0] * d},
    ]


@pytest.mark.parametrize("d", [MAX_ENUMERATION_DIM + 1, 20])
class TestPastTheConeCap:
    """Only the cone scan caps d at MAX_ENUMERATION_DIM: analyze, and an
    at-least set below its top level, are refused as config errors; the
    sampler and the rectangle and box-complement laws take any d."""

    def test_analyze_names_sigma(self, runner, d):
        result = runner(wide_job(d, wide_sets(d)), "analyze")
        assert_config_error(result, "sigma")
        _, _, err, out_dir = result
        assert f"cone analysis supports d <= {MAX_ENUMERATION_DIM}, got d={d}" in err
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    def test_verify_writes_every_table(self, runner, d):
        code, out, err, out_dir = runner(wide_job(d, wide_sets(d)), "verify")
        assert code in (0, 4), err
        assert err == ""
        assert out.count("usable=") == 3
        for position in (1, 2, 3):
            rows = (out_dir / f"verify_{position}.csv").read_text().splitlines()
            assert rows[0] == "t,empirical,se,asymptotic,ratio,flag"
            assert len(rows) == 4

    def test_verify_names_an_at_least_set(self, runner, d):
        sets = wide_sets(d)[:1] + [{"type": "at-least", "level": 2, "thresholds": [1.0] * d}]
        result = runner(wide_job(d, sets), "verify")
        assert_config_error(result, "sets[1]")
        _, _, err, out_dir = result
        assert f"cone analysis supports d <= {MAX_ENUMERATION_DIM}, got d={d}" in err
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    def test_simulate_runs(self, runner, d):
        code, out, err, out_dir = runner(wide_job(d, []), "simulate")
        assert (code, err) == (0, "")
        assert f"hill.csv: {d * (d + 1) // 2 + 3} series" in out
        assert (out_dir / "hill.csv").stat().st_size > 0
        assert (out_dir / "condprob.csv").stat().st_size > 0


class TestOnePassSimulate:
    """cmd_simulate fills its samples block by block; its CSVs must be those
    of the whole sample drawn at once, reduced by the reference routines."""

    # The last n passes one 65,536-row chunk of the Hill merges and curves.
    @pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5, 8 * BLOCK_ROWS + 5])
    def test_csvs_equal_materialized_reference(self, runner, tmp_path, n):
        sigma = equi_matrix(3, 0.5)
        job = dict(SIMULATE_JOB, sigma=sigma.entries.tolist(), simulation={"n": n, "seed": 5})
        code, _, _, out = runner(job, "simulate")
        assert code == 0

        cfg = SimulationConfig(sigma=sigma, marg=MarginalSpec(alpha=2.0), n=n, seed=5)
        x = sample_rvgc(cfg)
        ordered = np.sort(x, axis=1)[:, ::-1]

        def pair_min(a, b):
            return np.minimum(x[:, a - 1], x[:, b - 1])

        series = [(f"X{j}", x[:, j - 1]) for j in (1, 2, 3)]
        series += [(f"min(X{a},X{b})", pair_min(a, b)) for a, b in ((1, 2), (1, 3), (2, 3))]
        series += [("X_(2)", ordered[:, 1]), ("min_all", ordered[:, 2]), ("max_all", ordered[:, 0])]
        curves = [(label, sorted_hill_estimator(values)) for label, values in series]
        _write_csv(
            tmp_path / "hill.csv",
            ["series", "k", "alpha_hat"],
            [(label, k, a) for label, curve in curves for k, a in zip(curve.k_values, curve.alpha_hat)],
        )
        sides = {
            "gaussian": masked_conditional_curves(_gaussian_sample(cfg), GAUSSIAN_KAPPAS, GAUSSIAN_T_GRID),
            "pareto": masked_conditional_curves(x, PARETO_KAPPAS, PARETO_T_GRID),
        }
        _write_csv(
            tmp_path / "condprob.csv",
            ["side", "kappa", "t", "probability", "conditioning_count"],
            [
                (side, curve.kappa, t, p, c)
                for side, curves in sides.items()
                for curve in curves
                for t, p, c in zip(curve.t_values, curve.probability, curve.conditioning_count)
            ],
        )
        for name in ("hill.csv", "condprob.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    # Four blocks (the last one partial) and one block: one helper, or none.
    @pytest.mark.parametrize("n", [3 * BLOCK_ROWS + 5, BLOCK_ROWS - 1])
    def test_csvs_do_not_depend_on_the_worker_count(self, runner, set_workers, n):
        job = dict(SIMULATE_JOB, sigma=equi_matrix(3, 0.5).entries.tolist(), simulation={"n": n, "seed": 6})
        runs = []
        for workers in (1, 2):
            set_workers(workers)
            code, out, _, out_dir = runner(job, "simulate", out_name=f"w{workers}")
            assert code == 0
            runs.append((out, [(out_dir / name).read_bytes() for name in ("hill.csv", "condprob.csv")]))
        assert runs[0] == runs[1]

    def test_memory_is_the_sample_and_one_hill_buffer(self, tmp_path):
        # What cmd_simulate holds beyond its n x d sample: one n-float Hill
        # buffer, whose head also takes the logs and cumulative sums of the
        # top n/4 + 1 values, and chunk-sized temporaries. Log buffers of
        # their own, a kept n x 2 normal copy, or n-sized merge slots would
        # take it past (d + 1.25) n floats.
        d, n = 4, 64 * BLOCK_ROWS + 5
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(
            dict(SIMULATE_JOB, sigma=equi_matrix(d, 0.5).entries.tolist(), simulation={"n": n, "seed": 2})
        ))
        job = load_job_config(str(job_path))
        tracemalloc.start()
        try:
            assert cmd_simulate(job, str(tmp_path)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (d + 1.25) * n * 8, peak / (n * 8)
