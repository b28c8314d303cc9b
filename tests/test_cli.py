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

import numpy as np
import pytest

import artifact.qp as qp_module
from artifact.asymptotics import MarginalSpec
from artifact.cli import (
    GAUSSIAN_KAPPAS,
    GAUSSIAN_T_GRID,
    PARETO_KAPPAS,
    PARETO_T_GRID,
    main,
)
from artifact.linalg import MAX_ENUMERATION_DIM
from artifact.simulate import (
    BLOCK_ROWS,
    SimulationConfig,
    _gaussian_sample,
    sample_rvgc,
    write_conditional_csv,
    write_hill_csv,
)
from conftest import coupled_pair_matrix, equi_matrix, near_tie_4x4, tie_block_matrix, two_block_6x6
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


def test_import_leaves_out_scipy_stats():
    # scipy.stats costs about half a second to import; no command needs it.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    probe = "import sys, artifact.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
        assert "exceeds the d <= 16" in result[2]

    def test_missing_alpha(self, runner):
        assert_config_error(runner({"sigma": [[1.0]]}, "analyze"), "alpha")

    def test_negative_alpha(self, runner):
        assert_config_error(runner({"sigma": [[1.0]], "alpha": -2.0}, "analyze"), "alpha")

    def test_unknown_set_type(self, runner):
        cfg = dict(IDENTITY_JOB, sets=[{"type": "diagonal"}])
        result = runner(cfg, "analyze")
        assert_config_error(result, "sets[0].type")
        assert "rectangular, at-least, complement-box" in result[2]

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
        assert "[1, 99]" in result[2]

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
    Upsilon, threshold weights) reaches the CSVs; every set kind appears."""

    @pytest.mark.parametrize("name", ["two_block_6x6", "equi4"])
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

    def test_verify_needs_sets_and_grid(self, runner):
        assert_config_error(runner(dict(VERIFY_JOB, sets=[]), "verify"), "sets")
        assert_config_error(runner(dict(VERIFY_JOB, t_grid=[]), "verify"), "t_grid")


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


class TestOnePassSimulate:
    """cmd_simulate fills its samples block by block; its CSVs must be those
    of the whole sample drawn at once, reduced by the reference routines."""

    @pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
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
        write_hill_csv(
            tmp_path / "hill.csv",
            [sorted_hill_estimator(values, series_label=label) for label, values in series],
        )
        write_conditional_csv(
            tmp_path / "condprob.csv",
            {
                "gaussian": masked_conditional_curves(
                    _gaussian_sample(cfg), GAUSSIAN_KAPPAS, GAUSSIAN_T_GRID
                ),
                "pareto": masked_conditional_curves(x, PARETO_KAPPAS, PARETO_T_GRID),
            },
        )
        for name in ("hill.csv", "condprob.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
