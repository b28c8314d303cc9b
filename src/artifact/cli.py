"""Config-driven batch front end: analyze, simulate, verify.

A single JSON file describes the correlation matrix, the marginal tail, the
tail sets of interest, the evaluation grid, and an optional simulation plan.
Commands emit CSV files under --out plus a human-readable report on stdout.
Re-running a command with the same config and seed reproduces every output
byte for byte.

Exit codes: 0 success, 2 config error (message names the offending field),
3 unsupported degeneracy, 4 verification failure, 5 numerical breakdown of
the QP solver.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .asymptotics import (
    MarginalSpec,
    TailSet,
    UnsupportedDegeneracy,
    _positive_tuple,
    _require_eval_t,
    asymptotic_estimate,
    cone_analysis,
    limit_mass,
)
from .gaussian import _finite_real, _positive_real
from .linalg import MAX_ENUMERATION_DIM, CorrelationMatrix, IndexSubset
from .qp import SolverInconsistency
from .simulate import (
    ConditionalCurve,
    SimulationConfig,
    _gaussian_blocks,
    _increasing_grid,
    _require_n,
    _require_seed,
    _to_pareto,
    conditional_exceedance_curves,
    derived_series,
    hill_estimator,
    resolve_k_grid,
    verify_asymptotics,
    write_conditional_csv,
    write_hill_csv,
    write_verification_csv,
)

DEFAULT_TOLERANCE_PCT = 15.0

# Fixed curve grids for the simulate command's conditional-probability CSV.
GAUSSIAN_KAPPAS = (1.0, 2.0, 2.5)
GAUSSIAN_T_GRID = tuple(round(0.1 * i, 1) for i in range(1, 21))
PARETO_KAPPAS = (1.0, 2.0, 3.0, 4.0, 5.0)
PARETO_T_GRID = tuple(float(i) for i in range(1, 51))


class ConfigError(ValueError):
    """Invalid or missing config content; field says where."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class TailSetJob:
    """One configured tail set: its config type, the set, its display label,
    and an optional override for the verification slope target."""

    kind: str
    spec: TailSet
    label: str
    slope_target: Optional[float] = None


@dataclass(frozen=True)
class JobConfig:
    sigma: CorrelationMatrix
    marg: MarginalSpec
    sets: tuple[TailSetJob, ...]
    t_grid: tuple[float, ...]
    n: Optional[int]
    seed: Optional[int]
    k_grid: Optional[tuple[int, ...]]


def _checked(field: str, check, *args):
    """check(*args), with the ValueError of a failed library check reported
    as a config error in field."""
    try:
        return check(*args)
    except ValueError as err:
        raise ConfigError(field, str(err)) from None


def _is_list_of(value, kinds) -> bool:
    """Whether value is a list of instances of kinds; bool, a subclass of
    int, counts as none of them."""
    return isinstance(value, list) and all(
        isinstance(v, kinds) and not isinstance(v, bool) for v in value
    )


def _parse_thresholds(raw: dict, field: str, count: int) -> tuple[float, ...]:
    where = f"{field}.thresholds"
    if "thresholds" not in raw:
        raise ConfigError(where, "missing required field 'thresholds'")
    thresholds = raw["thresholds"]
    if not _is_list_of(thresholds, (int, float)):
        raise ConfigError(where, "'thresholds' must be a list of numbers")
    if len(thresholds) != count:
        raise ConfigError(where, f"need {count} thresholds, got {len(thresholds)}")
    return _checked(where, _positive_tuple, thresholds, "thresholds")


def _parse_sigma(obj: dict) -> CorrelationMatrix:
    if "sigma" not in obj:
        raise ConfigError("sigma", "missing required field 'sigma'")
    try:
        entries = np.asarray(obj["sigma"], dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError("sigma", f"'sigma' is not a numeric matrix: {err}") from None
    try:
        sigma = CorrelationMatrix(entries)
    except ValueError as err:
        raise ConfigError("sigma", f"'sigma' is not a valid correlation matrix: {err}") from None
    if sigma.dim > MAX_ENUMERATION_DIM:
        raise ConfigError(
            "sigma",
            f"'sigma' dimension {sigma.dim} exceeds the d <= {MAX_ENUMERATION_DIM} capacity "
            "of the cone scan, which bounds all C(d, k) subsets of every level k",
        )
    return sigma


def _parse_tail_set(raw, position: int, dim: int) -> TailSetJob:
    field = f"sets[{position}]"
    if not isinstance(raw, dict):
        raise ConfigError(field, f"each set must be an object, got {raw!r}")
    kind = raw.get("type")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise ConfigError(f"{field}.label", "'label' must be a string")
    slope_target = raw.get("slope_target")
    if slope_target is not None:
        slope_target = _checked(f"{field}.slope_target", _finite_real, slope_target, "slope_target")

    if kind == "rectangular":
        members = raw.get("subset")
        if not _is_list_of(members, int) or not members:
            raise ConfigError(
                f"{field}.subset", "'subset' must be a nonempty list of integer labels"
            )
        thresholds = _parse_thresholds(raw, field, len(members))
        subset = _checked(f"{field}.subset", IndexSubset, tuple(members))
        _checked(f"{field}.subset", subset.validate_within, dim)
        # IndexSubset sorts the labels; each threshold follows its label.
        thresholds = tuple(x for _, x in sorted(zip(members, thresholds)))
        spec = TailSet(subset, thresholds, len(members))
        default_label = f"rect{spec.subset}"
    elif kind == "at-least":
        level = raw.get("level")
        if not isinstance(level, int) or isinstance(level, bool):
            raise ConfigError(f"{field}.level", "'level' must be an integer")
        thresholds = _parse_thresholds(raw, field, dim)
        spec = _checked(f"{field}.level", TailSet, IndexSubset.full(dim), thresholds, level)
        default_label = f"atleast{level}"
    elif kind == "complement-box":
        spec = TailSet(IndexSubset.full(dim), _parse_thresholds(raw, field, dim), 1)
        default_label = "box-complement"
    else:
        raise ConfigError(
            f"{field}.type",
            f"'type' must be one of rectangular, at-least, complement-box; got {kind!r}",
        )
    return TailSetJob(
        kind=kind, spec=spec, label=label or f"{default_label}#{position + 1}", slope_target=slope_target
    )


def load_job_config(path: str, seed_override: Optional[int] = None) -> JobConfig:
    """Parse and validate a job config file; raises ConfigError naming the field."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as err:
        raise ConfigError("config", f"cannot read config: {err}") from None
    except ValueError as err:  # JSONDecodeError, or an int of over 4300 digits
        raise ConfigError("config", f"config is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config", "config root must be an object")

    sigma = _parse_sigma(obj)
    if "alpha" not in obj:
        raise ConfigError("alpha", "missing required field 'alpha'")
    alpha = _checked("alpha", _positive_real, obj["alpha"], "alpha")
    scale_c = _checked("scale_c", _positive_real, obj.get("scale_c", 1.0), "scale_c")
    marg = MarginalSpec(alpha=alpha, scale_c=scale_c)

    raw_sets = obj.get("sets", [])
    if not isinstance(raw_sets, list):
        raise ConfigError("sets", "'sets' must be a list")
    sets = tuple(_parse_tail_set(raw, i, sigma.dim) for i, raw in enumerate(raw_sets))

    raw_grid = obj.get("t_grid", [])
    if not _is_list_of(raw_grid, (int, float)):
        raise ConfigError("t_grid", "'t_grid' must be a list of numbers")
    t_grid = ()
    if raw_grid:
        t_grid = _checked("t_grid", _increasing_grid, raw_grid)
        _checked("t_grid", _require_eval_t, t_grid[0], "t_grid")

    n = seed = k_grid = None
    sim = obj.get("simulation")
    if sim is not None:
        if not isinstance(sim, dict):
            raise ConfigError("simulation", "'simulation' must be an object")
        n = sim.get("n")
        _checked("simulation.n", _require_n, n)
        seed = sim.get("seed", 0)
        _checked("simulation.seed", _require_seed, seed)
        raw_k = sim.get("k_grid")
        if raw_k is not None and not _is_list_of(raw_k, int):
            raise ConfigError("simulation.k_grid", "'k_grid' must be a list of integers")
        field = "simulation.n" if raw_k is None else "simulation.k_grid"
        k_grid = _checked(field, resolve_k_grid, raw_k, n)

    if seed_override is not None:
        _checked("seed", _require_seed, seed_override)
        seed = seed_override

    return JobConfig(sigma=sigma, marg=marg, sets=sets, t_grid=t_grid, n=n, seed=seed, k_grid=k_grid)


def _family_text(family) -> str:
    return " ".join(str(s) for s in family)


def cmd_analyze(job: JobConfig, out_dir: str) -> int:
    """Cone analysis for every level plus per-set decay laws; writes
    cones.csv and sets.csv."""
    d = job.sigma.dim
    cones = {level: cone_analysis(job.sigma, job.marg, level) for level in range(2, d + 1)}

    print(f"dimension d={d}, alpha={job.marg.alpha:g}, scale_c={job.marg.scale_c:g}")
    print("== cone analysis ==")
    for level, cone in cones.items():
        print(
            f"level {level}: gamma={cone.gamma:.12g} alpha_{level}={cone.alpha:.12g} "
            f"|I|={cone.min_active_size} minimizing: {_family_text(cone.minimizing_family)} "
            f"principal: {_family_text(cone.principal_family)}"
        )

    with open(os.path.join(out_dir, "cones.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["level", "gamma", "alpha", "min_active_size", "minimizing_family", "principal_family"]
        )
        for level, cone in cones.items():
            writer.writerow(
                [
                    level,
                    repr(cone.gamma),
                    repr(cone.alpha),
                    cone.min_active_size,
                    "|".join(str(s) for s in cone.minimizing_family),
                    "|".join(str(s) for s in cone.principal_family),
                ]
            )

    print("== tail sets ==")
    with open(os.path.join(out_dir, "sets.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["set", "type", "a", "beta", "log_constant", "mu", "mu_flag", "t", "log_probability"]
        )
        for item in job.sets:
            spec = item.spec
            est = asymptotic_estimate(job.sigma, job.marg, spec)
            # The level-k cone; the level-1 mass needs none.
            cone = cones.get(spec.k)
            mu = limit_mass(job.marg, cone, spec)
            flagged = cone is not None and not cone.carriers(spec)
            mu_flag = "null-at-cone-scale" if flagged else "ok"
            print(
                f"{item.label}: a={est.power_exponent:.12g} beta={est.log_log_exponent:.12g} "
                f"log_constant={est.log_constant:.12g} mu[level {spec.k}]={mu:.12g}"
                + (" (mass null at the cone scale; set decays faster than the cone)" if flagged else "")
            )
            for contrib in est.contributing_sets:
                print(
                    f"  contributing {contrib.subset}: active={contrib.active_set} "
                    f"gamma={contrib.gamma:.12g} log_constant={contrib.log_constant:.12g}"
                )
            for t in job.t_grid:
                log_p = est.evaluate_log(t)
                print(f"  t={t:g}: log_probability={log_p:.12g}")
                writer.writerow(
                    [
                        item.label,
                        item.kind,
                        repr(est.power_exponent),
                        repr(est.log_log_exponent),
                        repr(est.log_constant),
                        repr(mu),
                        mu_flag,
                        repr(t),
                        repr(log_p),
                    ]
                )
    return 0


def _simulation_config(job: JobConfig) -> SimulationConfig:
    if job.n is None or job.seed is None:
        raise ConfigError("simulation", "this command requires the 'simulation' block")
    return _checked("scale_c", SimulationConfig, job.sigma, job.marg, job.n, job.seed)


def cmd_simulate(job: JobConfig, out_dir: str) -> int:
    """One seeded draw; writes hill.csv (tail-index curves for the standard
    derived series) and condprob.csv (conditional exceedance curves)."""
    cfg = _simulation_config(job)
    d = job.sigma.dim
    # One pass over one draw feeds both sides: the heavy-tailed sample is the
    # transform of the same normal rows the gaussian-side curves condition
    # on, and only those two normal columns are kept. x and z12 are
    # column-major so that every derived series and the curve counter read
    # whole columns without a copy.
    x = np.empty((cfg.n, d), order="F")
    z12 = np.empty((cfg.n, min(d, 2)), order="F")
    for start, z in _gaussian_blocks(cfg):
        rows = slice(start, start + len(z))
        x[rows] = _to_pareto(z, job.marg.alpha)
        z12[rows] = z[:, :2]

    full = IndexSubset.full(d)
    series = [(f"X{j}", IndexSubset.of(j), 1) for j in range(1, d + 1)]
    for a in range(1, d + 1):
        for b in range(a + 1, d + 1):
            series.append((f"min(X{a},X{b})", IndexSubset.of(a, b), 2))
    if d >= 2:
        series.append(("X_(2)", full, 2))
    series.append(("min_all", full, d))
    series.append(("max_all", full, 1))

    curves = [
        hill_estimator(derived_series(x, subset, rank), k_grid=job.k_grid, series_label=label)
        for label, subset, rank in series
    ]
    write_hill_csv(os.path.join(out_dir, "hill.csv"), curves)

    curves_by_side: dict[str, list[ConditionalCurve]] = {}
    if d >= 2:
        curves_by_side["gaussian"] = conditional_exceedance_curves(
            [z12], GAUSSIAN_KAPPAS, GAUSSIAN_T_GRID
        )
        curves_by_side["pareto"] = conditional_exceedance_curves([x], PARETO_KAPPAS, PARETO_T_GRID)
        write_conditional_csv(os.path.join(out_dir, "condprob.csv"), curves_by_side)

    print(f"simulated n={cfg.n} seed={cfg.seed} d={d}")
    print(f"hill.csv: {len(curves)} series over k in [{job.k_grid[0]}, {job.k_grid[-1]}]")
    if d >= 2:
        print("condprob.csv: gaussian kappas " + ",".join(f"{k:g}" for k in GAUSSIAN_KAPPAS)
              + " / pareto kappas " + ",".join(f"{k:g}" for k in PARETO_KAPPAS))
    return 0


def cmd_verify(job: JobConfig, out_dir: str, tolerance_pct: float) -> int:
    """Empirical-versus-asymptotic table per configured set; exit 4 when any
    fitted slope misses its target by more than the tolerance."""
    if not job.sets:
        raise ConfigError("sets", "verify requires at least one tail set")
    if not job.t_grid:
        raise ConfigError("t_grid", "verify requires a nonempty t_grid")
    if not (math.isfinite(tolerance_pct) and tolerance_pct >= 0.0):
        raise ConfigError("tolerance", f"--tolerance must be a finite percentage >= 0, got {tolerance_pct!r}")
    cfg = _simulation_config(job)
    tables = verify_asymptotics(cfg, [item.spec for item in job.sets], job.t_grid)

    print(f"verification: n={cfg.n} seed={cfg.seed} tolerance={tolerance_pct:g}%")
    failed = False
    for position, (item, table) in enumerate(zip(job.sets, tables), start=1):
        target = item.slope_target if item.slope_target is not None else table.slope_target
        if math.isnan(table.slope) or target == 0.0:
            ok = False
            deviation_pct = math.nan
        else:
            deviation_pct = 100.0 * abs(table.slope - target) / abs(target)
            ok = deviation_pct <= tolerance_pct
        failed = failed or not ok
        write_verification_csv(os.path.join(out_dir, f"verify_{position}.csv"), table)
        usable = sum(1 for row in table.rows if row.flag == "ok")
        print(
            f"{item.label}: slope={table.slope:.6g} target={target:.6g} "
            f"deviation={deviation_pct:.3g}% rows={len(table.rows)} usable={usable} "
            + ("PASS" if ok else "FAIL")
        )
    return 4 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description=(
            "Asymptotic joint-tail analysis of heavy-tailed vectors with "
            "normal-copula dependence, with seeded Monte Carlo verification."
        ),
    )
    parser.add_argument("command", choices=["analyze", "simulate", "verify"])
    parser.add_argument("--config", required=True, help="path to the JSON job config")
    parser.add_argument("--out", required=True, help="output directory for CSV files")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE_PCT,
        help="verify: allowed slope deviation in percent (default 15)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override simulation.seed")
    args = parser.parse_args(argv)

    try:
        job = load_job_config(args.config, seed_override=args.seed)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "analyze":
            return cmd_analyze(job, args.out)
        if args.command == "simulate":
            return cmd_simulate(job, args.out)
        return cmd_verify(job, args.out, args.tolerance)
    except ConfigError as err:
        print(f"config error in field '{err.field}': {err}", file=sys.stderr)
        return 2
    except UnsupportedDegeneracy as err:
        print(f"unsupported degeneracy: {err}", file=sys.stderr)
        return 3
    except SolverInconsistency as err:
        print(f"numerical breakdown: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
