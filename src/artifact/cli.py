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
from .gaussian import _MAX_SEED, _finite_real, _integer, _positive_real
from .linalg import CorrelationMatrix, IndexSubset
from .qp import SolverInconsistency
from .simulate import (
    _MAX_N,
    SimulationConfig,
    _gaussian_sample,
    _increasing_grid,
    _pareto_pass,
    hill_curves,
    resolve_k_grid,
    verify_asymptotics,
)

DEFAULT_TOLERANCE_PCT = 15.0

# Fixed curve grids for the simulate command's conditional-probability CSV.
GAUSSIAN_KAPPAS = (1.0, 2.0, 2.5)
GAUSSIAN_T_GRID = tuple(round(0.1 * i, 1) for i in range(1, 21))
PARETO_KAPPAS = (1.0, 2.0, 3.0, 4.0, 5.0)
PARETO_T_GRID = tuple(float(i) for i in range(1, 51))

# The keys each config object may hold; load_job_config refuses any other.
# A set holds SET_KEYS and the keys its type reads.
CONFIG_KEYS = ("sigma", "alpha", "scale_c", "sets", "t_grid", "simulation")
SET_KEYS = ("type", "label", "slope_target")
SET_TYPE_KEYS = {
    "rectangular": ("subset", "thresholds"),
    "at-least": ("thresholds", "level"),
    "complement-box": ("thresholds",),
}
SIMULATION_KEYS = ("n", "seed", "k_grid")


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
    # None without simulation.k_grid: cmd_simulate resolves the default grid.
    k_grid: Optional[tuple[int, ...]]


def _checked(field: str, check, *args):
    """check(*args), with the ValueError of a failed library check (a result
    past the largest float included) reported as a config error in field;
    an UnsupportedDegeneracy, also a ValueError, passes."""
    try:
        return check(*args)
    except UnsupportedDegeneracy:
        raise
    except ValueError as err:
        raise ConfigError(field, str(err)) from None


def _require_known_keys(obj: dict, known: tuple[str, ...], where: str, owner: str = "") -> None:
    """Refuse a key of the config object obj that no field reads, named
    where + key, so a misspelled key is not silently ignored; owner says
    whose fields known are."""
    for key in obj:
        if key not in known:
            raise ConfigError(
                f"{where}{key}",
                f"unknown field {key!r}{owner}; the known fields are {', '.join(known)}",
            )


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
    raw = obj["sigma"]
    if not (isinstance(raw, list) and all(_is_list_of(row, (int, float)) for row in raw)):
        raise ConfigError("sigma", "'sigma' must be a list of rows of numbers")
    try:
        entries = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError("sigma", f"'sigma' is not a numeric matrix: {err}") from None
    try:
        return CorrelationMatrix(entries)
    except ValueError as err:
        raise ConfigError("sigma", f"'sigma' is not a valid correlation matrix: {err}") from None


def _parse_tail_set(raw, position: int, dim: int) -> TailSetJob:
    field = f"sets[{position}]"
    if not isinstance(raw, dict):
        raise ConfigError(field, f"each set must be an object, got {raw!r}")
    kind = raw.get("type")
    if not isinstance(kind, str) or kind not in SET_TYPE_KEYS:
        raise ConfigError(
            f"{field}.type",
            f"'type' must be one of {', '.join(SET_TYPE_KEYS)}; got {kind!r}",
        )
    _require_known_keys(raw, SET_KEYS + SET_TYPE_KEYS[kind], f"{field}.", f" for type {kind!r}")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise ConfigError(f"{field}.label", "'label' must be a string")
    slope_target = raw.get("slope_target")
    if slope_target is not None:
        slope_target = _checked(f"{field}.slope_target", _finite_real, slope_target, "slope_target")
        if slope_target == 0.0:
            raise ConfigError(
                f"{field}.slope_target", "'slope_target' must be nonzero: the deviation is relative to it"
            )

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
        thresholds = _parse_thresholds(raw, field, dim)
        spec = _checked(f"{field}.level", TailSet, IndexSubset.full(dim), thresholds, raw.get("level"))
        default_label = f"atleast{spec.k}"
    else:  # complement-box
        spec = TailSet(IndexSubset.full(dim), _parse_thresholds(raw, field, dim), 1)
        default_label = "box-complement"
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
    _require_known_keys(obj, CONFIG_KEYS, "")

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
        _require_known_keys(sim, SIMULATION_KEYS, "simulation.")
        n = _checked("simulation.n", _integer, sim.get("n"), "n", 1, _MAX_N)
        seed = _checked("simulation.seed", _integer, sim.get("seed", 0), "seed", 0, _MAX_SEED)
        raw_k = sim.get("k_grid")
        # Each entry is checked by resolve_k_grid. Without k_grid the
        # default grid is resolved by cmd_simulate, the one command that
        # uses it, so verify runs at any n.
        if raw_k is not None:
            if not isinstance(raw_k, list):
                raise ConfigError("simulation.k_grid", "'k_grid' must be a list")
            k_grid = _checked("simulation.k_grid", resolve_k_grid, raw_k, n)

    if seed_override is not None:
        seed = _checked("seed", _integer, seed_override, "seed", 0, _MAX_SEED)

    return JobConfig(sigma=sigma, marg=marg, sets=sets, t_grid=t_grid, n=n, seed=seed, k_grid=k_grid)


def _subsets_text(coeffs, sep: str) -> str:
    return sep.join(str(c.solution.support) for c in coeffs)


def _write_csv(path, header, rows) -> None:
    """Write one output CSV: the header, then each row of the iterable rows,
    with "\n" line ends, every float cell (np.float64 included) by repr, and
    every other cell as it is. Rows are written as they are drawn, so a row
    generator that raises leaves the rows before it in the file. A file that
    cannot be written is a config error in out."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    except OSError as err:
        raise ConfigError("out", f"cannot write output file {path}: {err}") from None


def cmd_analyze(job: JobConfig, out_dir: str) -> int:
    """Cone analysis for every level plus per-set decay laws; writes
    cones.csv and sets.csv. A sigma past the cone scan's dimension cap is a
    config error in sigma."""
    d = job.sigma.dim
    cones = {level: _checked("sigma", cone_analysis, job.sigma, level) for level in range(2, d + 1)}
    # A cone decay index alpha * gamma past the largest float (a huge alpha)
    # is a config error.
    alphas = {
        level: _checked("alpha", _finite_real, job.marg.alpha * cone.gamma,
                        f"the level-{level} cone's decay index alpha * gamma = "
                        f"{job.marg.alpha!r} * {cone.gamma!r}")
        for level, cone in cones.items()
    }

    print(f"dimension d={d}, alpha={job.marg.alpha:g}, scale_c={job.marg.scale_c:g}")
    print("== cone analysis ==")
    for level, cone in cones.items():
        print(
            f"level {level}: gamma={cone.gamma:.12g} alpha_{level}={alphas[level]:.12g} "
            f"|I|={cone.min_active_size} minimizing: {_subsets_text(cone.coefficients, ' ')} "
            f"principal: {_subsets_text(cone.principal(), ' ')}"
        )
    _write_csv(
        os.path.join(out_dir, "cones.csv"),
        ["level", "gamma", "alpha", "min_active_size", "minimizing_family", "principal_family"],
        (
            (level, cone.gamma, alphas[level], cone.min_active_size,
             _subsets_text(cone.coefficients, "|"), _subsets_text(cone.principal(), "|"))
            for level, cone in cones.items()
        ),
    )

    def set_rows():
        # Each set's report is printed as its rows are drawn, so a set that
        # raises leaves the reports and rows of the sets before it.
        for position, item in enumerate(job.sets):
            # A law, mass or log probability past the largest float (a huge
            # alpha), or a t outside the law's regime, is a config error.
            spec, field = item.spec, f"sets[{position}]"
            est = _checked(field, asymptotic_estimate, job.sigma, job.marg, spec)
            mu = _checked(field, limit_mass, job.sigma, job.marg, spec)
            # A set of level k >= 2 with no carrier in the level-k cone is null
            # at its scale.
            flagged = spec.k >= 2 and not cones[spec.k].carriers(spec)
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
                log_p = _checked(field, est.evaluate_log, t)
                print(f"  t={t:g}: log_probability={log_p:.12g}")
                yield (item.label, item.kind, est.power_exponent, est.log_log_exponent,
                       est.log_constant, mu, mu_flag, t, log_p)

    print("== tail sets ==")
    _write_csv(
        os.path.join(out_dir, "sets.csv"),
        ["set", "type", "a", "beta", "log_constant", "mu", "mu_flag", "t", "log_probability"],
        set_rows(),
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
    k_grid = _checked("simulation.n", resolve_k_grid, job.k_grid, cfg.n)
    d = job.sigma.dim
    # One draw feeds both sides: one pass maps the sample to the Pareto
    # scale in place and, at d >= 2, counts the gaussian-side curves on each
    # chunk before it is mapped and the pareto-side curves after. At a small
    # alpha the largest Pareto values pass the largest float: a config error.
    x = _gaussian_sample(cfg)
    grids = ((GAUSSIAN_KAPPAS, GAUSSIAN_T_GRID), (PARETO_KAPPAS, PARETO_T_GRID)) if d >= 2 else None
    sides = _checked("alpha", _pareto_pass, x, job.marg.alpha, grids)

    full = IndexSubset.full(d)
    series = [(f"X{j}", IndexSubset.of(j), 1) for j in range(1, d + 1)]
    for a in range(1, d + 1):
        for b in range(a + 1, d + 1):
            series.append((f"min(X{a},X{b})", IndexSubset.of(a, b), 2))
    if d >= 2:
        series.append(("X_(2)", full, 2))
    series.append(("min_all", full, d))
    series.append(("max_all", full, 1))

    curves = hill_curves(x, [(subset, rank) for _, subset, rank in series], k_grid)
    _write_csv(
        os.path.join(out_dir, "hill.csv"),
        ["series", "k", "alpha_hat"],
        (
            (label, k, a)
            for (label, _, _), curve in zip(series, curves)
            for k, a in zip(curve.k_values, curve.alpha_hat)
        ),
    )

    if d >= 2:
        _write_csv(
            os.path.join(out_dir, "condprob.csv"),
            ["side", "kappa", "t", "probability", "conditioning_count"],
            (
                (side, curve.kappa, t, p, c)
                for side, side_curves in zip(("gaussian", "pareto"), sides)
                for curve in side_curves
                for t, p, c in zip(curve.t_values, curve.probability, curve.conditioning_count)
            ),
        )

    print(f"simulated n={cfg.n} seed={cfg.seed} d={d}")
    print(f"hill.csv: {len(curves)} series over k in [{k_grid[0]}, {k_grid[-1]}]")
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
    # Each set's law and its log at every t, past the largest float at a
    # huge alpha or outside the law's regime, is a config error before any
    # row is drawn; the checked laws are the ones the tables use.
    laws = []
    for position, item in enumerate(job.sets):
        field = f"sets[{position}]"
        est = _checked(field, asymptotic_estimate, job.sigma, job.marg, item.spec)
        for t in job.t_grid:
            _checked(field, est.evaluate_log, t)
        laws.append((item.spec, est))
    tables = verify_asymptotics(cfg, laws, job.t_grid)

    print(f"verification: n={cfg.n} seed={cfg.seed} tolerance={tolerance_pct:g}%")
    failed = False
    for position, (item, (_, est), table) in enumerate(zip(job.sets, laws, tables), start=1):
        target = item.slope_target if item.slope_target is not None else -est.power_exponent
        if math.isnan(table.slope):
            ok = False
            deviation_pct = math.nan
        else:
            deviation_pct = 100.0 * abs(table.slope - target) / abs(target)
            ok = deviation_pct <= tolerance_pct
        failed = failed or not ok
        _write_csv(
            os.path.join(out_dir, f"verify_{position}.csv"),
            ["t", "empirical", "se", "asymptotic", "ratio", "flag"],
            ((row.t, row.empirical, row.se, row.asymptotic, row.ratio, row.flag) for row in table.rows),
        )
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
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as err:
            raise ConfigError("out", f"cannot use --out as an output directory: {err}") from None
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
