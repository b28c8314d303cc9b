"""Benchmark of the artifact CLI: analyze, simulate and verify, end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each CLI command runs in a fresh child
process (bench/child.py), one at a time, with ARTIFACT_THREADS unset, on a
job config generated from the seed. With --trace 0 the command is repeated
while one more repetition still fits in --seconds, and the end-to-end
metrics are medians over the repetitions. With --trace 1 untraced and traced
runs alternate in the same way and the per-layer metrics are medians over
the traced runs. Every
run's outputs are checked (schema; reference at the default seed; identical
bytes across the runs of one invocation). The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import check
from workloads import DEFAULT_SEED, WORKLOADS, Workload, write_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
CHILD = os.path.join(BENCH_DIR, "child.py")

THREAD_ENV_VAR = "ARTIFACT_THREADS"
CHILD_TIMEOUT_S = 170.0
# Two command runs at least, so every invocation checks that a rerun gives
# the same bytes; five set-up samples at least, for a steady setup_s median.
MIN_COMMAND_RUNS = 2
MIN_SETUP_SAMPLES = 5
# Workload traced a second time with ARTIFACT_THREADS=1 and =2, to show what
# the sampler's thread pool does.
THREAD_DIAGNOSTIC_WORKLOAD = "simulate-d12"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# (metric, span or counter, field, unit); field "calls"/"self_s"/"total_s"
# reads the span summary, None reads the counter.
SPAN_METRICS = (
    ("cli.load_job_config.s", "cli.load_job_config", "total_s", "s"),
    ("cli.cmd.self_s", "cli.cmd", "self_s", "s"),
    ("linalg.spd_factorize.calls", "linalg.spd_factorize", "calls", "count"),
    ("linalg.spd_factorize.self_s", "linalg.spd_factorize", "self_s", "s"),
    ("linalg.solve_spd.calls", "linalg.solve_spd", "calls", "count"),
    ("linalg.solve_spd.self_s", "linalg.solve_spd", "self_s", "s"),
    ("qp.solve.calls", "qp.solve", "calls", "count"),
    ("qp.solve.self_s", "qp.solve", "self_s", "s"),
    ("qp.solvers_built", "qp.solvers_built", None, "count"),
    ("gaussian.upsilon.calls", "gaussian.upsilon", "calls", "count"),
    ("gaussian.upsilon.self_s", "gaussian.upsilon", "self_s", "s"),
    ("gaussian.orthant.calls", "gaussian.orthant", "calls", "count"),
    ("gaussian.orthant.qmc_calls", "gaussian.orthant.qmc_calls", None, "count"),
    ("gaussian.orthant.self_s", "gaussian.orthant", "self_s", "s"),
    ("asymptotics.cone_analysis.calls", "asymptotics.cone_analysis", "calls", "count"),
    ("asymptotics.cone_analysis.self_s", "asymptotics.cone_analysis", "self_s", "s"),
    ("asymptotics.asymptotic_estimate.calls", "asymptotics.asymptotic_estimate", "calls", "count"),
    ("asymptotics.asymptotic_estimate.self_s", "asymptotics.asymptotic_estimate", "self_s", "s"),
    ("asymptotics.subset_coefficients.calls", "asymptotics.subset_coefficients", "calls", "count"),
    ("simulate.gaussian_sample.self_s", "simulate.gaussian_sample", "self_s", "s"),
    ("simulate.sample_rvgc.self_s", "simulate.sample_rvgc", "self_s", "s"),
    ("simulate.derived_series.calls", "simulate.derived_series", "calls", "count"),
    ("simulate.derived_series.self_s", "simulate.derived_series", "self_s", "s"),
    ("simulate.hill_estimator.calls", "simulate.hill_estimator", "calls", "count"),
    ("simulate.hill_estimator.self_s", "simulate.hill_estimator", "self_s", "s"),
    ("simulate.conditional_curves.self_s", "simulate.conditional_curves", "self_s", "s"),
    ("simulate.conditional_curves.cells", "simulate.conditional_curves.cells", None, "count"),
    ("simulate.verify_asymptotics.calls", "simulate.verify_asymptotics", "calls", "count"),
    ("simulate.verify_asymptotics.self_s", "simulate.verify_asymptotics", "self_s", "s"),
    ("simulate.bytes_returned", "simulate.bytes_returned", None, "B-computed"),
)
DERIVED_UNITS = {
    "cli.csv_bytes": "B",
    "qp.solve.distinct_ratio": "ratio",
    "trace.overhead_s": "s",
    "simulate.gaussian_sample.self_s.threads_1": "s",
    "simulate.gaussian_sample.self_s.threads_2": "s",
}


@dataclass
class ChildRun:
    """One finished child process and what its checks found."""

    errors: list[str] = field(default_factory=list)
    exit_code: Optional[int] = None
    setup_s: Optional[float] = None
    run_s: Optional[float] = None
    rss_mb: Optional[float] = None
    csv_bytes: int = 0
    trace: Optional[dict] = None
    env: Optional[dict] = None


@dataclass
class Session:
    """The child processes of one workload invocation, all at one seed."""

    workload: Workload
    seed: int
    config: str
    work: str
    children: list[ChildRun] = field(default_factory=list)
    digest: Optional[str] = None

    def spawn(self, child_args: list[str], cli_args: list[str], threads: Optional[str] = None) -> ChildRun:
        """Start one child, wait for it, and read its result file."""
        index = len(self.children)
        result_path = os.path.join(self.work, f"child{index}.json")
        env = {k: v for k, v in os.environ.items() if k != THREAD_ENV_VAR}
        if threads is not None:
            env[THREAD_ENV_VAR] = threads
        run = ChildRun()
        self.children.append(run)
        argv = [sys.executable, CHILD, "--result", result_path, *child_args, "--", *cli_args]
        with open(os.path.join(self.work, f"child{index}.out"), "w") as out, open(
            os.path.join(self.work, f"child{index}.err"), "w+"
        ) as err:
            start = time.monotonic()
            with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err) as proc:
                try:
                    run.exit_code = proc.wait(timeout=CHILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    run.errors.append(f"timed out after {CHILD_TIMEOUT_S:g} s")
                    return run
            err.seek(0)
            stderr_tail = err.read()[-2000:].strip()
        if run.exit_code not in check.DOCUMENTED_EXIT_CODES:
            run.errors.append(f"exit code {run.exit_code}: {stderr_tail}")
        if not os.path.exists(result_path):
            run.errors.append("no result file")
            return run
        with open(result_path) as fh:
            result = json.load(fh)
        stamps = result["stamps"]
        if "config_parsed" in stamps:
            run.setup_s = stamps["config_parsed"] - start
        if "cmd_end" in stamps:
            run.run_s = stamps["cmd_end"] - stamps["cmd_start"]
        run.rss_mb = result["maxrss_kb"] / 1024.0
        run.trace = result.get("trace")
        run.env = result.get("env")
        return run

    def probe_setup(self, env: bool = False) -> ChildRun:
        """Child that only imports the CLI and parses the config."""
        return self.spawn(["--setup-only"] + (["--env"] if env else []), ["--config", self.config])

    def command(self, trace: bool, threads: Optional[str] = None) -> ChildRun:
        """Child that runs the workload's command, followed by the output checks."""
        index = len(self.children)
        out_dir = os.path.join(self.work, f"out{index}")
        run = self.spawn(
            ["--trace"] if trace else [],
            [self.workload.command, "--config", self.config, "--out", out_dir],
            threads,
        )
        if run.errors:
            return run
        self._check_outputs(run, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return run

    def _check_outputs(self, run: ChildRun, out_dir: str) -> None:
        files = self.workload.outputs
        errors = check.schema_errors(out_dir, files)
        ref_dir = os.path.join(REFERENCE_DIR, self.workload.name)
        if not errors and self.seed == DEFAULT_SEED:
            with open(os.path.join(ref_dir, "exit_code")) as fh:
                ref_code = int(fh.read())
            if run.exit_code != ref_code:
                errors.append(f"exit code {run.exit_code}, reference {ref_code}")
            errors += check.reference_errors(out_dir, ref_dir, files)
        digest = hashlib.sha256()
        for name in files:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                run.csv_bytes += len(data)
                digest.update(name.encode() + b"\0" + data)
        if self.digest is None:
            self.digest = digest.hexdigest()
        elif digest.hexdigest() != self.digest:
            errors.append("CSV bytes differ from the first run at this seed")
        run.errors += errors


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under bench/_work/, removed with bench/_work/ when empty."""
    os.makedirs(WORK_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)


def _median(values) -> float:
    return float(statistics.median(values))


def _loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return " ".join(fh.read().split()[:3])


def _span_value(trace: dict, key: str, field_name: Optional[str]) -> float:
    if field_name is None:
        return float(trace["counters"].get(key, 0))
    return float(trace["layers"].get(key, {}).get(field_name, 0))


def layer_metrics(traced: list[ChildRun], untraced: list[ChildRun], diagnostic: dict) -> dict:
    """Per-layer metrics: medians over the traced runs."""
    samples: dict[str, list[float]] = {}
    for run in traced:
        for name, key, field_name, _ in SPAN_METRICS:
            samples.setdefault(name, []).append(_span_value(run.trace, key, field_name))
        calls = _span_value(run.trace, "qp.solve", "calls")
        distinct = _span_value(run.trace, "qp.solve.distinct", None)
        samples.setdefault("qp.solve.distinct_ratio", []).append(distinct / calls if calls else 0.0)
        samples.setdefault("cli.csv_bytes", []).append(float(run.csv_bytes))
    values = {name: _median(vals) for name, vals in samples.items()}
    values["trace.overhead_s"] = _median([r.run_s for r in traced]) - _median(
        [r.run_s for r in untraced]
    )
    for threads in ("1", "2"):
        run = diagnostic.get(threads)
        values[f"simulate.gaussian_sample.self_s.threads_{threads}"] = (
            _span_value(run.trace, "simulate.gaussian_sample", "self_s") if run else 0.0
        )
    units = {name: unit for name, _, _, unit in SPAN_METRICS} | DERIVED_UNITS
    return {
        name: {"value": int(value) if units[name] == "count" else value, "unit": units[name]}
        for name, value in values.items()
    }


def _another_fits(begin: float, done: int, deadline: float) -> bool:
    """Whether one more repetition, as long as the mean so far, ends by the deadline."""
    now = time.monotonic()
    return now + (now - begin) / done <= deadline


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """Run one workload for `seconds`; returns the result object plus log lines."""
    config = os.path.join(work, f"{workload.name}.json")
    write_config(workload.name, seed, config)
    session = Session(workload, seed, config, work)
    log = [f"loadavg before: {_loadavg()}"]
    warm = session.probe_setup(env=True)  # fills the file cache; not a sample
    begin = time.monotonic()
    deadline = begin + seconds
    if not trace:
        runs = []
        while len(runs) < MIN_COMMAND_RUNS or _another_fits(begin, len(runs), deadline):
            runs.append(session.command(trace=False))
        setups = [r.setup_s for r in runs if r.setup_s is not None]
        while len(setups) < MIN_SETUP_SAMPLES:
            probe = session.probe_setup()
            if probe.setup_s is None:
                break
            setups.append(probe.setup_s)
        timed = [r for r in runs if r.run_s is not None]
        if not timed or not setups:
            raise RuntimeError(f"{workload.name}: no command run completed: {runs[0].errors}")
        values = {
            "setup_s": _median(setups),
            "run_s": _median([r.run_s for r in timed]),
            "peak_rss_mb": _median([r.rss_mb for r in timed]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        log.append(f"{len(timed)} command runs, {len(setups)} set-up samples")
        log.append("run_s samples: " + " ".join(f"{r.run_s:.4f}" for r in timed))
        log.append("setup_s samples: " + " ".join(f"{v:.4f}" for v in setups))
        if workload.n:
            log.append(f"rows_per_s = {workload.n / values['run_s']:.6g} 1/s (n = {workload.n})")
    else:
        untraced, traced = [], []
        while not traced or _another_fits(begin, len(traced), deadline):
            untraced.append(session.command(trace=False))
            traced.append(session.command(trace=True))
        diagnostic = {}
        if workload.name == THREAD_DIAGNOSTIC_WORKLOAD:
            diagnostic = {t: session.command(trace=True, threads=t) for t in ("1", "2")}
        good_traced = [r for r in traced if r.trace is not None and r.run_s is not None]
        good_untraced = [r for r in untraced if r.run_s is not None]
        if not good_traced or not good_untraced:
            raise RuntimeError(f"{workload.name}: no traced run completed: {traced[0].errors}")
        metrics = layer_metrics(
            good_traced, good_untraced, {t: r for t, r in diagnostic.items() if r.trace}
        )
        log.append(f"{len(good_traced)} traced and {len(good_untraced)} untraced command runs")
    failed = [c for c in session.children if c.errors]
    codes = sorted({c.exit_code for c in session.children if c.exit_code is not None})
    log.append(f"exit codes seen: {codes}")
    log.append(f"loadavg after: {_loadavg()}")
    log.append(
        f"failed_frac = {len(failed)}/{len(session.children)} = "
        f"{len(failed) / len(session.children):.6g} (child processes failing a check)"
    )
    log += ["FAILED: " + "; ".join(c.errors)[:2000] for c in failed]
    result = {
        "correct": not failed,
        "attempted": len(session.children),
        "failed": len(failed),
        "metrics": metrics,
    }
    return {"result": result, "log": log, "env": warm.env or {}}


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "artifact", "cli.py")):
        print(f"error: no artifact sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        with scratch_dir("run-") as work:
            outcomes = {
                name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work)
                for name in names
            }
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    env = {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        **next(iter(outcomes.values()))["env"],
        THREAD_ENV_VAR: os.environ.get(THREAD_ENV_VAR, "unset") + " (children run with it unset)",
    }
    print("environment: " + json.dumps(env))
    for name, outcome in outcomes.items():
        print(f"== {name}: seed {args.seed}, trace {args.trace}, seconds {args.seconds:g} ==")
        for line in outcome["log"]:
            print("  " + line)
        for metric, entry in outcome["result"]["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    if len(outcomes) == 1:
        final = outcomes[names[0]]["result"]
    else:
        results = [o["result"] for o in outcomes.values()]
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{metric}": entry
                for name, outcome in outcomes.items()
                for metric, entry in outcome["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
