"""Run one artifact CLI command in this fresh process and record its timings.

    python3 bench/child.py --result R.json [--trace] [--env] -- analyze --config C --out D
    python3 bench/child.py --result R.json --setup-only -- --config C

The command runs through `artifact.cli.main`, exactly as the `artifact`
entry point runs it. Time stamps come from the system-wide monotonic clock,
so the parent can subtract the moment it started this process. R.json gets
the stamps, this process's peak RSS, with --trace the per-layer span
summary, and with --env the library versions and BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _stamp(stamps: dict, before: str | None, after: str, fn):
    def stamped(*args, **kwargs):
        if before is not None:
            stamps[before] = time.monotonic()
        result = fn(*args, **kwargs)
        stamps[after] = time.monotonic()
        return result

    return stamped


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded by numpy, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import artifact
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "artifact": artifact.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--env", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from artifact import cli

    stamps: dict[str, float] = {}
    cli.load_job_config = _stamp(stamps, None, "config_parsed", cli.load_job_config)
    for name in ("cmd_analyze", "cmd_simulate", "cmd_verify"):
        setattr(cli, name, _stamp(stamps, "cmd_start", "cmd_end", getattr(cli, name)))

    if args.setup_only:
        cli.load_job_config(cli_args[cli_args.index("--config") + 1])
        code = 0
    else:
        code = cli.main(cli_args)
    result = {
        "stamps": stamps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    if args.env:
        result["env"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
