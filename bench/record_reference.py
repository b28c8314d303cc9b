"""Record the reference outputs of every workload at the default seed.

    python3 bench/record_reference.py

Writes bench/reference/<workload>/: the command's CSVs and its exit code.
Record only at a commit whose outputs are known to be right; run.py compares
every later run at the default seed against these files.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import REFERENCE_DIR, Session, scratch_dir
from workloads import DEFAULT_SEED, WORKLOADS, write_config


def main() -> int:
    with scratch_dir("record-") as work:
        for workload in WORKLOADS.values():
            config = os.path.join(work, f"{workload.name}.json")
            write_config(workload.name, DEFAULT_SEED, config)
            out_dir = os.path.join(work, workload.name)
            run = Session(workload, DEFAULT_SEED, config, work).spawn(
                [], [workload.command, "--config", config, "--out", out_dir]
            )
            if run.errors:
                print(f"{workload.name}: {run.errors}", file=sys.stderr)
                return 1
            ref_dir = os.path.join(REFERENCE_DIR, workload.name)
            shutil.rmtree(ref_dir, ignore_errors=True)
            os.makedirs(ref_dir)
            for name in workload.outputs:
                shutil.copy(os.path.join(out_dir, name), ref_dir)
            with open(os.path.join(ref_dir, "exit_code"), "w") as fh:
                fh.write(f"{run.exit_code}\n")
            print(f"{workload.name}: exit {run.exit_code}, run_s {run.run_s:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
