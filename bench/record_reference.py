"""Record the default seed's reference values into ``reference_seed0.json``.

    python3 bench/record_reference.py

Runs every pool job of every workload once at ``jobs.DEFAULT_SEED``,
requires its cross-checks to pass, and writes the values that later runs of
the default seed are compared against.  Re-record only when a change to the
package is meant to change its results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

from run import PINNED_ENV
from workload import ROOT, import_package, run_job


def main() -> int:
    os.environ.update(PINNED_ENV)  # before numpy loads: the benchmark's BLAS settings
    cli = import_package()
    import jobs

    reference = {}
    for name, workload in jobs.WORKLOADS.items():
        pool = workload.make_pool(jobs.DEFAULT_SEED, ROOT / ".bench_out" / "inputs" / f"{name}-reference")
        reference[name] = []
        for job in pool:
            calls = run_job(cli, job, jobs)
            # a seed other than the default: cross-checks only, no reference yet
            problems = workload.check(job, calls, seed=-1, reference=None)
            if problems:
                print(f"{name} job {job.index}: {problems}", file=sys.stderr)
                return 1
            reference[name].append(workload.summary(job, calls))
    jobs.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {jobs.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
