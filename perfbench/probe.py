"""Set-up probe: a fresh interpreter imports what one workload needs
and generates its inputs, then exits.  ``common.probe_seconds`` times
it from launch to exit.

Usage: python3 perfbench/probe.py <workload> <seed> <seconds>
"""

import os
import sys

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    if workload == "library-batch":
        from perfbench import library_batch, metrics
        from repro.sched import ClouSession
        library_batch.requests(seed, 0)
        ClouSession(jobs=metrics.nproc(), cache=False)
    elif workload == "daemon-edit-mix":
        from perfbench import daemon_mix
        daemon_mix.plan(seed, seconds)
    elif workload == "contract-check":
        from perfbench import contract_check
        contract_check.programs(seed, seconds)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
