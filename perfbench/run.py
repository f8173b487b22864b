"""The repository benchmark.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``library-batch``, ``daemon-edit-mix`` or
``contract-check``; see ``perfbench/NOTES.md``) on inputs generated
from ``--seed`` for ``--seconds`` seconds, checks every answer against
an independent reference, prints a table of the metrics and, as the
last line of standard output, one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run reports
the per-layer metrics and writes its spans to
``.bench_work/trace-<workload>-<seed>.jsonl``.  The exit code is 0 only
when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

WORKLOADS = {
    "library-batch": "library_batch",
    "daemon-edit-mix": "daemon_mix",
    "contract-check": "contract_check",
}


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    # A SIGTERM unwinds like an exception, so the workloads' cleanup
    # (daemon reaping, scratch removal) runs on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are missing "
              "from this checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    from perfbench import common, instrument

    spec = declared()
    workload = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    if args.trace:
        result = workload.measure_traced(args.seed, args.seconds)
        tracer = result["tracer"]
        values = instrument.layer_metrics(tracer, result["memo"],
                                          result["extra"])
        for name in instrument.self_exceeds_total(tracer.spans):
            result["problems"].append(f"span {name}: self time exceeds "
                                      "its span total")
        os.makedirs(common.WORK_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            common.WORK_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
        wanted = spec["per_layer"]
    else:
        result = workload.measure(args.seed, args.seconds)
        values = result["metrics"]
        values["ok_share"] = 1.0 - result["failed"] / result["attempted"]
        wanted = spec["end_to_end"]
    report = {}
    for metric in wanted:
        report[metric["name"]] = {"value": float(values[metric["name"]]),
                                  "unit": metric["unit"]}
    problems = result["problems"]
    correct = not problems and result["failed"] == 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  {result.get('detail', {})}")
    print(f"failed_share {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, entry in report.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
