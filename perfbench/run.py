"""Sweep benchmark for dtn-cluster-sim.

    python3 perfbench/run.py --workload flood-100 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. It writes the workload's inputs from the
seed, times `run` sweeps of the program built from `src/` for about
--seconds, checks their outputs, prints every metric with its unit and
base, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones of an outside-in traced run. attempted and failed
count sweep points. Work files go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import checks
import harness
from workloads import DEFAULT_SEED, WORKLOADS, SetupError, prepare


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "dtn_cluster_sim" / "cli.py").is_file():
        print(f"no dtn-cluster-sim source under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{workload.name}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    program = harness.Program(root, work)
    golden = checks.load_golden(workload.name) if args.seed == DEFAULT_SEED else None
    measure = harness.traced_run if args.trace else harness.timed_run
    try:
        prepared = prepare(workload, args.seed, program)
        result = measure(program, prepared, args.seconds, golden)
    except (SetupError, harness.Deadline) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    print(f"{workload.name} seed {args.seed}: {len(prepared.run_ids)} sweep points, "
          f"{prepared.contacts} contacts, trace {args.trace}")
    print("\n".join(result.lines))
    for problem in result.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
