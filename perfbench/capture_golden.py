"""Record the golden digests of every workload at the default seed.

    python3 perfbench/capture_golden.py

Run once on the commit whose outputs define correct behaviour; the
benchmark then compares summary.csv, every per_message.csv and every
clustering.txt against perfbench/golden.json at the default seed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
from harness import Program
from workloads import DEFAULT_SEED, WORKLOADS, prepare


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    golden = {}
    for name, workload in WORKLOADS.items():
        work = root / ".perfbench_work" / f"golden-{name}"
        shutil.rmtree(work, ignore_errors=True)
        program = Program(root, work)
        prepared = prepare(workload, DEFAULT_SEED, program)
        outcome = program.cli("run", "--config", prepared.config, "--out", "out")
        if outcome.code != 0:
            print(f"{name}: run failed: {outcome.stderr}", file=sys.stderr)
            return 1
        golden[name] = checks.golden_subset(checks.tree_digests(work / "out"))
        print(f"{name}: {len(golden[name])} files")
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
