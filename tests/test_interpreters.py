"""Output trees are byte-identical across Python versions and hash seeds.

The package claims `requires-python >= 3.10`, and its outputs rest on
library behaviour that a version could change: the seeded draws of
`random.Random` (`uniform`, `choice`, `randint` and `sample` besides
`random`), and the builtin `sum()` of floats that `metrics` averages with,
which is compensated from 3.12 on. k-means's distance ties are not among
them: it compares distances as exact integers (`clustering._assign`), so a
tie is a tie under every version. So one small mixed sweep runs through `python -m
dtn_cluster_sim.cli run` under the current interpreter with
`PYTHONHASHSEED` 0 and 1, so that no output depends on the order of a set
or dict of strings, and under every `python3.10` ... `python3.13` on PATH
that starts and reports 3.10 or newer; an interpreter that does not start
is left out.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CANDIDATES = [f"python3.{minor}" for minor in range(10, 14)]
PROBE = "import sys; print(sys.version_info >= (3, 10)); print(sys.executable)"

SWEEP = {
    "synthetic": {"node_count": 20, "duration": 900.0, "contact_rate": 0.002,
                  "interest_prob": 0.4},
    "categories": [3, 12],
    "seeds": [1, 2],
    "router": "cluster",
    "mode": "kmeans",
    "buffer_capacity": 5,
    "ttl": 300,
    "max_transfers_per_contact": 3,
    "message_count": 40,
    "track_final": True,
}


def interpreters() -> dict[str, str]:
    """Executable path by resolved path, the current interpreter first."""
    found = {os.path.realpath(sys.executable): sys.executable}
    for name in CANDIDATES:
        path = shutil.which(name)
        if path is None:
            continue
        try:
            probe = subprocess.run([path, "-c", PROBE], capture_output=True,
                                   text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        lines = probe.stdout.split()
        if probe.returncode == 0 and len(lines) == 2 and lines[0] == "True":
            found.setdefault(os.path.realpath(lines[1]), path)
    return found


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_output_tree_identical_across_interpreters(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SWEEP))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    current, *others = interpreters().values()
    runs = [(current, {"PYTHONHASHSEED": "0"}), (current, {"PYTHONHASHSEED": "1"})]
    runs += [(python, {}) for python in others]
    trees = {}
    for python, extra in runs:
        label = f"{python} {extra}"
        out = tmp_path / f"out{len(trees)}"
        proc = subprocess.run([python, "-m", "dtn_cluster_sim.cli", "run",
                               "--config", str(config), "--out", str(out)],
                              env={**env, **extra}, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, (label, proc.stderr)
        trees[label] = tree(out)
    (first, reference), *rest = trees.items()
    assert len(reference) > 4  # summary, config and per-run files
    for label, files in rest:
        assert files == reference, f"{label} differs from {first}"
