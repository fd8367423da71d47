"""
Sweeping the number of interest categories
==========================================

The classic experiment shape: fix a contact process, vary how many
interest categories exist in the network, and watch delivery rate, delay,
cost and cluster resource use respond. Uses the same orchestration the
`dtn-cluster-sim run` command wraps.
"""

import json
import tempfile
from pathlib import Path

from dtn_cluster_sim.cli import parse_config, run_sweep

with tempfile.TemporaryDirectory(prefix="dtn_sweep_") as tmp:
    workdir = Path(tmp)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps({
        "synthetic": {
            "node_count": 25,
            "duration": 2000.0,
            "contact_rate": 2e-4,          # mean meetings per node pair per second
            "interest_prob": 0.25,         # chance a node cares about a category
            "shared_interest_bias": 2.0,   # like-minded nodes meet twice as often
        },
        "categories": [1, 5, 10, 15, 20, 25, 30],
        "seeds": [1, 2, 3],
        "message_count": 25,
        "router": "cluster",
        "mode": "kmeans",
    }, indent=2))

    config = parse_config(config_path, {"out": str(workdir / "out")})
    status = run_sweep(config)
    print("sweep exit status:", status)
    print()
    # the directory is removed on leaving this block, so print the results first
    print((workdir / "out" / "summary.csv").read_text())
