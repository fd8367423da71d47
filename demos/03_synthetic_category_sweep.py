"""
Sweeping the number of interest categories
==========================================

The classic experiment shape: fix a contact process, vary how many
interest categories exist in the network, and watch delivery rate, delay,
cost and cluster resource use respond. Uses the same orchestration the
`dtn-cluster-sim run` command wraps. Then pool every run's per-message
records into the paper's figure: delivery ratio against the size of the
destination group, with and without the messages delivered at creation
because their source is a member.
"""

import csv
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

    # group size bin -> [created, delivered] over every message, and over
    # those whose source is not a member
    every, not_at_source = {}, {}
    for path in sorted((workdir / "out" / "runs").glob("*/per_message.csv")):
        with open(path, newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                delivered = row["group_delivered_at"] != ""
                size_bin = int(row["group_size"]) // 4
                at_source = row["first_receiver"] == row["source"]
                for pool in (every,) if at_source else (every, not_at_source):
                    tally = pool.setdefault(size_bin, [0, 0])
                    tally[0] += 1
                    tally[1] += delivered

print("delivery ratio by group size, pooled over every run; right of the bar,")
print("without the messages delivered at their source:")
print("group size  messages  ratio |  messages  ratio")
for size_bin, (created, delivered) in sorted(every.items()):
    created_away, delivered_away = not_at_source.get(size_bin, (0, 0))
    ratio_away = f"{delivered_away / created_away:6.2f}" if created_away else "     -"
    print(f"{4 * size_bin:>5}-{4 * size_bin + 3:<4} {created:>9} {delivered / created:6.2f} |"
          f" {created_away:>9} {ratio_away}")
