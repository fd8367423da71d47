"""Benchmark workloads and their seeded inputs.

Each workload is a sweep config for `dtn-cluster-sim run`; why each was
chosen is recorded beside its name in BENCHMARK.json. The benchmark
writes the config from the workload seed and makes every input file with
the program's own `gen-trace` subcommand, outside the timed region, so the
program only ever sees generated config, trace and profile files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1


class SetupError(RuntimeError):
    """The program could not prepare a workload's inputs."""


@dataclass(frozen=True)
class Workload:
    name: str
    network: dict        # synthetic generator parameters ("synthetic" config key)
    settings: dict       # router, buffer and message keys of the run config
    categories: tuple[int, ...]
    seeds_per_point: int = 1
    from_file: bool = False   # replay a trace file written by gen-trace
    oracle: bool = False      # epidemic, unlimited buffers, exact groups

    def points(self, seed: int) -> list[tuple[int, int]]:
        """(n_categories, simulation seed) of every sweep point, in CLI order."""
        seeds = [seed + i for i in range(self.seeds_per_point)]
        return [(c, s) for c in sorted(set(self.categories)) for s in seeds]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="flood-100",
        network={"node_count": 100, "duration": 2000.0, "contact_rate": 5.1e-4,
                 "interest_prob": 0.3},
        # messages created early are held everywhere for most of the trace, so
        # the flood's work varies across seeds only with the contact count
        settings={"router": "epidemic", "mode": "exact", "buffer_capacity": None,
                  "message_count": 4, "message_interval": 10.0},
        categories=(5,),
        oracle=True,
    ),
    Workload(
        name="conference-file",
        network={"node_count": 100, "duration": 14400.0, "contact_rate": 2e-4,
                 "interest_prob": 0.3},
        # a TTL bounds how long each message sits in buffers, so the replay
        # stays bound by contact events whatever groups k-means forms
        settings={"router": "cluster", "mode": "kmeans", "buffer_capacity": 50,
                  "message_count": 20, "message_interval": 685.0, "ttl": 600.0},
        categories=(5,),
        from_file=True,
    ),
    Workload(
        name="bounded-sweep",
        network={"node_count": 100, "duration": 600.0, "contact_rate": 5.1e-4,
                 "interest_prob": 0.3},
        settings={"router": "cluster", "mode": "kmeans", "buffer_capacity": 5,
                  "ttl": 240.0, "max_transfers_per_contact": 5, "track_final": True,
                  "message_count": 150, "k_clusters": 30},
        # with k = n categories the k-means groups, and so the sweep's work,
        # swing by half from seed to seed; many small clusters keep them steady
        categories=(2, 10),
        seeds_per_point=2,
    ),
)}


@dataclass
class Prepared:
    """A workload made concrete for one seed, inside a work directory."""

    workload: Workload
    config: str                  # run config, relative to the work directory
    run_ids: list[str]
    inputs: dict[str, Path] = field(default_factory=dict)  # gen-trace dir per point
    contacts: int = 0            # contacts replayed, summed over sweep points

    @property
    def message_count(self) -> int:
        return self.workload.settings["message_count"]


def run_id(n_categories: int, seed: int) -> str:
    """Name of a sweep point's directory under runs/ (the CLI's layout)."""
    return f"n{n_categories}_s{seed}"


def count_contacts(trace_path: Path) -> int:
    with trace_path.open(encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#"))


def prepare(workload: Workload, seed: int, program) -> Prepared:
    """Write the workload's configs and generate its inputs with gen-trace."""
    work = program.work
    points = workload.points(seed)
    gen_config = {"synthetic": workload.network,
                  "categories": [points[0][0]], "seeds": [seed]}
    _write_json(work / "gen.json", gen_config)

    prepared = Prepared(workload, "run.json",
                        run_ids=[run_id(c, s) for c, s in points])
    # a file workload replays one generated trace at every point
    generated = points[:1] if workload.from_file else points
    for cat, s in generated:
        out = f"inputs/{run_id(cat, s)}"
        outcome = program.cli("gen-trace", "--config", "gen.json", "--categories", str(cat),
                              "--seed", str(s), "--out", out)
        if outcome.code != 0:
            raise SetupError(f"gen-trace failed for {workload.name}: {outcome.stderr}")
        prepared.inputs[run_id(cat, s)] = work / out
    for rid in prepared.run_ids:
        source = prepared.inputs.get(rid) or next(iter(prepared.inputs.values()))
        prepared.contacts += count_contacts(source / "trace.txt")

    config = dict(workload.settings)
    config["categories"] = sorted({c for c, _ in points})
    config["seeds"] = sorted({s for _, s in points})
    if workload.from_file:
        source = next(iter(prepared.inputs))
        config["trace"] = f"inputs/{source}/trace.txt"
        config["profiles"] = f"inputs/{source}/profiles.txt"
    else:
        config["synthetic"] = workload.network
    _write_json(work / prepared.config, config)
    return prepared


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
