"""Correctness checks on a sweep's output tree.

Each check returns the run ids of the sweep points it failed, plus one
line per problem. Simulated statistics are checked here, never scored:
  * golden digests of summary.csv, per_message.csv and clustering.txt,
    captured at the default seed;
  * internal consistency of summary.csv with per_message.csv;
  * for epidemic flooding, every group delivery time against an
    earliest-arrival search over the contact intervals that shares no
    code with the simulator.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
from collections import defaultdict
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its relative path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def golden_subset(digests: dict[str, str]) -> dict[str, str]:
    """The digests the golden record pins: summary, per-message and clustering files."""
    return {path: d for path, d in digests.items()
            if path == "summary.csv"
            or (path.startswith("runs/")
                and path.rsplit("/", 1)[-1] in ("per_message.csv", "clustering.txt"))}


def load_golden(workload: str) -> dict[str, str] | None:
    if not GOLDEN_PATH.is_file():
        return None
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload)


def golden_failures(digests: dict[str, str], golden: dict[str, str],
                    run_ids: list[str]) -> tuple[set[str], list[str]]:
    got = golden_subset(digests)
    failed: set[str] = set()
    problems = []
    for path in sorted(set(got) | set(golden)):
        if got.get(path) == golden.get(path):
            continue
        problems.append(f"golden digest differs: {path}")
        parts = path.split("/")
        failed |= {parts[1]} if parts[0] == "runs" else set(run_ids)
    return failed, problems


def _csv_rows(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def consistency_failures(out: Path, run_ids: list[str],
                         message_count: int) -> tuple[set[str], list[str]]:
    """Every point has a summary row whose created, delivered and
    delivery_ratio recompute from its per_message.csv."""
    summary_path = out / "summary.csv"
    if not summary_path.is_file():
        return set(run_ids), ["summary.csv missing"]
    rows = {row["run_id"]: row for row in _csv_rows(summary_path)}
    failed: set[str] = set()
    problems = []
    for rid in run_ids:
        row = rows.get(rid)
        per_message = out / "runs" / rid / "per_message.csv"
        if row is None or not per_message.is_file():
            failed.add(rid)
            problems.append(f"{rid}: summary row or per_message.csv missing")
            continue
        messages = _csv_rows(per_message)
        delivered = sum(1 for m in messages if m["group_delivered_at"])
        want = {"created": str(message_count), "delivered": str(delivered),
                "delivery_ratio": f"{delivered / message_count:.6f}"}
        got = {key: row[key] for key in want}
        if len(messages) != message_count or got != want:
            failed.add(rid)
            problems.append(f"{rid}: summary {got} but per_message.csv gives "
                            f"{want} over {len(messages)} rows")
    return failed, problems


def earliest_arrival(adjacency: dict[int, list[tuple[float, float, int]]],
                     source: int, t0: float) -> dict[int, float]:
    """Earliest time each node can hold a message that `source` holds from
    `t0`, by a label-setting search over contact intervals.

    A contact [start, end) relays at max(start, arrival) if the holder has
    the message strictly before `end`. Relaying time never decreases with
    arrival time, so the first time a node is popped is its earliest.
    """
    arrival = {source: t0}
    queue = [(t0, source)]
    done = set()
    while queue:
        t, u = heapq.heappop(queue)
        if u in done:
            continue
        done.add(u)
        for start, end, v in adjacency.get(u, ()):
            if t >= end:
                continue
            reach = max(start, t)
            if reach < arrival.get(v, float("inf")):
                arrival[v] = reach
                heapq.heappush(queue, (reach, v))
    return arrival


def read_contacts(trace_path: Path) -> dict[int, list[tuple[float, float, int]]]:
    """Tabular `start end a b` lines as a symmetric adjacency list."""
    adjacency: dict[int, list[tuple[float, float, int]]] = defaultdict(list)
    for line in trace_path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        start, end, a, b = line.split()
        adjacency[int(a)].append((float(start), float(end), int(b)))
        adjacency[int(b)].append((float(start), float(end), int(a)))
    return adjacency


def read_profiles(profile_path: Path) -> dict[int, tuple[int, ...]]:
    profiles = {}
    for line in profile_path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            node, *bits = line.split()
            profiles[int(node)] = tuple(int(b) for b in bits)
    return profiles


def oracle_failures(out: Path, inputs: dict[str, Path]) -> tuple[set[str], list[str], int]:
    """Check every group_delivered_at of a flooding sweep against
    earliest arrival; the group is the exact-mode profile filter.
    Returns failed points, problems and the number of messages checked."""
    failed: set[str] = set()
    problems = []
    checked = 0
    for rid, source_dir in inputs.items():
        per_message = out / "runs" / rid / "per_message.csv"
        if not per_message.is_file():
            failed.add(rid)
            problems.append(f"{rid}: per_message.csv missing")
            continue
        adjacency = read_contacts(source_dir / "trace.txt")
        profiles = read_profiles(source_dir / "profiles.txt")
        for m in _csv_rows(per_message):
            category = int(m["category"])
            group = [n for n, bits in profiles.items() if bits[category - 1]]
            arrival = earliest_arrival(adjacency, int(m["source"]), float(m["created_at"]))
            reached = [arrival[n] for n in group if n in arrival]
            want = repr(min(reached)) if reached else ""
            checked += 1
            if m["group_delivered_at"] != want or int(m["group_size"]) != len(group):
                failed.add(rid)
                problems.append(f"{rid} message {m['message_id']}: delivered at "
                                f"{m['group_delivered_at']!r}, earliest arrival {want!r}")
    return failed, problems, checked
