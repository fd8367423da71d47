"""Timed and traced runs of one workload.

A run is a closed loop with one client: one dtn-cluster-sim process at a
time. Every repetition gets its own PYTHONHASHSEED, so output that
depends on hash order shows up as a failed point, not as noise. Times are
host wall time of the child process, scaled by the speed probe below;
peak RSS comes from os.wait4.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import Prepared

SETUP_REPS = 9       # validate runs whose median is setup_s
MIN_REPS = 3         # measured sweeps even when one outlasts --seconds
DEADLINE_S = 170.0   # every child is killed past this, so a run ends within 180 s

TRACER = Path(__file__).with_name("tracer.py")

# The shared host's speed drifts by up to half within a minute, for the
# program and for anything else alike. A fixed pure-Python job, run as its
# own process before and after every measured process, tracks that drift;
# each measured wall time is scaled by REFERENCE_PROBE_S over the mean of
# its two probes, giving seconds at the speed where the probe takes 0.2 s.
PROBE = "d = {}\nfor i in range(600000):\n    d[i * 7 % 100003] = i\nsorted(d.items())\n"
REFERENCE_PROBE_S = 0.2


class Deadline(RuntimeError):
    """The run's time limit was reached; a child still running was killed."""


@dataclass
class Outcome:
    code: int
    wall_s: float
    rss_mb: float
    stderr: str


class Program:
    """Starts dtn-cluster-sim from the checkout's source tree, in `work`."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.started = time.monotonic()
        work.mkdir(parents=True, exist_ok=True)

    def cli(self, *args: str, hash_seed: int = 0) -> Outcome:
        return self.spawn(["-m", "dtn_cluster_sim.cli", *args], hash_seed)

    def probe(self) -> float:
        """Wall time of the fixed speed-probe job."""
        return self.spawn(["-c", PROBE]).wall_s

    def spawn(self, args: list[str], hash_seed: int = 0) -> Outcome:
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        err_path = self.work / "child.stderr"
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout < 1.0:
            raise Deadline(f"no time left for {' '.join(args)}")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        if wall >= timeout:
            raise Deadline(f"killed after {wall:.0f} s: {' '.join(args)}")
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       err_path.read_text(encoding="utf-8", errors="replace").strip())


@dataclass
class Result:
    """What one benchmark run measured and found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def add(self, name: str, value: float, unit: str, base: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:<32} {value:>14.6g} {unit:<6} {base}")


class Sweeps:
    """Runs the workload's sweep and checks every output tree against the
    first one, which the correctness checks examine in full."""

    def __init__(self, program: Program, prepared: Prepared, golden: dict | None,
                 result: Result):
        self.program = program
        self.prepared = prepared
        self.golden = golden
        self.result = result
        self.reference: dict[str, str] | None = None
        self.reference_failed: set[str] = set()
        self.reps = 0
        self.differing = 0

    @property
    def points(self) -> int:
        return len(self.prepared.run_ids)

    def run(self, hash_seed: int, traced: bool = False) -> Outcome:
        """One `run` process (or traced run) writing a fresh output tree."""
        self.reps += 1
        out = f"out/rep{self.reps}"
        if traced:
            outcome = self.program.spawn(
                [str(TRACER), self.prepared.config, out, f"layers{self.reps}.json"], hash_seed)
        else:
            outcome = self.program.cli("run", "--config", self.prepared.config,
                                       "--out", out, hash_seed=hash_seed)
        self.result.attempted += self.points
        out_dir = self.program.work / out
        if outcome.code != 0:
            self.result.failed += self.points
            self.result.problems.append(
                f"rep {self.reps} exit {outcome.code}: {outcome.stderr[-300:]}")
            return outcome
        digests = checks.tree_digests(out_dir)
        if self.reference is None:
            self.reference = digests
            self._check(out_dir, digests)
        elif digests != self.reference:
            self.differing += 1
            self.result.failed += self.points
            self.result.problems.append(
                f"rep {self.reps} (PYTHONHASHSEED={hash_seed}) output tree differs "
                f"from the first one")
        self.result.failed += len(self.reference_failed)
        shutil.rmtree(out_dir)
        return outcome

    def _check(self, out_dir: Path, digests: dict[str, str]) -> None:
        prepared, result = self.prepared, self.result
        failed, problems = checks.consistency_failures(
            out_dir, prepared.run_ids, prepared.message_count)
        summary = [f"consistency {self.points - len(failed)}/{self.points} points"]
        if self.golden is not None:
            bad, more = checks.golden_failures(digests, self.golden, prepared.run_ids)
            failed |= bad
            problems += more
            summary.append(f"golden digests {'match' if not bad else 'DIFFER'}")
        if prepared.workload.oracle:
            bad, more, checked = checks.oracle_failures(out_dir, prepared.inputs)
            failed |= bad
            problems += more
            summary.append(f"earliest-arrival oracle {checked - len(more)}/{checked} messages")
        self.reference_failed = failed
        result.problems += problems
        result.lines.append("checks: " + "; ".join(summary))


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g} (n=1)"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.4g} (q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)})"


def _probed(program: Program, measure, keep_going) -> tuple[list[Outcome], list[float]]:
    """Run measure(i) between speed probes while keep_going(outcomes) holds.

    Returns the outcomes and each wall time scaled to the reference speed
    by the mean of the probes on either side of it.
    """
    probes = [program.probe()]
    outcomes, scaled = [], []
    while keep_going(outcomes):
        outcome = measure(len(outcomes))
        probes.append(program.probe())
        outcomes.append(outcome)
        scaled.append(outcome.wall_s * 2 * REFERENCE_PROBE_S / (probes[-2] + probes[-1]))
    return outcomes, scaled


def timed_run(program: Program, prepared: Prepared, seconds: float,
              golden: dict | None) -> Result:
    """End-to-end metrics: sweep_s, contacts_per_s, setup_s, peak_rss_mb."""
    result = Result()
    sweeps = Sweeps(program, prepared, golden, result)
    sweeps.run(hash_seed=0)                      # warm-up and reference tree

    def validate(i: int) -> Outcome:
        outcome = program.cli("validate", "--config", prepared.config, hash_seed=i + 1)
        if outcome.code != 0:
            result.problems.append(f"validate exit {outcome.code}: {outcome.stderr[-300:]}")
        return outcome

    validations, setup = _probed(program, validate, lambda done: len(done) < SETUP_REPS)

    start = time.monotonic()
    runs, sweep = _probed(
        program, lambda i: sweeps.run(hash_seed=i + 1),
        lambda done: len(done) < MIN_REPS or (
            time.monotonic() - start + statistics.median(o.wall_s for o in done) <= seconds))

    walls = [o.wall_s for o in runs]
    rss = [o.rss_mb for o in runs]
    sweep_s = statistics.median(sweep)
    contacts = prepared.contacts
    result.add("sweep_s", sweep_s, "s",
               f"run process at reference speed, {_quartiles(sweep)}; "
               f"host wall {_quartiles(walls)}")
    result.add("contacts_per_s", contacts / sweep_s, "1/s",
               f"{contacts} contacts over {sweeps.points} points / sweep_s")
    result.add("setup_s", statistics.median(setup), "s",
               f"validate process at reference speed, {_quartiles(setup)}; host wall "
               f"{_quartiles([o.wall_s for o in validations])}")
    result.add("peak_rss_mb", statistics.median(rss), "MB",
               f"run process ru_maxrss, {_quartiles(rss)}")
    _failed_frac_line(result)
    return result


def traced_run(program: Program, prepared: Prepared, seconds: float,
               golden: dict | None) -> Result:
    """Per-layer metrics from traced sweeps, alternated with untraced
    ones so the tracing overhead is measured under the same conditions."""
    result = Result()
    sweeps = Sweeps(program, prepared, golden, result)
    sweeps.run(hash_seed=0)                      # warm-up and reference tree

    plain, traced, layers = [], [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start + plain[-1] + traced[-1] <= seconds:
        rep = len(traced) + 1
        plain.append(sweeps.run(hash_seed=rep).wall_s)
        outcome = sweeps.run(hash_seed=rep, traced=True)
        traced.append(outcome.wall_s)
        layer_file = program.work / f"layers{sweeps.reps}.json"
        if outcome.code == 0 and layer_file.is_file():
            layers.append(json.loads(layer_file.read_text(encoding="utf-8")))

    if not layers:
        result.problems.append("no traced sweep finished")
        return result
    absent = layers[0]["absent"]
    result.lines.append(f"traced sweeps: {len(layers)}; absent layers: "
                        f"{', '.join(absent) if absent else 'none'}; output trees "
                        f"{'identical to' if not sweeps.differing else 'DIFFER from'} "
                        f"the untraced sweep's")
    for name, first in layers[0]["metrics"].items():
        values = [layer["metrics"][name]["value"] for layer in layers]
        if first["value"] is None:
            result.lines.append(f"  {name:<32} {'absent':>14} {first['unit']:<6} "
                                f"-> {first['prediction']}")
            continue
        result.add(name, statistics.median(values), first["unit"],
                   f"{first['base']} -> {first['prediction']}")
    overhead = statistics.median(traced) - statistics.median(plain)
    result.add("trace.overhead_s", overhead, "s",
               f"traced {statistics.median(traced):.4g} s - untraced "
               f"{statistics.median(plain):.4g} s sweep_s, n={len(traced)} each")
    _failed_frac_line(result)
    return result


def _failed_frac_line(result: Result) -> None:
    frac = result.failed / result.attempted if result.attempted else 0.0
    result.lines.append(f"  {'failed_frac':<32} {frac:>14.6g} {'1':<6} "
                        f"{result.failed} of {result.attempted} sweep points failed")
