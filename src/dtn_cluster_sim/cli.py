"""Scenario configuration and batch orchestration.

A JSON config file names the inputs (a trace/profile pair on disk, or
synthetic-generator parameters), the router settings and the sweep axes
(category counts x seeds). `run_sweep` executes one simulation per sweep
point and lays the results out as:

    out/
      config.json            effective config echo (reproduces the sweep)
      summary.csv            one row per run that succeeded
      failures.csv           run_id,error per failed run (only if any failed)
      runs/n<cat>_s<seed>/   per_message.csv, clustering.txt (k-means mode)

The earlier sweep's files go before the first point runs. Run directories
are written under `runs.partial/`, which becomes `runs/` after the last
point; `config.json`, `failures.csv` and `summary.csv` follow, so a tree
without `summary.csv` holds a sweep that did not finish.

The points run side by side in up to one process per usable CPU (so
`taskset -c 0` runs them one at a time): this one and forked workers,
each of which writes its own run directories and reports its rows and
failures back. Rows, failures and `run ... failed` lines are written in
point order, so the tree and stderr are the same however many processes
ran; memory grows with their number. A worker stops before its next
point once the sweep's process is gone, and a point whose worker died
is a failure naming the worker's exit status.

Exit status: 0 all runs fine, 1 any run failed, 2 config error or an input
file that cannot be read or parsed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import threading
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

from .clustering import dump_clustering
from .metrics import build_report, per_message_csv, summary_header, summary_row
from .sim_engine import RouterConfig, Scenario, ScheduleConfig, run
from .trace_model import (TRACE_FORMATS, InterestProfile, InvalidParams,
                          SyntheticParams, TraceError, generate_synthetic_trace,
                          parse_contact_trace, parse_interest_profiles,
                          serialize_contact_trace, serialize_profiles,
                          validate_scenario)


class ConfigError(ValueError):
    """A config file, flag or input file that cannot be used; the message
    names the key, flag or file."""


class RunConfig(NamedTuple):
    """The config file's schema: each field is one JSON key, with its type
    and its default. Router and schedule defaults come from the engine's
    own config classes."""

    categories: list[int]
    seeds: list[int] = [0]   # shared by every config that omits it; never mutated
    trace: str | None = None
    trace_format: str = "tabular"
    profiles: str | None = None
    out: str | None = None
    router: str = RouterConfig().kind
    mode: str = RouterConfig().mode
    strict: bool = RouterConfig().strict
    threshold: float = RouterConfig().threshold
    k_clusters: int | None = RouterConfig().k_clusters
    buffer_capacity: int | None = RouterConfig().buffer_capacity
    ttl: float | None = RouterConfig().ttl
    max_transfers_per_contact: int | None = RouterConfig().max_transfers_per_contact
    message_count: int = 20
    message_interval: float | None = ScheduleConfig().interval
    track_final: bool = ScheduleConfig().track_final
    synthetic: dict | None = None   # SyntheticParams keys, except n_categories

    def router_config(self) -> RouterConfig:
        return RouterConfig(
            kind=self.router, mode=self.mode, strict=self.strict,
            threshold=self.threshold, k_clusters=self.k_clusters,
            buffer_capacity=self.buffer_capacity, ttl=self.ttl,
            max_transfers_per_contact=self.max_transfers_per_contact,
        )

    def schedule_config(self) -> ScheduleConfig:
        return ScheduleConfig(count=self.message_count,
                              interval=self.message_interval,
                              track_final=self.track_final)

    def effective(self) -> dict:
        """Everything needed to reproduce the sweep (the output directory
        is not part of the results, so it is not echoed)."""
        echo = self._asdict()
        del echo["out"]
        return echo


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# declared field type -> (accepts a JSON value, what the error asks for)
_TYPE_RULES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_is_int, "an integer"),
    float: (lambda v: (_is_int(v) or isinstance(v, float))
            and abs(v) <= sys.float_info.max, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    dict: (lambda v: isinstance(v, dict), "an object"),
    list[int]: (lambda v: isinstance(v, list) and v and all(map(_is_int, v)),
                "a non-empty list of integers"),
}


def _check_value(name: str, hint, value):
    """`value` of config key `name` if it has the declared type `hint`;
    ints are accepted for floats and stored as floats."""
    optional = type(None) in get_args(hint)
    if value is None and optional:
        return None
    base = get_args(hint)[0] if optional else hint
    accepts, expected = _TYPE_RULES[base]
    if not accepts(value):
        raise ConfigError(f"{name} must be {expected}{' or null' if optional else ''}, "
                          f"got {value!r}")
    return float(value) if base is float else value


def _checked_keys(cls, data: dict, prefix: str = "", skip=()) -> dict:
    """The keys of `data` checked against the fields of NamedTuple `cls`:
    unknown keys, missing required keys and wrong types are config errors."""
    hints = get_type_hints(cls)
    names = [name for name in cls._fields if name not in skip]
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown config key: {prefix}{key}")
    for name in names:
        if name not in data and name not in cls._field_defaults:
            raise ConfigError(f"missing required config key: {prefix}{name}")
    return {key: _check_value(prefix + key, hints[key], value)
            for key, value in data.items()}


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Load a JSON config file; non-None overrides win over file values."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")

    overrides = overrides or {}
    if overrides.get("seed") is not None:
        data["seeds"] = [overrides["seed"]]
    for key in ("categories", "out"):
        if overrides.get(key) is not None:
            data[key] = overrides[key]

    config = RunConfig(**_checked_keys(RunConfig, data))
    if config.synthetic is not None:
        config = config._replace(synthetic=_checked_keys(
            SyntheticParams, config.synthetic, prefix="synthetic.",
            skip=("n_categories",)))
    if any(c < 1 for c in config.categories):
        raise ConfigError("categories must be >= 1")
    if config.trace is not None and config.synthetic is not None:
        raise ConfigError("config sets both a trace file and synthetic parameters")
    if config.trace is None and config.synthetic is None:
        raise ConfigError("missing required config key: trace or synthetic")
    if config.trace_format not in TRACE_FORMATS:
        raise ConfigError(f"unknown trace_format: {config.trace_format!r}")
    try:
        config.router_config()
        config.schedule_config()
        if config.synthetic is not None:
            _synthetic_params(config, min(config.categories))
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _load_file_inputs(config: RunConfig):
    """Parse the trace and profile files (None for a synthetic config); a
    file that cannot be read or parsed, or a profile file with no profiles
    or with fewer bits than the largest category count, is a config error
    naming it. Every point replays the same files, so a scenario rule the
    first point breaks is a config error naming the trace file."""
    if config.synthetic is not None:
        return None
    path = config.trace
    try:
        trace_text = Path(path).read_text(encoding="utf-8")
        trace = parse_contact_trace(trace_text, fmt=config.trace_format)
        profiles: list[InterestProfile] = []
        if config.profiles is not None:
            path = config.profiles
            profiles = parse_interest_profiles(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, TraceError, InvalidParams) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if config.profiles is not None and not profiles:
        raise ConfigError(f"{path}: no profile lines")
    n = max(config.categories)
    if profiles and len(profiles[0].interests) < n:
        raise ConfigError(f"{path}: profiles have {len(profiles[0].interests)} bits, "
                          f"fewer than the {n} categories of the sweep")
    try:
        build_scenario(config, *_points(config)[0], (trace, profiles))
    except InvalidParams as exc:
        raise ConfigError(f"{config.trace}: {exc}") from exc
    return trace, profiles


def _points(config: RunConfig) -> list[tuple[int, int]]:
    """Every (n_categories, seed) sweep point, in run order."""
    return [(cat, seed) for cat in sorted(set(config.categories))
            for seed in sorted(set(config.seeds))]


def _synthetic_params(config: RunConfig, n_categories: int) -> SyntheticParams:
    return SyntheticParams(n_categories=n_categories, **config.synthetic)


def build_scenario(config: RunConfig, n_categories: int, seed: int,
                   file_inputs) -> Scenario:
    """Materialize one sweep point from `_load_file_inputs(config)`."""
    if config.synthetic is not None:
        trace, profiles = generate_synthetic_trace(
            _synthetic_params(config, n_categories), seed)
    else:
        trace, profiles = file_inputs
        profiles = [InterestProfile(p.node, p.interests[:n_categories])
                    for p in profiles]
    return Scenario(
        trace=trace,
        profiles=tuple(profiles),
        n_categories=n_categories,
        router=config.router_config(),
        schedule=config.schedule_config(),
        seed=seed,
    )


def _output_dir(config: RunConfig, create: bool = True) -> Path:
    """The configured output directory, created if missing when `create`;
    a path that cannot be a directory is a config error naming it."""
    if config.out is None:
        raise ConfigError("missing required config key: out")
    out = Path(config.out)
    try:
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            raise NotADirectoryError(f"{nearest} is not a directory")
        if create:
            out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _clear_earlier_sweep(out: Path) -> None:
    """Remove an earlier sweep's files from `out`; one that cannot be
    removed is a config error naming it."""
    try:
        for name in ("runs", "runs.partial"):
            if (out / name).exists():
                shutil.rmtree(out / name)
        for name in ("config.json", "failures.csv", "summary.csv"):
            (out / name).unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot clear an earlier sweep's output: {exc}") from exc


def _processes(n_points: int) -> int:
    """How many processes share a sweep's points: one per usable CPU, at
    most one per point, and 1 where fork is missing or unsafe (another
    thread could hold a lock the child would inherit)."""
    if (n_points < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(n_points, len(os.sched_getaffinity(0)))


def _run_point(config: RunConfig, file_inputs, out: Path, run_id: str, cat: int,
               seed: int) -> list:
    """[summary row, None] of one sweep point, after writing its run
    directory, or [None, error] if it failed."""
    try:
        scenario = build_scenario(config, cat, seed, file_inputs)
        result = run(scenario)
        summary = summary_row(build_report(result, run_id))
    except Exception as exc:  # surface errors with run coordinates
        return [None, str(exc)]
    run_dir = out / "runs.partial" / run_id
    run_dir.mkdir(parents=True)
    (run_dir / "per_message.csv").write_text(
        per_message_csv(result.records), encoding="utf-8")
    if result.clustering is not None:
        (run_dir / "clustering.txt").write_text(
            dump_clustering(result.clustering), encoding="utf-8")
    return [summary, None]


def _run_points(config: RunConfig, file_inputs, out: Path) -> list[list]:
    """[run_id, summary row, error] of every sweep point, in point order.
    With W processes, points i::W run in process i: the first share in
    this one, each other share in a forked worker that sends its entries
    back as one JSON document over a pipe. A point that a worker did not
    report fails with the worker's exit status."""
    points = [(f"n{cat}_s{seed}", cat, seed) for cat, seed in _points(config)]
    width = _processes(len(points))
    shares = [range(i, len(points), width) for i in range(width)]

    def run_share(share, report: list, parent: int | None = None) -> None:
        for index in share:
            if parent is not None and os.getppid() != parent:
                break   # orphaned: the sweep is over
            report.append([index, *_run_point(config, file_inputs, out, *points[index])])

    def worker(share, parent: int, write_fd: int):
        report, status = [], 1
        try:
            try:
                run_share(share, report, parent)
            finally:
                with open(write_fd, "w", encoding="utf-8") as pipe:
                    json.dump(report, pipe)
            status = 0
        except Exception:
            if os.getppid() == parent:   # an orphan has no one to report to
                sys.excepthook(*sys.exc_info())
        finally:
            os._exit(status)   # never the parent's cleanup or exit path

    parent = os.getpid()
    workers = []   # (pid, read end of its pipe, share)
    report, sent, statuses = [], [], []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                worker(share, parent, write_fd)
            os.close(write_fd)
            workers.append((pid, read_fd, share))
        run_share(shares[0], report)
        for _, read_fd, _ in workers:
            with open(read_fd, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
    finally:
        if len(sent) < len(workers):   # interrupted: no worker outlives the sweep
            import signal
            for pid, _, _ in workers:
                os.kill(pid, signal.SIGKILL)
        for pid, read_fd, _ in workers:
            os.close(read_fd)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (_, _, share), text, status in zip(workers, sent, statuses):
        try:
            entries = json.loads(text)
        except ValueError:
            entries = []
        report += entries
        reported = {index for index, _, _ in entries}
        for index in share:
            if index not in reported:
                # a dead worker may have left a finished or half-written run directory
                shutil.rmtree(out / "runs.partial" / points[index][0], ignore_errors=True)
                report.append([index, None, f"worker exited with status {status}"])
    return [[points[index][0], row, error] for index, row, error in sorted(report)]


def run_sweep(config: RunConfig) -> int:
    """Run every (n_categories, seed) pair and write the output tree."""
    file_inputs = _load_file_inputs(config)
    out = _output_dir(config)
    _clear_earlier_sweep(out)

    rows = [summary_header()]
    failures: list[tuple[str, str]] = []
    for run_id, row, error in _run_points(config, file_inputs, out):
        if error is None:
            rows.append(row)
        else:
            print(f"run {run_id} failed: {error}", file=sys.stderr)
            failures.append((run_id, error))
    if (out / "runs.partial").exists():
        os.replace(out / "runs.partial", out / "runs")
    (out / "config.json").write_text(
        json.dumps(config.effective(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    if failures:
        import csv   # here, so that starting the CLI does not load it
        with open(out / "failures.csv", "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(("run_id", "error"))
            writer.writerows(failures)
    (out / "summary.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 1 if failures else 0


def cmd_validate(config: RunConfig) -> int:
    scenario = build_scenario(config, *_points(config)[0], _load_file_inputs(config))
    report = validate_scenario(scenario.trace, scenario.profiles)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_gen_trace(config: RunConfig) -> int:
    if config.synthetic is None:
        raise ConfigError("missing required config key: synthetic")
    points = _points(config)
    if len(points) > 1:
        _output_dir(config, create=False)   # a bad --out is reported as such first
        raise ConfigError(f"gen-trace writes one (categories, seeds) point, the config "
                          f"has {len(points)}; pick one with --categories and --seed")
    out = _output_dir(config)
    scenario = build_scenario(config, *points[0], None)
    for name, text in (("trace.txt", serialize_contact_trace(scenario.trace)),
                       ("profiles.txt", serialize_profiles(scenario.profiles))):
        (out / name).write_text(text, encoding="utf-8")
        print(out / name)
    return 0


def _overrides(args) -> dict:
    categories = None
    if args.categories:
        try:
            categories = [int(v) for v in args.categories.split(",") if v.strip()]
        except ValueError:
            raise ConfigError("--categories must be comma-separated integers, "
                              f"got {args.categories!r}") from None
    return {"seed": args.seed, "categories": categories, "out": args.out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dtn-cluster-sim",
        description="Trace-driven simulator for interest-group message "
                    "dissemination in delay tolerant networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", run_sweep),
                          ("validate", cmd_validate),
                          ("gen-trace", cmd_gen_trace)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="replace the seed sweep with this single seed")
        p.add_argument("--categories", default=None,
                       help="comma-separated category counts, e.g. 1,5,10")
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    # a command makes no reference cycles, so the cyclic collector would only
    # rescan its records; forked workers inherit it off, callers get it back
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(parse_config(args.config, _overrides(args)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
