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

Exit status: 0 all runs fine, 1 any run failed, 2 config error or an input
file that cannot be read or parsed.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import shutil
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .clustering import dump_clustering
from .metrics import build_report, per_message_csv, summary_header, summary_row
from .sim_engine import (GROUP_MODES, ROUTER_KINDS, RouterConfig, Scenario,
                         ScheduleConfig, run)
from .trace_model import (TRACE_FORMATS, InterestProfile, InvalidParams,
                          SyntheticParams, TraceError, generate_synthetic_trace,
                          parse_contact_trace, parse_interest_profiles,
                          serialize_contact_trace, serialize_profiles,
                          validate_scenario)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    pass


class UnknownKey(ConfigError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown config key: {name}")


class MissingRequired(ConfigError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing required config key: {name}")


class ConflictingSources(ConfigError):
    def __init__(self):
        super().__init__("config sets both a trace file and synthetic parameters")


@dataclass
class RunConfig:
    """The config file's schema: each field is one JSON key, with its type
    and its default. Router and schedule defaults come from the engine's
    own config classes."""

    categories: list[int]
    seeds: list[int] = field(default_factory=lambda: [0])
    trace: str | None = None
    trace_format: str = "tabular"
    profiles: str | None = None
    out: str | None = None
    router: str = RouterConfig.kind
    mode: str = RouterConfig.mode
    strict: bool = RouterConfig.strict
    threshold: float = RouterConfig.threshold
    k_clusters: int | None = RouterConfig.k_clusters
    buffer_capacity: int | None = RouterConfig.buffer_capacity
    ttl: float | None = RouterConfig.ttl
    max_transfers_per_contact: int | None = RouterConfig.max_transfers_per_contact
    message_count: int = 20
    message_interval: float | None = ScheduleConfig.interval
    track_final: bool = ScheduleConfig.track_final
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
        echo = asdict(self)
        del echo["out"]
        return echo


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# declared field type -> (accepts a JSON value, what the error asks for)
_TYPE_RULES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_is_int, "an integer"),
    float: (lambda v: _is_int(v) or isinstance(v, float), "a number"),
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
    """The keys of `data` checked against the fields of dataclass `cls`:
    unknown keys, missing required keys and wrong types are config errors."""
    hints = get_type_hints(cls)
    declared = [f for f in fields(cls) if f.name not in skip]
    names = {f.name for f in declared}
    for key in data:
        if key not in names:
            raise UnknownKey(prefix + key)
    for f in declared:
        if (f.name not in data and f.default is MISSING
                and f.default_factory is MISSING):
            raise MissingRequired(prefix + f.name)
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
    for key in ("categories", "router", "mode", "strict", "out"):
        if overrides.get(key) is not None:
            data[key] = overrides[key]

    config = RunConfig(**_checked_keys(RunConfig, data))
    if config.synthetic is not None:
        config.synthetic = _checked_keys(SyntheticParams, config.synthetic,
                                         prefix="synthetic.", skip=("n_categories",))
    if any(c < 1 for c in config.categories):
        raise ConfigError("categories must be >= 1")
    if config.trace is not None and config.synthetic is not None:
        raise ConflictingSources()
    if config.trace is None and config.synthetic is None:
        raise MissingRequired("trace or synthetic")
    if config.trace_format not in TRACE_FORMATS:
        raise ConfigError(f"unknown trace_format: {config.trace_format!r}")
    try:
        config.router_config().validate()
        config.schedule_config().validate()
        if config.synthetic is not None:
            _synthetic_params(config, min(config.categories)).validate()
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc
    return config


def sniff_profile_arity(text: str) -> int:
    """Interest-vector length implied by the first data line of a profile file."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            return len(stripped.split()) - 1
    return 0


def adapt_profiles(profiles: list[InterestProfile], n: int) -> list[InterestProfile]:
    """Fit profiles to a scenario with n categories: extra bits are cut,
    missing bits filled with zeros."""
    out = []
    changed = False
    for p in profiles:
        bits = p.interests
        if len(bits) > n:
            bits = bits[:n]
            changed = True
        elif len(bits) < n:
            bits = bits + (0,) * (n - len(bits))
            changed = True
        out.append(InterestProfile(p.node, bits))
    if changed:
        log.info("profiles adapted to %d categories (truncate/zero-pad)", n)
    return out


def _load_file_inputs(config: RunConfig):
    """Parse the trace and profile files; a file that cannot be read or
    parsed is a config error naming it."""
    path = config.trace
    try:
        trace_text = Path(path).read_text(encoding="utf-8")
        trace = parse_contact_trace(trace_text, fmt=config.trace_format)
        profiles: list[InterestProfile] = []
        if config.profiles is not None:
            path = config.profiles
            profile_text = Path(path).read_text(encoding="utf-8")
            arity = sniff_profile_arity(profile_text)
            profiles = parse_interest_profiles(profile_text, arity)
    except (OSError, UnicodeDecodeError, TraceError, InvalidParams) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return trace, profiles


def _synthetic_params(config: RunConfig, n_categories: int) -> SyntheticParams:
    return SyntheticParams(n_categories=n_categories, **config.synthetic)


def build_scenario(config: RunConfig, n_categories: int, seed: int,
                   file_inputs=None) -> Scenario:
    """Materialize one sweep point."""
    if config.synthetic is not None:
        trace, profiles = generate_synthetic_trace(
            _synthetic_params(config, n_categories), seed)
    else:
        trace, profiles = file_inputs if file_inputs is not None \
            else _load_file_inputs(config)
        profiles = adapt_profiles(profiles, n_categories)
    return Scenario(
        trace=trace,
        profiles=tuple(profiles),
        n_categories=n_categories,
        router=config.router_config(),
        schedule=config.schedule_config(),
        seed=seed,
    )


def run_sweep(config: RunConfig) -> int:
    """Run every (n_categories, seed) pair and write the output tree."""
    if config.out is None:
        raise MissingRequired("out")
    file_inputs = None
    if config.synthetic is None:
        file_inputs = _load_file_inputs(config)

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    if (out / "runs").exists():  # left by an earlier sweep into `out`
        shutil.rmtree(out / "runs")
    (out / "config.json").write_text(
        json.dumps(config.effective(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8")

    rows = [summary_header()]
    failures: list[tuple[str, str]] = []
    for cat in sorted(set(config.categories)):
        for seed in sorted(set(config.seeds)):
            run_id = f"n{cat}_s{seed}"
            try:
                scenario = build_scenario(config, cat, seed, file_inputs)
                result = run(scenario)
                report = build_report(result, run_id)
            except Exception as exc:  # surface errors with run coordinates
                print(f"run {run_id} failed: {exc}", file=sys.stderr)
                failures.append((run_id, str(exc)))
                continue
            run_dir = out / "runs" / run_id
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "per_message.csv").write_text(
                per_message_csv(result.records), encoding="utf-8")
            if result.clustering is not None:
                (run_dir / "clustering.txt").write_text(
                    dump_clustering(result.clustering), encoding="utf-8")
            rows.append(summary_row(report))
    (out / "summary.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    failures_path = out / "failures.csv"
    failures_path.unlink(missing_ok=True)  # left by an earlier sweep into `out`
    if failures:
        with open(failures_path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(("run_id", "error"))
            writer.writerows(failures)
    return 1 if failures else 0


def _first_point(config: RunConfig) -> tuple[int, int]:
    return sorted(set(config.categories))[0], sorted(set(config.seeds))[0]


def cmd_run(args) -> int:
    config = parse_config(args.config, _overrides(args))
    return run_sweep(config)


def cmd_validate(args) -> int:
    config = parse_config(args.config, _overrides(args))
    cat, seed = _first_point(config)
    scenario = build_scenario(config, cat, seed)
    report = validate_scenario(scenario.trace, scenario.profiles)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_gen_trace(args) -> int:
    config = parse_config(args.config, _overrides(args))
    if config.synthetic is None:
        raise MissingRequired("synthetic")
    if config.out is None:
        raise MissingRequired("out")
    cat, seed = _first_point(config)
    trace, profiles = generate_synthetic_trace(_synthetic_params(config, cat), seed)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.txt"
    profile_path = out / "profiles.txt"
    trace_path.write_text(serialize_contact_trace(trace), encoding="utf-8")
    profile_path.write_text(serialize_profiles(profiles), encoding="utf-8")
    print(trace_path)
    print(profile_path)
    return 0


def _overrides(args) -> dict:
    categories = None
    if getattr(args, "categories", None):
        categories = [int(v) for v in args.categories.split(",") if v.strip()]
    return {
        "seed": getattr(args, "seed", None),
        "router": getattr(args, "router", None),
        "mode": getattr(args, "mode", None),
        "strict": True if getattr(args, "strict", None) else None,
        "categories": categories,
        "out": getattr(args, "out", None),
    }


def _add_common_flags(parser):
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="replace the seed sweep with this single seed")
    parser.add_argument("--router", choices=ROUTER_KINDS, default=None)
    parser.add_argument("--mode", choices=GROUP_MODES, default=None)
    parser.add_argument("--strict", action="store_true", default=None,
                        help="close the whole contact on the first non-member peer")
    parser.add_argument("--categories", default=None,
                        help="comma-separated category counts, e.g. 1,5,10")
    parser.add_argument("--out", default=None, help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dtn-cluster-sim",
        description="Trace-driven simulator for interest-group message "
                    "dissemination in delay tolerant networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", cmd_run),
                          ("validate", cmd_validate),
                          ("gen-trace", cmd_gen_trace)):
        p = sub.add_parser(name)
        _add_common_flags(p)
        p.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
