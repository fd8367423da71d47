"""The config file's schema, the sweep over its points and the
`dtn-cluster-sim` entry point, whose contract is README's CLI section."""

import gc
import json
import os
import shutil
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple, get_args

from . import __getattr__, _bind   # a package name loads on first use
from .trace_model import (InterestProfile, InvalidParams, RouterConfig, Scenario,
                          ScheduleConfig, TraceError, _check_categories, _checked, _is_int,
                          _is_real, validate_scenario)


class ConfigError(ValueError):
    """A config file, flag or input file that cannot be used; the message
    names the key, flag or file."""


@_checked
class RunConfig(NamedTuple):
    """The config file's schema: each field is one JSON key, with its type
    and its default, checked when built. Router and schedule defaults and
    rules come from the engine's own config classes."""

    categories: list[int]
    seeds: list[int] = [0]   # shared by every config that omits it; never mutated
    trace: str | None = None
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

    def _check(self):
        for name in ("categories", "seeds"):
            values = getattr(self, name)
            if not (isinstance(values, list) and values and all(map(_is_int, values))):
                raise InvalidParams(name, "need a non-empty list of integers")
        for n in self.categories:
            _check_categories(n, "categories")
        # a run id, n<category count>_s<seed>, names a directory
        if not all(-2**63 <= seed < 2**63 for seed in self.seeds):
            raise InvalidParams("seeds", "need integers from -2**63 to 2**63 - 1")
        for name in ("trace", "profiles", "out"):
            value = getattr(self, name)
            if not (value is None or isinstance(value, str) and value):   # "" names the cwd
                raise InvalidParams(name, "must be a non-empty string or null")
            try:   # a NUL, or a lone surrogate that no byte gave, reaches no file
                if value is not None and b"\0" in os.fsencode(value):
                    raise ValueError(value)
            except ValueError:   # UnicodeEncodeError among them
                detail = "holds a NUL or a character the OS cannot encode"
                raise InvalidParams(name, detail) from None
        if not isinstance(self.synthetic, (dict, type(None))):
            raise InvalidParams("synthetic", "must be an object or null")
        if self.trace is not None and self.synthetic is not None:
            raise InvalidParams("synthetic",
                                "config sets both a trace file and synthetic parameters")
        if self.trace is None and self.synthetic is None:
            raise InvalidParams("trace", "missing required config key: trace or synthetic")
        self.router_config()
        self.schedule_config()
        if self.trace is None and self.profiles is not None:
            raise InvalidParams("profiles", "applies to a trace file only")
        if self.trace is not None and self.profiles is None and self.mode == "kmeans":
            raise InvalidParams("mode", "kmeans needs a profiles file beside the trace")

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


def _checked_keys(cls, data: dict, prefix: str = "", skip=()) -> None:
    """Check the keys of `data` against the fields of NamedTuple `cls`:
    unknown keys and missing required keys are config errors."""
    names = [name for name in cls._fields if name not in skip]
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown config key: {prefix}{key}")
    for name in names:
        if name not in data and name not in cls._field_defaults:
            raise ConfigError(f"missing required config key: {prefix}{name}")


def _floats(cls, data: dict) -> dict:
    """`data` with the values of NamedTuple `cls`'s float keys that a record
    accepts as numbers (`_is_real`) made floats; the record rejects the rest."""
    floats = {key for key, hint in cls.__annotations__.items()
              if float in (hint, *get_args(hint))}
    return {key: float(value) if key in floats and _is_real(value) else value
            for key, value in data.items()}


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Load a JSON config file; non-None overrides win over file values.
    A key given twice in one object is a config error naming it."""
    def unique_keys(pairs: list) -> dict:
        data = dict(pairs)
        if len(data) < len(pairs):
            keys = [key for key, _ in pairs]
            twice = next(key for key in data if keys.count(key) > 1)
            raise ConfigError(f"config {path} gives key {twice!r} more than once")
        return data

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=unique_keys)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ConfigError:   # a key given twice
        raise
    except ValueError as exc:   # JSONDecodeError, or an integer of over 4,300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is not valid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} is not a JSON object")

    overrides = overrides or {}
    if overrides.get("seed") is not None:
        data["seeds"] = [overrides["seed"]]
    for key in ("categories", "out"):
        if overrides.get(key) is not None:
            data[key] = overrides[key]

    _checked_keys(RunConfig, data)
    data = _floats(RunConfig, data)
    if isinstance(data.get("synthetic"), dict):
        from .synthetic import SyntheticParams
        data["synthetic"] = _floats(SyntheticParams, data["synthetic"])
    prefix = ""   # the synthetic block's keys are named as in the config
    try:
        config = RunConfig(**data)
        if config.synthetic is not None:
            _checked_keys(SyntheticParams, config.synthetic, "synthetic.", ("n_categories",))
            prefix = "synthetic."
            _synthetic_params(config, min(config.categories))
    except InvalidParams as exc:
        raise ConfigError(str(InvalidParams(prefix + exc.field, exc.detail))) from exc
    return config


def _load_file_inputs(config: RunConfig):
    """Parse the trace and profile files (None for a synthetic config); a
    file that cannot be read or parsed, or a profile file with no profiles
    or with fewer bits than the largest category count, is a config error
    naming it. Every point replays the same files, so a scenario rule the
    first point breaks is a config error naming the trace file."""
    if config.synthetic is not None:
        return None
    _bind(globals(), "parse_contact_trace", "parse_interest_profiles")
    path = config.trace
    try:
        trace_text = Path(path).read_text(encoding="utf-8")
        trace = parse_contact_trace(trace_text)
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


def _synthetic_params(config: RunConfig, n_categories: int):
    from .synthetic import SyntheticParams
    return SyntheticParams(n_categories=n_categories, **config.synthetic)


def build_scenario(config: RunConfig, n_categories: int, seed: int,
                   file_inputs) -> Scenario:
    """Materialize one sweep point from `_load_file_inputs(config)`."""
    if config.synthetic is not None:
        _bind(globals(), "generate_synthetic_trace")
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


# what each command that writes puts in `out`: its trees, then its files
_OUTPUTS = {"run": (("runs", "runs.partial"), ("config.json", "failures.csv", "summary.csv")),
            "gen-trace": ((), ("trace.txt", "profiles.txt"))}


def _output_dir(config: RunConfig, command: str, config_path, create: bool = True) -> Path:
    """The configured output directory, created if missing when `create`.
    A path that cannot be a directory, or an input file (the config at
    `config_path`, the trace or the profiles) among what `command` writes
    there, is a config error naming it."""
    if config.out is None:
        raise ConfigError("missing required config key: out")
    out = Path(config.out)
    whose = "the sweep's" if command == "run" else f"{command}'s"
    dirs, files = _OUTPUTS[command]
    outputs = [os.path.realpath(out / name) for name in dirs + files]
    for path in filter(None, (config_path, config.trace, config.profiles)):
        if any(map(Path(path).resolve().is_relative_to, outputs)):
            raise ConfigError(f"{path}: an input file among {whose} outputs in {out}")
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
    removed, a symbolic link among them, is a config error naming it."""
    dirs, files = _OUTPUTS["run"]
    for name in dirs + files:
        path = out / name
        try:
            if name in files:
                path.unlink(missing_ok=True)
            elif os.path.lexists(path):   # a dangling symbolic link too, which rmtree refuses
                shutil.rmtree(path)
        except OSError as exc:
            raise ConfigError(f"cannot clear an earlier sweep's output {path}: {exc}") from exc


def _run_point(config: RunConfig, file_inputs, out: Path, run_id: str, cat: int,
               seed: int) -> list:
    """[summary row, None] of one sweep point, after writing its run
    directory, or [None, error] if it failed."""
    try:
        scenario = build_scenario(config, cat, seed, file_inputs)
        result = run(scenario)
        summary = summary_row(build_report(result, run_id))
    except Exception as exc:  # surface errors with run coordinates
        return [None, str(exc) or type(exc).__name__]   # MemoryError() has no text
    run_dir = out / "runs.partial" / run_id
    run_dir.mkdir(parents=True)
    (run_dir / "per_message.csv").write_text(
        per_message_csv(result.records), encoding="utf-8")
    if result.clustering is not None:
        (run_dir / "clustering.txt").write_text(
            dump_clustering(result.clustering), encoding="utf-8")
    return [summary, None]


def run_sweep(config: RunConfig, config_path=None) -> int:
    """Run every (n_categories, seed) pair and write the output tree;
    `config_path` names the file `config` was read from."""
    file_inputs = _load_file_inputs(config)
    out = _output_dir(config, "run", config_path)
    _clear_earlier_sweep(out)
    # bound before `_run_points` forks, so that the workers inherit the layers loaded
    _bind(globals(), "run", "build_report", "per_message_csv", "summary_row",
          *(["dump_clustering"] if config.mode == "kmeans" else []))   # clustering: k-means only
    from .metrics import summary_header

    rows = [summary_header()]
    failures: list[tuple[str, str]] = []
    points = [(f"n{cat}_s{seed}", cat, seed) for cat, seed in _points(config)]
    run_point = partial(_run_point, config, file_inputs, out)
    if len(points) == 1:   # one point never forks, so it needs no worker pool
        entries = [[points[0][0], *run_point(*points[0])]]
    else:
        from .workers import _run_points
        entries = _run_points(points, run_point, out / "runs.partial")
    for run_id, row, error in entries:
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


def cmd_validate(config: RunConfig, config_path=None) -> int:
    scenario = build_scenario(config, *_points(config)[0], _load_file_inputs(config))
    gaps = validate_scenario(scenario.trace, scenario.profiles)
    print("\n".join(gaps or ["scenario consistent"]))
    return 1 if gaps else 0


def cmd_gen_trace(config: RunConfig, config_path=None) -> int:
    if config.synthetic is None:
        raise ConfigError("missing required config key: synthetic")
    points = _points(config)
    if len(points) > 1:
        # a bad --out, or an input among the outputs, is reported as such first
        _output_dir(config, "gen-trace", config_path, create=False)
        raise ConfigError(f"gen-trace writes one (categories, seeds) point, the config "
                          f"has {len(points)}; pick one with --categories and --seed")
    scenario = build_scenario(config, *points[0], None)
    out = _output_dir(config, "gen-trace", config_path)
    from .trace_files import serialize_contact_trace, serialize_profiles
    for name, text in (("trace.txt", serialize_contact_trace(scenario.trace)),
                       ("profiles.txt", serialize_profiles(scenario.profiles))):
        (out / name).write_text(text, encoding="utf-8")
        print(out / name)
    return 0


def _overrides(args: dict) -> dict:
    """The flags' config values, numbers read by the input files' rule
    (`trace_files._check_ascii`): `int()` alone reads `1_0` as 10, and an
    empty item is an error, as an empty flag is."""
    def read(flag: str, what: str, parse):
        from .trace_files import _check_ascii
        text = args[flag]
        try:
            _check_ascii(text)
            return parse(text)
        except (TraceError, ValueError):
            raise ConfigError(f"--{flag} must be {what}, got {text!r}") from None

    seed = None if args["seed"] is None else read("seed", "an integer", int)
    categories = (None if args["categories"] is None else read(
        "categories", "comma-separated integers",
        lambda text: [int(v) for v in text.split(",")]))
    return {"seed": seed, "categories": categories, "out": args["out"]}


# the commands, given the config and its file, and their flags, which both command-line readers use
_COMMANDS = {"run": run_sweep, "validate": cmd_validate, "gen-trace": cmd_gen_trace}
_FLAGS = {"--config": "JSON config file",
          "--seed": "replace the seed sweep with this single seed",
          "--categories": "comma-separated category counts, e.g. 1,5,10",
          "--out": "output directory"}


def _plain_args(argv: list[str]) -> dict | None:
    """The handler and flag values of a plain line, which argparse reads
    alike: a command, then each flag at most once, `--config` among them,
    with a value that does not start with `-`. None for any other line."""
    pairs = dict(zip(argv[1::2], argv[2::2]))
    if (argv and argv[0] in _COMMANDS and len(argv) == 2 * len(pairs) + 1
            and "--config" in pairs and pairs.keys() <= _FLAGS.keys()
            and not any(value.startswith("-") for value in pairs.values())):
        return {"handler": _COMMANDS[argv[0]], **{f[2:]: pairs.get(f) for f in _FLAGS}}


def _parser():
    """The reader of help and of every line that is not plain."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="dtn-cluster-sim",
        description="Trace-driven simulator for interest-group message "
                    "dissemination in delay tolerant networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, text in _FLAGS.items():
            p.add_argument(flag, required=flag == "--config", help=text)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or vars(_parser().parse_args(argv))
    # a command makes no reference cycles, so the cyclic collector would only
    # rescan its records; forked workers inherit it off, callers get it back.
    # main never freezes: a freeze that is never undone would pin the caller's heap
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args["handler"](parse_config(args["config"], _overrides(args)), args["config"])
    except (ConfigError, InvalidParams) as exc:   # the latter from a synthetic scenario
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    """The process entry: `python -m dtn_cluster_sim.cli` and the installed
    `dtn-cluster-sim` script. It moves what imports and `site` made into
    the collector's permanent generation, so the collections that the
    interpreter runs at exit skip them, then exits with main's status."""
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
