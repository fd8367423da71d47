"""The mutation gate: each mutant of `src/dtn_cluster_sim/` below, applied
alone to a fresh copy of `src/`, must make its pytest targets fail.

    python tests/mutants.py

It takes no arguments. It checks that every mutant applies and compiles,
that the unmutated copy passes the union of all targets, and then, for
each mutant with targets, that the copy is what `dtn_cluster_sim` imports
and that `pytest -q -x` on its targets exits with status 1. Status 0 means
the mutant survived; any other status (an error in collection, a usage
error, no test collected, or a target that names no test) is a gate error,
never a kill. The outcome-equivalent mutants, which change no outcome and
so have no targets, are only applied and compiled; each reason holds the
measurement of what such a mutant does change. It exits 0 only when every
mutant with targets is killed.

Each mutant is a list of exact `(old, new)` substring edits, and each old
text must occur exactly once in its file. `tests/test_mutants.py` holds
the table to `src/` in tier-1, so a change that moves an anchor text moves
its mutant in the same diff.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "dtn_cluster_sim"


class Mutant(NamedTuple):
    file: str   # under src/dtn_cluster_sim/
    edits: tuple[tuple[str, str], ...]   # (old, new), each old text once in the file
    targets: tuple[str, ...]   # pytest targets that must kill it; none if outcome-equivalent
    reason: str


def mutant(file: str, old: str, new: str, *targets: str, reason: str) -> Mutant:
    """A mutant of one edit."""
    return Mutant(file, ((old, new),), targets, reason)


CLI_TESTS = "tests/test_cli.py"
BAD_VALUE = "tests/test_cli.py::TestMainEntry::test_bad_value_or_file_exits_2"
INPUT_PATH = "tests/test_cli.py::test_each_config_loads_only_its_input_path"

MUTANTS = (
    mutant("sim_engine.py", "else n, distinct)", "else n, distinct, 8)",
           "tests/test_clustering.py", "tests/test_sim_engine.py",
           reason="k capped at 8 in _resolve_groups, which every tier-1 test passed "
                  "before the wide k-means matrix"),
    mutant("clustering.py", "nearest.append(d.index(least))",
           "nearest.append(len(d) - 1 - d[::-1].index(least))",
           "tests/test_clustering.py", "tests/test_sim_engine.py",
           reason="nearest-centroid ties go to the highest index instead of the lowest"),
    mutant("sim_engine.py", "    strict = rc.strict ", "    strict = False ",
           "tests/test_sim_engine.py",
           reason="the strict rule never asked, so no contact is ever closed"),
    mutant("trace_files.py", "0.0 <= t_start < t_end < _INF", "0.0 <= t_start <= t_end < _INF",
           "tests/test_trace_model.py",
           reason="a contact with t_start == t_end accepted by _add_contact"),
    mutant("metrics.py", "for r in records) / len(delivered)", "for r in records) / len(records)",
           "tests/test_metrics.py",
           reason="avg_cost divides by all records instead of the delivered ones"),
    mutant("cli.py", "from typing import NamedTuple, get_args\n",
           "from typing import NamedTuple, get_args\nfrom .sim_engine import run\n", CLI_TESTS,
           reason="`run` imported from sim_engine at the top of cli: the outcome is the same, "
                  "but validate then loads the replay layer"),
    mutant("cli.py", "from typing import NamedTuple, get_args\n",
           "from typing import NamedTuple, get_args\nfrom .trace_files import parse_contact_trace\n",
           INPUT_PATH,
           reason="`parse_contact_trace` imported from trace_files at the top of cli: the outcome "
                  "is the same, but a synthetic config then loads the file formats"),
    mutant("__init__.py", "namespace.setdefault(name, __getattr__(name))",
           "namespace[name] = __getattr__(name)", CLI_TESTS,
           reason="the lazy names bound over a name already set on cli or sim_engine "
                  "(perfbench's tracer sets its wrappers there before main)"),
    mutant("trace_files.py", 'if text.isascii() and "_" not in text:', "if text.isascii():",
           BAD_VALUE,
           reason="_check_ascii's fast path tests only isascii(), so `1_0` reads as 10"),
    mutant("trace_files.py", 'if len(first) > 1 and first[1].upper() == "CONN":', "if False:",
           "tests/test_trace_model.py::TestParseOneEvents",
           reason="every trace read as tabular, so a one_events line is a field-count error"),
    mutant("trace_files.py", 'first[1].upper() == "CONN"', 'first[1] == "CONN"',
           "tests/test_trace_model.py::TestDetectFormat",
           reason="only an upper-case `CONN` marks a one_events trace, which `_one_events` "
                  "reads in any case"),
    mutant("sim_engine.py", "        drops += len(buffer.insert", "        drops = len(buffer.insert",
           "tests/test_sim_engine.py",
           reason="a run's drops set instead of added to"),
    mutant("sim_engine.py", "expired += len(buffer.purge_expired(scenario.trace.duration",
           "expired = len(buffer.purge_expired(scenario.trace.duration",
           "tests/test_sim_engine.py",
           reason="the expired copies of a run's closing purge set instead of added to"),
    mutant("sim_engine.py", "forwards=sum(r.forwards_total for r in records)",
           "forwards=len(records)", "tests/test_sim_engine.py",
           reason="a run's forwards counted as its messages, not read off the receipt log"),
    mutant("sim_engine.py", "entry.message.created_at > ttl]", "entry.message.created_at >= ttl]",
           "tests/test_sim_engine.py", "tests/test_routing.py",
           reason="a copy purged when its age equals the TTL instead of past it"),
    mutant("sim_engine.py", "evicted = self._log.pop(0)", "evicted = self._log.pop()",
           "tests/test_sim_engine.py", "tests/test_routing.py",
           reason="a full buffer evicts its newest entry instead of its oldest"),
    mutant("sim_engine.py", "entry.hops + 1)", "entry.hops)", "tests/test_sim_engine.py",
           reason="a forward stores the carrier's hop count instead of one more"),
    Mutant("sim_engine.py", (("(m.created_at, 1, m.id, None)", "(m.created_at, 3, m.id, None)"),
                             ("if rank == 1:", "if rank == 3:")),
           ("tests/test_sim_engine.py",),
           reason="creations ranked after contact starts at one instant"),
    mutant("sim_engine.py", " and msg.id not in delivered:", ":", "tests/test_sim_engine.py",
           reason="the first group receipt overwritten by later ones"),
    mutant("sim_engine.py", "if not budget[pair]:", "if budget[pair] < 0:",
           "tests/test_sim_engine.py",
           reason="an exchange goes on past a spent transfer budget"),
    mutant("cli.py", "except ValueError as exc:", "except json.JSONDecodeError as exc:",
           "tests/test_cli.py::TestMainEntry::test_config_file_that_is_no_config_exits_2",
           reason="parse_config catches only JSONDecodeError, so an integer of more than "
                  "4,300 digits escapes as a traceback"),
    mutant("cli.py", "if not all(-2**63 <= seed < 2**63 for seed in self.seeds):", "if False:",
           BAD_VALUE,
           reason="the 64-bit seed bound dropped from RunConfig._check, so a seed too long for "
                  "a run id's file name gets past the config check"),
    mutant("workers.py", "                _pin({cpu})\n", "", CLI_TESTS,
           reason="a forked worker's pin to its own CPU deleted, so it shares the caller's CPU"),
    mutant("workers.py", "            _pin(cpus)\n", "            pass\n", CLI_TESTS,
           reason="the restore of the caller's CPU mask in _run_points' `finally` deleted, so "
                  "pytest or the tracer is left pinned to one CPU"),
    mutant("cli.py", 'and not any(value.startswith("-") for value in pairs.values())', "and True",
           CLI_TESTS,
           reason="the plain command-line reader accepts a value that starts with `-`, which "
                  "argparse may read as a flag"),
    mutant("cli.py", " and pairs.keys() <= _FLAGS.keys()", "", CLI_TESTS,
           reason="the plain reader accepts a flag outside its table, such as `--router` or "
                  "the abbreviation `--conf`"),
    mutant("cli.py", 'int(v) for v in text.split(",")]', 'int(v) for v in text.split(",") if v.strip()]',
           CLI_TESTS,
           reason="`--categories` skips its empty items, so `1,,2` runs as 1,2"),
    mutant("trace_model.py", 'if self.strict and self.kind != "cluster":', "if False:",
           "tests/test_sim_engine.py",
           reason="RouterConfig takes `strict` beside the epidemic router"),
    mutant("trace_model.py", 'if self.k_clusters is not None and self.mode != "kmeans":',
           "if False:", "tests/test_sim_engine.py",
           reason="RouterConfig takes `k_clusters` in exact mode"),
    mutant("trace_model.py",
           "if self.explicit is not None and (self.count or self.interval is not None):",
           "if False:", "tests/test_sim_engine.py",
           reason="ScheduleConfig takes a `count` or an `interval` beside an explicit schedule"),
    mutant("cli.py", "if self.trace is None and self.profiles is not None:", "if False:",
           CLI_TESTS,
           reason="RunConfig takes `profiles` without a trace file"),
    mutant("cli.py", "for path in filter(None, (config_path, config.trace, config.profiles)):",
           "for path in ():", CLI_TESTS,
           reason="a sweep skips its input guard, so clearing its output removes or rewrites "
                  "its own config, trace or profile file"),
    mutant("cli.py", '"gen-trace": ((), ("trace.txt", "profiles.txt"))', '"gen-trace": ((), ())',
           CLI_TESTS,
           reason="gen-trace's row of the output table emptied, so it writes its trace over "
                  "its own config"),
    mutant("cli.py", r'if value is not None and b"\0" in os.fsencode(value):', "if False:",
           BAD_VALUE,
           reason="RunConfig takes a path with a NUL or a lone surrogate, which ends in a "
                  "traceback where the OS is handed it"),
    mutant("cli.py", '*(["dump_clustering"] if config.mode == "kmeans" else [])',
           '"dump_clustering"', INPUT_PATH,
           reason="cli binds dump_clustering in every mode, so an exact-mode run compiles the "
                  "k-means layer it never calls"),
    mutant("sim_engine.py", '    if rc.mode == "kmeans":\n        _bind(globals(), ',
           '    _bind(globals(), "kmeans", "points_of", "resolve_group_kmeans")\n'
           '    if rc.mode == "kmeans":\n        _bind(globals(), ', INPUT_PATH,
           reason="the replay binds the k-means names in every mode, so an exact-mode run "
                  "compiles the k-means layer it never calls"),
    mutant("cli.py", 'if self.trace is not None and self.profiles is None and self.mode == "kmeans":',
           "if False:", BAD_VALUE,
           reason="RunConfig takes kmeans mode on a trace file without profiles, which runs no "
                  "k-means and leaves every group empty"),
    mutant("trace_model.py", 'if self.router.mode == "kmeans" and not self.profiles:',
           "if False:", "tests/test_sim_engine.py::test_settings_rule_raises_where_built",
           reason="Scenario takes kmeans mode without profiles, which runs no k-means and "
                  "leaves every group empty"),
    mutant("cli.py", "if len(points) == 1:", "if False:", INPUT_PATH,
           reason="the worker pool imported for a one-point sweep, which never forks"),
    mutant("workers.py", "from pathlib import Path\n",
           "from pathlib import Path\n\nfrom .cli import ConfigError\n",
           "tests/test_cli.py::test_no_module_imports_cli",
           reason="a module imports cli: under `python -m dtn_cluster_sim.cli`, cli runs as "
                  "__main__, so the import compiles and runs it a second time (such an import "
                  "in workers raised bounded-sweep sweep_s 8.8%)"),
    mutant("sim_engine.py",
           "sweep(t, None, (msg.source,))\n            if not (pending or outstanding):",
           "sweep(t, None, (msg.source,))\n            if not outstanding:",
           "tests/test_sim_engine.py",
           reason="a replay ends once every offer is received at a creation, though later "
                  "creations are left"),
    mutant("sim_engine.py",
           "sweep(t, info, gainers)\n                    if not (pending or outstanding):",
           "sweep(t, info, gainers)\n                    if not outstanding:",
           "tests/test_sim_engine.py",
           reason="a replay ends once every offer is received at a contact, though later "
                  "creations are left"),
    mutant("sim_engine.py", "- (msg.id in need[msg.source])", "- 1", "tests/test_sim_engine.py",
           reason="a creation's offers counted one short when its source is outside the "
                  "offered set, so the replay ends before the last of them is received"),
    mutant("cli.py", "return 1 if gaps else 0", "return 0",
           "tests/test_cli.py::TestMainEntry::test_validate_flags_gaps",
           reason="validate exits 0 on a scenario with gaps"),
    Mutant("trace_model.py",
           (('"nodes in trace without a profile", trace_nodes',
             '"profiles for nodes absent from trace", trace_nodes'),
            ('"profiles for nodes absent from trace", profile_nodes',
             '"nodes in trace without a profile", profile_nodes')),
           ("tests/test_trace_model.py::TestValidateScenario",),
           reason="the two gap labels swapped, so each names the other side's ids"),
    # outcome-equivalent: no outcome test can kill these
    Mutant("sim_engine.py",
           (("if strict and interest_cluster_transfer(\n"
             "                        entry.message, peer, strict=True)",
             "if interest_cluster_transfer(\n"
             "                        entry.message, peer, strict=strict)"),), (),
           reason="the rule asked about every offer in every mode, not only in strict mode: "
                  "bounded-sweep's in-process replay of its four points took a median 38.2 ms "
                  "against 35.8 ms (best of 20 on one CPU, 5 alternating rounds), and "
                  "`routing.decisions` goes from 0 to 4,770 under perfbench's --trace 1. Only "
                  "the call-counting spy in test_cluster_rule_sees_only_wanted_offers fails on it"),
    Mutant("sim_engine.py",
           (("                for contacts, other in ended:\n"
             "                    contacts.pop(other, None)\n", ""),), (),
           reason="sweep's cleanup of ended contacts dropped: the one-day TTL run went from "
                  "1,365 to 1,805 ms, and the one-day flood from 3,143 to 4,051 ms"),
    mutant("sim_engine.py", "if (held_a or held_b) and not (", "if not (",
           reason="the `held_a or held_b` prefilter at a contact start dropped: the "
                  "conference-file replay went from 29.4 to 32.1 ms"),
    mutant("sim_engine.py", "or other > pair", "or other >= pair",
           reason="`other > pair` -> `>=` in sweep's pass key: after the `other != pair` test "
                  "both compare alike, so it changes no speed either: bounded-sweep's replay "
                  "took a median 42.3 ms against 42.0 ms (best of 20 on one CPU, 9 alternating "
                  "rounds)"),
    Mutant("sim_engine.py",
           (("                expired += len(buffer.purge_expired(t, ttl))\n"
             "                if needed.isdisjoint(buffer.held):\n"
             "                    continue\n",
             "                expired += len(buffer.purge_expired(t, ttl))\n"),), (),
           reason="the offer re-test after a purge in exchange dropped: bounded-sweep's replay "
                  "took a median 41.6 ms against 42.0 ms, while calls to "
                  "Buffer.in_exchange_order, each a walk that then forwards nothing, rose from "
                  "2,955 to 3,122 (from 173 to 342 on conference-file)"),
    mutant("sim_engine.py", "                outstanding -= 1\n", "",
           reason="a forward's offer never counted as received, so a replay never settles and "
                  "walks every contact: flood-100's in-process replay took a median 4.67 ms "
                  "against 2.54 ms (4.35 ms before the replay could settle; median of 80 on one "
                  "CPU, 6 alternating rounds). Only the Buffer.held read count in "
                  "test_contacts_after_settling_change_nothing fails on it"),
)


def apply(row: Mutant, text: str) -> str:
    """`text` with the row's edits made; a ValueError if an old text does
    not occur exactly once, or an edit changes nothing."""
    for old, new in row.edits:
        if old == new:
            raise ValueError(f"edit changes nothing: {old!r}")
        if text.count(old) != 1:
            raise ValueError(f"old text occurs {text.count(old)} times, not once: {old!r}")
        text = text.replace(old, new)
    return text


def mutated(row: Mutant) -> str:
    """The row's file in `src/` with its edits made, checked to compile."""
    path = ROOT / "src" / PACKAGE / row.file
    text = apply(row, path.read_text(encoding="utf-8"))
    compile(text, str(path), "exec")
    return text


def verdict(status: int) -> str:
    """What pytest's exit status says of a mutant: only 1, tests that ran
    and failed, is a kill."""
    return {0: "survived", 1: "killed"}.get(status, "error")


def _copy(work: Path) -> Path:
    """A fresh copy of `src/` and `pyproject.toml` (test_cli reads the
    script entry point from it) under `work`; returns the copy's src."""
    work.mkdir()
    shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", work)
    return work / "src"


def _pytest(src: Path, targets) -> tuple[int, str]:
    """pytest's exit status on `targets` with `src` on the path, and its
    output; status -1 if `dtn_cluster_sim` is not imported from `src`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    imported = subprocess.run(
        [sys.executable, "-c", "import dtn_cluster_sim; print(dtn_cluster_sim.__file__)"],
        env=env, capture_output=True, text=True)
    if imported.returncode or not imported.stdout.startswith(str(src)):
        return -1, f"dtn_cluster_sim is not imported from {src}: {imported.stdout}{imported.stderr}"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *targets], cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def main() -> int:
    start = time.perf_counter()
    broken = 0
    for i, row in enumerate(MUTANTS, 1):
        try:
            mutated(row)
        except (ValueError, SyntaxError) as exc:
            print(f"error: mutant {i} ({row.file}): {type(exc).__name__}: {exc}")
            broken += 1
    if broken:
        return 1
    targets = {target: None for row in MUTANTS for target in row.targets}
    # a node id under a whole file in the union runs with that file
    union = [t for t in targets if t.partition("::")[0] == t or t.partition("::")[0] not in targets]
    faults = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        status, output = _pytest(_copy(Path(tmp, "baseline")), union)
        if status:
            print(f"{output}error: the unmutated copy fails its tests (pytest status {status})")
            return 1
        for i, row in enumerate(MUTANTS, 1):
            name = f"mutant {i} ({row.file}: {row.reason.split(':')[0]})"
            if not row.targets:
                print(f"outcome-equivalent, applied and compiled: {name}")
                continue
            src = _copy(Path(tmp, str(i)))
            (src / PACKAGE / row.file).write_text(mutated(row), encoding="utf-8")
            status, output = _pytest(src, row.targets)
            said = verdict(status)
            if said != "killed":
                print(f"{output}{said}: {name}, pytest status {status}")
                faults += 1
            else:
                print(f"killed: {name}")
            shutil.rmtree(src.parent)
    killable = sum(bool(row.targets) for row in MUTANTS)
    print(f"{killable - faults} of {killable} mutants killed, "
          f"{len(MUTANTS) - killable} outcome-equivalent, in {time.perf_counter() - start:.0f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
