"""The mutation gate's table, held to the tree: `tests/mutants.py` runs
the gate itself; these checks start no pytest process and copy nothing."""

import ast
from functools import cache
from pathlib import Path

from mutants import MUTANTS, ROOT, mutated, verdict


def test_each_mutant_applies_once_and_compiles():
    """Each old text occurs once in its file, each edit changes it, and
    the mutated file compiles."""
    broken = []
    for i, row in enumerate(MUTANTS, 1):
        try:
            mutated(row)
        except (ValueError, SyntaxError) as exc:
            broken.append((i, row.file, str(exc)))
    assert broken == []


@cache
def _body(path: Path) -> list[ast.stmt]:
    return ast.parse(path.read_text(encoding="utf-8")).body


def _defines(path: Path, names: list[str]) -> bool:
    """Whether the test file at `path` defines the nested names: a class,
    then a function in it, or a function at module level."""
    body = _body(path)
    for name in names:
        found = [node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_each_target_names_a_test():
    """Each target is a test file, or a `::Class::function` defined there."""
    missing = []
    for i, row in enumerate(MUTANTS, 1):
        for target in row.targets:
            file, *names = target.split("::")
            path = ROOT / file
            if not (path.name.startswith("test_") and path.is_file() and _defines(path, names)):
                missing.append((i, target))
    assert missing == []


def test_each_mutant_has_a_reason():
    assert [i for i, row in enumerate(MUTANTS, 1) if not row.reason.strip()] == []


def test_only_failed_tests_are_a_kill():
    """pytest's status 1 is a kill and 0 a survivor; 2 (interrupted, such
    as by a collection error), 4 (a usage error, such as a target that
    names no test) and 5 (no test collected) are gate errors."""
    assert [verdict(status) for status in (0, 1, 2, 4, 5)] == [
        "survived", "killed", "error", "error", "error"]
