"""Each demo script, and the README's library quickstart, runs to
completion; the demos assert their own round trips, so a change that
breaks one fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # an empty TMPDIR of its own, apart from the working directory, so a
    # temp file the demo leaves behind shows
    tmp, work = tmp_path / "tmp", tmp_path / "work"
    tmp.mkdir()
    work.mkdir()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp)}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=work,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp.iterdir()) == []


def test_readme_library_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart (library)\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "\ndemo,cluster,exact,false,2," in proc.stdout
