"""The quick demos and README's library example run to completion;
classify_pipeline.py is left out for its run time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_python(*args):
    """Run python with args and src on the path; returns the finished process."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", ["clustering_null.py", "cohort_walkthrough.py", "kernel_geometry.py"])
def test_demo_exits_cleanly(demo):
    done = _run_python(str(ROOT / "demos" / demo))
    assert done.returncode == 0, done.stderr


def test_readme_library_use_block_runs():
    # README's public example must keep running as the API changes.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.split()) == 2  # the CV mean and std
