"""The mutation check: tier-1 kills every mutant in mutants.py."""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).parent.parent
# A child runs tier-1 once, stopping at the first failure; a full pass
# takes about a minute on 2 vCPUs.  One that hangs counts as killed.
TIMEOUT_S = 600


def _copy_tree(dest):
    """The files tier-1 reads, without bytecode caches."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, dest / name)


def _tier1(tree):
    """Run tier-1 on tree in one child; returns (killed, seconds)."""
    env = {k: v for k, v in os.environ.items() if k != "PRESSGRAPH_SLOW"}
    env["PYTHONPATH"] = str(tree / "src")
    argv = [sys.executable, "-m", "pytest", "-x", "-q"]
    argv += ["-p", "no:cacheprovider"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return True, time.perf_counter() - start
    return proc.returncode != 0, time.perf_counter() - start


@pytest.mark.slow
@pytest.mark.parametrize(
    "path, old, new, why", MUTANTS, ids=[m[3] for m in MUTANTS]
)
def test_tier1_kills_the_mutant(tmp_path, path, old, new, why):
    _copy_tree(tmp_path)
    target = tmp_path / "src" / "pressgraph" / path
    text = target.read_text()
    assert text.count(old) == 1, f"{why}: anchor found {text.count(old)}x"
    target.write_text(text.replace(old, new))
    killed, seconds = _tier1(tmp_path)
    print(f"\n{why}: {'killed' if killed else 'survived'} in {seconds:.1f} s")
    assert killed, f"tier-1 passes with {why}"
