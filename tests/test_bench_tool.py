"""``tools/bench.py``, the command that records and compares benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def _worktrees() -> str:
    return subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True).stdout


def test_base_that_git_cannot_resolve_exits_2_with_one_line(tmp_path):
    # checked before any checkout: no worktree and no temporary directory
    before = _worktrees()
    proc = subprocess.run(
        [sys.executable, "tools/bench.py", "--base", "no-such-revision^{tree}~3"],
        cwd=ROOT, capture_output=True, text=True, env=dict(os.environ, TMPDIR=str(tmp_path)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "no-such-revision" in proc.stderr
    assert not any(tmp_path.iterdir())
    assert _worktrees() == before
