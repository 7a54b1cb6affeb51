"""``tools/bench.py``, the command that records and compares benchmark runs."""

import contextlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path) -> Path:
    # a checkout with stale bytecode under src and perfbench
    for sub in ("src/kfrflow/__pycache__", "perfbench/__pycache__"):
        (root / sub).mkdir(parents=True)
        (root / sub / "stale.cpython-311.pyc").write_bytes(b"")
    return root


def test_compare_runs_both_sides_without_bytecode(tmp_path, monkeypatch, capsys):
    bench = _load_bench()
    base, head = _tree(tmp_path / "base"), _tree(tmp_path / "head")
    runs = []

    def fake_run(cmd, cwd, env, **kwargs):
        tree = Path(cwd).resolve()
        runs.append((tree, env.get("PYTHONDONTWRITEBYTECODE"),
                     sorted(str(p) for p in tree.rglob("__pycache__"))))
        result = {"metrics": {"run_s": {"value": 1.0 + len(runs), "unit": "s"}},
                  "failed": 0, "correct": True}
        return subprocess.CompletedProcess(cmd, 0, f"provenance {{}}\n{json.dumps(result)}\n", "")

    @contextlib.contextmanager
    def fake_worktree(rev):
        yield base

    monkeypatch.chdir(head)
    monkeypatch.setattr(bench, "worktree", fake_worktree)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.compare("HEAD", "0" * 40, ["w"]) == 0
    assert {tree for tree, _, _ in runs} == {base.resolve(), head.resolve()}
    assert len(runs) == 2 * bench.PAIRS
    assert all(flag == "1" and caches == [] for _, flag, caches in runs)
    assert "lower in" in capsys.readouterr().out


# base runs alternate between two values; the head side reads one value
@pytest.mark.parametrize("base, head, unresolved", [
    ((1.0, 2.0), 1.5, True),  # base IQR 1 > 0.25 * median 1.5
    ((1.0, 2.0), 0.9, False),  # as wide, but every head run is lower
    ((1.0, 1.01), 1.2, False),  # base IQR 0.01 < 0.25 * median 1.005
], ids=["wide", "wide-all-lower", "narrow"])
def test_compare_marks_a_base_spread_wider_than_the_bound(
        tmp_path, monkeypatch, capsys, base, head, unresolved):
    bench = _load_bench()
    base_tree, head_tree = tmp_path / "base", tmp_path / "head"
    base_tree.mkdir(), head_tree.mkdir()
    served = []

    def fake_run(cmd, cwd, env, **kwargs):
        is_base = Path(cwd).resolve() == base_tree.resolve()
        served.append(is_base)
        value = base[sum(served) % 2] if is_base else head
        result = {"metrics": {"run_s": {"value": value, "unit": "s"}},
                  "failed": 0, "correct": True}
        return subprocess.CompletedProcess(cmd, 0, f"provenance {{}}\n{json.dumps(result)}\n", "")

    @contextlib.contextmanager
    def fake_worktree(rev):
        yield base_tree

    monkeypatch.chdir(head_tree)
    monkeypatch.setattr(bench, "worktree", fake_worktree)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.compare("HEAD", "0" * 40, ["w"]) == 0
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("  run_s"))
    assert line.endswith("unresolved") == unresolved, line
