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


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                    *args], cwd=repo, check=True, capture_output=True)


def _checkout(root: Path) -> Path:
    # a commit, then a working tree that differs from it: an edited tracked
    # file, a deleted one, an untracked one, and stale bytecode that git ignores
    for name, text in (("src/kfrflow/__init__.py", "committed\n"), ("perfbench/run.py", "run\n"),
                       ("perfbench/gone.py", "gone\n"), ("README.md", "not staged\n"),
                       (".gitignore", "__pycache__/\n")):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "base")
    (root / "src/kfrflow/__init__.py").write_text("edited\n")
    (root / "perfbench/gone.py").unlink()
    (root / "perfbench/new.py").write_text("untracked\n")
    for sub in ("src/kfrflow/__pycache__", "perfbench/__pycache__"):
        (root / sub).mkdir()
        (root / sub / "stale.cpython-311.pyc").write_bytes(b"")
    return root


def _files(tree: Path) -> dict:
    # every file outside .git, with its text
    return {p.relative_to(tree).as_posix(): p.read_text() for p in sorted(tree.rglob("*"))
            if p.is_file() and ".git" not in p.relative_to(tree).parts}


def test_compare_runs_both_sides_without_bytecode(tmp_path, monkeypatch, capsys):
    # both sides run in fresh copies of src and perfbench: the base from the
    # commit, the head from the checkout's files as git lists them; the
    # checkout itself, stale caches included, is left as it was
    bench = _load_bench()
    checkout = _checkout(tmp_path / "checkout")
    before = _files(checkout)
    real_run = subprocess.run
    runs = []

    def fake_run(cmd, *args, **kwargs):
        if cmd[0] == "git":
            return real_run(cmd, *args, **kwargs)
        tree = Path(kwargs["cwd"]).resolve()
        runs.append((tree, kwargs["env"].get("PYTHONDONTWRITEBYTECODE"), _files(tree)))
        result = {"metrics": {"run_s": {"value": 1.0 + len(runs), "unit": "s"}},
                  "failed": 0, "correct": True}
        return subprocess.CompletedProcess(cmd, 0, f"provenance {{}}\n{json.dumps(result)}\n", "")

    monkeypatch.chdir(checkout)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.compare("HEAD", bench.resolve("HEAD"), ["w"]) == 0
    assert len(runs) == 2 * bench.PAIRS and all(flag == "1" for _, flag, _ in runs)
    base_files = {"perfbench/gone.py": "gone\n", "perfbench/run.py": "run\n",
                  "src/kfrflow/__init__.py": "committed\n"}
    head_files = {"perfbench/new.py": "untracked\n", "perfbench/run.py": "run\n",
                  "src/kfrflow/__init__.py": "edited\n"}
    base_tree, head_tree = runs[0][0], runs[1][0]  # the first pair runs the base first
    assert {tree for tree, _, _ in runs} == {base_tree, head_tree} and base_tree != head_tree
    for tree, _, files in runs:
        assert files == (base_files if tree == base_tree else head_files)
    for tree in (base_tree, head_tree):
        assert not tree.exists() and checkout.resolve() not in tree.parents
    assert _files(checkout) == before
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
    def fake_staged(rev=None):
        yield head_tree if rev is None else base_tree

    monkeypatch.chdir(head_tree)
    monkeypatch.setattr(bench, "staged", fake_staged)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.compare("HEAD", "0" * 40, ["w"]) == 0
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("  run_s"))
    assert line.endswith("unresolved") == unresolved, line


def test_out_runs_in_a_staged_copy_and_records_the_revision(tmp_path, monkeypatch):
    # perfbench finds no .git in the staged copy, so the tool records HEAD
    bench = _load_bench()
    checkout = _checkout(tmp_path / "checkout")
    before = _files(checkout)
    real_run = subprocess.run
    trees = []

    def fake_run(cmd, *args, **kwargs):
        if cmd[0] == "git":
            return real_run(cmd, *args, **kwargs)
        tree = Path(kwargs["cwd"]).resolve()
        trees.append(tree)
        assert (tree / "src/kfrflow/__init__.py").read_text() == "edited\n"
        result = {"metrics": {"run_s": {"value": 1.0, "unit": "s"}}, "failed": 0,
                  "correct": True}
        provenance = {"nproc": 2, "python": "3.11", "blas": {},
                      "git_revision": "none (not a git checkout)", "src_sha256": "0"}
        return subprocess.CompletedProcess(
            cmd, 0, f"provenance {json.dumps(provenance)}\n{json.dumps(result)}\n", "")

    monkeypatch.chdir(checkout)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setattr(bench.signal, "signal", lambda *args: None)
    monkeypatch.setattr(bench, "tier1", lambda: {"summary": "1 passed", "exit_code": 0,
                                                 "wall_s": 0.0, "criteria": {}})
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "--out", str(out)])
    assert bench.main() == 0
    assert len(set(trees)) == 1 and not trees[0].exists()
    provenance = json.loads(out.read_text())["provenance"]
    assert provenance["git_revision"] == bench.resolve("HEAD") is not None
    assert provenance["src_modified"] is True
    assert _files(checkout) == before
