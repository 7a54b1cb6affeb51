"""Record this checkout's benchmark figures in one JSON file, or compare
this checkout with a git revision.

Run from the root of a source checkout:

    python3 tools/bench.py --out BENCH_22.json
    python3 tools/bench.py --base HEAD~1

With ``--out`` it runs the unchanged ``perfbench/run.py --trace 0 --seconds
8`` eight times on each workload of ``BENCHMARK.json`` (run i, seed i, takes
every workload in turn, so that a drift of the machine's speed spreads over
all of them),
then the Tier-1 suite once, as ROADMAP.md gives it, with ``-rP`` so that
the acceptance criteria's lines are kept.  The file holds, per workload and
metric, the median, the quartiles and the IQR; whether every run was
correct; the Tier-1 summary and wall time; the durations that criteria 3,
5, 6 and 11 print (and criterion 11's step times); and the provenance:
nproc, numpy and its BLAS with the OpenBLAS core name, the git revision
and the digest of ``src/kfrflow``, as perfbench reports them.
``blas_provenance`` is also the platform key of ``tests/references``.  It
also holds the line count of ``src/kfrflow`` split into code, docstring,
comment and blank lines (:func:`line_split`).

With ``--base REV`` it resolves REV to a commit, or prints one line and
exits with status 2 where git cannot.  It then runs ten pairs of the same
perfbench runs per workload, one on REV's tree and one on this checkout's,
with the same seed and in alternating order.  Per workload and metric it
prints both medians and IQRs, the change of the median, and in how many
pairs this checkout was lower.  Where REV's own runs spread wider than the metric's ``bound`` in
``BENCHMARK.json`` (an IQR above that fraction of REV's median), a change
within the bound cannot be told from noise, so the line ends in
``unresolved``, unless every run of this checkout is lower than every run
of REV.

Every perfbench run, in either mode, runs as the benchmark runs a fresh
checkout: in a temporary copy of ``src`` and ``perfbench`` alone, removed
on every exit, with ``PYTHONDONTWRITEBYTECODE=1``.  REV's copy comes from
``git archive``, this checkout's from the files that git lists there
(tracked, or untracked and not ignored), as they stand.  So both sides of a
comparison are staged the same way, neither holds a bytecode cache or a
``.git``, and the checkout itself is never touched.  (A stale cache on one
side only moved ``peak_rss_mb`` by 0.2-0.3 MB.)  perfbench finds no git
revision in such a copy, so ``--out`` records the checkout's HEAD itself.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import ctypes
import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tokenize
from pathlib import Path

import numpy
from numpy.linalg import _umath_linalg

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
RUNS = 8  # perfbench runs per workload, seeds 1..RUNS: enough for quartiles
SECONDS = 8  # perfbench --seconds
PAIRS = 10  # alternated pairs per workload in a --base comparison
STAGED = ("src", "perfbench")  # what a perfbench run reads of a checkout
CRITERIA = (3, 5, 6, 11)
# "PASS criterion 11: median step times 0.47 / 1.27 / 7.22 ms; ...; 41s"
CRITERION_LINE = re.compile(r"^(PASS|FAIL) criterion (\d+): (.*); (\d+(?:\.\d+)?)s$")
STEP_TIMES = re.compile(r"median step times ([\d.]+) / ([\d.]+) / ([\d.]+) ms")


def quartiles(values: list) -> dict:
    """Median, quartiles (inclusive method) and IQR of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def perfbench(workload: str, seed: int, seconds: int, tree: Path) -> tuple:
    """One ``perfbench/run.py --trace 0`` run in the staged tree ``tree``:
    its JSON result and provenance.  It writes no bytecode cache."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(line.removeprefix("provenance "))
                      for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), provenance


def criteria(output: str) -> dict:
    """The criteria of ``CRITERIA`` that printed a line: verdict and
    seconds, and for criterion 11 its three median step times in ms."""
    found = {}
    for line in output.splitlines():
        m = CRITERION_LINE.match(line.strip())
        if m and int(m[2]) in CRITERIA:
            entry = {"verdict": m[1], "elapsed_s": float(m[4])}
            steps = STEP_TIMES.search(m[3])
            if steps:
                entry["median_step_ms"] = [float(v) for v in steps.groups()]
            found[m[2]] = entry
    return found


def tier1() -> dict:
    """Run Tier-1 once; its summary line, wall time and printed criteria."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ("src", os.environ.get("PYTHONPATH")))))
    tic = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rP"],
        env=env, capture_output=True, text=True)
    wall = time.monotonic() - tic
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"summary": summary.strip("= "), "exit_code": proc.returncode,
            "wall_s": round(wall, 1), "criteria": criteria(proc.stdout)}


def line_split(package: Path) -> dict:
    """Lines of the modules in ``package``, each counted once: docstring
    (module, class or function docstrings by ``ast``, blank lines inside
    them included), code (any other token by ``tokenize``), comment (a
    comment alone on its line) or blank."""
    split = dict.fromkeys(("total", "code", "docstring", "comment", "blank"), 0)
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        doc, code, comment = set(), set(), set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)) and ast.get_docstring(node, False)):
                doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                comment.add(tok.start[0])
            elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                                  tokenize.DEDENT, tokenize.ENDMARKER):
                code.update(range(tok.start[0], tok.end[0] + 1))
        for i in range(1, len(text.splitlines()) + 1):
            split["total"] += 1
            split["docstring" if i in doc else "code" if i in code
                  else "comment" if i in comment else "blank"] += 1
    return split


def blas_provenance() -> dict:
    """numpy's version and the core name of its OpenBLAS (None where numpy
    exports none): the platform that a run's rounding depends on."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    name = getattr(lib, "scipy_openblas_get_corename64_", None)
    if name is not None:
        name.restype = ctypes.c_char_p
        name = name().decode()
    return {"numpy": numpy.__version__, "openblas_core": name}


def src_modified() -> bool | None:
    """Whether ``src`` differs from the git revision; None outside git."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                          capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def resolve(rev: str) -> str | None:
    """The commit that git resolves ``rev`` to, or None where it cannot
    (also outside a git checkout)."""
    proc = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", "--end-of-options", rev + "^{commit}"],
        capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


@contextlib.contextmanager
def staged(rev: str | None = None):
    """``STAGED`` of the commit ``rev``, or of this checkout as it stands
    where ``rev`` is None, copied into a fresh temporary directory, which is
    removed however the block exits (see the module docstring)."""
    tree = Path(tempfile.mkdtemp(prefix="kfrflow-bench-"))
    try:
        if rev is None:
            listed = subprocess.run(
                ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard",
                 "--", *STAGED], capture_output=True, check=True).stdout
            for name in filter(None, listed.decode().split("\0")):
                if Path(name).is_file():  # a tracked file may be deleted
                    (tree / name).parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(name, tree / name)
        else:
            archive = subprocess.run(["git", "archive", "--format=tar", rev, "--", *STAGED],
                                     capture_output=True, check=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(tree, filter="data")
        yield tree
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def compare(rev: str, commit: str, workloads: list) -> int:
    """PAIRS alternated perfbench pairs per workload on ``commit``, which
    ``rev`` names, and on this checkout; prints medians, IQRs and "lower in
    k of n" per metric, and "unresolved" where the module docstring says."""
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    runs = {w: {"base": [], "head": []} for w in workloads}
    with staged(commit) as base, staged() as head:
        for seed in range(1, PAIRS + 1):
            sides = [("base", base), ("head", head)]
            for w in workloads:
                for side, tree in sides if seed % 2 else sides[::-1]:
                    runs[w][side].append(perfbench(w, seed, SECONDS, tree)[0])
                print(f"{w} pair {seed}: " + ", ".join(
                    f"{k} {runs[w]['base'][-1]['metrics'][k]['value']:.4g} -> "
                    f"{m['value']:.4g}" for k, m in runs[w]["head"][-1]["metrics"].items()),
                    flush=True)

    print(f"base {rev} against this checkout, {PAIRS} alternated pairs "
          f"(perfbench --trace 0 --seconds {SECONDS}); lower is better")
    for w, sides in runs.items():
        failed = {side: sum(r["failed"] for r in rs) for side, rs in sides.items()}
        print(f"{w}: failed trials base {failed['base']}, head {failed['head']}")
        for name in sides["head"][0]["metrics"]:
            base_v, head_v = ([r["metrics"][name]["value"] for r in sides[s]]
                              for s in ("base", "head"))
            b, h = quartiles(base_v), quartiles(head_v)
            lower = sum(y < x for x, y in zip(base_v, head_v))
            unresolved = (b["iqr"] > bounds[name] * b["median"]
                          and not max(head_v) < min(base_v))
            print(f"  {name:12s} base {b['median']:.4g} [IQR {b['q1']:.4g}-{b['q3']:.4g}]  "
                  f"head {h['median']:.4g} [IQR {h['q1']:.4g}-{h['q3']:.4g}]  "
                  f"{h['median'] / b['median'] - 1:+.1%}  lower in {lower} of {PAIRS}"
                  + ("  unresolved" if unresolved else ""))
    return 0 if all(r["correct"] for sides in runs.values() for rs in sides.values()
                    for r in rs) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="JSON file to write")
    mode.add_argument("--base", metavar="REV", help="git revision to compare this checkout with")
    args = parser.parse_args()
    if not Path("perfbench/run.py").is_file() or not Path("src/kfrflow").is_dir():
        parser.error("run from the root of a source checkout")
    # a terminated run still leaves through the staged trees' cleanup
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workloads = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    if args.base:
        commit = resolve(args.base)
        if commit is None:
            print(f"bench.py: git cannot resolve {args.base!r} to a commit", file=sys.stderr)
            return 2
        return compare(args.base, commit, workloads)
    results = {w: [] for w in workloads}
    provenance = None
    with staged() as tree:
        for seed in range(1, RUNS + 1):
            for w in workloads:
                result, provenance = perfbench(w, seed, SECONDS, tree)
                results[w].append(result)
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    bench = {}
    for w, runs in results.items():
        names = runs[0]["metrics"]
        bench[w] = {name: dict(quartiles([r["metrics"][name]["value"] for r in runs]),
                               unit=runs[0]["metrics"][name]["unit"]) for name in names}
        bench[w]["correct"] = all(r["correct"] for r in runs)
        bench[w]["failed_trials"] = sum(r["failed"] for r in runs)
    tests = tier1()
    print(f"tier-1: {tests['summary']} ({tests['wall_s']} s wall)", flush=True)
    record = {
        "perfbench": {"command": "perfbench/run.py --trace 0", "seconds": SECONDS,
                      "seeds": list(range(1, RUNS + 1)), "workloads": bench},
        "tier1": tests,
        "src_lines": line_split(Path("src/kfrflow")),
        "provenance": {
            "nproc": provenance["nproc"], "python": provenance["python"],
            **blas_provenance(), "blas": provenance["blas"],
            "git_revision": resolve("HEAD"),
            "src_modified": src_modified(), "src_sha256": provenance["src_sha256"],
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if tests["exit_code"] == 0 and all(b["correct"] for b in bench.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
