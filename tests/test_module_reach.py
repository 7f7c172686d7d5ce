"""Every module under ``src/repro/`` is run by a job or by the benchmark.

A module that only its own tests import is dead code: the jobs and the
benchmark never execute it, so its results reach no table. The same holds
for a public function or class that nothing but its tests names.
"""
import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Imported by tests only, by design: the DuckDB oracle checks the metrics.
TEST_ONLY = {"repro.oracle"}

IMPORT_ALL = """
import importlib, json, sys
from pathlib import Path
jobs, root, src = map(Path, sys.argv[1:4])
sys.path[:0] = [str(jobs), str(root), str(src)]
for job in sorted(jobs.glob("*.py")):
    importlib.import_module(job.stem)
importlib.import_module("perfbench.workloads")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_is_imported_by_a_job_or_the_benchmark():
    modules = {_module_name(p) for p in (SRC / "repro").rglob("*.py")}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL, str(ROOT / "jobs"), str(ROOT), str(SRC)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    assert sorted(modules - TEST_ONLY - loaded) == []


def _references(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every name, attribute and exact string in ``path``."""
    refs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.append((node.value, node.lineno))
    return refs


def test_every_public_name_is_used_outside_its_tests():
    refs = {
        p: _references(p)
        for d in ("src", "jobs", "perfbench", "benchmarks")
        for p in (ROOT / d).rglob("*.py")
    }
    unused = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if _module_name(path) in TEST_ONLY:
            continue
        for d in ast.parse(path.read_text()).body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("_"):
                continue
            if not any(
                name == d.name and not (p == path and d.lineno <= line <= d.end_lineno)
                for p, rs in refs.items()
                for name, line in rs
            ):
                unused.append(f"{_module_name(path)}.{d.name}")
    assert unused == []
