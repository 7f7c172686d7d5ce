"""Every module under ``src/repro/`` is run by a job or by the benchmark.

A module that only its own tests import is dead code: the jobs and the
benchmark never execute it, so its results reach no table.
"""
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
