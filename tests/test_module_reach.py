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
        for d in ("src", "jobs", "perfbench")
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


def _keywords(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every keyword argument passed in ``path``."""
    return [
        (node.arg, node.lineno)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.keyword) and node.arg is not None
    ]


def _defaults(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    positional = a.posonlyargs + a.args
    return [arg.arg for arg in positional[len(positional) - len(a.defaults):]] + [
        arg.arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None
    ]


def _init_fields(cls: ast.ClassDef) -> list[str]:
    """Defaulted fields ``__init__`` takes, if ``cls`` is a dataclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
        return []
    return [
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
        and not (
            isinstance(stmt.value, ast.Call)
            and any(
                kw.arg == "init" and getattr(kw.value, "value", None) is False
                for kw in stmt.value.keywords
            )
        )
    ]


def _defaulted(tree: ast.Module):
    """(owner node, owner name, parameter) of every defaulted parameter of a
    public function, public method or ``__init__``, and of every defaulted
    dataclass field ``__init__`` takes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from ((node, node.name, a) for a in _defaults(node))
        elif isinstance(node, ast.ClassDef):
            yield from ((node, node.name, f) for f in _init_fields(node))
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (
                    not fn.name.startswith("_") or fn.name == "__init__"
                ):
                    yield from ((fn, f"{node.name}.{fn.name}", a) for a in _defaults(fn))


def test_every_defaulted_parameter_is_set_outside_its_tests():
    """A default that no job, benchmark or library call overrides is a knob
    only tests turn: it belongs in a module constant. Heuristic: a keyword
    argument of the same name anywhere outside the owner counts as a use."""
    kws = {
        p: _keywords(p)
        for d in ("src", "jobs", "perfbench")
        for p in (ROOT / d).rglob("*.py")
    }
    unset = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if _module_name(path) in TEST_ONLY:
            continue
        for owner, qualname, param in _defaulted(ast.parse(path.read_text())):
            if not any(
                name == param
                and not (p == path and owner.lineno <= line <= owner.end_lineno)
                for p, ks in kws.items()
                for name, line in ks
            ):
                unset.append(f"{_module_name(path)}.{qualname}({param})")
    assert unset == []
