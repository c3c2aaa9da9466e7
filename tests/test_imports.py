"""Static scans: every imported name is used, and every function the
benchmark's tracer wraps exists."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/claimspan/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read; ``__all__`` entries count as read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    # the scan itself: an unused plain and aliased import and an unused name
    # of a from-import are flagged; a name read or listed in __all__ is not
    tree = ast.parse("import os\nimport sys as system\nfrom json import dumps, loads\n"
                     "__all__ = ['loads']\nprint(os.sep)\n")
    assert unused_imports(tree) == ["line 2: system", "line 3: dumps"]
    assert SOURCES
    found = {}
    for path in SOURCES:
        unused = unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert not found, found


def test_traced_functions_exist():
    # every function the benchmark's tracer wraps by name is still defined in
    # its claimspan module; the tracer file is parsed, not imported
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    stages = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Stage"]
    assert len(stages) > 20
    missing = []
    for stage in stages:
        _name, module, functions = (ast.literal_eval(arg) for arg in stage.args[:3])
        home = importlib.import_module(f"claimspan.{module}")
        missing += [f"{module}.{fn}" for fn in functions if not callable(getattr(home, fn, None))]
    assert not missing, missing
