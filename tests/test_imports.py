"""Static scans: every imported name is used, every function the
benchmark's tracer wraps exists, every chunk function takes its
``Packing`` without a default and no ``train`` flag, JSON lines are
parsed in one place, a post reaches its tags through one function,
training and the CLI score only through ``build_report``, and only
``preprocess`` spells out a BIO tag."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/claimspan/*.py"), *ROOT.glob("tests/*.py"),
                  *ROOT.glob("bench/*.py")])


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


def chunk_contract_violations(tree: ast.Module) -> list[str]:
    """Functions that give a ``packing`` parameter a default, or that take a
    parameter named ``train``: a chunk's ``Packing`` is always passed, so no
    function falls back to a single sequence, and passing a generator, not a
    flag, is what turns dropout on."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = {p.arg for p in positional[len(positional) - len(args.defaults):]}
        defaulted |= {p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
        name = getattr(node, "name", "<lambda>")
        if "packing" in defaulted:
            found.append(f"line {node.lineno}: {name} gives packing a default")
        if any(p.arg == "train" for p in positional + args.kwonlyargs):
            found.append(f"line {node.lineno}: {name} takes a train parameter")
    return found


def test_chunk_functions_take_packing_and_no_train_flag():
    # the scan itself: a defaulted packing, positional or keyword-only, and a
    # train parameter are flagged; a required packing and an rng are not
    tree = ast.parse("def a(x, packing=None): pass\n"
                     "def b(x, *, packing=None, rng=None): pass\n"
                     "def c(x, rng=None, train=False): pass\n"
                     "def d(x, packing, rng=None): pass\n")
    assert chunk_contract_violations(tree) == [
        "line 1: a gives packing a default", "line 2: b gives packing a default",
        "line 3: c takes a train parameter"]
    sources = sorted(ROOT.glob("src/claimspan/*.py"))
    assert sources
    found = {}
    for path in sources:
        violations = chunk_contract_violations(ast.parse(path.read_text(encoding="utf-8"),
                                                         str(path)))
        if violations:
            found[str(path.relative_to(ROOT))] = violations
    assert not found, found


def json_loads_sites(tree: ast.Module) -> list[str]:
    """The innermost function around each ``json.loads`` reference or
    ``from json import loads``; "<module>" outside any function."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "loads"
                    and isinstance(child.value, ast.Name) and child.value.id == "json") or (
                    isinstance(child, ast.ImportFrom) and child.module == "json"
                    and any(alias.name == "loads" for alias in child.names)):
                sites.append(owner)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else owner)

    visit(tree, "<module>")
    return sites


def test_json_lines_parsed_in_one_place():
    # the scan itself: a top-level, a nested and an imported loads are each
    # found once; json.dumps and json.load are not
    tree = ast.parse("import json\nx = json.loads('1')\n"
                     "def f(s):\n    def g():\n        return json.loads(s)\n"
                     "    return json.dumps(json.load(s))\n"
                     "from json import dumps, loads\n")
    assert json_loads_sites(tree) == ["<module>", "g", "<module>"]
    sources = sorted(ROOT.glob("src/claimspan/*.py"))
    assert sources
    found = [f"{path.stem}.{site}" for path in sources
             for site in json_loads_sites(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    # every line-delimited file goes through read_jsonl; the one other parse
    # is a checkpoint's header, a single line ahead of binary bytes
    assert found == ["model.load_checkpoint", "preprocess.read_jsonl"]


def reference_sites(tree: ast.Module, names: set[str]) -> list[tuple[str, str]]:
    """``(name, owner)`` for each read of a function in ``names``, by its
    bare name or as an attribute, ``owner`` being the innermost function
    around it ("<module>" outside any function); imports are not reads."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if name in names and isinstance(child.ctx, ast.Load):
                sites.append((name, owner))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else owner)

    visit(tree, "<module>")
    return sites


def test_posts_reach_tags_through_one_front_end():
    # the scan itself: a call by name, a call as an attribute in a nested
    # function, a function passed on uncalled and a top-level call are each
    # found once; an import, a definition and an assigned name are not
    tree = ast.parse("from .preprocess import encode_bio\n"
                     "def f(p):\n    return normalize_post(p)\n"
                     "def g(t, s):\n    def h():\n        return pre.encode_bio(t, s)\n"
                     "    return map(normalize_post, t)\n"
                     "def encode_bio(t, s):\n    normalize_post = 1\n"
                     "encode_bio(t, s)\n")
    assert reference_sites(tree, {"normalize_post", "encode_bio"}) == [
        ("normalize_post", "f"), ("encode_bio", "h"), ("normalize_post", "g"),
        ("encode_bio", "<module>")]
    sources = sorted(ROOT.glob("src/claimspan/*.py"))
    assert sources
    found = [f"{name} in {path.stem}.{owner}" for path in sources
             for name, owner in reference_sites(ast.parse(path.read_text(encoding="utf-8"),
                                                          str(path)),
                                                {"normalize_post", "encode_bio"})]
    # normalization, tokenizing and tagging of a post happen in encode_post
    # alone, which the CLI's preprocess and the model's examples both call
    assert found == ["normalize_post in preprocess.encode_post",
                     "encode_bio in preprocess.encode_post"]


def metrics_imports(tree: ast.Module, functions: set[str]) -> list[str]:
    """Imports of ``functions`` from a ``metrics`` module, and imports of the
    module itself, which would reach all of them."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "metrics":
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name in functions]
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: metrics" for a in node.names if a.name == "metrics"]
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {a.name}" for a in node.names
                      if a.name.split(".")[-1] == "metrics"]
    return found


def test_training_and_cli_score_only_through_build_report():
    # the scan itself: a scorer imported by name, a relative or absolute
    # module import are flagged; build_report and a class are not
    tree = ast.parse("from .metrics import EvalReport, build_report, mean_dice\n"
                     "from claimspan.metrics import overall_prf\n"
                     "from . import metrics\nimport claimspan.metrics\n"
                     "from .model import predict_tags\n")
    assert metrics_imports(tree, {"mean_dice", "overall_prf", "predict_tags"}) == [
        "line 1: mean_dice", "line 2: overall_prf", "line 3: metrics",
        "line 4: claimspan.metrics"]
    # every function of metrics.py but build_report: the four that rebuild
    # its overall and dice scores among them
    metrics_tree = ast.parse((ROOT / "src/claimspan/metrics.py").read_text(encoding="utf-8"))
    functions = {node.name for node in metrics_tree.body if isinstance(node, ast.FunctionDef)}
    assert {"overall_prf", "mean_dice", "inspan_indices", "micro_overall_prf"} <= functions
    functions.discard("build_report")
    found = {}
    for name in ("training.py", "cli.py"):
        path = ROOT / "src/claimspan" / name
        hits = metrics_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)), functions)
        if hits:
            found[name] = hits
    assert not found, found


def tag_literals(tree: ast.Module) -> list[str]:
    """String constants that are exactly one BIO tag."""
    return [f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ("B", "I", "O")]


def test_only_preprocess_spells_out_the_tags():
    # the scan itself: a tag as a literal, in a tuple or as a dict key is
    # found; a longer string, a docstring naming the tags and a name are not
    tree = ast.parse('"""Tags B, I, O."""\nx = "B"\ny = ("I", "BO")\nz = {"O": 1}\nO = 2\n')
    assert tag_literals(tree) == ["line 2: 'B'", "line 3: 'I'", "line 4: 'O'"]
    sources = sorted(ROOT.glob("src/claimspan/*.py"))
    assert sources
    found = {}
    for path in sources:
        hits = tag_literals(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if hits:
            found[path.name] = hits
    assert set(found) == {"preprocess.py"}, found
