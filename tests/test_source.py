"""Checks on the source text of src/glattice."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "glattice"


def _references():
    """{name: set of top-level function names (None outside functions)
    in which the name is read}, over every module of the package."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text("utf-8")).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                out.setdefault(name, set()).add(owner)
    return out


def test_every_private_function_is_referenced():
    refs = _references()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text("utf-8")).body:
            if (isinstance(top, ast.FunctionDef) and top.name.startswith("_")
                    and not top.name.startswith("__")
                    and not refs.get(top.name, set()) - {top.name}):
                unused.append("%s:%s" % (path.name, top.name))
    assert unused == []


LAYERS = ("intlinalg", "groups", "lattices", "homology", "modular",
          "rationality", "catalog", "cli")


def _package_imports(tree):
    """(node, imported layer module) for every relative import of a layer
    module anywhere in the tree."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module:
            targets = [node.module.split(".")[0]]
        else:
            targets = [alias.name for alias in node.names]
        for target in targets:
            if target in LAYERS:
                yield node, target


def test_imports_go_down_the_layers_at_module_top():
    """Every import is at module top, with one exception: numpy is
    imported on first use, by `intlinalg._numpy` alone.  No module is
    imported by other means (`__import__`, `importlib.import_module`)."""
    bad = []
    for layer in LAYERS:
        tree = ast.parse((SRC / (layer + ".py")).read_text("utf-8"))
        for node, target in _package_imports(tree):
            where = "%s.py:%d" % (layer, node.lineno)
            if LAYERS.index(target) >= LAYERS.index(layer):
                bad.append("%s imports %s, not a lower layer"
                           % (where, target))
    imports = (ast.Import, ast.ImportFrom)
    late = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        for top in tree.body:
            if not isinstance(top, imports):
                late.extend("%s:%s %s" % (
                    path.name, getattr(top, "name", top.lineno),
                    ast.unparse(node))
                    for node in ast.walk(top) if isinstance(node, imports))
        bad.extend("%s:%d imports by other means" % (path.name, node.lineno)
                   for node in ast.walk(tree)
                   if getattr(node, "id", None) == "__import__"
                   or getattr(node, "attr", None) == "import_module")
    assert late == ["intlinalg.py:_numpy import numpy"]
    assert bad == []


def test_int64_only_in_intlinalg():
    """Every fixed-width integer array is made in intlinalg, so that every
    integer product goes through its one overflow guard."""
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "intlinalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if ((isinstance(node, ast.Attribute) and node.attr == "int64")
                    or (isinstance(node, ast.Constant)
                        and node.value == "int64")):
                bad.append("%s:%d" % (path.name, node.lineno))
    assert bad == []


def test_groups_imports_no_numpy():
    """The group layer works on index tables and Python integers; its few
    matrix products go through intlinalg's guarded product."""
    tree = ast.parse((SRC / "groups.py").read_text("utf-8"))
    imported = [alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert "numpy" not in imported


def test_every_imported_name_is_read():
    """A module reads every name it imports; the package __init__, whose
    imports are re-exports, is exempt."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                names = [(a.asname or a.name, node.lineno)
                         for a in node.names]
            else:
                continue
            unread.extend("%s:%d %s" % (path.name, line, name)
                          for name, line in names if name not in read)
    assert unread == []


def test_cyclic_classes_only_from_groups():
    """Outside groups.py, `_is_cyclic` is never applied to a subgroup
    class (its representative, members or orbit): the cyclic classes come
    from `groups.cyclic_subgroup_classes`, the one notion of them."""
    subgroup_parts = {"all_subgroups", "representatives", "representative",
                      "classes", "members", "orbit"}
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_is_cyclic"
                    and subgroup_parts & {
                        n.id if isinstance(n, ast.Name) else n.attr
                        for arg in node.args for n in ast.walk(arg)
                        if isinstance(n, (ast.Name, ast.Attribute))}):
                bad.append("%s:%d" % (path.name, node.lineno))
    assert bad == []


def test_every_function_and_method_is_read():
    """Every function and method of the package, public ones included and
    dunders excluded, is read by name somewhere in src/, tests/ or
    glbench/; a name that is only defined or imported is dead code."""
    root = SRC.parents[1]
    read = set()
    for pattern in ("src/**/*.py", "tests/*.py", "glbench/*.py"):
        for path in root.glob(pattern):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and node.name not in read):
                unread.append("%s:%s" % (path.name, node.name))
    assert unread == []


def test_benchmark_reads_only_traced_names():
    """Every `layer.function` name that glbench/run.py reads in
    `per_layer` is a public function of that layer module or a span of
    `glbench.tracer.METHODS`; any other name makes `Tracer.function_calls`
    raise KeyError under `--trace 1`."""
    root = SRC.parents[1]
    tracer = ast.parse((root / "glbench" / "tracer.py").read_text("utf-8"))
    consts = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tracer.body if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("LAYERS", "METHODS")}
    spans = {m[-1] for m in consts["METHODS"]}
    public = {layer: {top.name for top in ast.parse(
        (SRC / (layer + ".py")).read_text("utf-8")).body
        if isinstance(top, ast.FunctionDef)
        and not top.name.startswith("_")} for layer in consts["LAYERS"]}
    run = ast.parse((root / "glbench" / "run.py").read_text("utf-8"))
    per_layer, = [top for top in run.body if isinstance(top, ast.FunctionDef)
                  and top.name == "per_layer"]
    names = {node.value for node in ast.walk(per_layer)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "." in node.value and node.value.split(".")[0] in public}
    assert names
    missing = sorted(n for n in names if n not in spans
                     and n.split(".", 1)[1] not in public[n.split(".")[0]])
    assert missing == []


def _calls():
    """{callee name: [(positional argument count, keyword names)]} over
    every call in src/, tests/ and glbench/; a function is called by its
    name, a method by its attribute name.  A *args argument counts as
    every position and a **kwargs argument as every keyword (None)."""
    root = SRC.parents[1]
    out = {}
    for pattern in ("src/**/*.py", "tests/*.py", "glbench/*.py"):
        for path in root.glob(pattern):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                out.setdefault(name, []).append(
                    (float("inf") if starred else len(node.args),
                     None if None in keywords else keywords))
    return out


def test_every_defaulted_parameter_is_passed():
    """Every parameter with a default, on any function or method of the
    package, is passed by keyword or by position in at least one call in
    src/, tests/ or glbench/; `__init__` is called by its class name.  A
    default that no call overrides is a constant, not an option."""
    calls = _calls()
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        methods = {id(f): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for f in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            is_static = any(getattr(d, "id", None) == "staticmethod"
                            for d in node.decorator_list)
            skip = 1 if id(node) in methods and not is_static else 0
            defaulted = [(i - skip, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in
                          zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            name = (methods[id(node)] if node.name == "__init__"
                    and id(node) in methods else node.name)
            for pos, arg in defaulted:
                if not any(kw is None or arg in kw
                           or (pos is not None and n > pos)
                           for n, kw in calls.get(name, ())):
                    unpassed.append("%s:%s(%s)" % (path.name, node.name, arg))
    assert unpassed == []
