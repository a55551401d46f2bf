"""Source hygiene, stdlib only: no ``src/repro`` module imports a name it
does not need.

An imported name earns its place by being used in the module, listed in its
``__all__``, or imported *from* it by another ``src/repro`` module (a
re-export).  Anything else is a leftover of code that moved or was deleted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
#: Dotted module name -> file, for every module of the package.
MODULES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).replace(".__init__", ""):
        path
    for path in sorted(SRC.glob("repro/**/*.py"))
}


def _quoted_annotation_names(tree):
    """Names inside string annotations (``x: "Optional[Foo]"``)."""
    slots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            slots.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            slots.append(node.annotation)
    for slot in filter(None, slots):
        for node in ast.walk(slot):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                yield from (n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))


def _source_module(module, node):
    """The absolute name of the module an ``ImportFrom`` in ``module``
    imports from."""
    if not node.level:
        return node.module
    package = module.split(".")
    if MODULES[module].name != "__init__.py":
        package.pop()
    package = package[: len(package) - (node.level - 1)]
    return ".".join(package + ([node.module] if node.module else []))


def test_every_imported_name_is_used_exported_or_reexported():
    imported = {}  # module -> {bound name: line}
    needed = {module: set() for module in MODULES}
    for module, path in MODULES.items():
        tree = ast.parse(path.read_text(), str(path))
        names = imported[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                source = _source_module(module, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    names[alias.asname or alias.name] = node.lineno
                    if source in needed:  # another module takes it from there
                        needed[source].add(alias.name)
            elif isinstance(node, ast.Name):
                needed[module].add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                needed[module].update(ast.literal_eval(node.value))
        needed[module].update(_quoted_annotation_names(tree))
    unused = [
        "%s:%d %s" % (MODULES[module].relative_to(SRC.parent), line, name)
        for module, names in imported.items()
        for name, line in sorted(names.items(), key=lambda item: item[1])
        if name not in needed[module]
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _calls_under(package, name):
    """``file:line`` of every call of a function or method ``name`` in the
    modules of ``package``."""
    sites = []
    for module, path in MODULES.items():
        if module != package and not module.startswith(package + "."):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "attr", getattr(func, "id", None))
                if called == name:
                    sites.append("%s:%d" % (path.name, node.lineno))
    return sites


def test_the_query_layer_has_one_scan_pipeline():
    """One site decodes scanned pages and one applies runtime filters:
    ``repro.query.executor.ScanPipeline``, which a local scan, a push-down
    task and a buffer-pool or fallback page all run."""
    for name in ("decode_page_into", "semi_join"):
        sites = _calls_under("repro.query", name)
        assert len(sites) == 1, (name, sites)
