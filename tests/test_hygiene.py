"""Source hygiene: no ``src/repro`` module imports a name it does not
need, the config surfaces do not grow, and every pin and gate is a row of
the check manifest (``benchmarks/check_manifest.py``), not a line of CI.

An imported name earns its place by being used in the module, listed in its
``__all__``, or imported *from* it by another ``src/repro`` module (a
re-export).  Anything else is a leftover of code that moved or was deleted.
"""

import argparse
import ast
import dataclasses
import importlib.util
import json
import math
import re
from pathlib import Path

from repro.cli import build_parser
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import DeploymentSpec
from repro.query.planner import PlannerConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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


#: Field budget of each user-facing config dataclass.
CONFIG_FIELD_CAPS = ((DeploymentSpec, 31), (EngineConfig, 5), (PlannerConfig, 3))


def test_every_config_knob_earns_its_place():
    """A config field stays only while something sets it: a value no
    caller changes is a constant, and an off-switch only a test flips
    keeps a second code path alive for nobody."""
    for config, cap in CONFIG_FIELD_CAPS:
        fields = [f.name for f in dataclasses.fields(config)]
        assert len(fields) <= cap, (
            "%s has %d fields (cap %d): a new field must name the two "
            "non-test callers that need different values - otherwise make "
            "it a module constant" % (config.__name__, len(fields), cap)
        )


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MANIFEST = _load(ROOT / "benchmarks" / "check_manifest.py")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CLI = build_parser()
VERBS = next(action.choices for action in CLI._actions
             if isinstance(action, argparse._SubParsersAction))


def test_ci_runs_the_check_manifest_and_holds_no_check_of_its_own():
    """A scenario or a bound written into ci.yml is a second list that
    drifts from the manifest: CI names neither."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert not re.search(r"python3? - <<", ci), "inline Python gate in ci.yml"
    verb = re.search(r"\brepro\s+(%s)\b" % "|".join(map(re.escape, VERBS)), ci)
    assert not verb, "scenario argv in ci.yml: %r" % verb.group(0)
    bound = re.search(r"[<>]=?\s*[0-9]", ci)
    assert not bound, "numeric comparison in ci.yml: %r" % bound.group(0)
    named = [gate.metric for gate in MANIFEST.GATES if gate.metric in ci]
    assert not named, "gate metrics named in ci.yml: %s" % named


def test_every_pin_is_a_unique_sha256_of_a_parseable_scenario():
    ids = [pin.id for pin in MANIFEST.PINS]
    assert len(ids) == len(set(ids)), "a pin id repeats: %s" % ids
    for pin in MANIFEST.PINS:
        assert re.fullmatch(r"[0-9a-f]{64}", pin.sha256), pin
        argv = pin.argv.split()
        assert argv[0] in VERBS, "%s: repro has no verb %r" % (pin.id, argv[0])
        try:
            CLI.parse_args(argv)
        except SystemExit:
            raise AssertionError("%s: repro rejects %r" % (pin.id, pin.argv))


def test_every_gate_reads_a_declared_metric():
    """A bench gate names a metric BENCHMARK.json declares, a window gate a
    registry name the source counts: a misspelt metric fails here rather
    than with a KeyError after a workload run."""
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    ids = [MANIFEST.gate_id(gate) for gate in MANIFEST.GATES]
    assert len(ids) == len(set(ids)), "a gate repeats: %s" % ids
    source = "\n".join(path.read_text() for path in MODULES.values())
    for gate in MANIFEST.GATES:
        assert gate.workload in workloads, gate
        assert gate.kind in ("max", "min"), gate
        assert gate.source in ("end_to_end", "per_layer", "window"), gate
        if gate.source == "window":
            for name in MANIFEST.window_names(gate):
                assert '"%s"' % name in source, (gate, name)
        else:
            declared = {m["name"] for m in BENCHMARK[gate.source]}
            assert gate.metric in declared, gate


def _verdict(gate, value):
    """The gate's verdict on a synthetic report run where it reads ``value``."""
    if gate.source == "window":
        names = MANIFEST.window_names(gate)
        section = dict.fromkeys(names, 1.0)
        section[names[0]] = value
    else:
        section = {gate.metric: value}
    return MANIFEST.breach(gate, MANIFEST.measure(gate, {gate.source: section}))


def test_each_gate_fails_just_past_its_bound_with_its_message():
    """A flipped min/max or a message that does not format fails here,
    without a workload run."""
    for gate in MANIFEST.GATES:
        past = math.nextafter(gate.bound,
                              math.inf if gate.kind == "max" else -math.inf)
        assert _verdict(gate, past) == gate.message % past, gate
        assert _verdict(gate, gate.bound) is None, gate
        assert _verdict(gate, gate.today) is None, gate
        if gate.before is not None:
            assert _verdict(gate, gate.before) == gate.message % gate.before, gate
