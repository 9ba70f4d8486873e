"""``src/`` serves ``qg`` jobs: every top-level function, class and
constant of a ``qgames`` module is read by some other ``src/`` code.  A
reference check that only tests call lives in ``tests/oracles.py``.

A read counts for the ``qgames`` binding it refers to: a name defined in
the reading module, one imported with ``from .m import y`` (followed to
the module that defines it), or ``m.y`` on a module imported with
``from . import m``.  So ``itertools.product`` reads no ``product`` of
``qgames``, and neither does an attribute of any other object."""

import ast
import importlib
import importlib.util
from pathlib import Path

from qgames.arena import Edge, History, VertexId

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "qgames"

# top-level names that no other src/ code reads, each with its reason
ALLOWED = {
    "__version__": "the package version, which pyproject.toml reads",
    "brute_force_values": "perfbench/make_pool.py imports it and perfbench/spans.py traces it",
    "minimal_history_levels": "perfbench/spans.py traces it",
    "lasso_limit": "perfbench/spans.py traces it",
    "product": "ROADMAP item 1: the exact check builds its tail layer with it",
}


def _defined(statement) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _modules() -> dict[str, list]:
    return {path.stem: ast.parse(path.read_text()).body for path in sorted(SRC.glob("*.py"))}


def _imports(body) -> dict[str, tuple[str, str]]:
    """The module's ``from .m import y [as z]`` bindings, z -> (m, y), and
    its ``from . import m`` bindings, m -> (m, "")."""
    return {a.asname or a.name: (s.module, a.name) if s.module else (a.name, "")
            for s in body if isinstance(s, ast.ImportFrom) and s.level == 1 for a in s.names}


def _resolver(modules: dict[str, list]):
    defined = {m: {n for s in body for n in _defined(s)} for m, body in modules.items()}
    imports = {m: _imports(body) for m, body in modules.items()}

    def resolve(module: str, name: str):
        """"module:name" of the definition a name in a module refers to, or None."""
        while name not in defined.get(module, ()):
            if name not in imports.get(module, {}):
                return None
            module, name = imports[module][name]
        return "%s:%s" % (module, name)

    return resolve, imports


def _read(module: str, statement, resolve, imports) -> set[str]:
    """The qgames bindings a statement reads, bare (``make``) or as an
    attribute of an imported module (``zoo.make``); an import alone
    reads nothing."""
    reads = set()
    for n in ast.walk(statement):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads.add(resolve(module, n.id))
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and imports[module].get(n.value.id, (None, None))[1] == ""):
            reads.add(resolve(imports[module][n.value.id][0], n.attr))
    return reads - {None}


def unread_names() -> list[str]:
    modules = _modules()
    resolve, imports = _resolver(modules)
    statements = [(m, s) for m, body in modules.items() for s in body]
    reads = [_read(m, s, resolve, imports) for m, s in statements]
    return ["%s:%s" % (module, name)
            for i, (module, statement) in enumerate(statements) for name in _defined(statement)
            if not any("%s:%s" % (module, name) in r for j, r in enumerate(reads) if j != i)]


def test_every_top_level_name_in_src_is_read_by_other_src_code():
    unread = [name for name in unread_names() if name.split(":")[1] not in ALLOWED]
    assert unread == []


def test_every_allowed_name_is_still_defined_and_unread():
    assert sorted(name.split(":")[1] for name in unread_names()) == sorted(ALLOWED)


def test_a_read_counts_for_the_binding_it_refers_to():
    modules = _modules()
    resolve, imports = _resolver(modules)
    [statement] = ast.parse("itertools.product(zoo.make(x), Inconclusive, product)").body
    assert _read("synthesis", statement, resolve, imports) == {"arena:Inconclusive"}
    assert _read("cli", statement, resolve, imports) == {"zoo:make", "arena:Inconclusive"}
    assert _read("arena", statement, resolve, imports) == {"arena:Inconclusive", "arena:product"}


def test_no_src_module_imports_dataclasses():
    """Records are named tuples or slotted classes: nothing in ``src/``
    generates code when it is imported."""
    importing = sorted(path.name for path in SRC.glob("*.py")
                       for n in ast.walk(ast.parse(path.read_text()))
                       if isinstance(n, ast.Import) and any(a.name.split(".")[0] == "dataclasses"
                                                            for a in n.names)
                       or isinstance(n, ast.ImportFrom) and n.level == 0
                       and n.module.split(".")[0] == "dataclasses")
    assert importing == []


def test_the_traced_pass_finds_each_method_it_patches_on_its_class():
    """``perfbench/spans.py`` patches a named class's attribute only if the
    class itself defines it, and skips it silently otherwise; History
    construction goes through the patched ``__post_init__``, and the
    tracer leaves a History's fields readable."""
    import qgames.cli  # noqa: F401  (the tracer patches every qgames module)

    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    named = [(module, cls, attr) for _, module, cls, attr, _ in spans.TARGETS
             if cls not in (None, "*")]
    assert {(cls, attr) for _, cls, attr in named} >= {("History", "__post_init__"),
                                                         ("OpenSub", "step_satisfies")}
    for module, cls, attr in named:
        assert attr in vars(getattr(importlib.import_module("qgames." + module), cls))
    a, b = VertexId("a"), VertexId("b")
    tracer = spans.Tracer()
    tracer.install()
    try:
        edges = [History(a, (Edge(a, 1, b),)).edges, History(b).edges]
    finally:
        tracer.remove()
    assert edges == [(Edge(a, 1, b),), ()]
    assert tracer.calls["arena.history"] == 2
    assert tracer.counts["arena.history.edges_validated"] == 1


def test_no_adversary_compares_its_entry_s_name():
    """``cli.cmd_defeat`` is the one map from a zoo entry to its adversary:
    no function in ``adversaries.py`` compares the name of a ``ZooEntry``
    it takes."""
    compared = []
    for fn in ast.walk(ast.parse((SRC / "adversaries.py").read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        entries = {a.arg for a in fn.args.args
                   if isinstance(a.annotation, ast.Name) and a.annotation.id == "ZooEntry"}
        compared += ["%s:%d" % (fn.name, n.lineno) for n in ast.walk(fn)
                     if isinstance(n, ast.Compare)
                     and any(isinstance(side, ast.Attribute) and side.attr == "name"
                             and isinstance(side.value, ast.Name) and side.value.id in entries
                             for side in [n.left, *n.comparators])]
    assert compared == []
