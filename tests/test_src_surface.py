"""``src/`` serves ``qg`` jobs: every top-level function, class and
constant of a ``qgames`` module is read by some other ``src/`` code.  A
reference check that only tests call lives in ``tests/oracles.py``."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "qgames"

# top-level names that no other src/ code reads, each with its reason
ALLOWED = {
    "__version__": "the package version, which pyproject.toml reads",
    "__all__": "the names a star import of its module takes",
    "brute_force_values": "perfbench/make_pool.py imports it and perfbench/spans.py traces it",
    "minimal_history_levels": "perfbench/spans.py traces it",
    "lasso_limit": "perfbench/spans.py traces it",
}


def _defined(statement) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _read(statement) -> set[str]:
    """The names a statement reads, bare or as an attribute (``zoo.make``);
    an import alone reads nothing."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def unread_names() -> list[str]:
    statements = [(path.name, s) for path in sorted(SRC.glob("*.py"))
                  for s in ast.parse(path.read_text()).body]
    reads = [_read(s) for _, s in statements]
    return ["%s:%s" % (module, name)
            for i, (module, statement) in enumerate(statements) for name in _defined(statement)
            if not any(name in r for j, r in enumerate(reads) if j != i)]


def test_every_top_level_name_in_src_is_read_by_other_src_code():
    unread = [name for name in unread_names() if name.split(":")[1] not in ALLOWED]
    assert unread == []


def test_every_allowed_name_is_still_defined_and_unread():
    assert sorted(name.split(":")[1] for name in unread_names()) == sorted(ALLOWED)
