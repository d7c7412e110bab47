"""Every Python file of the package and its tests parses as Python 3.10,
the oldest version that pyproject.toml and the CI matrix claim, each
library module's `__all__` lists exactly what it defines for public use,
each library module loads only the sibling modules it runs at load, no
library module raises or catches AssertionError, and only the verify tests
call verify's checks."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    files = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("module", ["vectors", "complexes", "constructions", "qvectors", "stackedness"])
def test_all_names_every_public_definition(module):
    """Each public top-level def or class is in `__all__`; each entry is defined at the top level."""
    tree = ast.parse((ROOT / "src" / "polygv" / f"{module}.py").read_text(encoding="utf-8"))
    exported, defined, public = None, set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
            if not node.name.startswith("_"):
                public.add(node.name)
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name):
                defined.add(target.id)
                if target.id == "__all__":
                    exported = ast.literal_eval(node.value)
    assert exported is not None
    assert sorted(public - set(exported)) == []
    assert sorted(set(exported) - defined) == []


def _load_time_siblings(node):
    """Sibling modules a module's body imports as it runs: relative imports
    outside function bodies and `if TYPE_CHECKING:` blocks."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return set()
    if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
        return set().union(*map(_load_time_siblings, node.orelse))
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return {node.module} if node.module else {a.name for a in node.names}
    return set().union(*map(_load_time_siblings, ast.iter_child_nodes(node)))


# library module -> the sibling modules its body imports at load
LOAD_TIME_SIBLINGS = {
    "vectors": [],
    "complexes": ["vectors"],
    "constructions": ["complexes", "vectors"],
    "qvectors": ["vectors"],
    "stackedness": ["complexes", "constructions", "qvectors", "vectors"],
    "verify": ["complexes", "constructions", "qvectors", "stackedness", "vectors"],
}


@pytest.mark.parametrize("module", LOAD_TIME_SIBLINGS)
def test_each_module_loads_only_the_siblings_it_runs(module):
    """The module graph follows the call graph: the Q closed forms load no
    complex engine, and route C imports its builders when it builds."""
    tree = ast.parse((ROOT / "src" / "polygv" / f"{module}.py").read_text(encoding="utf-8"))
    assert sorted(_load_time_siblings(tree)) == LOAD_TIME_SIBLINGS[module]


def _assertion_error_uses(tree):
    """(line, what) of each `assert`, and each `raise` or `except` naming AssertionError."""
    uses = []
    for node in ast.walk(tree):
        named = None
        if isinstance(node, ast.Raise):
            named = node.exc
        elif isinstance(node, ast.ExceptHandler):
            named = node.type
        if isinstance(node, ast.Assert) or (named is not None and "AssertionError" in ast.unparse(named)):
            uses.append((node.lineno, type(node).__name__))
    return uses


def test_no_module_gives_a_verdict_by_assertion_error():
    """A library function reports and its caller judges, so `cli.main` maps
    exceptions to exit 2 only and a failed comparison is a counted case."""
    found = {
        path.name: uses
        for path in sorted((ROOT / "src" / "polygv").glob("*.py"))
        for uses in [_assertion_error_uses(ast.parse(path.read_text(encoding="utf-8")))]
        if uses
    }
    assert found == {}


def _verify_check_uses(tree):
    """(line, name) of each `check_*` name imported from polygv.verify, or read off the module."""
    module_names = set()  # how the module refers to polygv.verify, such as "verify"
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "polygv.verify":
            uses += [(node.lineno, a.name) for a in node.names if a.name.startswith("check_")]
        elif isinstance(node, ast.ImportFrom) and node.module == "polygv":
            module_names |= {a.asname or a.name for a in node.names if a.name == "verify"}
        elif isinstance(node, ast.Import):
            module_names |= {a.asname or a.name for a in node.names if a.name == "polygv.verify"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("check_"):
            if ast.unparse(node.value) in module_names:
                uses.append((node.lineno, node.attr))
    return uses


def test_only_the_verify_tests_call_verify_checks():
    """`polygv verify` and its golden file are the one gate on the paper's grids.

    A test elsewhere that calls a `verify.check_*` re-runs a check the golden
    run already makes; a test of a module asserts what no verify line does.
    """
    found = {
        path.name: uses
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        if path.name != "test_verify.py"
        for uses in [_verify_check_uses(ast.parse(path.read_text(encoding="utf-8")))]
        if uses
    }
    assert found == {}
