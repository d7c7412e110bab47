"""Every Python file of the package and its tests parses as Python 3.10,
the oldest version that pyproject.toml and the CI matrix claim, and each
library module's `__all__` lists exactly what it defines for public use."""

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
