"""Every Python file of the package and its tests parses as Python 3.10,
the oldest version that pyproject.toml and the CI matrix claim."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    files = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
