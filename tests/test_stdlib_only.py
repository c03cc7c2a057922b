"""The runtime is standard-library only: every absolute import in the
package names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent
              / "src" / "saitoforms").glob("*.py"))


def _absolute_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_package_sources_found():
    assert any(path.name == "__init__.py" for path in SRC)


@pytest.mark.parametrize("path", SRC, ids=lambda path: path.name)
def test_imports_are_standard_library(path):
    outside = ["line %d: %s" % (line, name)
               for line, name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside
