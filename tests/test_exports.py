"""Every public export list names what its module defines, once, and the
README's examples import only names that exist."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import icuxai

MODULES = [icuxai] + [
    importlib.import_module(f"icuxai.{info.name}")
    for info in pkgutil.iter_modules(icuxai.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_lists_names_that_resolve_once(module):
    names = list(module.__all__)
    assert sorted({n for n in names if names.count(n) > 1}) == []
    assert [n for n in names if not hasattr(module, n)] == []


def test_readme_examples_compile_and_import_names_that_exist():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```",
                        readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    missing = [f"{node.module}.{alias.name}"
               for source in blocks
               for node in ast.walk(compile(source, str(readme), "exec",
                                            ast.PyCF_ONLY_AST))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "icuxai"
               for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []
