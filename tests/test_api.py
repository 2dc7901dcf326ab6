"""The top-level API is exactly the names the README's Python examples import.

Everything else is imported from its submodule, so a name added to
``netclass.__all__`` without a README example fails here.
"""

import ast
import re
from pathlib import Path

import netclass

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_imports():
    """Names imported `from netclass` in the README's ```python blocks."""
    text = README.read_text(encoding="utf-8")
    names = set()
    for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "netclass":
                names.update(alias.name for alias in node.names)
    return names


def test_all_is_exactly_the_readme_imports():
    assert len(netclass.__all__) == len(set(netclass.__all__))
    assert set(netclass.__all__) == readme_imports()


def test_every_public_name_resolves():
    namespace = {}
    exec("from netclass import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(netclass.__all__)
