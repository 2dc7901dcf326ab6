"""The top-level API is exactly the names the README's Python examples import.

Everything else is imported from its submodule, so a name added to
``netclass.__all__`` without a README example fails here.  The examples
themselves run here too, so a change to a documented call shape fails.
The package's own imports are checked against its one runtime dependency,
and its code against the BLAS calls that would make bytes depend on the
thread count.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import netclass
from netclass import default_corpus_specs
from netclass.synth import STOCK_SPEC, parse_generator_spec

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def readme_imports():
    """Names imported `from netclass` in the README's ```python blocks."""
    text = README.read_text(encoding="utf-8")
    names = set()
    for block in PYTHON_BLOCK.findall(text):
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


def readme_blocks(section):
    """The ```python blocks of the README section headed `## section`."""
    text = README.read_text(encoding="utf-8")
    for part in re.split(r"^## ", text, flags=re.M)[1:]:
        title, _, body = part.partition("\n")
        if title == section:
            return PYTHON_BLOCK.findall(body)
    raise LookupError(f"README has no section {section!r}")


# The plotting example needs matplotlib, which is not a dependency.
@pytest.mark.parametrize("section", ["Graph representation", "Library use"])
def test_readme_examples_run(section):
    blocks = readme_blocks(section)
    assert blocks
    for block in blocks:
        exec(compile(block, f"README.md, {section}", "exec"), {})


def test_readme_spec_is_the_stock_spec():
    """The README's example spec is STOCK_SPEC under master seed 3."""
    (block,) = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert block == "[corpus]\nmaster_seed = 3\n\n" + STOCK_SPEC
    for seed in (0, 7, 99):
        assert parse_generator_spec(block, seed) == default_corpus_specs(3)


def test_numpy_is_the_only_runtime_dependency():
    sources = sorted(Path(netclass.__file__).parent.glob("*.py"))
    assert sources
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", (source.name, module)


BLAS_NAMES = {"matmul", "dot", "einsum", "tensordot", "inner", "linalg"}


def _dotted_names(node):
    while isinstance(node, ast.Attribute):
        yield node.attr
        node = node.value
    if isinstance(node, ast.Name):
        yield node.id


def test_no_blas_call_in_the_package():
    """A BLAS kernel adds in an order that depends on its thread count, so no
    output may go through one: no @ operator and no matrix-product call."""
    for source in sorted(Path(netclass.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.MatMult), (source.name, node.lineno)
            elif isinstance(node, ast.Call):
                names = set(_dotted_names(node.func))
                assert not names & BLAS_NAMES, (source.name, node.lineno, names)
