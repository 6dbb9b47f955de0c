"""Only the space owners test a space's type.

``otbary.spaces`` owns every choice that depends on the type of the space,
and ``otbary.frechet`` its per-space Fréchet kernels.  Every other module
asks them (``is_line``, ``paired_distances``, ``has_product_costs``, ...)
instead of calling ``isinstance`` on a space class itself; the two
exceptions are input checks that reject a metric-matrix input.
"""

import ast
from pathlib import Path

import pytest

from otbary import spaces

SRC = Path(spaces.__file__).resolve().parent
OWNERS = {"spaces.py", "frechet.py"}
SPACE_CLASSES = {"Euclidean", "MetricMatrix"}
INPUT_CHECKS = {
    ("consistency.py", "generate_deformation_ensemble"),
    ("measures.py", "pushforward"),
}


def _names(node):
    # The class names an isinstance's second argument mentions.
    parts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {p.id if isinstance(p, ast.Name) else getattr(p, "attr", None) for p in parts}


def _type_tests(tree, where=None):
    # (enclosing function, line) of every isinstance against a space class.
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _type_tests(node, node.name)
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _names(node.args[1]) & SPACE_CLASSES
        ):
            yield where, node.lineno
        yield from _type_tests(node, where)


MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name not in OWNERS)


@pytest.mark.parametrize("module", MODULES)
def test_only_the_space_owners_test_space_types(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    stray = [
        f"{module}:{line} in {where}"
        for where, line in _type_tests(tree)
        if (module, where) not in INPUT_CHECKS
    ]
    assert not stray, f"space type tested outside spaces.py and frechet.py: {stray}"
