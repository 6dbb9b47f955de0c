"""Every error class is raised somewhere in the library."""

import ast
from pathlib import Path

import pytest

from otbary import errors

SRC = Path(errors.__file__).resolve().parent
CLASSES = sorted(
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.OTBaryError) and obj is not errors.OTBaryError
)


def _raised_names():
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


RAISED = _raised_names()


@pytest.mark.parametrize("name", CLASSES)
def test_every_error_class_is_raised(name):
    assert name in RAISED, f"no 'raise {name}' in {SRC}"
