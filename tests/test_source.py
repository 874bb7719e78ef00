"""Static checks on the package source, read with ``ast``: no bare
``assert`` (a failed invariant raises InternalInvariantViolation), and no
error class in errors.py that nothing in the package raises."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eaqring"


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def test_no_bare_assert():
    hits = [f"{name}:{node.lineno}" for name, tree in _trees().items()
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert hits == []


def test_every_error_class_is_raised():
    trees = _trees()
    classes = {node.name for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)}
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(classes - raised - {"EaqringError"}) == []
