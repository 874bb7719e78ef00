"""Checks on the package source: read with ``ast``, no bare ``assert`` (a
failed invariant raises InternalInvariantViolation), no error class in
errors.py that nothing in the package raises and no modular inverse outside
zpblinalg.py; run in a fresh interpreter, no numpy import outside the
verifier; and the README's library example runs as printed."""

import ast
import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys

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


def test_no_command_imports_numpy(tmp_path):
    """Only ``pauli_matrix`` needs numpy: importing the CLI and running all
    six commands, ``verify`` included, leaves it unloaded, which keeps
    start-up time and resident memory low."""
    f = tmp_path / "code.txt"
    f.write_text("ring p=2 b=2 m=1\nn 1\ngen 1 0\ngen 0 2\n")
    script = ("import io, sys\n"
              "import eaqring.cli\n"
              "for command in ('params', 'decompose', 'extend', 'dual', 'distance', 'verify'):\n"
              "    assert eaqring.cli.run([command, sys.argv[1]], out=io.StringIO()) == 0\n"
              "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script, str(f)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_modular_inverses_only_in_zpblinalg():
    """pow(x, -1, N) appears in zpblinalg.py and nowhere else, so every row
    reduction over Z_{p^b} goes through its pivot step."""
    hits = {f"{name}:{node.lineno}" for name, tree in _trees().items() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3 and ast.unparse(node.args[1]) == "-1"}
    assert {h for h in hits if not h.startswith("zpblinalg.py:")} == set()
    assert hits


def test_readme_library_example_prints_its_comment():
    """The README's one ``python`` block runs and prints what its comment
    says."""
    readme = (SRC.parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue() == "1 1 1 1 (2,)\n"
    assert "# 1 1 1 1 (2,)" in blocks[0]
