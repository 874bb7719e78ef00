"""Checks on the package source: read with ``ast``, no bare ``assert`` (a
failed invariant raises InternalInvariantViolation), no error class in
errors.py that nothing in the package raises, no modular inverse outside
zpblinalg.py, no ``dataclasses`` or generated code, no public name that
no caller names and no import of test code; run in a fresh interpreter,
no ``dataclasses`` and no verifier outside ``verify`` and no numpy at all;
the value classes compare, hash and refuse assignment as frozen
dataclasses did; and the README's library example runs as printed."""

import ast
import collections
import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import pytest

import eaqring
from eaqring import pauli
from eaqring.codes import AdditiveCode, SymplecticVector
from eaqring.decompose import hyperbolic_decompose
from eaqring.errors import DimensionMismatch, RingMismatch
from eaqring.extension import eaqecc_params
from eaqring.galois import RingElement, make_ring

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "eaqring"


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def test_no_bare_assert():
    hits = [f"{name}:{node.lineno}" for name, tree in _trees().items()
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert hits == []


def test_one_home_for_the_negative_cap_message():
    """Every cap goes through ``errors.check_cap``: the message is written
    once in the package source."""
    counts = {p.name: p.read_text().count("is negative; 0 caps every search") for p in SRC.glob("*.py")}
    assert {name: k for name, k in counts.items() if k} == {"errors.py": 1}


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
    start-up time and resident memory low.  The five commands before
    ``verify`` load neither ``dataclasses`` nor the verifier, ``pauli``."""
    f = tmp_path / "code.txt"
    f.write_text("ring p=2 b=2 m=1\nn 1\ngen 1 0\ngen 0 2\n")
    script = ("import io, sys\n"
              "import eaqring.cli\n"
              "def loaded():\n"
              "    return [m in sys.modules for m in ('dataclasses', 'eaqring.pauli', 'numpy')]\n"
              "for command in ('params', 'distance', 'dual', 'decompose', 'extend'):\n"
              "    assert eaqring.cli.run([command, sys.argv[1]], out=io.StringIO()) == 0\n"
              "print(loaded())\n"
              "assert eaqring.cli.run(['verify', sys.argv[1]], out=io.StringIO()) == 0\n"
              "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script, str(f)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[False, False, False]", "[False, True, False]"]


def test_verifier_names_load_on_first_use():
    """The package serves the verifier's names from ``pauli`` on demand,
    and a star import binds exactly ``__all__``."""
    assert eaqring.build_stabilizer is pauli.build_stabilizer
    assert eaqring.StabilizerGroup is pauli.StabilizerGroup
    namespace: dict = {}
    exec("from eaqring import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(eaqring.__all__)
    with pytest.raises(AttributeError):
        eaqring.no_such_name


def test_no_dataclasses_and_no_generated_code():
    """No module imports ``dataclasses`` or calls exec, eval or compile:
    defining a class compiles nothing at start-up."""
    hits = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            imported = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                        else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(m.split(".")[0] == "dataclasses" for m in imported) or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                hits.append(f"{name}:{node.lineno}")
    assert hits == []


def _value_objects():
    """One instance of each value class, built by the pipeline; a
    ``PauliOperator``, which only ``pauli_matrix`` reads, built directly."""
    ring = make_ring(2, 2, 1)
    C = AdditiveCode(ring, 1, [[1, 0], [0, 2]])
    ext = C.extension
    group = pauli.build_stabilizer(ext)
    return [C.expanded_matrix, C.expanded_howell, C.expanded_smith, ring, ring.one,
            C.generators[0], C, hyperbolic_decompose(C), eaqecc_params(C),
            pauli.PauliOperator(ring, 1, 3, (ring.one,), (ring.zero,)), group,
            pauli.undetectable_error_search(C, group)]


FIELDS = {
    "ZpbMatrix": ("p", "b", "cols", "rows"),
    "HowellBasis": ("p", "b", "cols", "rows", "pivots"),
    "SmithDecomposition": ("diag_exponents", "generators"),
    "GaloisRingSpec": ("p", "b", "m", "h_coeffs"),
    "RingElement": ("ring", "coeffs"),
    "SymplecticVector": ("ring", "x", "y"),
    "AdditiveCode": ("ring", "n", "rows"),
    "HyperbolicDecomposition": ("isotropic", "pairs", "exponents"),
    "EaqeccParams": ("n", "c", "K_exact", "K_lower", "K_upper", "K_lower_raw", "D",
                     "distance_case", "rho", "card_code", "card_extended"),
    "PauliOperator": ("ring", "n", "phase_exp", "a", "b"),
    "StabilizerGroup": ("ring", "n", "elements"),
    "ErrorSearchResult": ("dimension", "undetectable", "min_weight",
                          "set_matches_dual_minus_code", "dim1_distance"),
}


def test_value_classes_behave_as_frozen_dataclasses():
    """Each class takes its fields in order, by position or keyword; equal
    fields give == and an equal hash, and a field cannot be assigned or
    deleted."""
    objects = _value_objects()
    assert sorted(type(obj).__name__ for obj in objects) == sorted(FIELDS)
    for obj in objects:
        cls, fields = type(obj), FIELDS[type(obj).__name__]
        values = [getattr(obj, f) for f in fields]
        by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
        assert by_position == obj == by_keyword and by_position is not obj
        assert hash(by_position) == hash(obj) == hash(by_keyword)
        assert obj != object() and obj != tuple(values)
        assert repr(obj).startswith(f"{cls.__name__}({fields[0]}={values[0]!r}, ")
        for name in (fields[0], fields[-1], "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, fields[-1])
        assert [getattr(obj, f) for f in fields] == values
    ring = objects[3]
    assert ring.one != ring.zero and hash(ring.one) == hash(ring.scalar(1))


def test_value_class_constructors_check_as_before():
    z4, f2 = make_ring(2, 2, 1), make_ring(2, 1, 1)
    with pytest.raises(RingMismatch, match="coefficient count"):
        RingElement(z4, (1, 0))
    with pytest.raises(DimensionMismatch, match="halves differ"):
        SymplecticVector(z4, (z4.one,), ())
    with pytest.raises(RingMismatch, match="different ring"):
        SymplecticVector(z4, (z4.one,), (f2.one,))
    with pytest.raises(DimensionMismatch, match="^a generator row's length is not 2nm = 4$"):
        AdditiveCode(z4, 2, [[1, 0]])
    with pytest.raises(DimensionMismatch, match="support length"):
        pauli.PauliOperator(z4, 2, 0, (z4.one,), (z4.one, z4.zero))
    with pytest.raises(RingMismatch, match="different ring"):
        pauli.PauliOperator(z4, 1, 0, (f2.one,), (z4.one,))


def test_code_rows_are_reduced_mod_p_to_the_b():
    """A code's rows are its one input check: entries are reduced into
    [0, p^b), so codes given equal residues are equal."""
    z4, gr42 = make_ring(2, 2, 1), make_ring(2, 2, 2)
    C = AdditiveCode(z4, 1, [[5, -1], (-4, 6)])
    assert C.rows == ((1, 3), (0, 2)) and C == AdditiveCode(z4, 1, [[1, 3], [0, 2]])
    assert AdditiveCode(gr42, 1, [[4, 7, -2, 9]]).rows == ((0, 3, 2, 1),)
    assert AdditiveCode(z4, 1, []).rows == ()


def _public_definitions():
    """(file, qualified name) of every public top-level function and class
    of the package, and of every public method and property of its classes."""
    out = []
    for name, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append((name, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(name, f"{node.name}.{sub.name}") for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


def test_every_public_name_has_a_caller():
    """Each public name defined in the package is named again, outside its
    own definition and ``__init__.py``: as code in ``src/`` or ``scripts/``
    (a docstring or comment does not count), or anywhere in README.md or
    ``bench/*.py``, which reads names as strings.  The references the tests
    compare the package against live in ``tests/oracles.py``."""
    named = collections.Counter()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        if path.name != "__init__.py":
            with open(path, encoding="utf-8") as fh:
                named.update(t.string for t in tokenize.generate_tokens(fh.readline)
                             if t.type == tokenize.NAME)
    for path in [ROOT / "README.md"] + sorted((ROOT / "bench").glob("*.py")):
        named.update(re.findall(r"[A-Za-z_]\w*", path.read_text(encoding="utf-8")))
    definitions = _public_definitions()
    defined = collections.Counter(q.rpartition(".")[2] for _, q in definitions)
    unnamed = [f"{f}:{q}" for f, q in definitions
               if named[q.rpartition(".")[2]] <= defined[q.rpartition(".")[2]]]
    assert unnamed == []
    assert ("codes.py", "AdditiveCode.dual") in definitions


def test_every_parameter_is_read():
    """Every named parameter of a function or lambda in the package is read
    in its body, so no argument is a knob without a reader.  Exempt are a
    dunder method's parameters, whose signature Python fixes, and the
    instance or class a method is bound to."""
    unread = []
    for name, tree in _trees().items():
        bound = {id(f.args.args[0]) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef) and f.args.args}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)) or re.fullmatch(
                    r"__\w+__", getattr(node, "name", "")):
                continue
            a = node.args
            params = [x for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if x is not None and id(x) not in bound]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{name}:{node.lineno} {x.arg}" for x in params if x.arg not in read]
    assert unread == []


def test_no_module_imports_test_code():
    """pytest puts ``tests/`` on sys.path, so an import of ``oracles`` from
    the package would pass the suite and fail in an installed copy."""
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    assert "oracles" in test_modules
    hits = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            imported = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                        else [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level
                        else [])
            hits += [f"{name}:{node.lineno}" for m in imported if m.split(".")[0] in test_modules]
    assert hits == []


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
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue() == "1 1 1 1 (2,)\n"
    assert "# 1 1 1 1 (2,)" in blocks[0]
