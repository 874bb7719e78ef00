"""CLI tests: file parsing round trips, report contents for the worked
codes, error rendering, cap behavior, and byte-level determinism."""

import gc
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

import eaqring
from eaqring import decompose, pauli
from eaqring.cli import (
    build_report,
    parse_code_file,
    parse_code_text,
    render_report,
    run,
    serialize_code,
)
from eaqring.codes import AdditiveCode, min_symplectic_distance
from eaqring.errors import (
    DimensionTooLarge,
    HPolyInvalid,
    InternalInvariantViolation,
    NoSolution,
    ParseError,
    RangeError,
    SearchLimitExceeded,
    size_text,
)
from eaqring.extension import eaqecc_params
from eaqring.galois import RingElement, make_ring, phi_expand
from oracles import same_module

Z4_WORKED = "ring p=2 b=2 m=1\nn 1\ngen 1 0\ngen 0 2\n"
F2_REP = "ring p=2 b=1 m=1\nn 1\ngen 1 1\n"
GR42 = "ring p=2 b=2 m=2\nn 1\ngen 1,0 0,0\ngen 0,1 2,0\n"
Z8_N2 = "ring p=2 b=3 m=1\nn 2\ngen 1 2 4 3\ngen 2 6 1 0\ngen 0 4 2 2\n"


def test_parse_worked():
    ring, C = parse_code_text(Z4_WORKED)
    assert (ring.p, ring.b, ring.m) == (2, 2, 1)
    want = AdditiveCode(make_ring(2, 2, 1), 1, [[1, 0], [0, 2]])
    assert same_module(C, want)


def test_parse_makes_no_ring_element(monkeypatch):
    """The parser writes each generator's phi-expanded row directly: parsing
    a Z4 and a GR(4, 2) file calls ``RingElement.__init__`` 0 times, once
    their rings and trace forms are built, and the rows are the expansions
    of the generators the report echoes."""
    for ring in (make_ring(2, 2, 1), make_ring(2, 2, 2)):
        ring._gram
    calls = []
    init = RingElement.__init__
    monkeypatch.setattr(RingElement, "__init__", lambda self, *args: calls.append(1) or init(self, *args))
    parsed = [parse_code_text(text) for text in (Z4_WORKED, GR42)]
    assert calls == []
    monkeypatch.undo()
    for ring, C in parsed:
        assert C.rows == tuple(phi_expand(g.components) for g in C.generators)
    assert parsed[0][1].rows == ((1, 0), (0, 2))
    # GR(4, 2): y = 0 expands to (0, 0), y = 2 to 2 * (Tr 1, Tr theta)
    assert parsed[1][1].rows == ((1, 0, 0, 0), (0, 1, 0, 2))


def test_parse_round_trip():
    for text in (Z4_WORKED, F2_REP, GR42):
        ring, C = parse_code_text(text)
        canon = serialize_code(ring, C)
        ring2, C2 = parse_code_text(canon)
        assert ring2 == ring
        assert C2.generators == C.generators
        assert serialize_code(ring2, C2) == canon


@pytest.mark.parametrize("p,b", [(3, 1), (3, 2), (3, 3), (7, 2), (2, 1), (2, 2), (2, 3)])
def test_serialize_round_trip_canonical_h(p, b):
    """serialize_code -> parse_code_text -> serialize_code on the canonical
    ring Z_{p^b}; the echoed h must validate when read back, with an odd
    p (Z3, Z9, Z27, Z49) as with p = 2 (F2, Z4, Z8)."""
    ring, C = parse_code_text(f"ring p={p} b={b} m=1\nn 2\ngen 1 0 1 1\ngen 0 1 1 0\n")
    text = serialize_code(ring, C)
    ring2, C2 = parse_code_text(text)
    assert ring2 == ring
    assert serialize_code(ring2, C2) == text


def test_parse_comments_and_h():
    text = "# a comment\nring p=2 b=2 m=2 h=1,1,1  # canonical\nn 1\ngen 1,0 0,0\n"
    ring, C = parse_code_text(text)
    assert ring.h_coeffs == (1, 1, 1)


def test_parse_errors():
    with pytest.raises(RangeError):
        parse_code_text("ring p=2 b=2 m=1\nn 1\ngen 4 0\n")
    with pytest.raises(ParseError) as e:
        parse_code_text("ring p=2 b=2 m=1\nn 1\ngem 1 0\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_code_text("ring p=2 b=2\nn 1\n")  # missing m=
    with pytest.raises(ParseError):
        parse_code_text("ring p=2 b=2 m=1\nn 1\ngen 1\n")  # short row
    with pytest.raises(ParseError):
        parse_code_text("ring p=2 b=2 m=2\nn 1\ngen 1 0\n")  # 1 coord, need 2
    with pytest.raises(HPolyInvalid):
        parse_code_text("ring p=2 b=2 m=2 h=1,0,1\nn 1\ngen 1,0 0,0\n")
    # a repeated or unknown header key is an error, not a silent last-wins
    # or a dropped field
    for text, col in (("ring p=2 p=3 b=2 m=1\nn 1\ngen 1 0\n", 10),
                      ("ring p=2 b=2 m=2 H=3,1\nn 1\ngen 1,0 0,0\n", 18),
                      ("ring p=2 b=2 m=1 foo=7\nn 1\ngen 1 0\n", 18)):
        with pytest.raises(ParseError) as e:
            parse_code_text(text)
        assert (e.value.line, e.value.column) == (1, col)


# the format's one integer grammar is an optional - and ASCII digits; int()
# also takes each of these, as 1, 1, 1, 1 and 10
NOT_INTEGERS = ["0_1", "+1", "\u0661", "\uff11", "1_0"]
# (text with {} in one integer position, line and column of the token named)
INTEGER_POSITIONS = {
    "p": ("ring p={} b=1 m=1\nn 1\ngen 1 0\n", 1, 6),
    "b": ("ring p=2 b={} m=1\nn 1\ngen 1 0\n", 1, 10),
    "m": ("ring p=2 b=1 m={}\nn 1\ngen 1 0\n", 1, 14),
    "h": ("ring p=2 b=1 m=2 h={},1,1\nn 1\ngen 1,0 0,0\n", 1, 18),
    "n": ("ring p=2 b=1 m=1\nn {}\ngen 1 0\n", 2, 3),
    "residue": ("ring p=2 b=2 m=1\nn 1\ngen 1 0\ngen 0 {}\n", 4, 7),
    "coordinate": ("ring p=2 b=1 m=2\nn 1\ngen 1,0 0,{}\n", 3, 9),
}


@pytest.mark.parametrize("where", sorted(INTEGER_POSITIONS))
def test_every_integer_is_an_optional_minus_and_ascii_digits(where):
    """In each integer position a plain number parses, and every token that
    int() reads but the grammar does not is a ParseError naming its line
    and column, where the parser once read it as a number."""
    text, line, column = INTEGER_POSITIONS[where]
    parse_code_text(text.format("2" if where == "p" else "1"))
    for token in NOT_INTEGERS:
        with pytest.raises(ParseError) as e:
            parse_code_text(text.format(token))
        assert (e.value.line, e.value.column) == (line, column), token


def test_negative_integers_keep_their_range_errors():
    with pytest.raises(RangeError, match="residue -1 out of range"):
        parse_code_text("ring p=2 b=2 m=1\nn 1\ngen -1 0\n")
    with pytest.raises(RangeError, match="n must be positive, got -1"):
        parse_code_text("ring p=2 b=2 m=1\nn -1\ngen 1 0\n")
    assert parse_code_text("ring p=2 b=2 m=1\nn 01\ngen 01 -0\n")[1].n == 1


def test_params_report_worked():
    ring, C = parse_code_text(Z4_WORKED)
    report, code = build_report("params", ring, C, 1 << 22, 1024)
    assert code == 0
    assert report["schema"] == 1
    assert report["c_min"] == 1
    assert report["K_exact"] == 1
    assert report["D"] == 1
    assert report["rho"] == [2]
    assert report["K_lower_raw"] == "1/2"
    assert report["decomposition"]["pair_count"] == 1
    assert report["ring"]["h"] == [3, 1]  # canonical h echoed


def test_decompose_and_extend_reports():
    ring, C = parse_code_text(Z4_WORKED)
    rep, code = build_report("decompose", ring, C, 1 << 22, 1024)
    assert code == 0 and rep["decomposition"]["gram_exponents"] == [2]
    rep, code = build_report("extend", ring, C, 1 << 22, 1024)
    assert code == 0
    assert rep["card_extended"] == 16
    gens = [[e[0] for e in row] for row in rep["extended_generators"]]
    ext = AdditiveCode(make_ring(2, 2, 1), 2, gens)
    want = AdditiveCode(make_ring(2, 2, 1), 2, [[1, 2, 0, 0], [0, 0, 2, 1]])
    assert same_module(ext, want)


# "eaqring extend" reports recorded before the two extensions shared one
# assembly: the extended generators and the SHA-256 of the full report
EXTEND_PINS = {
    # GR(4,2): two hyperbolic pairs packed into one fresh coordinate
    "GR42-packed": (
        "ring p=2 b=2 m=2\nn 1\ngen 1,0 0,0\ngen 0,0 1,0\ngen 0,1 0,0\ngen 0,1 0,1\n",
        [[[1, 0], [1, 3], [0, 0], [0, 0]], [[0, 0], [0, 0], [3, 1], [1, 0]],
         [[0, 0], [1, 2], [1, 2], [0, 0]], [[0, 1], [0, 0], [0, 0], [0, 1]]],
        "b233a2a22350b237eaafe391be3a560d72fec62985956f8000483efe1b6983ca"),
    "Z9": (
        "ring p=3 b=2 m=1\nn 2\ngen 1 0 3 1\ngen 0 1 2 0\ngen 3 3 0 6\n",
        [[[3], [6], [0], [6], [6], [0]], [[1], [0], [8], [3], [1], [0]],
         [[0], [1], [0], [2], [0], [1]]],
        "13db0ef1e852b9b5aa627bc39936c952ff9677547cc471e5da96492b58a2a5d6"),
    "Z4-worked": (
        Z4_WORKED,
        [[[1], [2], [0], [0]], [[0], [0], [2], [1]]],
        "8190be15b539da9648aed2203c063e21447c6b53f9ec88aa5c15458de75a2e43"),
}


@pytest.mark.parametrize("name", sorted(EXTEND_PINS))
def test_extend_report_is_pinned(tmp_path, name):
    text, extended, digest = EXTEND_PINS[name]
    f = tmp_path / "code.txt"
    f.write_text(text)
    out = io.StringIO()
    assert run(["extend", str(f)], out=out) == 0
    assert json.loads(out.getvalue())["extended_generators"] == extended
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# A seeded sample for the commands and codes that no benchmark workload
# pins: the SHA-256 of each command's report on each code, and of the code
# file itself, kept in SAMPLE_PINS.  A change meant to alter reports
# re-records them with ``PYTHONPATH=src python tests/test_cli.py`` and
# lists the codes whose digests moved in CHANGES.md.
SAMPLE_RINGS = {"F2": (2, 1, 1), "F4": (2, 1, 2), "Z4": (2, 2, 1), "Z8": (2, 3, 1),
                "Z9": (3, 2, 1), "GR42": (2, 2, 2)}
SAMPLE_COMMANDS = ("decompose", "extend", "dual", "params", "distance", "verify")
SAMPLE_PINS = pathlib.Path(__file__).with_name("sample_pins.json")


def sample_code_texts():
    """8 code files per ring, n <= 3 and q^(2n) <= 2^12, drawn with
    random.Random rather than hypothesis so that the draw never moves.
    Codes 0-3 have uniform rows; codes 4-7 have graded rows p^e*(uniform
    row) (ROADMAP item 19), e = 0 with odds 1/2 and each step up to b - 1
    with half the odds of the one before, so Smith exponents >= 2 occur."""
    rng = random.Random(27)
    texts = {}
    for name, (p, b, m) in SAMPLE_RINGS.items():
        N = p ** b
        n_max = max(n for n in (1, 2, 3) if N ** (2 * n * m) <= 1 << 12)
        for i in range(8):
            n = rng.randint(1, n_max)
            lines = [f"ring p={p} b={b} m={m}", f"n {n}"]
            for _ in range(rng.randint(1, 2 * n * m)):
                e = 0
                while i >= 4 and e < b - 1 and rng.randrange(2):
                    e += 1
                lines.append("gen " + " ".join(
                    ",".join(str(p ** e * rng.randrange(N) % N) for _ in range(m))
                    for _ in range(2 * n)))
            texts[f"{name}-{i}"] = "\n".join(lines) + "\n"
    return texts


def sample_digests(text, path):
    """{"code": digest of the file, command: digest of its report}."""
    path.write_text(text)
    digests = {"code": hashlib.sha256(text.encode()).hexdigest()}
    for command in SAMPLE_COMMANDS:
        out = io.StringIO()
        run([command, str(path)], out=out)
        digests[command] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


@pytest.mark.parametrize("ring", sorted(SAMPLE_RINGS))
def test_sample_reports_are_pinned(tmp_path, ring):
    pins = json.loads(SAMPLE_PINS.read_text())
    for name, text in sample_code_texts().items():
        if name.startswith(f"{ring}-"):
            assert sample_digests(text, tmp_path / "code.txt") == pins[name], name


def test_sample_reports_are_pinned_with_warm_rings(tmp_path):
    """With every ring built and its trace and dual-basis tables filled
    first, each file parses to that one shared ring and all 48 files'
    reports still match their pins."""
    rings = {name: make_ring(*spec) for name, spec in SAMPLE_RINGS.items()}
    for ring in rings.values():
        ring.tr_powers, ring._dual_coeffs
    pins = json.loads(SAMPLE_PINS.read_text())
    for name, text in sample_code_texts().items():
        assert parse_code_text(text)[0] is rings[name.partition("-")[0]], name
        assert sample_digests(text, tmp_path / "code.txt") == pins[name], name


def test_sample_reaches_smith_exponents_of_two():
    exponents = {e for text in sample_code_texts().values()
                 for e in parse_code_text(text)[1].expanded_smith.diag_exponents}
    assert max(exponents) >= 2


def test_dual_report():
    ring, C = parse_code_text(Z4_WORKED)
    rep, code = build_report("dual", ring, C, 1 << 22, 1024)
    assert code == 0
    assert rep["card_code"] == 8
    assert rep["card_dual"] == 2
    assert rep["dual_generators"] == [[[2], [0]]]


def test_params_on_a_ring_with_a_long_polynomial_search(tmp_path):
    """GR(7, 6), whose search for a primitive polynomial once walked every
    tail of each constant term in turn: ``params`` parses it at once and
    reports its canonical h, with D capped by the default --max-enum."""
    f = tmp_path / "gr76.txt"
    f.write_text("ring p=7 b=1 m=6\nn 1\ngen 1,0,0,0,0,0 0,0,0,0,0,0\n")
    code, out = run_cli(["params", str(f)])
    assert code == 2
    rep = json.loads(out)
    assert rep["ring"] == {"p": 7, "b": 1, "m": 6, "h": [3, 0, 0, 0, 1, 1, 1]}
    assert (rep["card_code"], rep["K_exact"], rep["D"]) == (7, 7 ** 5, "Unknown")


def test_distance_cap_exit_2():
    ring, C = parse_code_text(Z4_WORKED)
    rep, code = build_report("distance", ring, C, 1, 1024)
    assert code == 2
    assert rep["D"] == "Unknown"


def test_verify_report_f2():
    ring, C = parse_code_text(F2_REP)
    rep, code = build_report("verify", ring, C, 1 << 22, 1024)
    assert code == 0
    v = rep["verification"]
    assert v["projector_dimension"] == rep["K_exact"] == 1
    assert v["stabilizer_size"] == 2
    assert v["dimension_one_convention"]
    assert v["set_matches_dual_minus_code"]
    assert v["D_matrix"] == rep["D"] == 1


def test_verify_report_worked():
    ring, C = parse_code_text(Z4_WORKED)
    rep, code = build_report("verify", ring, C, 1 << 22, 1024)
    assert code == 0
    v = rep["verification"]
    assert v["projector_dimension"] == 1
    assert v["stabilizer_size"] == 16
    assert v["matrix_dimension"] == 16
    assert v["D_matrix"] == rep["D"] == 1


def test_verify_matrix_cap():
    ring, C = parse_code_text(Z4_WORKED)
    rep, code = build_report("verify", ring, C, 1 << 22, 4)
    assert code == 2
    assert rep["verification"] == {"skipped": "q^(n+c) = 16 exceeds the matrix cap 4"}


def test_verify_z8_regression():
    """A Z8 n = 2 code at matrix dimension 512: 4,096 errors, each applied
    to the code basis (it took about two minutes with dense operators)."""
    ring, C = parse_code_text(Z8_N2)
    rep, code = build_report("verify", ring, C, 1 << 22, 1024)
    assert code == 0
    assert rep["verification"] == {
        "stabilizer_size": 256,
        "matrix_dimension": 512,
        "projector_dimension": 2,
        "undetectable_count": 12,
        "undetectable_min_weight": 2,
        "set_matches_dual_minus_code": True,
        "dimension_one_convention": False,
        "D_matrix": 2,
    }


def test_verify_enum_cap_names_the_limit(tmp_path):
    f = tmp_path / "code.txt"
    f.write_text("ring p=2 b=2 m=1\nn 2\ngen 1 0 1 0\ngen 0 2 0 2\n")
    code, out = run_cli(["verify", str(f), "--max-enum", "16"])
    assert code == 2
    rep = json.loads(out)
    assert rep["D"] == "Unknown"
    assert rep["verification"]["skipped"] == (
        "search set has 256 elements, over the --max-enum limit 16")


@pytest.mark.parametrize("command, flag", [("params", "--max-enum"), ("distance", "--max-enum"),
                                           ("verify", "--max-enum"), ("verify", "--max-matrix-dim")])
def test_negative_cap_is_a_value_error(tmp_path, command, flag):
    """A negative cap is an error, exit 1, not a cap hit that reads as D
    unknown or a skipped verification."""
    f = tmp_path / "code.txt"
    f.write_text(Z4_WORKED)
    code, out = run_cli([command, str(f), flag, "-5"])
    assert code == 1
    assert json.loads(out) == {"schema": 1, "error": {
        "type": "ValueError", "message": f"{flag} -5 is negative; 0 caps every search"}}


def test_zero_cap_still_caps_every_search(tmp_path):
    f = tmp_path / "code.txt"
    f.write_text(Z4_WORKED)
    code, out = run_cli(["params", str(f), "--max-enum", "0"])
    assert code == 2 and json.loads(out)["D"] == "Unknown"
    code, out = run_cli(["verify", str(f), "--max-matrix-dim", "0"])
    assert code == 2
    assert json.loads(out)["verification"] == {"skipped": "q^(n+c) = 16 exceeds the matrix cap 0"}


LIBRARY_CAPS = {
    "eaqecc_params": lambda C, ext, group, cap: eaqecc_params(C, limit=cap).D,
    "min_symplectic_distance": lambda C, ext, group, cap: min_symplectic_distance(C, cap),
    "undetectable_error_search": lambda C, ext, group, cap: pauli.undetectable_error_search(
        C, group, limit=cap),
    "build_stabilizer": lambda C, ext, group, cap: pauli.build_stabilizer(ext, max_dim=cap),
    "stabilizer_projector": lambda C, ext, group, cap: pauli.stabilizer_projector(group, cap),
    "projector_dimension": lambda C, ext, group, cap: pauli.projector_dimension(group, cap),
    "pauli_matrix": lambda C, ext, group, cap: pauli.pauli_matrix(
        pauli.PauliOperator(C.ring, 1, 0, (C.ring.one,), (C.ring.zero,)), cap),
}


@pytest.mark.parametrize("entry", sorted(LIBRARY_CAPS))
def test_library_rejects_a_negative_cap(entry):
    """Each library entry point that compares a cap raises ValueError on a
    negative one, which is not a cap hit; 0 still caps every search.
    ``eaqecc_params`` raises before it builds a fresh code's extension."""
    _, C = parse_code_text(Z4_WORKED)
    ext = C.extension
    group = pauli.build_stabilizer(ext)
    call = LIBRARY_CAPS[entry]
    with pytest.raises(ValueError, match=r"^(limit|max_dim) = -1 is negative; 0 caps every search$"):
        call(C, ext, group, -1)
    if entry == "eaqecc_params":
        _, fresh = parse_code_text(Z4_WORKED)
        with pytest.raises(ValueError, match=r"^limit = -1 is negative"):
            call(fresh, None, None, -1)
        assert "extension" not in fresh.__dict__ and "decomposition" not in fresh.__dict__
        assert call(C, ext, group, 0) is None
    else:
        with pytest.raises((SearchLimitExceeded, DimensionTooLarge)):
            call(C, ext, group, 0)


def child_env():
    """The environment of a child that imports the same package as this
    process, however it was found."""
    src = os.path.dirname(os.path.dirname(eaqring.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point(tmp_path):
    f = tmp_path / "code.txt"
    f.write_text(Z4_WORKED)
    proc = subprocess.run([sys.executable, "-m", "eaqring.cli", "params", str(f)],
                          capture_output=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["command"] == "params"
    assert rep["K_exact"] == 1 and rep["D"] == 1
    assert proc.stdout.decode() == render_report(rep)


def test_survey_script_runs_from_a_checkout():
    """The README form: ``PYTHONPATH=src python3 scripts/survey_random_codes.py``,
    the one script on the public API.  Seed 0 pins every row."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "survey_random_codes.py"),
         "--p", "2", "--b", "2", "--m", "1", "--n", "2", "--count", "3"],
        capture_output=True, timeout=120, env=child_env(), text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ring GR(2^2, 1), h = (3, 1), length n = 2"
    assert lines[1].split() == ["|C|", "c", "K", "D", "rho", "case"]
    assert [row.split() for row in lines[2:]] == [
        ["256", "2", "1", "inf", "(0,)", "dual_subset_of_code"],
        ["4", "0", "4", "1", "(0,)", "dual_minus_code"],
        ["64", "1", "1", "2", "(0,)", "dual_subset_of_code"]]


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_run_end_to_end(tmp_path):
    f = tmp_path / "code.txt"
    f.write_text(Z4_WORKED)
    code, out = run_cli(["params", str(f)])
    assert code == 0
    rep = json.loads(out)
    assert rep["K_exact"] == 1 and rep["D"] == 1
    # key-sorted serialization
    assert out == render_report(rep)


def test_run_determinism(tmp_path):
    f = tmp_path / "code.txt"
    f.write_text(GR42)
    outs = {run_cli(["params", str(f)]) for _ in range(3)}
    assert len(outs) == 1
    outs = {run_cli(["verify", str(f)]) for _ in range(2)}
    assert len(outs) == 1


def test_run_errors(tmp_path):
    code, out = run_cli(["params", str(tmp_path / "missing.txt")])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FileError"
    f = tmp_path / "bad.txt"
    f.write_text("ring p=2 b=2 m=1\nn 1\ngen 4 0\n")
    code, out = run_cli(["params", str(f)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "RangeError"
    f2 = tmp_path / "bad2.txt"
    f2.write_text("ring p=2 b=2 m=1\nn 1\ngem 1 0\n")
    code, out = run_cli(["params", str(f2)])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "ParseError" and err["line"] == 3


def test_parse_code_file(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text(F2_REP)
    ring, C = parse_code_file(str(f))
    assert ring.b == 1 and C.n == 1


def test_a_code_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    """A file saved as UTF-8 with a byte-order mark gives the same params
    report as the plain file."""
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(Z4_WORKED, encoding="utf-8")
    bom.write_text(Z4_WORKED, encoding="utf-8-sig")
    assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    code, want = run_cli(["params", str(plain)])
    assert code == 0 and "error" not in json.loads(want)
    assert run_cli(["params", str(bom)]) == (code, want)


def test_invariant_failure_carries_a_reproducer(tmp_path, monkeypatch):
    def broken(*args):
        raise InternalInvariantViolation("stabilizer is not closed")

    f = tmp_path / "code.txt"
    f.write_text(Z4_WORKED)
    code, plain = run_cli(["verify", str(f)])
    assert code == 0 and "reproducer" not in plain
    monkeypatch.setattr(pauli, "_check_stabilizer", broken)
    code, out = run_cli(["verify", str(f)])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "InternalInvariantViolation"
    assert err["message"] == "stabilizer is not closed"
    ring, C = parse_code_text(Z4_WORKED)
    assert err["reproducer"] == serialize_code(ring, C)
    ring2, C2 = parse_code_text(err["reproducer"])
    assert ring2 == ring and same_module(C2, C)


def test_failed_projector_check_carries_a_reproducer(tmp_path, monkeypatch):
    """Every operator's phase on state 0 is raised by one power of omega, so
    the exact check sum_g g v = |S| v fails."""
    of = pauli._Monomials.of

    def corrupted(self, l, a, b):
        rows, phase = of(self, l, a, b)
        return rows, [phase[0] + 1] + phase[1:]

    monkeypatch.setattr(pauli._Monomials, "of", corrupted)
    f = tmp_path / "code.txt"
    f.write_text(Z4_WORKED)
    code, out = run_cli(["verify", str(f)])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "InternalInvariantViolation"
    assert err["message"] == "averaged stabilizer sum is not idempotent"
    ring, C = parse_code_text(Z4_WORKED)
    assert err["reproducer"] == serialize_code(ring, C)


def test_unsolvable_generator_congruence_carries_a_reproducer(tmp_path, monkeypatch):
    """An unsolvable o t = phi for a stabilizer generator is a theory
    failure: the report names InternalInvariantViolation with the code."""
    def unsolvable(lhs, rhs, modulus):
        raise NoSolution(f"{lhs}*u = {rhs} (mod {modulus}) has no solution")

    monkeypatch.setattr(pauli, "solve_congruence", unsolvable)
    f = tmp_path / "code.txt"
    f.write_text(Z4_WORKED)
    code, out = run_cli(["verify", str(f)])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "InternalInvariantViolation"
    ring, C = parse_code_text(Z4_WORKED)
    assert err["reproducer"] == serialize_code(ring, C)


def test_params_on_a_long_zero_code_builds_no_chi_dual(tmp_path):
    """The zero code of length 100 over F2 has a chi-dual of 2^200 vectors:
    D is capped before that dual is built, so the report stays small."""
    f = tmp_path / "zero.txt"
    f.write_text("ring p=2 b=1 m=1\nn 100\n")
    run_cli(["params", str(f)])  # warm the ring and parser caches
    tracemalloc.start()
    try:
        code, out = run_cli(["params", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads(out)
    assert code == 2 and rep["D"] == "Unknown" and rep["c_min"] == 0
    assert rep["K_exact"] == 2 ** 100
    assert peak < 1 << 20


@pytest.mark.parametrize("text, size, power", [
    ("ring p=2 b=1 m=1\nn 7200\n", 2 ** 14400, 14400),
    ("ring p=2147483647 b=1 m=1\nn 240\n", (2 ** 31 - 1) ** 480, 14879)], ids=["F2", "F2147483647"])
def test_distance_over_a_search_set_past_the_decimal_digit_limit(tmp_path, text, size, power):
    """Zero codes whose chi-dual has more elements than the interpreter
    writes in decimal (past 4,300 digits on CPython 3.11): the cap gives
    the size as a power of 2 and keeps it exact, and distance exits 2 with
    D unknown."""
    f = tmp_path / "zero.txt"
    f.write_text(text)
    code, out = run_cli(["distance", str(f)])
    assert code == 2 and json.loads(out)["D"] == "Unknown"
    with pytest.raises(SearchLimitExceeded) as exc:
        min_symplectic_distance(parse_code_text(text)[1], limit=16)
    try:  # an interpreter without the digit limit writes the decimal text
        shown = str(size)
    except ValueError:
        shown = f"at least 2^{power}"
    assert str(exc.value) == f"search set has {shown} elements, over the --max-enum limit 16"
    assert exc.value.cardinality == size


def test_size_text_writes_decimal_or_a_power_of_two():
    assert size_text(0) == "0" and size_text(2 ** 31) == "2147483648"
    big = 3 ** 20000  # 9,543 decimal digits, 31,700 bits
    try:  # an interpreter without the digit limit writes the decimal text
        shown = str(big)
    except ValueError:
        shown = "at least 2^31699"
    assert size_text(big) == shown


def test_params_on_a_ring_past_the_size_cap_fails_at_once(tmp_path):
    """m = 2 * 10^8 puts p^(b*m) past 2^31 without forming the power: the
    report names ParameterTooLarge at once (forming 2^(2 * 10^8) would take
    seconds and end in the interpreter's own digit-limit ValueError)."""
    f = tmp_path / "ring.txt"
    f.write_text("ring p=2 b=1 m=200000000\nn 1\n")
    t0 = time.perf_counter()
    code, out = run_cli(["params", str(f)])
    assert time.perf_counter() - t0 < 0.1
    err = json.loads(out)["error"]
    assert code == 1 and err["type"] == "ParameterTooLarge"
    assert err["message"] == "p^(b*m) exceeds 2^31: b*m = 200000000 > 31"


def test_render_report_writes_integers_past_the_digit_limit_as_str_does():
    """From 10^512 on the renderer rebuilds an integer in ``decimal`` (see
    ``cli._IntTexts``): its text is ``str()``'s with the digit limit lifted,
    at 10^512 and 10^512 +- 1, at powers of ten and of two, on seeded
    random integers of 1,700 to 70,000 bits, and on the negatives of all
    these.  2^(10^6), 301,030 digits, takes well under a second and ends
    in the right 18 digits."""
    rng = random.Random(61)
    values = [10 ** 512 - 1, 10 ** 512, 10 ** 512 + 1, 10 ** 4300, 2 ** 14285, 2 ** 65536 - 1]
    values += [rng.getrandbits(rng.randint(1700, 70000)) for _ in range(20)]
    values += [-v for v in values]
    texts = [render_report({"value": v}) for v in values]
    t0 = time.perf_counter()
    big = render_report({"value": 2 ** 10 ** 6})
    assert time.perf_counter() - t0 < 1.0
    digits = big[len('{\n  "value": '):-len('\n}\n')]
    assert len(digits) == 301030 and digits[-18:] == f"{pow(2, 10 ** 6, 10 ** 18):018d}"
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:  # Python 3.10 before 3.10.7 has no limit to lift
        sys.set_int_max_str_digits(0)
    try:
        for v, text in zip(values, texts):
            assert text == f'{{\n  "value": {v}\n}}\n', v.bit_length()
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_params_report_converts_each_large_integer_once(tmp_path, monkeypatch):
    """params on the F2 zero code at n = 10^6, where K_exact, K_upper,
    K_lower and K_lower_raw's numerator are all 2^(10^6) (301,030 digits),
    writes the bytes it wrote when each of them was converted on its own
    (their SHA-256 below), and the report builds each power 2^k that
    ``cli._rebuilt`` splits at once: one memo serves the whole report."""
    import decimal

    built = []

    class Counting(decimal.Context):
        def power(self, a, b, modulo=None):
            built.append(b)
            return super().power(a, b, modulo)

    monkeypatch.setattr(decimal, "Context", Counting)
    f = tmp_path / "zero.txt"
    f.write_text("ring p=2 b=1 m=1\nn 1000000\n")
    code, out = run_cli(["params", str(f)])
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "59c72406edad5b330fdd5f76f0ae430c62425e00f2c89e8ae0712d10a7782bad")
    digits = f"{pow(2, 10 ** 6, 10 ** 18):018d}"
    assert out.count(digits + ",\n") == 3 and out.count(digits + '/1",\n') == 1
    assert built and len(built) == len(set(built))


CORPUS = {"z4": Z4_WORKED, "f2": F2_REP, "gr42": GR42, "z9": "ring p=3 b=2 m=1\nn 1\ngen 1 3\n",
          "f4": "ring p=2 b=1 m=2\nn 2\ngen 1,0 0,1 1,1 0,0\n"}


def test_cli_keeps_nothing_from_one_file_to_the_next(tmp_path):
    """After one warm pass, three more passes of params, distance and verify
    over a fixed corpus leave traced memory within 64 KB of where it was:
    whatever the library caches per code goes with the code."""
    files = []
    for name, text in CORPUS.items():
        files.append(tmp_path / f"{name}.txt")
        files[-1].write_text(text)

    def one_pass():
        for command in ("params", "distance", "verify"):
            for f in files:
                assert run_cli([command, str(f)])[0] == 0, (command, f.name)
    one_pass()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            one_pass()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 64 * 1024


def test_cli_run_leaves_no_cyclic_garbage(tmp_path):
    """Every command, run again on warm caches, frees what it built by
    reference counting alone: under ``gc.DEBUG_SAVEALL`` a collection after
    three passes over the corpus finds nothing (the pure-Python JSON
    encoder left a closure cycle per report)."""
    files = []
    for name, text in CORPUS.items():
        files.append(tmp_path / f"{name}.txt")
        files[-1].write_text(text)

    def one_pass():
        for command in ("params", "decompose", "extend", "dual", "distance", "verify"):
            for f in files:
                assert run_cli([command, str(f)])[0] == 0, (command, f.name)
    one_pass()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(3):
            one_pass()
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


@pytest.mark.parametrize("error", [InternalInvariantViolation, ValueError])
def test_cli_run_error_leaves_no_cyclic_garbage(tmp_path, monkeypatch, error):
    """A command that raises after parsing frees what it built by reference
    counting alone, as a successful one does: no object derived from the
    code refers back to it, on the error path too."""
    def broken(d, C):
        raise error("decomposition check forced to fail")

    f = tmp_path / "code.txt"
    f.write_text(Z4_WORKED)
    monkeypatch.setattr(decompose, "_check_decomposition", broken)
    assert run_cli(["params", str(f)])[0] == 1
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(3):
            code, out = run_cli(["params", str(f)])
            assert code == 1 and json.loads(out)["error"]["type"] == error.__name__
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def _random_text(rng):
    """Up to five characters: escapes, control and non-ASCII text included."""
    return "".join(rng.choice('ab "\\/\n\t\x00\x1f\x7fé€\U0001f600') for _ in range(rng.randrange(6)))


def _random_report_value(rng, depth):
    """A random value of the report schema: dicts with string keys, lists,
    strings, ints and bools, empty containers included."""
    kind = rng.randrange(6 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([True, False])
    if kind == 1:
        return rng.choice([0, 1, -1, rng.randrange(-10 ** 30, 10 ** 30), -rng.randrange(1, 100)])
    if kind in (2, 3):
        return _random_text(rng)
    if kind == 4:
        return [_random_report_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {_random_text(rng): _random_report_value(rng, depth + 1) for _ in range(rng.randrange(4))}


def test_render_report_matches_json_dumps():
    """On random values of the report schema the renderer writes the bytes
    of ``json.dumps(..., sort_keys=True, indent=2)``, and it refuses any
    other type."""
    rng = random.Random(0)
    for _ in range(2000):
        report = {"value": _random_report_value(rng, 0), "d": _random_report_value(rng, 3)}
        assert render_report(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert render_report({}) == "{}\n"
    for bad in (1.5, None, (1, 2), {1: 2}, b"x"):
        with pytest.raises(TypeError):
            render_report({"value": bad})


def test_params_writes_integers_past_the_decimal_digit_limit(tmp_path):
    """q^n = 2^14285 has 4,301 decimal digits, one past CPython's default
    limit on int-to-str conversion: params still writes K_exact and
    K_lower_raw exactly, K_exact as a JSON integer, and exits 2 because D is
    over the cap."""
    f = tmp_path / "zero.txt"
    f.write_text("ring p=2 b=1 m=1\nn 14285\n")
    code, out = run_cli(["params", str(f)])
    assert code == 2
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:  # Python 3.10 before 3.10.7 has no limit to lift
        sys.set_int_max_str_digits(0)
    try:
        rep = json.loads(out)
        assert rep["K_exact"] == rep["K_upper"] == 2 ** 14285
        assert rep["K_lower_raw"] == f"{2 ** 14285}/1"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert rep["D"] == "Unknown" and rep["c_min"] == 0


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: sample_digests(text, pathlib.Path(tmp) / "code.txt")
                for name, text in sample_code_texts().items()}
    SAMPLE_PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
