"""The per-code objects: every derived object of a code is built once,
the ranks read off the Gram matrix's Smith form agree with the
quotient-rank oracle, and the meet {x*S : x*G = 0}, read off one Howell
form of [G | S], agrees with the intersection of C and its chi-dual.

Counts calls through the module bindings the pipeline uses, on fresh codes
parsed per report, so a second computation of the same object shows up.
"""

import collections
import functools
import gc
import random
import weakref

import pytest

import eaqring.codes as codes_mod
import eaqring.decompose as decompose_mod
import eaqring.extension as extension_mod
import eaqring.pauli as pauli_mod
import eaqring.zpblinalg as zpb_mod
from eaqring.cli import build_report, parse_code_text
from eaqring.codes import AdditiveCode, chi_dual_level, code_intersection
from eaqring.errors import InternalInvariantViolation
from eaqring.decompose import hyperbolic_decompose
from eaqring.extension import construct_symplectic_subset, eaqecc_params
from eaqring.galois import make_ring, phi_expand
from eaqring.zpblinalg import HowellBasis, SmithDecomposition, ZpbMatrix, howell_form, quotient_rank
from oracles import combine, dual_level, random_code, vector_code
from test_census import all_codes

CODES = {
    "Z4": "ring p=2 b=2 m=1\nn 1\ngen 1 0\ngen 0 2\n",
    "Z8": "ring p=2 b=3 m=1\nn 1\ngen 1 2\ngen 2 6\n",
    "F4": "ring p=2 b=1 m=2\nn 1\ngen 1,0 0,1\ngen 0,1 1,1\n",
    "GR42": "ring p=2 b=2 m=2\nn 1\ngen 1,0 0,0\ngen 0,1 2,0\n",
}


def sample_codes(ring, rng):
    """The zero codes of length 1 and 2, then eight random codes, each
    followed by itself stacked with sums and multiples of its rows (more
    generators than its rank)."""
    codes = [AdditiveCode(ring, 1, ()), AdditiveCode(ring, 2, ())]
    for _ in range(8):
        C = random_code(ring, rng.randint(1, 2), rng.randint(1, 4), rng)
        codes.append(C)
        g = C.generators
        extra = (combine([(1, g[0]), (1, g[-1])]), combine([(ring.p, g[0])]),
                 combine([(rng.randrange(ring.modulus), g[-1])]))
        codes.append(vector_code(ring, C.n, g + extra))
    assert any(len(C.generators) > len(C.expanded_smith.diag_exponents) for C in codes)
    return codes


@pytest.fixture
def counted(monkeypatch):
    """Counters for the decomposition body, the kernels (keyed by their
    matrix), the solves, every Smith form, every Howell form, every
    intersection, every quotient rank, and every contraction of an
    expanded row into ring elements, keyed by the row."""
    seen = collections.Counter()

    def count(module, name, key=lambda *args: None):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[name, key(*args)] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    count(decompose_mod, "_decompose")
    count(codes_mod, "kernel", key=lambda A: A)
    count(codes_mod, "_solve")
    count(codes_mod, "intersect")
    count(codes_mod, "phi_contract", key=lambda ring, flat: tuple(flat))
    for module in (codes_mod, decompose_mod, extension_mod, pauli_mod, zpb_mod):
        if hasattr(module, "smith_form"):
            count(module, "smith_form")
        if hasattr(module, "quotient_rank"):
            count(module, "quotient_rank")
    for module in (codes_mod, decompose_mod, zpb_mod):
        count(module, "howell_form")
    return seen


def check_built_once(counted, label, command, max_enum):
    ring, C = parse_code_text(CODES[label])
    report, code = build_report(command, ring, C, max_enum, 1 << 10)
    assert "error" not in report
    searched = report["D"] != "Unknown"
    assert code == (0 if searched else 2)
    assert counted["_decompose", None] == 1
    # one solve over [G | S] gives C cap C^chi; the only kernel is the
    # chi-dual's (level 0 only), built only when D is searched, and
    # nothing intersects
    assert counted["_solve", None] == 1
    kernels = {k: v for (name, k), v in counted.items() if name == "kernel"}
    assert kernels == ({codes_mod._pairing_columns(C): 1} if searched else {})
    assert counted["intersect", None] == 0
    assert counted["quotient_rank", None] == 0
    # rows are contracted to ring elements only for the report and the
    # ring-level checks: C's and C''s rows, the decomposition's and the
    # tails'; no row of the chi-dual or of the meet beyond those
    contracted = {k for name, k in counted if name == "phi_contract"}
    d, Cp = C.decomposition, C.extension
    tails = construct_symplectic_subset(ring, Cp.n - C.n, d.exponents)
    assert contracted <= {*C.rows, *Cp.rows, *d.all_generators(), *(r for t in tails for r in t)}
    # Smith forms: the minimal generators of C and of C cap C^chi and the
    # Gram matrix; verify adds the minimal generators of C'.  Kernels,
    # enumerations and the meet read Howell forms only.
    assert counted["smith_form", None] == (4 if command == "verify" else 3)
    # Howell forms: one for the meet and (when D is searched) one for the
    # chi-dual's kernel; then at most eight for C itself, the decomposition
    # and the extension of these one-coordinate codes
    assert counted["howell_form", None] <= (2 if searched else 1) + 8
    return searched


@pytest.mark.parametrize("label", sorted(CODES))
@pytest.mark.parametrize("command", ["params", "distance", "verify"])
def test_report_builds_each_object_once(counted, label, command):
    assert check_built_once(counted, label, command, 1 << 22)


@pytest.mark.parametrize("label", sorted(CODES))
@pytest.mark.parametrize("command", ["params", "distance", "verify"])
def test_capped_report_builds_no_chi_dual(counted, label, command):
    """With --max-enum 1, D is capped from |C^chi| = q^{2n} / |C| before
    the chi-dual is built."""
    assert not check_built_once(counted, label, command, 1)


def test_chi_dual_is_checked_against_its_size(monkeypatch):
    """|C^chi| * |C| = q^{2n} over a Frobenius ring: a chi-dual of the
    wrong size raises InternalInvariantViolation when it is built."""
    ring, C = parse_code_text(CODES["Z4"])
    # a pairing matrix with no columns: its kernel is all of Z4^2
    monkeypatch.setattr(codes_mod, "_pairing_columns",
                        lambda code: ZpbMatrix(2, 2, 0, ((), ())))
    with pytest.raises(InternalInvariantViolation, match="is not q"):
        C.dual


def test_rho_is_checked_to_be_even(monkeypatch):
    """rho_t = rank(t-1) - rank(t) counts the Gram matrix's Smith exponents
    equal to b - t, which come in pairs: over Z4 a Gram matrix read as
    having one exponent 1 gives rho_1 = 1, which ``rho`` rejects."""
    ring, C = parse_code_text(CODES["Z4"])
    C.gram  # built with the real Smith form
    monkeypatch.setattr(codes_mod, "smith_form", lambda A: SmithDecomposition((1,), ((2, 0),)))
    with pytest.raises(InternalInvariantViolation, match="^rho_1 = 1 is odd$"):
        C.rho


@pytest.mark.parametrize("t", [-3, -1, 3, 5])
def test_levels_outside_0_to_b_are_rejected(t):
    """rank(t) and the tests' chi-dual at level t take 0 <= t <= b only:
    over Z4 (b = 2) a negative level or one past b raises ValueError.  The
    library's chi-dual, ``dual`` and ``chi_dual_level``, takes no level."""
    ring, C = parse_code_text(CODES["Z4"])
    for level in (C.rank, functools.partial(dual_level, C)):
        with pytest.raises(ValueError, match="out of range"):
            level(t)
    assert [C.rank(t) for t in range(ring.b + 1)] == [2, 0, 0]
    assert isinstance(C.dual, HowellBasis)
    with pytest.raises(TypeError):
        chi_dual_level(C, t)


@pytest.mark.parametrize("label", sorted(CODES))
def test_the_library_frees_a_code_without_the_cyclic_collector(label):
    """No object derived from a code refers back to it: with the cyclic
    collector off, a code taken through the parameters, the stabilizer of
    its minimal extension and the error search dies on ``del``."""
    ring, C = parse_code_text(CODES[label])
    gc.disable()
    try:
        eaqecc_params(C)
        group = pauli_mod.build_stabilizer(C.extension)
        pauli_mod.undetectable_error_search(C, group)
        code = weakref.ref(C)
        del C
        assert code() is None
    finally:
        gc.enable()


def test_repeated_calls_return_the_cached_objects():
    ring, C = parse_code_text(CODES["Z8"])
    d = hyperbolic_decompose(C)
    assert hyperbolic_decompose(C) is d
    assert C.extension is C.extension
    nm = C.n * ring.m
    assert C.extension.rows[len(d.isotropic)][:nm] == d.pairs[0][0][:nm]
    assert C.generators is C.generators
    assert C.dual is C.dual
    assert chi_dual_level(C).rows == C.dual.rows
    assert C.meet is C.meet
    assert C.gram is C.gram
    assert C.rho is C.rho


@pytest.mark.parametrize("ring_args", [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2)])
def test_derived_codes_keep_consistent_howell_rows(ring_args):
    """The meet read off one Howell form of [G | S] equals the intersection
    of C with its chi-dual.  The chi-dual, every chi-dual level and each
    C cap C^{chi,t}, wrapped as a code, holds its Howell rows as its
    expanded matrix: they are the phi expansion of its generators and
    already in Howell form.  Over zero codes, random codes and codes with
    redundant generators."""
    ring = make_ring(*ring_args)
    rng = random.Random(sum(x * 10 ** i for i, x in enumerate(ring_args)))
    for C in sample_codes(ring, rng):
        assert C.meet == code_intersection(C, chi_dual_level(C)).expanded_howell
        derived = [chi_dual_level(C)]
        for t in range(ring.b + 1):
            derived.append(dual_level(C, t))
            derived.append(code_intersection(C, derived[-1]))
        for D in derived:
            assert D.expanded_matrix.rows == tuple(
                phi_expand(g.components) for g in D.generators)
            assert howell_form(D.expanded_matrix) == D.expanded_howell


def assert_well_formed(A):
    """A is a ZpbMatrix of tuple rows, each of length ``cols`` with entries
    in [0, p^b); a Howell basis has one pivot per row, each a power of p."""
    N = A.modulus
    assert isinstance(A, ZpbMatrix) and type(A.rows) is tuple
    assert all(type(r) is tuple and len(r) == A.cols and all(0 <= x < N for x in r) for r in A.rows)
    if isinstance(A, HowellBasis):
        assert len(A.pivots) == len(A.rows)
        assert all(r[c] in {A.p ** v for v in range(A.b)} for r, c in zip(A.rows, A.pivots))


@pytest.mark.parametrize("ring_args,n", [
    ((2, 1, 1), 2), ((2, 1, 2), 1), ((2, 2, 1), 1), ((2, 3, 1), 1), ((3, 2, 1), 1), ((2, 2, 2), None),
], ids=["F2", "F4", "Z4", "Z8", "Z9", "GR42"])
def test_every_cached_matrix_is_well_formed(monkeypatch, ring_args, n):
    """On the census codes of length n (none for GR(4, 2)) and on seeded
    random codes, every matrix a code keeps (expanded matrix, Howell
    basis, Gram matrix, meet and chi-dual), each chi-dual level the tests
    build, and every output of ``kernel``, ``intersect`` and ``_solve`` is
    well formed, and C's Smith generators are rows of the same kind."""
    outputs = collections.Counter()
    for name in ("kernel", "intersect", "_solve"):
        def spy(*args, _name=name, _f=getattr(codes_mod, name)):
            out = _f(*args)
            assert_well_formed(out)
            outputs[_name] += 1
            return out
        monkeypatch.setattr(codes_mod, name, spy)
    ring = make_ring(*ring_args)
    codes = sample_codes(ring, random.Random(sum(x * 10 ** i for i, x in enumerate(ring_args))))
    codes += [AdditiveCode(ring, n, H.rows) for H in (all_codes(ring, n) if n else ())]
    for C in codes:
        for t in range(ring.b + 1):
            assert_well_formed(dual_level(C, t).expanded_howell)
            code_intersection(C, dual_level(C, t))
        for A in (C.expanded_matrix, C.expanded_howell, C.gram, C.meet, C.dual,
                  ZpbMatrix(ring.p, ring.b, C.ambient_cols, C.expanded_smith.generators)):
            assert_well_formed(A)
    assert min(outputs[name] for name in ("kernel", "intersect", "_solve")) >= len(codes)


@pytest.mark.parametrize("ring_args", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_gram_ranks_match_the_quotient_rank_oracle(ring_args):
    """rank(t) from the Gram Smith exponents equals rank(C / (C cap
    C^{chi,t})) at every level 0 <= t <= b, on the zero code, on random
    codes, and on codes with more generators than their rank (a random code
    stacked with sums and multiples of its rows)."""
    ring = make_ring(*ring_args)
    b = ring.b
    rng = random.Random(1000 + sum(x * 10 ** i for i, x in enumerate(ring_args)))
    for C in sample_codes(ring, rng):
        ranks = [C.rank(t) for t in range(b + 1)]
        assert ranks == [quotient_rank(C.expanded_howell,
                                       code_intersection(C, dual_level(C, t)).expanded_howell)
                         for t in range(b + 1)]
        assert ranks[b] == 0
        assert list(C.rho) == [ranks[t - 1] - ranks[t] for t in range(1, b)]


def test_redundant_input_rows_keep_the_gram_matrix_small():
    """A Z4 n = 1 code given by 300 random rows: the Gram matrix is built
    over C's Smith generators (at most 2nm rows), not over the input rows,
    and the params report equals that of the code with each distinct row
    given once, apart from the echoed generators."""
    rng = random.Random(300)
    rows = [f"gen {rng.randrange(4)} {rng.randrange(4)}\n" for _ in range(300)]
    reports = []
    for gens in (rows, list(dict.fromkeys(rows))):
        ring, C = parse_code_text("ring p=2 b=2 m=1\nn 1\n" + "".join(gens))
        assert len(C.gram.rows) <= 2 * C.n * ring.m
        report, code = build_report("params", ring, C, 1 << 22, 1 << 10)
        assert report.pop("generators") == [[[int(x)] for x in g.split()[1:]] for g in gens]
        reports.append((report, code))
    assert reports[0] == reports[1]
