"""The per-code analysis: every derived object of a code is built once,
the ranks read off the Gram matrix's Smith form agree with the
quotient-rank oracle, and the meet {x*S : x*G = 0}, read off one Howell
form of [G | S], agrees with the intersection of C and its chi-dual.

Counts calls through the module bindings the pipeline uses, on fresh codes
parsed per report, so a second computation of the same object shows up.
"""

import collections
import random

import pytest

import eaqring.codes as codes_mod
import eaqring.decompose as decompose_mod
import eaqring.extension as extension_mod
import eaqring.pauli as pauli_mod
import eaqring.zpblinalg as zpb_mod
from eaqring.cli import build_report, parse_code_text
from eaqring.codes import AdditiveCode, SymplecticVector, chi_dual_level, code_intersection
from eaqring.errors import InternalInvariantViolation
from eaqring.decompose import hyperbolic_decompose, rho_profile
from eaqring.extension import build_minimal_extension
from eaqring.galois import make_ring, phi_expand
from eaqring.zpblinalg import ZpbMatrix, howell_form, quotient_rank

CODES = {
    "Z4": "ring p=2 b=2 m=1\nn 1\ngen 1 0\ngen 0 2\n",
    "Z8": "ring p=2 b=3 m=1\nn 1\ngen 1 2\ngen 2 6\n",
    "F4": "ring p=2 b=1 m=2\nn 1\ngen 1,0 0,1\ngen 0,1 1,1\n",
    "GR42": "ring p=2 b=2 m=2\nn 1\ngen 1,0 0,0\ngen 0,1 2,0\n",
}


def random_code(ring, n, k, rng):
    N, m = ring.modulus, ring.m
    return AdditiveCode(ring, n, tuple(SymplecticVector.from_components(
        ring, [ring.element([rng.randrange(N) for _ in range(m)]) for _ in range(2 * n)])
        for _ in range(k)))


def sample_codes(ring, rng):
    """The zero codes of length 1 and 2, then eight random codes, each
    followed by itself stacked with sums and multiples of its rows (more
    generators than its rank)."""
    codes = [AdditiveCode(ring, 1, ()), AdditiveCode(ring, 2, ())]
    for _ in range(8):
        C = random_code(ring, rng.randint(1, 2), rng.randint(1, 4), rng)
        codes.append(C)
        g = C.generators
        extra = (g[0] + g[-1], g[0].scale(ring.p), g[-1].scale(rng.randrange(ring.modulus)))
        codes.append(AdditiveCode(ring, C.n, g + extra))
    assert any(len(C.generators) > len(C.expanded_smith.diag_exponents) for C in codes)
    return codes


@pytest.fixture
def counted(monkeypatch):
    """Counters for the decomposition body, the kernels (keyed by their
    matrix), the solves, every Smith form, every Howell form, every
    intersection, every quotient rank and every contraction of expanded
    rows into a code."""
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
    count(codes_mod, "phi_contract")
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
    assert kernels == ({codes_mod._pairing_columns(C, 1): 1} if searched else {})
    assert counted["intersect", None] == 0
    assert counted["quotient_rank", None] == 0
    # no derived module is contracted into ring-level generators
    assert counted["phi_contract", None] == 0
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
                        lambda code, scale: ZpbMatrix.from_reduced(2, 2, [[], []], 0))
    with pytest.raises(InternalInvariantViolation, match="is not q"):
        C.analysis.dual(0)


def test_repeated_calls_return_the_cached_objects():
    ring, C = parse_code_text(CODES["Z8"])
    d = hyperbolic_decompose(C)
    assert hyperbolic_decompose(C) is d
    assert build_minimal_extension(C) is build_minimal_extension(C)
    assert build_minimal_extension(C).pair_generators[0][0].x[:C.n] == d.pairs[0][0].x
    assert C.analysis.dual(1) is C.analysis.dual(1)
    assert chi_dual_level(C, 1).expanded_howell is C.analysis.dual(1)
    assert C.analysis.meet is C.analysis.meet
    assert C.analysis.gram is C.analysis.gram
    assert rho_profile(C) is rho_profile(C)


@pytest.mark.parametrize("ring_args", [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2)])
def test_derived_codes_keep_consistent_howell_rows(ring_args):
    """The meet read off one Howell form of [G | S] equals the intersection
    of C with its chi-dual.  Every chi-dual level and each C cap C^{chi,t},
    wrapped as a code, holds its Howell rows as its expanded matrix: they
    are the phi expansion of its generators and already in Howell form.
    Over zero codes, random codes and codes with redundant generators."""
    ring = make_ring(*ring_args)
    rng = random.Random(sum(x * 10 ** i for i, x in enumerate(ring_args)))
    for C in sample_codes(ring, rng):
        assert C.analysis.meet == code_intersection(C, chi_dual_level(C, 0)).expanded_howell
        derived = []
        for t in range(ring.b + 1):
            derived.append(chi_dual_level(C, t))
            derived.append(code_intersection(C, derived[-1]))
        for D in derived:
            assert D.expanded_matrix.to_rows() == [
                list(phi_expand(ring, g.components)) for g in D.generators]
            assert howell_form(D.expanded_matrix) == D.expanded_howell


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
        ranks = [C.analysis.rank(t) for t in range(b + 1)]
        assert ranks == [quotient_rank(C.expanded_howell,
                                       code_intersection(C, chi_dual_level(C, t)).expanded_howell)
                         for t in range(b + 1)]
        assert ranks[b] == 0
        assert list(C.analysis.rho) == [ranks[t - 1] - ranks[t] for t in range(1, b)]


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
        assert C.analysis.gram.rows <= 2 * C.n * ring.m
        report, code = build_report("params", ring, C, 1 << 22, 1 << 10)
        assert report.pop("generators") == [[[int(x)] for x in g.split()[1:]] for g in gens]
        reports.append((report, code))
    assert reports[0] == reports[1]
