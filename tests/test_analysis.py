"""The per-code analysis: every derived object of a code is built once,
and the ranks read off the Gram matrix's Smith form agree with the
quotient-rank oracle.

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
from eaqring.decompose import hyperbolic_decompose, rho_profile
from eaqring.extension import build_minimal_extension
from eaqring.galois import make_ring, phi_expand
from eaqring.zpblinalg import howell_form, quotient_rank

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


@pytest.fixture
def counted(monkeypatch):
    """Counters for the decomposition body, the chi-dual kernels (keyed by
    the pairing matrix, one per code and level), every Smith form, every
    Howell form, every intersection and every quotient rank."""
    seen = collections.Counter()

    def count(module, name, key=lambda *args: None):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[name, key(*args)] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    count(decompose_mod, "_decompose")
    count(codes_mod, "kernel", key=lambda A: A)
    count(codes_mod, "intersect")
    for module in (codes_mod, extension_mod, pauli_mod, zpb_mod):
        if hasattr(module, "smith_form"):
            count(module, "smith_form")
        if hasattr(module, "quotient_rank"):
            count(module, "quotient_rank")
    for module in (codes_mod, decompose_mod, zpb_mod):
        count(module, "howell_form")
    return seen


@pytest.mark.parametrize("label", sorted(CODES))
@pytest.mark.parametrize("command", ["params", "verify"])
def test_report_builds_each_object_once(counted, label, command):
    ring, C = parse_code_text(CODES[label])
    report, code = build_report(command, ring, C, 1 << 22, 1 << 10)
    assert code == 0 and "error" not in report
    assert counted["_decompose", None] == 1
    # the chi-dual is built at level 0 only, once, and met with C once;
    # every rank comes from the Gram matrix, not from a quotient
    dual_kernels = {k: v for (name, k), v in counted.items() if name == "kernel"}
    assert dual_kernels == {codes_mod._pairing_columns(C, 1): 1}
    assert counted["intersect", None] == 1
    assert counted["quotient_rank", None] == 0
    # Smith forms: the minimal generators of C and of C cap C^chi and the
    # Gram matrix; verify adds the minimal generators of C'.  Kernels,
    # intersections and enumerations read Howell forms only.
    assert counted["smith_form", None] == (3 if command == "params" else 4)
    # Howell forms: one each for the dual's kernel and the intersection,
    # each derived code keeping the form it was built from; then at most
    # eight for C itself, the decomposition and the extension of these
    # one-coordinate codes
    assert counted["howell_form", None] <= 2 + 8


def test_repeated_calls_return_the_cached_objects():
    ring, C = parse_code_text(CODES["Z8"])
    d = hyperbolic_decompose(C)
    assert hyperbolic_decompose(C) is d
    assert build_minimal_extension(C) is build_minimal_extension(C)
    assert build_minimal_extension(C).pair_generators[0][0].x[:C.n] == d.pairs[0][0].x
    assert chi_dual_level(C, 1) is chi_dual_level(C, 1)
    assert C.analysis.meet is C.analysis.meet
    assert rho_profile(C) is rho_profile(C)


@pytest.mark.parametrize("ring_args", [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2)])
def test_derived_codes_keep_consistent_howell_rows(ring_args):
    """Every chi-dual level, the meet, and each C cap C^{chi,t} holds its
    Howell rows as its expanded matrix: they are the phi expansion of its
    generators and already in Howell form."""
    ring = make_ring(*ring_args)
    rng = random.Random(sum(x * 10 ** i for i, x in enumerate(ring_args)))
    for _ in range(5):
        n, k = rng.randint(1, 2), rng.randint(1, 3)
        C = random_code(ring, n, k, rng)
        derived = [C.analysis.meet]
        for t in range(ring.b + 1):
            derived.append(C.analysis.dual(t))
            if t:
                derived.append(code_intersection(C, C.analysis.dual(t)))
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
    codes = [AdditiveCode(ring, 1, ()), AdditiveCode(ring, 2, ())]
    for _ in range(8):
        C = random_code(ring, rng.randint(1, 2), rng.randint(1, 4), rng)
        codes.append(C)
        g = C.generators
        extra = (g[0] + g[-1], g[0].scale(ring.p), g[-1].scale(rng.randrange(ring.modulus)))
        codes.append(AdditiveCode(ring, C.n, g + extra))
    assert any(len(C.generators) > len(C.expanded_smith.diag_exponents) for C in codes)
    for C in codes:
        ranks = [C.analysis.rank(t) for t in range(b + 1)]
        assert ranks == [quotient_rank(C.expanded_howell,
                                       code_intersection(C, chi_dual_level(C, t)).expanded_howell)
                         for t in range(b + 1)]
        assert ranks[b] == 0
        assert list(C.analysis.rho) == [ranks[t - 1] - ranks[t] for t in range(1, b)]
