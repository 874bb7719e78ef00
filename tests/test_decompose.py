"""Hyperbolic decomposition tests: worked instances plus randomized
invariant checks over several chain rings."""

import random

import pytest

import eaqring.decompose as decompose_mod
from eaqring.codes import (
    AdditiveCode,
    SymplecticVector,
    chi_dual_level,
    code_intersection,
    symplectic_product,
)
from eaqring.decompose import (
    HyperbolicDecomposition,
    _check_decomposition,
    _lift_quotient_basis,
    hyperbolic_decompose,
)
from eaqring.errors import InternalInvariantViolation
from eaqring.galois import gen_trace, make_ring
from eaqring.zpblinalg import ZpbMatrix, howell_form, howell_member, quotient_rank
from oracles import combine, contains, dual_level, random_code, same_module, vector, vector_code, verify_prop_count
from test_census import all_codes


RINGS = [
    (make_ring(2, 2, 1), 1, 2),
    (make_ring(2, 2, 1), 2, 3),
    (make_ring(2, 3, 1), 1, 2),
    (make_ring(3, 2, 1), 1, 2),
    (make_ring(2, 2, 2), 1, 2),
    (make_ring(2, 1, 1), 2, 3),
]


@pytest.fixture(scope="module")
def z4():
    return make_ring(2, 2, 1)


def test_isotropic_only(z4):
    C = AdditiveCode(z4, 1, [[2, 0]])
    d = hyperbolic_decompose(C)
    assert d.c == 0 and not d.pairs
    assert same_module(AdditiveCode(z4, 1, d.isotropic), C)


def test_full_space(z4):
    C = AdditiveCode(z4, 1, [[1, 0], [0, 1]])
    d = hyperbolic_decompose(C)
    assert d.c == 1
    assert not d.isotropic
    assert d.exponents[0] != 0


def test_worked_instance(z4):
    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    d = hyperbolic_decompose(C)
    assert d.c == 1
    assert d.exponents == (2,)
    # the pair already generates C minimally, so no isotropic completion;
    # C cap C-dual = {(0,0),(2,0)} sits inside the pair span
    assert d.isotropic == ()
    span = AdditiveCode(z4, 1, tuple(d.all_generators()))
    assert contains(span, vector(z4, [2, 0]))


def test_rho_profile_examples(z4):
    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    assert C.rho == (2,)
    full = AdditiveCode(z4, 1, [[1, 0], [0, 1]])
    assert full.rho == (0,)
    f4 = make_ring(2, 1, 2)
    C1 = vector_code(f4, 1, [SymplecticVector(f4, (f4.one,), (f4.zero,))])
    assert C1.rho == ()


def test_verify_prop_count_worked(z4):
    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    d = hyperbolic_decompose(C)
    for t in range(3):
        assert verify_prop_count(d, C, t)
    # t=1 specifics: both pair members in the level-1 dual
    dual1 = dual_level(C, 1)
    assert sum(1 for p in d.pairs for mem in p if contains(dual1, vector(z4, mem))) == 2


@pytest.mark.parametrize("ring,n,kmax", RINGS)
def test_randomized_invariants(ring, n, kmax):
    rng = random.Random(hash((ring.p, ring.b, ring.m, n)) & 0xFFFF)
    for _ in range(8):
        C = random_code(ring, n, rng.randint(1, kmax), rng)
        d = hyperbolic_decompose(C)
        # span preservation
        assert same_module(AdditiveCode(ring, n, tuple(d.all_generators())), C)
        # pair count formula
        D = code_intersection(C, chi_dual_level(C))
        assert 2 * d.c == quotient_rank(C.expanded_howell, D.expanded_howell)
        # lower bound from ranks
        assert 2 * d.c >= (len(C.expanded_smith.diag_exponents)
                           - len(D.expanded_smith.diag_exponents))
        # character pairing structure
        gens = [vector(ring, r) for r in d.all_generators()]
        k = len(d.isotropic)
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                ell = gen_trace(symplectic_product(g, h))
                partners = i >= k and j >= k and i != j and (i - k) // 2 == (j - k) // 2
                assert (ell != 0) == partners or (not partners and ell == 0)
        # prop:count at every level
        for t in range(ring.b + 1):
            assert verify_prop_count(d, C, t)
        # idempotence of the pair count
        d2 = hyperbolic_decompose(AdditiveCode(ring, n, d.all_generators()))
        assert d2.c == d.c
        # rho profile sanity
        rho = C.rho
        assert len(rho) == ring.b - 1
        assert all(r >= 0 and r % 2 == 0 for r in rho)
        assert sum(rho) <= 2 * d.c


def test_check_rejects_a_split_pair():
    """A hyperbolic pair listed as two isotropic generators pairs
    nontrivially across non-partners."""
    z4 = make_ring(2, 2, 1)
    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    (g0, g1), = hyperbolic_decompose(C).pairs
    split = HyperbolicDecomposition(isotropic=(g0, g1), pairs=(), exponents=())
    with pytest.raises(InternalInvariantViolation, match="non-partners"):
        _check_decomposition(split, C)


def test_check_compares_each_pair_exponent_with_the_recorded_one():
    """The pairing check's exponents must be the ones the decomposition
    records: the worked pair's is 2, and a record of 1 fails."""
    z4 = make_ring(2, 2, 1)
    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    d = hyperbolic_decompose(C)
    assert d.exponents == (2,)
    _check_decomposition(d, C)
    wrong = HyperbolicDecomposition(d.isotropic, d.pairs, (1,))
    with pytest.raises(InternalInvariantViolation, match="^a pair's exponent is not the one recorded$"):
        _check_decomposition(wrong, C)


def pair_and_isotropic():
    """An F2 code of length 2 with one hyperbolic pair, (e_0 | 0) and
    (0 | e_0), and one isotropic generator, (e_1 | 0)."""
    f2 = make_ring(2, 1, 1)
    return AdditiveCode(f2, 2, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]])


def test_lift_checks_its_row_count(monkeypatch):
    """The quotient lift must pick rank(C / (C cap C^chi)) rows: a greedy
    that picks none fails that check on a code with one pair."""
    monkeypatch.setattr(decompose_mod, "_greedy_extension", lambda base, candidates: [])
    with pytest.raises(InternalInvariantViolation, match="^quotient basis lift picked 0 rows, not 2$"):
        pair_and_isotropic().decomposition


def test_check_rejects_a_decomposition_that_misses_part_of_the_code(monkeypatch):
    """Without its isotropic completion the decomposition holds only the
    pair, which does not span (e_1 | 0)."""
    monkeypatch.setattr(decompose_mod, "_complete_generating_set", lambda C, lifted: [])
    with pytest.raises(InternalInvariantViolation, match="^decomposition does not span the code$"):
        pair_and_isotropic().decomposition


def lift_oracle(C):
    """The quotient lift in 2nm columns: C's Smith generators, in order,
    each kept iff it falls outside span(pC + D + those already kept), with
    D = C cap C^chi taken from the intersection of C and its chi-dual."""
    p, b, N = C.ring.p, C.ring.b, C.ring.modulus
    D = code_intersection(C, chi_dual_level(C)).expanded_howell
    rows = tuple(tuple(p * x % N for x in r) for r in C.expanded_smith.generators) + D.rows
    chosen = []
    for s in C.expanded_smith.generators:
        H = howell_form(ZpbMatrix(p, b, C.ambient_cols, rows + tuple(map(tuple, chosen))))
        if not howell_member(H, s):
            chosen.append(list(s))
    return chosen


@pytest.mark.parametrize("ring_args,n", [
    ((2, 1, 1), 2), ((2, 1, 2), 1), ((2, 2, 1), 1), ((2, 3, 1), 1), ((3, 2, 1), 1),
], ids=["F2-n2", "F4-n1", "Z4-n1", "Z8-n1", "Z9-n1"])
def test_lift_on_the_gram_rows_matches_the_oracle_on_the_census(ring_args, n):
    """The lift reads its greedy off the Gram matrix's rows; on every code
    of the census it keeps the same Smith generators as the greedy over
    pC + D in the ambient columns."""
    ring = make_ring(*ring_args)
    for H in all_codes(ring, n):
        C = AdditiveCode(ring, n, H.rows)
        assert [list(r) for r in _lift_quotient_basis(C)] == lift_oracle(C)


@pytest.mark.parametrize("ring_args", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)],
                         ids=["F2", "F4", "Z4", "Z8", "Z9", "GR42"])
def test_lift_on_the_gram_rows_matches_the_oracle_on_random_codes(ring_args):
    """Seeded random codes of length 1 to 3, each also stacked with sums
    and multiples of its rows, so that the input has redundant rows."""
    ring = make_ring(*ring_args)
    rng = random.Random(7 + sum(x * 10 ** i for i, x in enumerate(ring_args)))
    for _ in range(12):
        n = rng.randint(1, 3)
        C = random_code(ring, n, rng.randint(1, 2 * n * ring.m), rng)
        g = C.generators
        extra = (combine([(1, g[0]), (1, g[-1])]), combine([(ring.p, g[0])]),
                 combine([(rng.randrange(ring.modulus), g[-1])]))
        for code in (C, vector_code(ring, n, g + extra)):
            assert [list(r) for r in _lift_quotient_basis(code)] == lift_oracle(code)
