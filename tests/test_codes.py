"""Additive-code oracle tests: duals, cardinalities, distances.

Ground truth throughout is brute force at the ring level: enumerate the
whole ambient R^{2n}, evaluate symplectic products with ring arithmetic,
and compare element sets.
"""

import itertools
import math
import random

import pytest

from eaqring.codes import (
    AdditiveCode,
    SymplecticVector,
    cardinality,
    chi_dual_level,
    is_chi_self_orthogonal,
    is_free,
    iterate_codewords,
    min_symplectic_distance,
    puncture,
    same_module,
    symplectic_product,
    symplectic_weight,
)
from eaqring.errors import DimensionMismatch, SearchLimitExceeded
from eaqring.galois import gen_trace, make_ring, phi_expand


def all_vectors(ring, n):
    N = ring.modulus
    elems = [ring.element(c) for c in itertools.product(range(N), repeat=ring.m)]
    for comps in itertools.product(elems, repeat=2 * n):
        yield SymplecticVector.from_components(ring, comps)


def closure(ring, n, gens):
    """Additive closure of generator vectors: the code as a set of keys."""
    key = lambda v: tuple(e.coeffs for e in v.components)
    zero = SymplecticVector.from_components(ring, [ring.zero] * 2 * n)
    seen = {key(zero): zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = v + g
            k = key(w)
            if k not in seen:
                seen[k] = w
                frontier.append(w)
    return seen


def brute_chi_dual(ring, n, gens, t):
    mod = ring.p ** (ring.b - t)
    return {
        tuple(e.coeffs for e in v.components)
        for v in all_vectors(ring, n)
        if all(gen_trace(symplectic_product(v, g)) % mod == 0 for g in gens)
    }


def code_as_set(C):
    return {
        tuple(e.coeffs for e in SymplecticVector.from_components(C.ring, comps).components)
        for comps in [C_elem for C_elem in _ring_elems(C)]
    }


def _ring_elems(C):
    from eaqring.galois import phi_contract
    for flat in iterate_codewords(C):
        yield phi_contract(C.ring, flat)


@pytest.fixture(scope="module")
def z4():
    return make_ring(2, 2, 1)


@pytest.fixture(scope="module")
def gr42():
    return make_ring(2, 2, 2)


@pytest.fixture(scope="module")
def worked(z4):
    return AdditiveCode.from_int_rows(z4, [[1, 0], [0, 2]])


def test_symplectic_product_examples(z4, gr42):
    u = SymplecticVector.from_ints(z4, [1, 0])
    v = SymplecticVector.from_ints(z4, [0, 1])
    assert symplectic_product(u, v).coeffs == (3,)
    th = gr42.theta
    a = SymplecticVector(gr42, (th,), (gr42.zero,))
    b = SymplecticVector(gr42, (gr42.zero,), (gr42.one,))
    assert symplectic_product(a, b).coeffs == (0, 3)  # -theta


def test_symplectic_product_antisymmetry(gr42):
    rng = random.Random(2)
    vecs = list(all_vectors(gr42, 1))
    for _ in range(60):
        u, v = rng.choice(vecs), rng.choice(vecs)
        assert symplectic_product(u, v) == -symplectic_product(v, u)
        assert not symplectic_product(u, u)


def test_symplectic_vector_sum_checks_lengths(z4):
    u = SymplecticVector.from_ints(z4, [1, 2, 3, 1])
    assert u + SymplecticVector.from_ints(z4, [1, 1, 1, 1]) == SymplecticVector.from_ints(z4, [2, 3, 0, 2])
    with pytest.raises(DimensionMismatch):
        u + SymplecticVector.from_ints(z4, [1, 1])


def test_symplectic_weight(z4):
    assert symplectic_weight(SymplecticVector.from_ints(z4, [0, 0, 0, 0])) == 0
    assert symplectic_weight(SymplecticVector.from_ints(z4, [1, 0, 2, 0])) == 1
    assert symplectic_weight(SymplecticVector.from_ints(z4, [1, 1, 0, 2])) == 2


def test_cardinality_examples(z4, worked):
    assert cardinality(AdditiveCode.from_int_rows(z4, [[2, 0]])) == 2
    assert cardinality(worked) == 8
    zero = AdditiveCode(z4, 1, ())
    assert cardinality(zero) == 1


def test_cardinality_matches_closure(z4, gr42):
    rng = random.Random(4)
    for ring, n in [(z4, 1), (z4, 2), (gr42, 1)]:
        vecs = list(all_vectors(ring, n))
        for _ in range(10):
            gens = tuple(rng.choice(vecs) for _ in range(rng.choice([1, 2])))
            C = AdditiveCode(ring, n, gens)
            assert cardinality(C) == len(closure(ring, n, gens))


def test_chi_dual_worked_example(z4, worked):
    d0 = chi_dual_level(worked, 0)
    elems = set(iterate_codewords(d0))
    assert elems == {(0, 0), (2, 0)}
    d1 = chi_dual_level(worked, 1)
    assert cardinality(d1) == 8
    assert set(iterate_codewords(d1)) == {(x, y) for x in range(4) for y in (0, 2)}
    db = chi_dual_level(worked, 2)
    assert cardinality(db) == 16


def test_chi_dual_brute_force(z4, gr42):
    rng = random.Random(7)
    z9 = make_ring(3, 2, 1)
    for ring, n in [(z4, 1), (z4, 2), (z9, 1), (gr42, 1)]:
        vecs = list(all_vectors(ring, n))
        for _ in range(6):
            gens = tuple(rng.choice(vecs) for _ in range(rng.choice([1, 2])))
            C = AdditiveCode(ring, n, gens)
            for t in range(ring.b + 1):
                D = chi_dual_level(C, t)
                got = {tuple(flat) for flat in iterate_codewords(D)}
                want = {phi_expand(ring, [ring.element(c) for c in key])
                        for key in brute_chi_dual(ring, n, gens, t)}
                want = {tuple(w) for w in want}
                assert got == want


def test_duality_cardinality_law(z4, gr42):
    # |C| * |C^{chi-dual}| = |R|^{2n}
    rng = random.Random(11)
    z8 = make_ring(2, 3, 1)
    f4 = make_ring(2, 1, 2)
    for ring, n in [(z4, 2), (z8, 1), (f4, 2), (gr42, 1)]:
        vecs = None
        for _ in range(15):
            if vecs is None:
                vecs = list(all_vectors(ring, n))
            gens = tuple(rng.choice(vecs) for _ in range(rng.choice([1, 2, 3])))
            C = AdditiveCode(ring, n, gens)
            assert cardinality(C) * cardinality(chi_dual_level(C, 0)) == ring.cardinality ** (2 * n)


def test_bidual_and_nesting(z4, gr42):
    rng = random.Random(13)
    for ring, n in [(z4, 1), (z4, 2), (gr42, 1)]:
        vecs = list(all_vectors(ring, n))
        for _ in range(8):
            gens = tuple(rng.choice(vecs) for _ in range(2))
            C = AdditiveCode(ring, n, gens)
            assert same_module(chi_dual_level(chi_dual_level(C, 0), 0), C)
            for t in range(ring.b):
                lower = chi_dual_level(C, t)
                upper = chi_dual_level(C, t + 1)
                for g in lower.generators:
                    assert upper.contains(g)


def test_is_chi_self_orthogonal(z4):
    assert is_chi_self_orthogonal(AdditiveCode.from_int_rows(z4, [[2, 0]]))
    assert not is_chi_self_orthogonal(AdditiveCode.from_int_rows(z4, [[1, 0], [0, 1]]))
    f2 = make_ring(2, 1, 1)
    assert is_chi_self_orthogonal(AdditiveCode.from_int_rows(f2, [[1, 1]]))


def test_min_symplectic_distance(z4, worked):
    assert min_symplectic_distance(worked, "dual") == 1
    zero = AdditiveCode(z4, 1, ())
    assert min_symplectic_distance(zero, "code") == math.inf
    # C^{chi-dual} subset of C here, so dual_minus_code is empty
    assert min_symplectic_distance(worked, "dual_minus_code") == math.inf
    # a code whose dual-minus-code is nonempty
    C = AdditiveCode.from_int_rows(z4, [[2, 0]])
    d = min_symplectic_distance(C, "dual_minus_code")
    assert d == 1
    with pytest.raises(SearchLimitExceeded) as exc:
        min_symplectic_distance(chi_dual_level(AdditiveCode(z4, 3, ()), 2), "code", limit=100)
    assert exc.value.cardinality == 4 ** 6


def test_min_distance_brute_force(z4, gr42):
    rng = random.Random(23)
    for ring, n in [(z4, 1), (z4, 2), (gr42, 1)]:
        vecs = list(all_vectors(ring, n))
        for _ in range(6):
            gens = tuple(rng.choice(vecs) for _ in range(2))
            C = AdditiveCode(ring, n, gens)
            members = closure(ring, n, gens).values()
            wts = [symplectic_weight(v) for v in members if v]
            want = min(wts) if wts else math.inf
            assert min_symplectic_distance(C, "code") == want


def test_puncture(z4, worked):
    assert same_module(puncture(worked, 1), worked)
    C = AdditiveCode.from_int_rows(z4, [[1, 2, 0, 3], [0, 2, 2, 0]])
    P = puncture(C, 1)
    assert P.n == 1
    want = AdditiveCode.from_int_rows(z4, [[1, 0], [0, 2]])
    assert same_module(P, want)
    zero = AdditiveCode(z4, 2, ())
    assert cardinality(puncture(zero, 1)) == 1


def test_membership_and_freeness(z4, worked):
    assert worked.contains(SymplecticVector.from_ints(z4, [2, 0]))
    assert worked.contains(SymplecticVector.from_ints(z4, [3, 2]))
    assert not worked.contains(SymplecticVector.from_ints(z4, [0, 1]))
    assert not is_free(worked)
    assert is_free(AdditiveCode.from_int_rows(z4, [[1, 0], [0, 1]]))


def test_minimal_generating_vectors(z4, worked):
    gens = worked.minimal_generating_vectors()
    rebuilt = AdditiveCode(z4, 1, tuple(gens))
    assert same_module(rebuilt, worked)
    assert len(gens) == 2
