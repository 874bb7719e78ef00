"""Extension-builder tests: worked extensions, symplectic subsets, minimum
entanglement degree, quasi-symplectic checks, and the parameter pipeline."""

import itertools
import random
from fractions import Fraction

import pytest

from eaqring.codes import (
    AdditiveCode,
    SymplecticVector,
    cardinality,
    is_chi_self_orthogonal,
    is_free,
    puncture,
    same_module,
    symplectic_product,
)
from eaqring.decompose import hyperbolic_decompose
from eaqring.errors import CapacityExceeded, InternalInvariantViolation, ZeroTarget
from eaqring.extension import (
    SelfOrthogonalExtension,
    SymplecticSubset,
    build_extension,
    build_minimal_extension,
    construct_symplectic_subset,
    eaqecc_params,
    minimum_entanglement_degree,
    verify_quasi_symplectic,
)
from eaqring.galois import char_exponent, gen_trace, make_ring


@pytest.fixture(scope="module")
def z4():
    return make_ring(2, 2, 1)


@pytest.fixture(scope="module")
def gr42():
    return make_ring(2, 2, 2)


@pytest.fixture(scope="module")
def worked(z4):
    return AdditiveCode.from_int_rows(z4, [[1, 0], [0, 2]])


def random_code(ring, n, k, rng):
    N = ring.modulus
    gens = tuple(
        SymplecticVector.from_components(
            ring, [ring.element([rng.randrange(N) for _ in range(ring.m)]) for _ in range(2 * n)])
        for _ in range(k))
    return AdditiveCode(ring, n, gens)


def test_build_extension_worked(z4, worked):
    ext = build_extension(hyperbolic_decompose(worked))
    assert ext.c == 1
    assert ext.card_extended == 16
    want = AdditiveCode.from_int_rows(z4, [[1, 2, 0, 0], [0, 0, 2, 1]])
    assert same_module(ext.extended, want)
    assert is_chi_self_orthogonal(ext.extended)
    assert same_module(puncture(ext.extended, 1), worked)


def test_build_extension_self_orthogonal_base(z4):
    C = AdditiveCode.from_int_rows(z4, [[2, 0]])
    ext = build_extension(hyperbolic_decompose(C))
    assert ext.c == 0
    assert same_module(ext.extended, C)


def test_build_extension_free_base(z4):
    C = AdditiveCode.from_int_rows(z4, [[1, 0], [0, 1]])
    ext = build_extension(hyperbolic_decompose(C))
    assert ext.card_extended == cardinality(C) == 16


def test_construct_symplectic_subset_z4(z4):
    s = construct_symplectic_subset(z4, 1, [2])
    assert s.exponents() == (2,)
    a1, a2 = s.pairs[0]
    assert gen_trace(symplectic_product(a1, a2)) == 2
    s3 = construct_symplectic_subset(z4, 1, [3])
    assert s3.exponents() == (3,)


def test_construct_symplectic_subset_gr42(gr42):
    s = construct_symplectic_subset(gr42, 1, [1, 3])
    assert s.e == 2 and s.c == 1
    assert s.exponents() == (1, 3)
    # both pairs live in one ring coordinate pair
    for a1, a2 in s.pairs:
        assert a1.n == 1 and a2.n == 1


def test_construct_symplectic_subset_errors(z4, gr42):
    with pytest.raises(ZeroTarget):
        construct_symplectic_subset(z4, 1, [0])
    with pytest.raises(ZeroTarget):
        construct_symplectic_subset(z4, 2, [2, 4])
    with pytest.raises(CapacityExceeded):
        construct_symplectic_subset(z4, 1, [1, 2])
    with pytest.raises(CapacityExceeded):
        construct_symplectic_subset(gr42, 1, [1, 2, 3])


@pytest.mark.parametrize("spec", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_construct_symplectic_subset_formula(spec):
    """Pair j sits in coordinate k = j // m with basis index l = j % m:
    a_{j1} = (-z_j dual_l e_k, 0) and a_{j2} = (0, theta^l e_k)."""
    ring = make_ring(*spec)
    N, c = ring.modulus, 2
    targets = [1 + j % (N - 1) for j in range(c * ring.m)]
    s = construct_symplectic_subset(ring, c, targets)
    for j, (z, (a1, a2)) in enumerate(zip(targets, s.pairs)):
        k, ell = divmod(j, ring.m)
        x1 = [ring.zero] * c
        x1[k] = ring.dual[ell].scale(-z)
        y2 = [ring.zero] * c
        y2[k] = ring.theta ** ell
        assert a1 == SymplecticVector(ring, tuple(x1), (ring.zero,) * c)
        assert a2 == SymplecticVector(ring, (ring.zero,) * c, tuple(y2))
    assert s.exponents() == tuple(targets)


def test_subset_verify_rejects_a_trivial_pair(z4):
    a1 = SymplecticVector.from_ints(z4, [2, 0])
    a2 = SymplecticVector.from_ints(z4, [0, 2])
    with pytest.raises(InternalInvariantViolation, match="partners pair character-trivially"):
        SymplecticSubset(z4, 1, ((a1, a2),)).verify()


def test_subset_verify_rejects_a_nontrivial_cross_pair(z4):
    # each pair pairs to -1, but a_{11} also pairs to -1 with a_{22}
    p1 = (SymplecticVector.from_ints(z4, [1, 0, 0, 0]), SymplecticVector.from_ints(z4, [0, 0, 1, 0]))
    p2 = (SymplecticVector.from_ints(z4, [0, 1, 0, 0]), SymplecticVector.from_ints(z4, [0, 0, 1, 1]))
    with pytest.raises(InternalInvariantViolation, match="non-partners"):
        SymplecticSubset(z4, 2, (p1, p2)).verify()


def test_extension_verify_rejects_a_broken_tail(z4, worked):
    ext = build_extension(hyperbolic_decompose(worked))
    (u1, u2), = ext.pair_generators
    # without the gram in its tail, u1 still pairs nontrivially with u2
    bad = SymplecticVector(z4, u1.x[:1] + (z4.zero,), u1.y)
    broken = SelfOrthogonalExtension(
        base=ext.base, extended=AdditiveCode(z4, 2, (bad, u2)), c=ext.c,
        card_extended=ext.card_extended, pair_generators=ext.pair_generators,
        isotropic_generators=ext.isotropic_generators, subset=ext.subset)
    with pytest.raises(InternalInvariantViolation, match="not chi-self-orthogonal"):
        broken.verify()


def test_minimum_entanglement_degree(z4, gr42, worked):
    assert minimum_entanglement_degree(AdditiveCode.from_int_rows(z4, [[1, 0], [0, 1]])) == 1
    assert minimum_entanglement_degree(AdditiveCode.from_int_rows(z4, [[2, 0]])) == 0
    assert minimum_entanglement_degree(worked) == 1
    th = gr42.theta
    full = AdditiveCode(gr42, 1, (
        SymplecticVector(gr42, (gr42.one,), (gr42.zero,)),
        SymplecticVector(gr42, (gr42.zero,), (gr42.one,)),
        SymplecticVector(gr42, (th,), (gr42.zero,)),
        SymplecticVector(gr42, (gr42.zero,), (th,)),
    ))
    assert minimum_entanglement_degree(full) == 1


def test_build_minimal_extension_packs_pairs(gr42):
    th = gr42.theta
    full = AdditiveCode(gr42, 1, (
        SymplecticVector(gr42, (gr42.one,), (gr42.zero,)),
        SymplecticVector(gr42, (gr42.zero,), (gr42.one,)),
        SymplecticVector(gr42, (th,), (gr42.zero,)),
        SymplecticVector(gr42, (th,), (th,)),
    ))
    d = hyperbolic_decompose(full)
    assert d.c == 2  # naive pair count
    ext = build_minimal_extension(full)
    assert ext.c == 1  # two pairs packed into one fresh coordinate
    assert is_chi_self_orthogonal(ext.extended)
    assert same_module(puncture(ext.extended, 1), full)


def test_minimal_extension_m1_matches_pair_count(z4):
    rng = random.Random(31)
    for _ in range(10):
        C = random_code(z4, 2, rng.randint(1, 3), rng)
        d = hyperbolic_decompose(C)
        ext = build_minimal_extension(C)
        assert ext.c == d.c == minimum_entanglement_degree(C)


@pytest.mark.parametrize("spec,n", [((2, 2, 1), 2), ((2, 3, 1), 1), ((3, 2, 1), 1), ((2, 2, 2), 1)])
def test_extension_invariants_randomized(spec, n):
    ring = make_ring(*spec)
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(8):
        C = random_code(ring, n, rng.randint(1, 3), rng)
        d = hyperbolic_decompose(C)
        for ext in (build_extension(d), build_minimal_extension(C)):
            assert is_chi_self_orthogonal(ext.extended)
            assert same_module(puncture(ext.extended, n), C)
            card = cardinality(C)
            assert card <= ext.card_extended
            if is_free(C):
                assert ext.card_extended == card
            # the tails read off the pair generators are the kept subset
            tails = tuple(
                tuple(SymplecticVector(ring, tuple(-v for v in u.x[n:]), u.y[n:]) for u in pair)
                for pair in ext.pair_generators)
            assert tails == ext.subset.pairs
            assert ext.subset.exponents() == tuple(char_exponent(g) for g in d.grams)


def test_extract_worked_shape(z4, worked):
    d = hyperbolic_decompose(worked)
    sub = build_extension(d).subset
    assert sub.e == 1
    assert sub.exponents() == (2,)
    a1, a2 = sub.pairs[0]
    # the one-pair-per-coordinate subset: (-gamma, 0) and (0, 1), gamma = 2
    assert (a1.x[0].coeffs[0], a1.y[0].coeffs[0]) == (2, 0)
    assert (a2.x[0].coeffs[0], a2.y[0].coeffs[0]) == (0, 1)


def test_verify_quasi_symplectic(z4):
    pair = (SymplecticVector.from_ints(z4, [2, 0]), SymplecticVector.from_ints(z4, [0, 1]))
    assert verify_quasi_symplectic(z4, [pair], [])
    bad = [
        (SymplecticVector.from_ints(z4, [1, 0]), SymplecticVector.from_ints(z4, [0, 1])),
        (SymplecticVector.from_ints(z4, [0, 1]), SymplecticVector.from_ints(z4, [1, 0])),
    ]
    assert not verify_quasi_symplectic(z4, bad, [])
    # J-side: independence of mod-p reductions
    p1 = (SymplecticVector.from_ints(z4, [1, 0]), SymplecticVector.from_ints(z4, [0, 0]))
    assert verify_quasi_symplectic(z4, [p1], [0])
    p2 = (SymplecticVector.from_ints(z4, [2, 0]), SymplecticVector.from_ints(z4, [0, 0]))
    assert not verify_quasi_symplectic(z4, [p2], [0])  # reduces to 0 mod 2


def test_symplectic_subset_is_quasi(z4):
    s = construct_symplectic_subset(z4, 2, [1, 3])
    assert verify_quasi_symplectic(z4, list(s.pairs), [])


def test_eaqecc_params_worked(z4, worked):
    P = eaqecc_params(worked)
    assert (P.n, P.c, P.K_exact, P.D) == (1, 1, 1, 1)
    assert P.K_upper == 2
    assert P.K_lower == 1
    assert P.K_lower_raw == Fraction(1, 2)
    assert P.distance_case == "dual_subset_of_code"
    assert P.rho == (2,)
    assert P.card_extended == 16


def test_eaqecc_params_f2(z4):
    f2 = make_ring(2, 1, 1)
    C = AdditiveCode.from_int_rows(f2, [[1, 1]])
    P = eaqecc_params(C)
    assert (P.n, P.c, P.K_exact) == (1, 0, 1)
    # the dual equals C, so the distance is d_s of the dual itself; the
    # single nonzero vector (1|1) occupies one coordinate pair, weight 1
    assert P.distance_case == "dual_subset_of_code"
    assert P.D == 1


def test_eaqecc_params_zero_code(z4):
    C = AdditiveCode(z4, 1, ())
    P = eaqecc_params(C)
    assert (P.n, P.c, P.K_exact, P.D) == (1, 0, 4, 1)
    assert P.distance_case == "dual_minus_code"


def test_eaqecc_params_bounds_randomized(z4):
    rng = random.Random(41)
    for _ in range(10):
        C = random_code(z4, 2, rng.randint(1, 3), rng)
        P = eaqecc_params(C)
        assert P.K_lower <= P.K_exact <= P.K_upper
        assert P.K_exact * P.card_extended == z4.cardinality ** (P.n + P.c)


@pytest.mark.xfail(strict=True, reason="D is read off C^chi minus C, not C^chi minus Z "
                   "with Z = {v : (v, 0) in the extended code}; Z can be smaller than "
                   "C cap C^chi (ROADMAP open item)")
def test_eaqecc_params_distance_uses_extended_code():
    """The Z8 code below has a weight-1 vector of C^chi outside Z (the
    Pauli matrix check reads D_matrix = 1), yet every weight-1 vector of
    C^chi lies in C, so the C^chi minus C minimum is 2."""
    z8 = make_ring(2, 3, 1)
    C = AdditiveCode.from_int_rows(z8, [[3, 4, 7, 1], [3, 6, 5, 6]])
    assert eaqecc_params(C).D == 1


def largest_K_over_all_tails(ring, rows, c):
    """The brute-force maximum of K = q^{n+c} / |C'| over every chi-self-
    orthogonal C' spanned by C's generator rows, each with its own tail
    in R^{2c}: rows are (x | z) over a ring with m = 1, so the pairing is
    the symplectic form itself, and C' is enumerated as all combinations."""
    q, n = ring.modulus, len(rows[0]) // 2
    best = 0
    for tails in itertools.product(itertools.product(range(q), repeat=2 * c), repeat=len(rows)):
        ext = [(*r[:n], *t[:c], *r[n:], *t[c:]) for r, t in zip(rows, tails)]
        if any(sum(u[i] * v[n + c + i] - u[n + c + i] * v[i] for i in range(n + c)) % q
               for u in ext for v in ext):
            continue
        span = {tuple(sum(a * u[i] for a, u in zip(coef, ext)) % q for i in range(2 * (n + c)))
                for coef in itertools.product(range(q), repeat=len(ext))}
        best = max(best, q ** (n + c) // len(span))
    return best


def test_tail_oracle_reaches_K_exact_where_the_tails_keep_the_orders(z4):
    """The brute-force oracle agrees with ``eaqecc_params`` on codes whose
    generators all have full order, and reaches K_upper on item 16's
    reproducer (16^2 tails at c = 1), where it finds |C'| = 8."""
    for rows in ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 2, 0, 1], [0, 1, 1, 3]]):
        P = eaqecc_params(AdditiveCode.from_int_rows(z4, rows))
        assert largest_K_over_all_tails(z4, rows, P.c) == P.K_exact
    P = eaqecc_params(AdditiveCode.from_int_rows(z4, [[2, 0], [0, 1]]))
    assert (P.c, P.card_code) == (1, 8)
    assert largest_K_over_all_tails(z4, [[2, 0], [0, 1]], 1) == P.K_upper == 2


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the minimal extension gives the order-2 generator "
                   "a unit-order tail, so C' grows past |C| (ROADMAP item 16)")
def test_minimal_extension_reaches_the_largest_K_over_all_tails(z4):
    """Z4, n = 1, gen 2 0 / gen 0 1: params reports c = 1, K_exact = 1 and
    |C'| = 16, yet a chi-self-orthogonal C' with |C'| = 8, so K = 2, exists
    among the 16^2 tails at c = 1."""
    rows = [[2, 0], [0, 1]]
    P = eaqecc_params(AdditiveCode.from_int_rows(z4, rows))
    assert P.c == 1
    assert P.K_exact == largest_K_over_all_tails(z4, rows, 1)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="K_exact depends on the order of the generator "
                   "lines (ROADMAP items 15 and 16)")
def test_K_exact_does_not_depend_on_the_order_of_the_generators(z4):
    """params-mixed seed-0 file 0000-059 (Z4, n = 3): as given, K_exact = 1
    with |C'| = 1024; with the second line moved last, K_exact = 2 with
    |C'| = 512.  Reordering the rows does not change the code."""
    rows = [[0, 3, 0, 1, 3, 1], [2, 1, 0, 0, 2, 3], [0, 1, 2, 3, 1, 1],
            [0, 1, 1, 2, 1, 1], [2, 1, 1, 3, 1, 1]]
    as_given = eaqecc_params(AdditiveCode.from_int_rows(z4, rows))
    moved = eaqecc_params(AdditiveCode.from_int_rows(z4, rows[:1] + rows[2:] + rows[1:2]))
    assert (as_given.c, as_given.card_code) == (moved.c, moved.card_code)
    assert (as_given.K_exact, as_given.card_extended) == (moved.K_exact, moved.card_extended)
