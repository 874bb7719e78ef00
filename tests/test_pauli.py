"""Pauli verifier tests: explicit small matrices, the composition phase
rule against matrix products, commutation vs the trace pairing, stabilizer
assembly, projector dimension, and the exhaustive error search; the exact
zero rule in Z[omega] against complex sums; the exact verifier against an
entry-by-entry dense float oracle; the integer stabilizer assembly against
one by ``compose``, and its invariant checks on broken groups; the
cross-check set against a ``contains`` oracle, and the group's tables
and basis, built once and capped."""

import cmath
import functools
import itertools
import math
import random

import numpy as np
import pytest

from eaqring import cli, pauli
from eaqring.codes import (
    AdditiveCode,
    SymplecticVector,
    cardinality,
    chi_dual_level,
    symplectic_product,
)
from eaqring.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InternalInvariantViolation,
    RingMismatch,
    SearchLimitExceeded,
)
from eaqring.galois import RingElement, gen_trace, make_ring, phi_contract, phi_expand
from eaqring.pauli import (
    PauliOperator,
    StabilizerGroup,
    build_stabilizer,
    omega_modulus,
    pauli_matrix,
    projector_dimension,
    stabilizer_projector,
    undetectable_error_search,
)
from eaqring.zpblinalg import enumerate_module, smith_form, solve_congruence
from oracles import (build_extension, compose, contains, group_operators, indexed_elements,
                     monomial_tables, symplectic_weight, vector_code)


@pytest.fixture(scope="module")
def f2():
    return make_ring(2, 1, 1)


@pytest.fixture(scope="module")
def z4():
    return make_ring(2, 2, 1)


@pytest.fixture(scope="module")
def f4():
    return make_ring(2, 1, 2)


@pytest.fixture(scope="module")
def gr42():
    return make_ring(2, 2, 2)


def identity_operator(ring, n):
    z = (ring.zero,) * n
    return PauliOperator(ring, n, 0, z, z)


def from_vector(v, phase_exp=0):
    """omega^phase_exp X(x)Z(y) for v = (x, y): the inverse of dropping the phase."""
    return PauliOperator(v.ring, v.n, phase_exp % omega_modulus(v.ring), v.x, v.y)


def rand_op(ring, n, rng):
    N = omega_modulus(ring)
    mk = lambda: tuple(ring.element([rng.randrange(ring.modulus) for _ in range(ring.m)])
                       for _ in range(n))
    return PauliOperator(ring, n, rng.randrange(N), mk(), mk())


def test_omega_modulus(f2, z4):
    assert omega_modulus(f2) == 4
    assert omega_modulus(z4) == 8
    assert omega_modulus(make_ring(3, 2, 1)) == 9


def test_qubit_x_z(f2):
    X = pauli_matrix(PauliOperator(f2, 1, 0, (f2.one,), (f2.zero,)))
    Z = pauli_matrix(PauliOperator(f2, 1, 0, (f2.zero,), (f2.one,)))
    assert np.allclose(X, [[0, 1], [1, 0]])
    assert np.allclose(Z, [[1, 0], [0, -1]])
    # omega = i for p = 2
    W = pauli_matrix(PauliOperator(f2, 1, 1, (f2.zero,), (f2.zero,)))
    assert np.allclose(W, 1j * np.eye(2))


def test_ququart_z(z4):
    Z = pauli_matrix(PauliOperator(z4, 1, 0, (z4.zero,), (z4.one,)))
    assert np.allclose(Z, np.diag([1, 1j, -1, -1j]))
    X = pauli_matrix(PauliOperator(z4, 1, 0, (z4.one,), (z4.zero,)))
    want = np.zeros((4, 4))
    for x in range(4):
        want[(x + 1) % 4, x] = 1
    assert np.allclose(X, want)


def test_unitarity(f2, z4, f4, gr42):
    rng = random.Random(7)
    for ring, n in [(f2, 2), (z4, 1), (f4, 1), (gr42, 1)]:
        for _ in range(5):
            M = pauli_matrix(rand_op(ring, n, rng))
            assert np.max(np.abs(M @ M.conj().T - np.eye(M.shape[0]))) <= 1e-12


def test_compose_matches_matrix_product(f2, z4, f4, gr42):
    rng = random.Random(11)
    for ring, n in [(f2, 2), (z4, 1), (f4, 1), (gr42, 1)]:
        for _ in range(10):
            P, Q = rand_op(ring, n, rng), rand_op(ring, n, rng)
            lhs = pauli_matrix(compose(P, Q))
            rhs = pauli_matrix(P) @ pauli_matrix(Q)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_commutation_matches_trace_pairing(f2, z4, f4, gr42):
    rng = random.Random(17)
    for ring, n in [(f2, 2), (z4, 1), (f4, 1), (gr42, 1)]:
        for _ in range(50):
            P, Q = rand_op(ring, n, rng), rand_op(ring, n, rng)
            A, B = pauli_matrix(P), pauli_matrix(Q)
            commutes = np.max(np.abs(A @ B - B @ A)) <= 1e-10
            ell = gen_trace(symplectic_product(SymplecticVector(P.ring, P.a, P.b),
                                               SymplecticVector(Q.ring, Q.a, Q.b)))
            assert commutes == (ell == 0)


def test_weight_and_psi(z4):
    P = PauliOperator(z4, 2, 3, (z4.one, z4.zero), (z4.zero, z4.zero))
    v = SymplecticVector(P.ring, P.a, P.b)
    assert symplectic_weight(v) == 1
    assert v.x == (z4.one, z4.zero)
    assert from_vector(v, 3) == P


def test_matrix_cap(z4):
    P = identity_operator(z4, 2)
    with pytest.raises(DimensionTooLarge):
        pauli_matrix(P, max_dim=8)


def test_stabilizer_f2_repetition(f2):
    C = AdditiveCode(f2, 1, [[1, 1]])
    ext = build_extension(C)
    assert ext.n - C.n == 0
    g = build_stabilizer(ext)
    assert g.size == 2
    nonid = [(l, a, b) for l, a, b in g.elements if any(a) or any(b)]
    assert len(nonid) == 1
    # the nontrivial element is (+-i) XZ
    assert nonid[0][0] in (1, 3)
    assert projector_dimension(g) == 1


def test_stabilizer_elements_commute_and_square(f2):
    C = AdditiveCode(f2, 1, [[1, 1]])
    g = build_stabilizer(build_extension(C))
    mats = [pauli_matrix(el) for el in group_operators(g)]
    for A in mats:
        for B in mats:
            assert np.max(np.abs(A @ B - B @ A)) <= 1e-10
    # stabilizer elements square to the identity here
    for el in group_operators(g):
        sq = pauli_matrix(compose(el, el))
        assert np.allclose(sq, np.eye(2))


def test_stabilizer_worked_instance(z4):
    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    ext = build_extension(C)
    g = build_stabilizer(ext)
    assert g.size == 16
    P = dense_projector(g)
    assert P.shape == (16, 16)
    assert projector_dimension(g) == 1
    # every stabilizer element fixes the projector
    for el in group_operators(g)[:4]:
        assert np.max(np.abs(pauli_matrix(el) @ P - P)) <= 1e-9


def test_projector_zero_code(z4):
    C = AdditiveCode(z4, 1, ())
    ext = build_extension(C)
    g = build_stabilizer(ext)
    assert g.size == 1
    assert projector_dimension(g) == 4


def test_non_projector_detected(z4):
    bad = StabilizerGroup(z4, 1, ((0, (0,), (0,)), (2, (0,), (0,))))
    with pytest.raises(InternalInvariantViolation, match="not idempotent"):
        projector_dimension(bad)
    # I, X(2) and -X(2): the orbit sum of |0> is |0> + 0|2>, an entry that
    # is not a single power of omega
    bad = StabilizerGroup(z4, 1, ((0, (0,), (0,)), (0, (2,), (0,)), (4, (2,), (0,))))
    with pytest.raises(InternalInvariantViolation, match="not idempotent"):
        projector_dimension(bad)
    # I and X(1): each orbit sum is a single power of omega at every state,
    # but X(1) moves |0> + |1> to |1> + |2>, so sum_g g v is not 2 v
    bad = StabilizerGroup(z4, 1, ((0, (0,), (0,)), (0, (1,), (0,))))
    with pytest.raises(InternalInvariantViolation, match="not idempotent"):
        projector_dimension(bad)


def test_error_search_worked_instance(z4):
    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    ext = build_extension(C)
    g = build_stabilizer(ext)
    res = undetectable_error_search(C, g)
    assert res.dimension == 1
    # the chi-dual {(0,0),(2,0)} sits inside C: nothing is undetectable
    assert res.undetectable == ()
    assert res.min_weight == math.inf
    assert res.set_matches_dual_minus_code
    # dimension-one convention: the weight-1 stabilizer direction (2|0)
    # has nonzero amplitude on the code state
    assert res.dim1_distance == 1


def test_error_search_zero_code(z4):
    C = AdditiveCode(z4, 1, ())
    ext = build_extension(C)
    g = build_stabilizer(ext)
    res = undetectable_error_search(C, g)
    assert res.dimension == 4
    assert len(res.undetectable) == 15
    assert res.min_weight == 1
    assert res.set_matches_dual_minus_code
    assert res.dim1_distance is None


def test_error_search_f2(f2):
    C = AdditiveCode(f2, 1, [[1, 1]])
    ext = build_extension(C)
    g = build_stabilizer(ext)
    res = undetectable_error_search(C, g)
    assert res.dimension == 1
    assert res.undetectable == ()
    assert res.set_matches_dual_minus_code
    # XZ has nonzero expectation on the stabilizer state: weight 1
    assert res.dim1_distance == 1


def test_error_search_limit(z4):
    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    ext = build_extension(C)
    g = build_stabilizer(ext)
    with pytest.raises(SearchLimitExceeded):
        undetectable_error_search(C, g, limit=4)


def test_error_search_rejects_a_group_over_another_ring(z4, f4):
    """A Z4 code and the group of an F4 code: both have q = 4, so the
    search would run, on the wrong code space."""
    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    other = vector_code(f4, 1, [SymplecticVector(f4, (f4.one,), (f4.zero,))])
    group = build_stabilizer(other.extension)
    with pytest.raises(RingMismatch):
        undetectable_error_search(C, group)


def test_error_search_rejects_a_group_on_fewer_coordinates(z4, monkeypatch):
    """A Z4 n = 2 code and the group of an n = 1 code, rejected before the
    projector is built."""
    C = AdditiveCode(z4, 2, [[1, 0, 0, 0], [0, 0, 2, 0]])
    group = build_stabilizer(AdditiveCode(z4, 1, [[1, 0]]).extension)
    monkeypatch.setattr(pauli, "stabilizer_projector", None)
    with pytest.raises(DimensionMismatch):
        undetectable_error_search(C, group)


@pytest.mark.parametrize("broken", [
    ({0: 0, 1: 0}, {2: 0, 3: 0}),  # X(1): {0, 1} -> {1, 2}, across two basis orbits
    ({0: 0, 1: 0},),  # X(1): 2 is in no basis orbit, 1 is
    ({1: 0, 3: 0}, {0: 0}),  # X(1): {1, 3} -> {2, 0}, its first state in no basis orbit
])
def test_error_search_rejects_a_basis_orbit_that_an_x_part_splits(z4, broken):
    """X(a) maps each coset x + A onto one coset, so each basis orbit into
    one orbit.  On hand-broken bases of the one-element group on a Z4
    qudit, X(1) sends an orbit into two, and the search raises instead of
    mixing two orbits' entries, skipping the orbit, or failing on a
    missing key."""
    group = StabilizerGroup(z4, 1, ((0, (0,), (0,)),))
    group.__dict__["_basis"] = broken
    with pytest.raises(InternalInvariantViolation, match=r"X\(1,\) sends basis orbit 0 into more than one"):
        undetectable_error_search(AdditiveCode(z4, 1, ()), group)


def test_error_search_rejects_a_group_whose_projector_has_rank_0(f2):
    """{I, -I} on one F2 qudit: every orbit sum |x> - |x> vanishes, so the
    projector has rank 0, and the search names it instead of failing on an
    empty basis.  ``build_stabilizer`` never returns such a group, since
    ``_check_stabilizer`` rejects a nontrivial scalar."""
    group = StabilizerGroup(f2, 1, ((0, (0,), (0,)), (2, (0,), (0,))))
    assert projector_dimension(group) == 0
    C = AdditiveCode(f2, 1, [[1, 0]])
    with pytest.raises(ValueError, match="^the stabilizer group's projector has rank 0"):
        undetectable_error_search(C, group)


def test_stabilizer_randomized(z4, f4):
    rng = random.Random(23)
    for ring in (z4, f4):
        for _ in range(4):
            gens = []
            for _ in range(rng.randint(1, 2)):
                comps = [ring.element([rng.randrange(ring.modulus) for _ in range(ring.m)])
                         for _ in range(2)]
                gens.append(SymplecticVector.from_components(ring, comps))
            C = vector_code(ring, 1, gens)
            ext = build_extension(C)
            if ring.cardinality ** ext.n > 256:
                continue
            g = build_stabilizer(ext)
            assert g.size == cardinality(ext)
            dim = projector_dimension(g)
            assert dim * g.size == ring.cardinality ** ext.n


# ------------------------------------------------ dense oracle

def dense_oracle(P):
    """omega^l X(a)Z(b) entry by entry through ring arithmetic: omega^l
    zeta^{Tr(b.x)} at (x + a, x), states indexed big-endian by qudit."""
    ring = P.ring
    elems = indexed_elements(ring)
    index = {e.coeffs: i for i, e in enumerate(elems)}
    q = len(elems)
    N = omega_modulus(ring)
    omega = np.exp(2j * np.pi / N)

    def state(vec):
        out = 0
        for e in vec:
            out = out * q + index[e.coeffs]
        return out

    M = np.zeros((q ** P.n, q ** P.n), dtype=np.complex128)
    for x in itertools.product(elems, repeat=P.n):
        dot = ring.zero
        for bi, xi in zip(P.b, x):
            dot = dot + bi * xi
        M[state([xi + ai for xi, ai in zip(x, P.a)]), state(x)] = (
            omega ** P.phase_exp * omega ** ((N // ring.modulus) * gen_trace(dot)))
    return M


def dense_projector(group):
    """The exact basis {state: omega exponent} as the dense projector
    sum_v |v><v| / <v|v>."""
    d, N = group.ring.cardinality ** group.n, omega_modulus(group.ring)
    P = np.zeros((d, d), dtype=np.complex128)
    for v in stabilizer_projector(group):
        u = np.zeros(d, dtype=np.complex128)
        for y, e in v.items():
            u[y] = np.exp(2j * np.pi * e / N)
        P += np.outer(u, u.conj()) / len(v)
    return P


def dense_error_search(C, group):
    """Every error X(a,0)Z(b,0) classified by the dense U^dagger E U."""
    ring, n, ntot = C.ring, C.n, group.n
    P = sum(map(dense_oracle, group_operators(group))) / group.size
    vals, vecs = np.linalg.eigh(P)
    U = vecs[:, vals > 0.5]
    K = U.shape[1]
    zeros = (ring.zero,) * (ntot - n)
    undet, best, dim1 = set(), math.inf, math.inf
    for ab in itertools.product(indexed_elements(ring), repeat=2 * n):
        a, b = ab[:n], ab[n:]
        if not any(ab):
            continue
        M = U.conj().T @ dense_oracle(PauliOperator(ring, ntot, 0, a + zeros, b + zeros)) @ U
        w = sum(1 for x, z in zip(a, b) if x or z)
        if np.max(np.abs(M - M[0, 0] * np.eye(K))) > 1e-8:
            undet.add(phi_expand(ab))
            best = min(best, w)
        if K == 1 and abs(M[0, 0]) > 1e-8:
            dim1 = min(dim1, w)
    return K, undet, best, (dim1 if K == 1 else None)


ORACLE_RINGS = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)]


@pytest.mark.parametrize("p,b,m", ORACLE_RINGS)
def test_pauli_matrix_matches_dense_oracle(p, b, m):
    ring = make_ring(p, b, m)
    rng = random.Random(31 * p + 7 * b + m)
    n = 2 if ring.cardinality <= 4 else 1
    phases = set()
    for _ in range(12):
        P = rand_op(ring, n, rng)
        phases.add(P.phase_exp)
        got, want = pauli_matrix(P), dense_oracle(P)
        assert np.array_equal(got != 0, want != 0)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert phases - {0}


def random_verify_instances(count, seed, specs=ORACLE_RINGS[:4], dims=range(65), lengths=None):
    """(C, ext, group) for seeded random codes over the given rings with
    q^{n+c} in ``dims``; n is drawn from ``lengths`` if given, else n <= 2
    when q <= 4 and n = 1 otherwise."""
    rng = random.Random(seed)
    rings = [make_ring(*spec) for spec in specs]
    out = []
    while len(out) < count:
        ring = rng.choice(rings)
        n = rng.choice(lengths) if lengths else rng.randint(1, 2 if ring.cardinality <= 4 else 1)
        gens = tuple(SymplecticVector.from_components(ring, [
            ring.element([rng.randrange(ring.modulus) for _ in range(ring.m)])
            for _ in range(2 * n)]) for _ in range(rng.randint(1, 2 * n * ring.m)))
        C = vector_code(ring, n, gens)
        ext = C.extension
        if ring.cardinality ** ext.n in dims:
            out.append((C, ext, build_stabilizer(ext)))
    return out


def test_projector_matches_dense_oracle():
    for C, ext, group in random_verify_instances(8, 41):
        want = sum(map(dense_oracle, group_operators(group))) / group.size
        assert np.allclose(dense_projector(group), want, rtol=0, atol=1e-12)


def assert_search_matches_dense_oracle(instances):
    for C, ext, group in instances:
        res = undetectable_error_search(C, group)
        K, undet, best, dim1 = dense_error_search(C, group)
        assert res.dimension == K
        assert set(res.undetectable) == undet
        assert res.min_weight == best
        assert res.dim1_distance == dim1


def test_error_search_matches_dense_oracle():
    """F2, F4, Z4, Z8 and Z9: over Z9, N = 9 and the zero rule groups
    exponents mod 3."""
    instances = random_verify_instances(30, 43, ORACLE_RINGS[:5])
    assert {C.ring.p for C, ext, group in instances} == {2, 3}
    assert_search_matches_dense_oracle(instances)


def test_error_search_matches_dense_oracle_on_gr42():
    """GR(4, 2), m = 2, on q^{n+c} = 256 states."""
    assert_search_matches_dense_oracle(random_verify_instances(2, 59, [(2, 2, 2)], {256}))


def test_error_search_matches_dense_oracle_with_many_z_parts():
    """F2 with n = 3 and n = 4, q^{n+c} <= 64: 8 and 16 Z parts, so the
    search packs 8 and 16 lane groups per X part, as on verify-small's
    slowest shapes."""
    instances = random_verify_instances(6, 67, [(2, 1, 1)], lengths=(3, 4))
    assert sorted(C.n for C, ext, group in instances) == [3, 3, 3, 4, 4, 4]
    # K = 1, 2 and 4, with undetectable errors at K > 1
    assert {len(stabilizer_projector(group)) for C, ext, group in instances} == {1, 2, 4}
    assert_search_matches_dense_oracle(instances)


def signed_lanes(x, W, count):
    """The ``count`` lanes of W bits of x, each read as a signed digit in
    [-2^(W-1), 2^(W-1)); raises if x has more."""
    lanes = []
    for _ in range(count):
        d = x & ((1 << W) - 1)
        d -= (d >> (W - 1)) << W
        lanes.append(d)
        x = (x - d) >> W
    assert x == 0
    return lanes


@pytest.mark.parametrize("N", [2, 4, 8, 16, 3, 9, 27])
def test_packed_entry_decides_zero_and_equality(N):
    """``pauli._packing``: G sums of powers of omega, none with a power
    more than ``most`` times, packed as lane groups (unit[k] << g * stride
    for each term omega^k of group g, k < 2N) and lowered.  Group g's bits
    equal those of lower(0) iff its sum is 0, and those of another lowered
    int iff the two sums are equal, as the complex sums decide.  Its N low
    lanes less the bias 2^(W-1) are the sum's coordinates in the power
    basis {omega^k : k < N - N/p}, each inside (-2^(W-2), 2^(W-2)); its N
    upper lanes are 0; and the lanes of a difference of two lowered ints
    are the differences of theirs.  Checked for G = 1, 2 and 5 on
    random counts up to ``most``, on counts shifted by random class
    constants (equal sums), on class constants alone (zero sums), on
    counts of 0 or ``most``, and on ``most`` times each of the top N/p
    powers alone, whose lowered lanes are all -``most``, next to the
    group boundaries on both sides, for several ``most``."""
    p = 3 if N % 3 == 0 else 2
    top, step = N - N // p, N // p
    omega, rng = cmath.exp(2j * cmath.pi / N), random.Random(N)
    value = lambda lanes: sum(c * omega ** k for k, c in enumerate(lanes))
    seen = set()
    for most, G in itertools.product((1, 2, 7, 63, 100), (1, 2, 5)):
        unit, lower, stride = pauli._packing(N, p, most, G)
        W, zero = unit[1].bit_length() - 1, lower(0)
        assert len(unit) == 2 * N and stride == 2 * N * W
        group = lambda x, g: x >> g * stride & (1 << stride) - 1

        def packed(sums):
            assert max(map(max, sums)) <= most
            # each omega^k once as unit[k] and once as unit[k + N], at random
            ks = [(g, k + N * rng.randrange(2))
                  for g, counts in enumerate(sums) for k, c in enumerate(counts) for _ in range(c)]
            rng.shuffle(ks)
            x = lower(sum(unit[k] << g * stride for g, k in ks))
            assert x >> G * stride == 0
            lanes = []
            for g, counts in enumerate(sums):
                bits = group(x, g)
                assert bits >> N * W == 0
                lanes.append([(bits >> k * W & (1 << W) - 1) - (1 << W - 1) for k in range(N)])
                assert not any(lanes[g][top:])
                assert all(abs(c) < 1 << (W - 2) for c in lanes[g])
                assert abs(value(lanes[g]) - value(counts)) < 1e-6 * (1 + most)
            return x, lanes

        def other(counts, shift):
            kind = rng.randrange(5)
            return ([rng.randrange(most + 1) for _ in range(N)],
                    [ck + shift[k % step] for k, ck in enumerate(counts)],
                    [rng.randrange(most + 1) for _ in range(step)] * p,
                    [most * rng.randrange(2) for _ in range(N)],
                    [0] * top + [most] * step)[kind]

        for _ in range(30 // G):
            shifts = [[rng.randrange(most // 2 + 1) for _ in range(step)] for _ in range(G)]
            cs = [[rng.randrange(most - shift[k % step] + 1) for k in range(N)] for shift in shifts]
            x, lanes = packed(cs)
            for _ in range(4):
                ds = [other(c, shift) for c, shift in zip(cs, shifts)]
                y, d_lanes = packed(ds)
                for g in range(G):
                    equal = group(x, g) == group(y, g)
                    assert equal == (abs(value(cs[g]) - value(ds[g])) < 1e-6)
                    zero_sum = group(y, g) == group(zero, g)
                    assert zero_sum == (abs(value(ds[g])) < 1e-6)
                    seen.add((G > 1, equal, zero_sum))
                assert signed_lanes(x - y, W, 2 * N * G) == [
                    u - v for lx, ly in zip(lanes, d_lanes) for u, v in zip(lx + [0] * N, ly + [0] * N)]
    both = set(itertools.product((False, True), repeat=2))
    assert {(many, eq) for many, eq, zero_sum in seen} == both
    assert {(many, zero_sum) for many, eq, zero_sum in seen} == both


def dual_minus_code_by_contains(C):
    """C^chi minus C, each chi-dual codeword contracted to ring elements
    and tested with ``contains``."""
    ring = C.ring
    return {flat for flat in enumerate_module(chi_dual_level(C).expanded_howell)
            if any(flat) and not contains(
                C, SymplecticVector.from_components(ring, phi_contract(ring, flat)))}


def test_set_matches_dual_minus_code_against_contains_oracle():
    for C, ext, group in random_verify_instances(20, 47, ORACLE_RINGS):
        res = undetectable_error_search(C, group)
        want = dual_minus_code_by_contains(C)
        assert res.set_matches_dual_minus_code == (set(res.undetectable) == want)
    # the undetectable set is C^chi minus Z, not C^chi minus C: on this Z4
    # code it has 14 vectors against 12, so the flag reads false
    ring, C = cli.parse_code_text("ring p=2 b=2 m=1\nn 2\ngen 1 3 1 1\ngen 2 1 2 1\n")
    res = undetectable_error_search(C, build_stabilizer(C.extension))
    assert (len(res.undetectable), len(dual_minus_code_by_contains(C))) == (14, 12)
    assert not res.set_matches_dual_minus_code


def test_verify_builds_tables_and_projector_once(monkeypatch):
    counts = {"tables": 0, "bases": 0}
    init, basis = pauli._Monomials.__init__, pauli.StabilizerGroup._basis.func

    def counting_init(self, *args):
        counts["tables"] += 1
        init(self, *args)

    def counting_basis(self):
        counts["bases"] += 1
        return basis(self)

    prop = functools.cached_property(counting_basis)
    prop.__set_name__(pauli.StabilizerGroup, "_basis")
    monkeypatch.setattr(pauli._Monomials, "__init__", counting_init)
    monkeypatch.setattr(pauli.StabilizerGroup, "_basis", prop)
    ring, C = cli.parse_code_text("ring p=2 b=2 m=1\nn 1\ngen 1 0\ngen 0 2\n")
    rep, code = cli.build_report("verify", ring, C, 1 << 22, 1024)
    assert code == 0
    assert rep["verification"]["projector_dimension"] == rep["K_exact"] == 1
    assert counts == {"tables": 1, "bases": 1}


def test_hand_built_group_checks_the_cap_before_dense_work(z4):
    group = StabilizerGroup(z4, 2, ((0, (0, 0), (0, 0)),))
    C = AdditiveCode(z4, 1, ())
    for call in (lambda: stabilizer_projector(group, max_dim=8),
                 lambda: projector_dimension(group, max_dim=8),
                 lambda: undetectable_error_search(C, group, max_dim=8)):
        with pytest.raises(DimensionTooLarge):
            call()
    assert "_tables" not in group.__dict__ and "_basis" not in group.__dict__
    # under the cap the group builds its own tables, and its basis once
    assert projector_dimension(group, max_dim=16) == 16
    B = stabilizer_projector(group, max_dim=16)
    assert B is stabilizer_projector(group) and isinstance(B, tuple)
    with pytest.raises(TypeError):
        B[0][0] = 1
    assert np.array_equal(dense_projector(group), np.eye(16))


def test_verify_builds_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pauli_matrix called")

    monkeypatch.setattr(pauli, "pauli_matrix", refuse)
    for text in ("ring p=2 b=2 m=1\nn 1\ngen 1 0\ngen 0 2\n",
                 "ring p=2 b=1 m=2\nn 2\ngen 1,0 0,1 1,1 0,0\n"):
        ring, C = cli.parse_code_text(text)
        rep, code = cli.build_report("verify", ring, C, 1 << 22, 1024)
        assert code == 0
        assert rep["verification"]["projector_dimension"] == rep["K_exact"]


# ------------------------------------------------ stabilizer assembly oracle

def stabilizer_by_compose(ext):
    """The group by symbolic composition: each element g_1^{c_1} ...
    g_k^{c_k} (c_k fastest) multiplied out from the identity with
    ``compose``, then its phase lowered by sum_i c_i t_i, with omega^{o_i
    t_i} the scalar g_i^{o_i}."""
    ring, ntot = ext.ring, ext.n
    N = omega_modulus(ring)
    sd = smith_form(ext.expanded_matrix)
    gens, orders, tees = [], [], []
    for row, e in zip(sd.generators, sd.diag_exponents):
        g = from_vector(SymplecticVector.from_components(ring, phi_contract(ring, row)))
        o = ring.p ** (ring.b - e)
        pw = identity_operator(ring, ntot)
        for _ in range(o):
            pw = compose(pw, g)
        assert not any(pw.a) and not any(pw.b)
        gens.append(g)
        orders.append(o)
        tees.append(solve_congruence(o, pw.phase_exp, N))
    elements = []
    for counter in itertools.product(*(range(o) for o in orders)):
        prod = identity_operator(ring, ntot)
        for g, c in zip(gens, counter):
            for _ in range(c):
                prod = compose(prod, g)
        phase = (prod.phase_exp - sum(c * t for c, t in zip(counter, tees))) % N
        elements.append(PauliOperator(ring, ntot, phase, prod.a, prod.b))
    return tuple(elements)


def test_build_stabilizer_matches_compose_oracle():
    sizes = {}
    for C, ext, group in random_verify_instances(30, 53, ORACLE_RINGS):
        assert group.elements == tuple(map(group._tables.from_operator, stabilizer_by_compose(ext)))
        assert group.size == cardinality(ext)
        key = (C.ring.p, C.ring.b, C.ring.m)
        sizes[key] = max(sizes.get(key, 0), group.size)
    # every ring contributes a group with more than two elements
    assert len(sizes) == len(ORACLE_RINGS) and min(sizes.values()) > 2


def test_build_stabilizer_matches_oracle_on_zero_code_and_large_group(z4):
    zero = build_extension(AdditiveCode(z4, 1, ()))
    T = pauli._Monomials(z4, 1)
    assert build_stabilizer(zero).elements == tuple(map(T.from_operator, stabilizer_by_compose(zero)))
    ring, C = cli.parse_code_text(
        "ring p=2 b=3 m=1\nn 2\ngen 1 2 4 3\ngen 2 6 1 0\ngen 0 4 2 2\n")
    ext = C.extension
    group = build_stabilizer(ext)
    got = group.elements
    assert len(got) == 256
    assert got == tuple(map(group._tables.from_operator, stabilizer_by_compose(ext)))


def test_check_stabilizer_rejects_broken_groups(z4):
    T = pauli._Monomials(z4, 1)
    I, X, Z = (0, (0,), (0,)), (0, (1,), (0,)), (0, (0,), (1,))
    with pytest.raises(InternalInvariantViolation, match="nontrivial scalar"):
        pauli._check_stabilizer(T, [I, (2, (0,), (0,))], [])
    # phi-expanded rows (x | z) of X(1) and Z(1): pairing -1 mod 4, which
    # build_stabilizer rejects as input
    with pytest.raises(ValueError, match="not chi-self-orthogonal"):
        build_stabilizer(AdditiveCode(z4, 1, [[1, 0], [0, 1]]))
    # X(1)^2 = X(2) is missing
    with pytest.raises(InternalInvariantViolation, match="not closed"):
        pauli._check_stabilizer(T, [I, X], [X])
    # a group of order 4 passes both checks
    pauli._check_stabilizer(T, [I, X, (0, (2,), (0,)), (0, (3,), (0,))], [X])
    # X(1) has order 4 on Z4, not 2
    with pytest.raises(InternalInvariantViolation, match="order does not annihilate"):
        pauli._generator_powers(T, X, 2)
    assert [P[2] for P in pauli._generator_powers(T, Z, 4)] == [(0,), (1,), (2,), (3,)]


def test_build_stabilizer_rejects_the_base_code(z4, monkeypatch):
    """The worked base code, not its extension, is not chi-self-orthogonal:
    a caller error, raised before any table or group work."""
    def no_tables(*args):
        raise AssertionError("tables were built")

    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    monkeypatch.setattr(pauli, "_Monomials", no_tables)
    with pytest.raises(ValueError, match="^the code is not chi-self-orthogonal"):
        build_stabilizer(C)
    monkeypatch.undo()
    assert build_stabilizer(C.extension).size == 16


@pytest.mark.parametrize("text", ["ring p=2 b=2 m=1\nn 1\ngen 1 0\ngen 0 2\n",
                                  "ring p=2 b=2 m=2\nn 1\ngen 1,0 0,0\ngen 0,0 1,0\n"])
def test_build_stabilizer_makes_no_ring_element(monkeypatch, text):
    """The group is its index triples: on the worked Z4 code and a GR(4, 2)
    code, ``build_stabilizer`` creates no ring element, and the group it
    returns holds only triples of ints."""
    ring, C = cli.parse_code_text(text)
    ext = C.extension
    made, init = [], RingElement.__init__

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)
    monkeypatch.setattr(RingElement, "__init__", counting_init)
    group = build_stabilizer(ext)
    monkeypatch.undo()
    assert made == []
    assert group.size == cardinality(ext) > 1 and ext.n > C.n
    assert all(type(l) is int and len(a) == len(b) == ext.n for l, a, b in group.elements)
    assert {i for l, a, b in group.elements for i in a + b} <= set(range(ring.cardinality))


def test_check_stabilizer_decides_closure_past_64_elements():
    """Closure is checked at every group size: the 256-element group of a
    Z8 code passes, and fails with any one element dropped."""
    ring, C = cli.parse_code_text(
        "ring p=2 b=3 m=1\nn 2\ngen 1 2 4 3\ngen 2 6 1 0\ngen 0 4 2 2\n")
    ext = C.extension
    group = build_stabilizer(ext)
    T, sd = group._tables, ext.expanded_smith
    gens = [pauli._generator_powers(T, T.from_row(row), ring.p ** (ring.b - e))[1]
            for row, e in zip(sd.generators, sd.diag_exponents)]
    elements = list(group.elements)
    assert len(elements) == 256
    pauli._check_stabilizer(T, elements, gens)
    for drop in (1, 100, 255):
        with pytest.raises(InternalInvariantViolation, match="not closed"):
            pauli._check_stabilizer(T, elements[:drop] + elements[drop + 1:], gens)
    # the group is the triples it was built from, with no second form
    assert group.elements == tuple(elements) and not hasattr(group, "_triples")


@pytest.mark.parametrize("p, b, m", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_monomial_multiply_is_associative_and_matches_compose(p, b, m):
    """``_Monomials.multiply`` on seeded random triples over F2, F4, Z4, Z8,
    Z9 and GR(4, 2): associative, and the triple of ``compose`` on the
    operators.  Closure under each generator then equals closure under
    every product of elements."""
    ring, n, rng = make_ring(p, b, m), 2, random.Random(61 + 7 * p + b + m)
    T = pauli._Monomials(ring, n)
    for _ in range(40):
        P, Q, R = (rand_op(ring, n, rng) for _ in range(3))
        tP, tQ, tR = map(T.from_operator, (P, Q, R))
        assert T.multiply(tP, tQ) == T.from_operator(compose(P, Q))
        assert T.multiply(T.multiply(tP, tQ), tR) == T.multiply(tP, T.multiply(tQ, tR))


@pytest.mark.parametrize("p, b, m", ORACLE_RINGS + [(3, 1, 2), (5, 1, 1)])
def test_monomial_tables_match_the_ring_element_tables(monkeypatch, p, b, m):
    """``_Monomials`` reads its tables off the ring's integer trace form:
    on F2, F4, Z4, Z8, Z9, GR(4, 2), F9 and F5 they equal the tables built
    from ring elements, and building them creates no ring element."""
    ring = make_ring(p, b, m)
    coords, index, duals, add, trace = monomial_tables(ring)

    def no_element(self, *args):
        raise AssertionError("a ring element was created")
    monkeypatch.setattr(RingElement, "__init__", no_element)
    T = pauli._Monomials(ring, 2)
    monkeypatch.undo()
    assert (T.coords, T.index, T.duals, T.add, T.trace) == (coords, index, duals, add, trace)
    assert T.dual_index == {d: i for i, d in enumerate(duals)}
    assert len(set(T.duals)) == len(T.coords) == ring.cardinality and T.states == ring.cardinality ** 2


def test_matrix_cap_message_past_the_decimal_digit_limit():
    """q^n = 2^14300 has more digits than the interpreter writes in decimal
    (4,300 on CPython 3.11): the cap still raises DimensionTooLarge, with
    the size written as a power of 2, not a ValueError from formatting the
    message."""
    f2 = make_ring(2, 1, 1)
    zeros = (f2.zero,) * 14300
    with pytest.raises(DimensionTooLarge) as exc:
        pauli_matrix(PauliOperator(f2, 14300, 0, zeros, zeros))
    try:  # an interpreter without the digit limit writes the decimal text
        shown = str(2 ** 14300)
    except ValueError:
        shown = "at least 2^14300"
    assert str(exc.value) == f"q^n = {shown} exceeds the matrix cap 1024"
