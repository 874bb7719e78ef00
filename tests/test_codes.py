"""Additive-code oracle tests: duals, cardinalities, distances.

Ground truth throughout is brute force at the ring level: enumerate the
whole ambient R^{2n}, evaluate symplectic products with ring arithmetic,
and compare element sets.
"""

import itertools
import math
import random
import tracemalloc

import pytest

import eaqring.codes as codes_mod
from eaqring.codes import (
    AdditiveCode,
    SymplecticVector,
    block_weights,
    cardinality,
    chi_dual_level,
    is_chi_self_orthogonal,
    is_free,
    min_symplectic_distance,
    symplectic_product,
)
from eaqring.errors import SearchLimitExceeded
from eaqring.extension import eaqecc_params
from eaqring.galois import gen_trace, make_ring, phi_contract, phi_expand
from eaqring.zpblinalg import BLOCK, enumerate_module, howell_member, lane_adder, lane_width, packed_blocks, unpack
from oracles import combine, contains, dual_level, puncture, same_module, symplectic_weight


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
            w = combine([(1, v), (1, g)])
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
    for flat in enumerate_module(C.expanded_howell):
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


def test_a_negative_length_is_a_value_error(z4):
    """n < 0 is an input error, raised by the constructor; the parameters
    once read it as a broken invariant (|C^(chi,0)| * |p^0 C| is not
    q^(2n)).  n = 0, which ``puncture`` builds, stays a code."""
    with pytest.raises(ValueError, match="n = -1 is negative"):
        AdditiveCode(z4, -1, ())
    empty = puncture(AdditiveCode.from_int_rows(z4, [[1, 0]]), 0)
    assert (empty.n, eaqecc_params(empty).K_exact) == (0, 1)


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
    d0 = chi_dual_level(worked)
    elems = set(enumerate_module(d0.expanded_howell))
    assert elems == {(0, 0), (2, 0)}
    d1 = dual_level(worked, 1)
    assert cardinality(d1) == 8
    assert set(enumerate_module(d1.expanded_howell)) == {(x, y) for x in range(4) for y in (0, 2)}
    db = dual_level(worked, 2)
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
                D = dual_level(C, t)
                got = {tuple(flat) for flat in enumerate_module(D.expanded_howell)}
                want = {phi_expand([ring.element(c) for c in key])
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
            assert cardinality(C) * cardinality(chi_dual_level(C)) == ring.cardinality ** (2 * n)


def test_bidual_and_nesting(z4, gr42):
    rng = random.Random(13)
    for ring, n in [(z4, 1), (z4, 2), (gr42, 1)]:
        vecs = list(all_vectors(ring, n))
        for _ in range(8):
            gens = tuple(rng.choice(vecs) for _ in range(2))
            C = AdditiveCode(ring, n, gens)
            assert same_module(chi_dual_level(chi_dual_level(C)), C)
            for t in range(ring.b):
                lower = dual_level(C, t)
                upper = dual_level(C, t + 1)
                for g in lower.generators:
                    assert contains(upper, g)


def test_is_chi_self_orthogonal(z4):
    assert is_chi_self_orthogonal(AdditiveCode.from_int_rows(z4, [[2, 0]]))
    assert not is_chi_self_orthogonal(AdditiveCode.from_int_rows(z4, [[1, 0], [0, 1]]))
    f2 = make_ring(2, 1, 1)
    assert is_chi_self_orthogonal(AdditiveCode.from_int_rows(f2, [[1, 1]]))


def test_min_symplectic_distance(z4, worked):
    # C^{chi-dual} is inside C: D is read off all of it
    assert worked.dual_in_code
    assert min_symplectic_distance(worked) == 1
    # the whole space: its chi-dual {0} is inside it, and D is infinite
    assert min_symplectic_distance(chi_dual_level(AdditiveCode(z4, 1, ()))) == math.inf
    # a code whose chi-dual is not inside it: members of C are skipped
    C = AdditiveCode.from_int_rows(z4, [[2, 0]])
    assert not C.dual_in_code
    assert min_symplectic_distance(C) == 1
    with pytest.raises(SearchLimitExceeded) as exc:
        min_symplectic_distance(AdditiveCode(z4, 3, ()), limit=100)
    assert exc.value.cardinality == 4 ** 6


def brute_distances(ring, n, gens):
    """Minimum symplectic weight over C, C^chi and C^chi minus C, and D
    under the paper's convention (over C^chi when C^chi is inside C, else
    over C^chi minus C), by ring arithmetic alone: C is the additive
    closure of the generators, C^chi every vector of R^{2n} whose traced
    pairing with each generator vanishes (read off a table of Tr(a*b)), and
    weights are ``symplectic_weight``.  Membership in C is the closure,
    checked against ``contains`` on every chi-dual vector."""
    N = ring.modulus
    elems = [ring.element(c) for c in itertools.product(range(N), repeat=ring.m)]
    tr = [[gen_trace(a * b) for b in elems] for a in elems]
    index = {e.coeffs: i for i, e in enumerate(elems)}
    gen_idx = [[index[e.coeffs] for e in g.components] for g in gens]
    C = AdditiveCode(ring, n, tuple(gens))
    code = closure(ring, n, gens)

    def in_dual(v):
        return all(sum(tr[v[n + i]][g[i]] - tr[g[n + i]][v[i]] for i in range(n)) % N == 0
                   for g in gen_idx)

    dual = [SymplecticVector.from_components(ring, [elems[i] for i in v])
            for v in itertools.product(range(len(elems)), repeat=2 * n) if in_dual(v)]
    outside = []
    for v in dual:
        member = tuple(e.coeffs for e in v.components) in code
        assert contains(C, v) == member
        if not member:
            outside.append(v)

    def lightest(vs):
        return min((w for w in map(symplectic_weight, vs) if w), default=math.inf)
    return C, {"code": lightest(code.values()), "dual": lightest(dual),
               "dual_minus_code": lightest(outside),
               "D": lightest(outside if outside else dual), "dual_in_code": not outside}


RINGS = {"F2": (2, 1, 1), "F4": (2, 1, 2), "Z4": (2, 2, 1), "Z8": (2, 3, 1),
         "Z9": (3, 2, 1), "GR42": (2, 2, 2)}


@pytest.mark.parametrize("label", sorted(RINGS))
def test_min_distance_all_modes_brute_force(label):
    ring = make_ring(*RINGS[label])
    rng = random.Random(29)
    N, m = ring.modulus, ring.m
    cases = set()
    for n in (1, 2):
        for _ in range(3):
            gens = [SymplecticVector.from_components(
                ring, [ring.element([rng.randrange(N) for _ in range(m)]) for _ in range(2 * n)])
                for _ in range(rng.randint(1, 3))]
            C, want = brute_distances(ring, n, gens)
            assert C.dual_in_code == want["dual_in_code"], n
            assert min_symplectic_distance(C) == want["D"], n
            cases.add(want["dual_in_code"])
    assert cases == {True, False}


@pytest.mark.parametrize("params, rows", [
    ((2, 2, 1), [[1, 0, 0, 1], [0, 1, 2, 0], [2, 0, 0, 0]]),
    ((2, 3, 1), [[1, 0, 0, 1], [0, 1, 4, 0], [2, 0, 0, 0]]),
    ((3, 2, 1), [[1, 0, 0, 1], [0, 1, 3, 0], [3, 0, 0, 0]]),
], ids=["Z4", "Z8", "Z9"])
def test_min_distance_skips_light_members_of_the_code(params, rows):
    """Every weight-1 chi-dual vector of these codes lies in C, and C^chi is
    not inside C, so the search must test the lightest vectors for
    membership and reject them: the weight is 1 over C^chi but D = 2.
    Padded with copies of the self-dual pair {(1, 1 | 0, 0), (0, 0 | 1, -1)}
    on two new coordinates each, which has no weight-1 vector, C^chi spans
    several blocks, so those members come as h - t with h != 0; D stays 2."""
    ring = make_ring(*params)
    C, want = brute_distances(ring, 2, [SymplecticVector.from_ints(ring, r) for r in rows])
    assert want == {"code": 1, "dual": 1, "dual_minus_code": 2, "D": 2, "dual_in_code": False}
    assert not C.dual_in_code
    assert min_symplectic_distance(C) == 2
    pairs = 2 if params == (2, 2, 1) else 1
    n = 2 + 2 * pairs
    padded = [r[:2] + [0] * (n - 2) + r[2:] + [0] * (n - 2) for r in rows]
    for j in range(2, n, 2):
        padded.append([int(i in (j, j + 1)) for i in range(n)] + [0] * n)
        padded.append([0] * n + [{j: 1, j + 1: ring.modulus - 1}.get(i, 0) for i in range(n)])
    C = AdditiveCode.from_int_rows(ring, padded)
    table, highs = packed_blocks(C.dual)
    assert len(table) < C.dual.cardinality and not C.dual_in_code
    assert min_symplectic_distance(C) == tuple_search_distance(C) == 2


def pack(row, L):
    """Lane j of the int holds row[j] (``zpblinalg.lane_width``)."""
    return sum(x << (L * j) for j, x in enumerate(row))


@pytest.mark.parametrize("p, b, m", [(2, 1, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2), (2, 1, 3), (2, 2, 3)])
def test_expanded_weight_matches_symplectic_weight(p, b, m):
    """The weight kernel of the distance search (``block_weights``), read
    off phi-expanded rows packed in lanes (L = 5 for Z4 and GR(4, 2)),
    against the ring-level weight, as the high vector against a zero table
    entry and as a table entry against a zero high vector; components are
    often zero, and nonzero ones often have zero coefficients, so every
    slot is exercised."""
    ring = make_ring(p, b, m)
    rng = random.Random(31)
    N = ring.modulus
    L = lane_width(N)

    def component():
        if rng.random() < 0.5:
            return ring.zero
        return ring.element([rng.randrange(N) if rng.random() < 0.5 else 0 for _ in range(m)])
    for _ in range(300):
        n = rng.randint(1, 5)
        v = SymplecticVector.from_components(ring, [component() for _ in range(2 * n)])
        weights = block_weights(n, m, N)
        packed = pack(phi_expand(v.components), L)
        assert weights(packed, [0, packed]) == weights(0, [packed, 0]) == [symplectic_weight(v), 0]


def test_distance_search_tests_membership_only_to_lower_the_minimum(monkeypatch):
    """Weight before membership: on a code with |C^chi| = 4096 and D > 1 the
    search weighs every chi-dual vector but runs the Howell membership test
    on under 1% of them."""
    f2 = make_ring(2, 1, 1)
    rng = random.Random(37)
    C = AdditiveCode.from_int_rows(f2, [[rng.randrange(2) for _ in range(20)] for _ in range(8)])
    size = 2 ** 20 // cardinality(C)
    counts = {"member": 0, "weighed": 0}
    member, weights = codes_mod.howell_member, codes_mod.block_weights

    def counted_member(*args):
        counts["member"] += 1
        return member(*args)

    def counted_weights(*args):
        weigh = weights(*args)

        def counted(h, table):
            counts["weighed"] += len(table)
            return weigh(h, table)
        return counted
    monkeypatch.setattr(codes_mod, "howell_member", counted_member)
    monkeypatch.setattr(codes_mod, "block_weights", counted_weights)
    D = min_symplectic_distance(C)
    assert size == 4096 and D > 1 and not C.dual_in_code
    assert counts["weighed"] == size
    assert 0 < counts["member"] < size / 100


@pytest.mark.parametrize("label", sorted(RINGS))
def test_block_weights_match_the_lane_formula(label):
    """Blocks of a chi-dual with several high vectors, weighed by XOR
    (``block_weights``), against the same vectors h - t built by the lane
    formula (``lane_adder`` on h and -t) and weighed at the ring level.
    For N = 2 (F2 and F4), h ^ t is the lane formula's h + t itself."""
    ring = make_ring(*RINGS[label])
    n, m, N = 6 if label == "F2" else 3, ring.m, ring.modulus
    cols, L = 2 * n * m, lane_width(N)
    C = AdditiveCode(ring, n, (_random_vector(ring, n, random.Random(53)),))
    table, highs = packed_blocks(C.dual)
    assert len(table) < C.dual.cardinality
    add, weights = lane_adder(N, cols), block_weights(n, m, N)
    negated = [pack([(-x) % N for x in unpack(t, L, cols)], L) for t in table]
    for h in itertools.islice(highs, 4):
        block = [add(h, t) for t in negated]
        if N == 2:
            assert block == [h ^ t for t in table] == [add(h, t) for t in table]
        assert weights(h, table) == [
            symplectic_weight(SymplecticVector.from_components(ring, phi_contract(ring, unpack(v, L, cols))))
            for v in block]


def test_distance_search_memory_does_not_grow_with_the_dual():
    """The search keeps one block table and one block of weights, whatever
    |C^chi| is: traced memory peaks under 16 KB on F2 codes with D > 1 and
    chi-duals of 2^10 and 2^16 vectors (about 5.6 and 7 KB; a search that
    kept its vectors would hold 2^16 ints of 56 bits, over 2 MB).  The
    dual, the case and C's Howell form are built before tracing starts."""
    f2 = make_ring(2, 1, 1)
    rng = random.Random(47)
    for n, k in ((8, 6), (14, 12)):
        while True:
            C = AdditiveCode.from_int_rows(f2, [[rng.randrange(2) for _ in range(2 * n)] for _ in range(k)])
            if cardinality(C) == 2 ** k:
                break
        C.dual, C.dual_in_code, C.expanded_howell
        tracemalloc.start()
        try:
            D = min_symplectic_distance(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert D > 1 and 2 ** (2 * n - k) == cardinality(chi_dual_level(C))
        assert peak < 16 * 1024, (n, peak)


def tuple_search_distance(C):
    """Reference D: the search on tuples, as it ran before the packed walk.
    Every chi-dual vector from ``enumerate_module`` is weighed by OR-ing its
    2m slices flat[j:nm:m] and flat[nm+j::m], one entry per coordinate, and
    tested for membership in C only when it would lower the minimum."""
    n, m = C.n, C.ring.m
    nm = n * m
    skip = None if C.dual_in_code else C.expanded_howell
    best = math.inf
    for flat in enumerate_module(C.dual):
        coords = [0] * n
        for j in range(m):
            coords = [c | x | y for c, x, y in zip(coords, flat[j:nm:m], flat[nm + j::m])]
        w = sum(map(bool, coords))
        if 0 < w < best and (skip is None or not howell_member(skip, flat)):
            best = w
            if best == 1:
                break
    return best


def _random_vector(ring, n, rng):
    return SymplecticVector.from_components(
        ring, [ring.element([rng.randrange(ring.modulus) for _ in range(ring.m)]) for _ in range(2 * n)])


def _graded_vector(ring, n, rng):
    """A random vector times p^e, e drawn after it from 0..b-1."""
    v = _random_vector(ring, n, rng)
    return combine([(ring.p ** rng.randrange(ring.b), v)])


def _random_isotropic(ring, n, rng, lo):
    """A chi-self-orthogonal code of size >= lo: each generator is a random
    combination of the Howell rows of the chi-dual of those before it."""
    gens = []
    while cardinality(AdditiveCode(ring, n, tuple(gens))) < lo:
        dual = chi_dual_level(AdditiveCode(ring, n, tuple(gens))).generators
        gens.append(combine([(rng.randrange(ring.modulus), g) for g in dual]))
    return AdditiveCode(ring, n, tuple(gens))


def _blocks_class(C):
    """Where C's chi-dual falls against the block table (``packed_blocks``):
    inside one table of BLOCK entries, or of over BLOCK / 4 and fewer, or
    past it by at most N blocks or by more (then by two high rows or more)."""
    table, highs = packed_blocks(C.dual)
    blocks = sum(1 for _ in highs)
    if blocks > 1:
        return "a few blocks" if blocks <= C.ring.modulus else "many blocks"
    if len(table) == BLOCK:
        return "full table"
    return "below the table" if 4 * len(table) > BLOCK else "small"


@pytest.mark.parametrize("label", sorted(RINGS))
def test_min_distance_matches_the_tuple_search(label, monkeypatch):
    """The packed search against the tuple search on seeded random codes
    with chi-duals of 2^8 to 2^14 vectors, in both cases of ``dual_in_code``
    (the chi-dual of a chi-self-orthogonal code contains its own chi-dual),
    and over F2 up to n = 12: 24 lanes of 4 bits, an int of 4 digits.
    Then at the block boundaries (``_blocks_class``; a full table needs p = 2),
    each with D = 1 and with D > 1, on codes with some generators scaled
    by p so that they need not be free; and D = inf on the whole space,
    whose chi-dual {0} is a one-entry table.  On every code drawn there, D
    outside the case C^chi inside C is the weight of a vector that the
    search tested for membership in C and found outside it."""
    ring = make_ring(*RINGS[label])
    q = ring.cardinality
    lengths = {"F2": (8, 10, 12), "F4": (4, 5, 6), "Z4": (4, 5, 6), "Z8": (3, 4), "Z9": (3, 4),
               "GR42": (2, 3, 4)}[label]
    rng = random.Random(41)
    found = []
    for n in lengths:
        for case in (False, True):
            while True:
                if case:
                    A = _random_isotropic(ring, n, rng, min(2 ** rng.randint(8, 12), q ** n))
                    C = chi_dual_level(A)
                else:
                    C = AdditiveCode(ring, n, tuple(_random_vector(ring, n, rng)
                                                    for _ in range(rng.randint(1, 2 * n * ring.m))))
                size = q ** (2 * n) // cardinality(C)
                if 2 ** 8 <= size <= 2 ** 14 and C.dual_in_code == case:
                    break
            D = min_symplectic_distance(C)
            assert D == tuple_search_distance(C), (n, case)
            found.append(D)
    assert max(found) > 1
    wanted = {(where, one) for where in ("below the table", "full table", "a few blocks", "many blocks")
              for one in (True, False) if ring.p == 2 or where != "full table"}
    lengths = {"F2": (6, 8, 10), "F4": (3, 4, 5), "Z4": (3, 4, 5), "Z8": (2, 3, 4), "Z9": (3, 4, 5),
               "GR42": (2, 3)}[label]
    tested, member = [], codes_mod.howell_member
    monkeypatch.setattr(codes_mod, "howell_member", lambda H, vec: tested.append(vec) or member(H, vec))
    for _ in range(1000):
        if not wanted:
            break
        n = rng.choice(lengths)
        C = AdditiveCode(ring, n, tuple(_graded_vector(ring, n, rng)
                                        for _ in range(rng.randint(1, 2 * n * ring.m))))
        if q ** (2 * n) // cardinality(C) > 2 ** 14:
            continue
        tested.clear()
        D = min_symplectic_distance(C)
        assert C.dual_in_code or D == min(
            symplectic_weight(SymplecticVector.from_components(ring, phi_contract(ring, v)))
            for v in tested if not member(C.expanded_howell, v))
        if (_blocks_class(C), D == 1) in wanted:
            assert D == tuple_search_distance(C), n
            wanted.remove((_blocks_class(C), D == 1))
    assert not wanted
    whole = chi_dual_level(AdditiveCode(ring, 2, ()))
    assert min_symplectic_distance(whole) == tuple_search_distance(whole) == math.inf


def test_min_distance_early_exit_and_infinite_against_the_tuple_search(z4):
    """D = 1 stops both searches at the first weight-1 vector outside C: C
    is zero on coordinate 0, so (e_0, 0) is in C^chi but not in C.  The
    whole space has chi-dual {0}, so there D is infinite."""
    f2 = make_ring(2, 1, 1)
    rng = random.Random(43)
    rows = [[0] + [rng.randrange(2) for _ in range(11)] + [0] + [rng.randrange(2) for _ in range(11)]
            for _ in range(14)]
    C = AdditiveCode.from_int_rows(f2, rows)
    assert not C.dual_in_code and 2 ** 24 // cardinality(C) <= 2 ** 14
    assert min_symplectic_distance(C) == tuple_search_distance(C) == 1
    whole = chi_dual_level(AdditiveCode(z4, 4, ()))
    assert whole.dual_in_code
    assert min_symplectic_distance(whole) == tuple_search_distance(whole) == math.inf


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
    assert contains(worked, SymplecticVector.from_ints(z4, [2, 0]))
    assert contains(worked, SymplecticVector.from_ints(z4, [3, 2]))
    assert not contains(worked, SymplecticVector.from_ints(z4, [0, 1]))
    assert not is_free(worked)
    assert is_free(AdditiveCode.from_int_rows(z4, [[1, 0], [0, 1]]))


def test_minimal_generating_vectors(z4, worked):
    gens = [SymplecticVector.from_components(z4, phi_contract(z4, r))
            for r in worked.expanded_smith.generators]
    rebuilt = AdditiveCode(z4, 1, tuple(gens))
    assert same_module(rebuilt, worked)
    assert len(gens) == 2
