"""Extension-builder tests: worked extensions, symplectic subsets, minimum
entanglement degree, quasi-symplectic checks, and the parameter pipeline."""

import itertools
import random
from fractions import Fraction

import pytest

import eaqring.extension as extension_mod
from eaqring.cli import build_report, parse_code_text
from eaqring.codes import (
    AdditiveCode,
    SymplecticVector,
    cardinality,
    is_chi_self_orthogonal,
    is_free,
    symplectic_product,
)
from eaqring.decompose import _check_partner_pairings, hyperbolic_decompose
from eaqring.errors import CapacityExceeded, InternalInvariantViolation, ZeroTarget
from eaqring.extension import (
    _check_extension,
    construct_symplectic_subset,
    eaqecc_params,
    minimum_entanglement_degree,
)
from eaqring.galois import RingElement, gen_trace, make_ring
from eaqring.zpblinalg import SmithDecomposition
import eaqring.codes as codes_mod
import oracles
from oracles import (build_extension, puncture, random_code, same_module, vector, vector_code,
                     verify_quasi_symplectic)


@pytest.fixture(scope="module")
def z4():
    return make_ring(2, 2, 1)


@pytest.fixture(scope="module")
def gr42():
    return make_ring(2, 2, 2)


@pytest.fixture(scope="module")
def worked(z4):
    return AdditiveCode(z4, 1, [[1, 0], [0, 2]])


def exponents(ring, pairs):
    """The character exponent of each pair's symplectic product, over
    ring elements, for pairs of phi-expanded rows."""
    return tuple(gen_trace(symplectic_product(vector(ring, a), vector(ring, b))) for a, b in pairs)


def tail_pairs(ext, n, k):
    """The tail pairs of an extension of a length-n code, as phi-expanded
    rows, read back off its rows after the k isotropic ones, which
    ``_extend`` gives the tails (-x | y) member by member."""
    nm, half, N = n * ext.ring.m, ext.n * ext.ring.m, ext.ring.modulus
    members = [tuple(-v % N for v in u[nm:half]) + u[half + nm:] for u in ext.rows[k:]]
    return tuple(zip(members[::2], members[1::2]))


def test_build_extension_worked(z4, worked):
    ext = build_extension(worked)
    assert ext.n - worked.n == 1
    assert cardinality(ext) == 16
    want = AdditiveCode(z4, 2, [[1, 2, 0, 0], [0, 0, 2, 1]])
    assert same_module(ext, want)
    assert is_chi_self_orthogonal(ext)
    assert same_module(puncture(ext, 1), worked)


def test_build_extension_self_orthogonal_base(z4):
    C = AdditiveCode(z4, 1, [[2, 0]])
    ext = build_extension(C)
    assert ext.n - C.n == 0
    assert same_module(ext, C)


def test_build_extension_free_base(z4):
    C = AdditiveCode(z4, 1, [[1, 0], [0, 1]])
    ext = build_extension(C)
    assert cardinality(ext) == cardinality(C) == 16


def test_construct_symplectic_subset_z4(z4):
    s = construct_symplectic_subset(z4, 1, [2])
    assert exponents(z4, s) == (2,)
    assert s == (((2, 0), (0, 1)),)  # (-2 * dual_0 | 0) and (0 | 1)
    s3 = construct_symplectic_subset(z4, 1, [3])
    assert exponents(z4, s3) == (3,)


def test_construct_symplectic_subset_gr42(gr42):
    s = construct_symplectic_subset(gr42, 1, [1, 3])
    assert len(s) == 2
    assert exponents(gr42, s) == (1, 3)
    # both pairs live in one ring coordinate pair: c = 1, 2cm = 4 columns
    for a1, a2 in s:
        assert len(a1) == len(a2) == 4


def test_construct_symplectic_subset_errors(z4, gr42):
    with pytest.raises(ZeroTarget):
        construct_symplectic_subset(z4, 1, [0])
    with pytest.raises(ZeroTarget):
        construct_symplectic_subset(z4, 2, [2, 4])
    with pytest.raises(CapacityExceeded):
        construct_symplectic_subset(z4, 1, [1, 2])
    with pytest.raises(CapacityExceeded):
        construct_symplectic_subset(gr42, 1, [1, 2, 3])


def test_construct_symplectic_subset_rejects_a_negative_degree(z4, gr42):
    """c < 0 is a ValueError, raised before the capacity check would call
    it an e = 0 that exceeds c*m."""
    for ring, targets in ((z4, []), (z4, [1]), (gr42, [1, 2])):
        with pytest.raises(ValueError, match="c = -1 is negative"):
            construct_symplectic_subset(ring, -1, targets)
    assert construct_symplectic_subset(z4, 0, []) == ()


@pytest.mark.parametrize("spec", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_construct_symplectic_subset_formula(spec):
    """Pair j sits in coordinate k = j // m with basis index l = j % m:
    a_{j1} = (-z_j dual_l e_k, 0) and a_{j2} = (0, theta^l e_k)."""
    ring = make_ring(*spec)
    N, c = ring.modulus, 2
    targets = [1 + j % (N - 1) for j in range(c * ring.m)]
    s = construct_symplectic_subset(ring, c, targets)
    for j, (z, (a1, a2)) in enumerate(zip(targets, s)):
        k, ell = divmod(j, ring.m)
        x1 = [ring.zero] * c
        x1[k] = ring.scalar(-z) * RingElement(ring, ring._dual_coeffs[ell])
        y2 = [ring.zero] * c
        y2[k] = ring.theta ** ell
        assert vector(ring, a1) == SymplecticVector(ring, tuple(x1), (ring.zero,) * c)
        assert vector(ring, a2) == SymplecticVector(ring, (ring.zero,) * c, tuple(y2))
    assert exponents(ring, s) == tuple(targets)


def test_subset_verify_rejects_a_trivial_pair(z4):
    a1 = vector(z4, [2, 0])
    a2 = vector(z4, [0, 2])
    with pytest.raises(InternalInvariantViolation, match="partners pair character-trivially"):
        _check_partner_pairings([a1, a2], 0)


def test_subset_verify_rejects_a_nontrivial_cross_pair(z4):
    # each pair pairs to -1, but a_{11} also pairs to -1 with a_{22}
    p1 = (vector(z4, [1, 0, 0, 0]), vector(z4, [0, 0, 1, 0]))
    p2 = (vector(z4, [0, 1, 0, 0]), vector(z4, [0, 0, 1, 1]))
    with pytest.raises(InternalInvariantViolation, match="non-partners"):
        _check_partner_pairings([*p1, *p2], 0)


def test_partner_check_returns_each_pairs_exponent(gr42):
    """After k isotropic vectors, the partner check returns gen_trace(<a|b>_s)
    of each pair (a, b), in pair order."""
    s = construct_symplectic_subset(gr42, 1, [3, 1])
    zero = SymplecticVector(gr42, (gr42.zero,), (gr42.zero,))
    pairs = [vector(gr42, r) for r in s[0] + s[1]]
    assert _check_partner_pairings([zero, *pairs], 1) == (3, 1) == exponents(gr42, s)


def test_subset_rejects_a_pair_that_misses_its_target(monkeypatch):
    """Over Z9, tails doubled in both members, as the check contracts them,
    pair to 4z, not z: still nonzero, so the partner check passes, and
    exponent 4 misses target 1."""
    z9 = make_ring(3, 2, 1)
    contract = extension_mod._contract
    monkeypatch.setattr(extension_mod, "_contract",
                        lambda ring, rows: contract(ring, [[2 * x for x in r] for r in rows]))
    with pytest.raises(InternalInvariantViolation, match="^a constructed pair misses its target exponent$"):
        construct_symplectic_subset(z9, 1, [1])


def test_extension_verify_rejects_a_broken_tail(z4, worked):
    ext = build_extension(worked)
    u1, u2 = ext.generators  # the one pair, and no isotropic generator
    # without the gram in its tail, u1 still pairs nontrivially with u2
    bad = SymplecticVector(z4, u1.x[:1] + (z4.zero,), u1.y)
    with pytest.raises(InternalInvariantViolation, match="not chi-self-orthogonal"):
        _check_extension(vector_code(z4, 2, (bad, u2)), worked)


def test_check_extension_rejects_each_broken_invariant(z4, worked, monkeypatch):
    """The puncture, the rho sandwich and no growth over a free base each
    fire on a chi-self-orthogonal C' that breaks only that invariant."""
    ext = build_extension(worked)
    with pytest.raises(InternalInvariantViolation, match="puncturing does not recover"):
        _check_extension(ext, AdditiveCode(z4, 1, [[1, 0], [0, 1]]))
    # one row more, (0, 0 | 0, 2), which pairs trivially with all of C' and
    # cuts to 0: C' still punctures onto C, but not to its decomposition's rows
    with pytest.raises(InternalInvariantViolation, match="puncturing does not recover"):
        _check_extension(AdditiveCode(z4, 2, ext.rows + ((0, 0, 0, 2),)), worked)
    # C = <(2 | 0)> is isotropic, with rho = (0,): its one row with a tail
    # (2, 1 | 0, 0) cuts back to it, and |C'| = 4 > |C| * 1
    iso = AdditiveCode(z4, 1, [[2, 0]])
    assert iso.decomposition.all_generators() == [(2, 0)] and iso.rho == (0,)
    with pytest.raises(InternalInvariantViolation, match="rho sandwich"):
        _check_extension(AdditiveCode(z4, 2, [[2, 1, 0, 0]]), iso)
    # C' cut row for row to C's decomposition maps onto C, injectively when C
    # is free, so a free base cannot grow; the check fires on C = worked,
    # |C'| = 2|C| inside its sandwich, once is_free reads it as free
    monkeypatch.setattr(extension_mod, "is_free", lambda C: True)
    with pytest.raises(InternalInvariantViolation, match="free base must extend without growth"):
        _check_extension(ext, worked)


def test_minimum_entanglement_degree(z4, gr42, worked):
    assert minimum_entanglement_degree(AdditiveCode(z4, 1, [[1, 0], [0, 1]])) == 1
    assert minimum_entanglement_degree(AdditiveCode(z4, 1, [[2, 0]])) == 0
    assert minimum_entanglement_degree(worked) == 1
    th = gr42.theta
    full = vector_code(gr42, 1, (
        SymplecticVector(gr42, (gr42.one,), (gr42.zero,)),
        SymplecticVector(gr42, (gr42.zero,), (gr42.one,)),
        SymplecticVector(gr42, (th,), (gr42.zero,)),
        SymplecticVector(gr42, (gr42.zero,), (th,)),
    ))
    assert minimum_entanglement_degree(full) == 1


def test_minimum_entanglement_degree_rejects_an_odd_rank(z4, monkeypatch):
    """rank(C / (C cap C^chi)) is twice the pair count: a Gram matrix read
    as having one Smith exponent 0 gives rank 1, which the degree rejects."""
    C = AdditiveCode(z4, 1, [[1, 0], [0, 2]])
    C.gram  # built with the real Smith form
    monkeypatch.setattr(codes_mod, "smith_form", lambda A: SmithDecomposition((0,), ((1, 0),)))
    with pytest.raises(InternalInvariantViolation, match=r"^rank\(C/\(C cap dual\)\) = 1 is odd$"):
        minimum_entanglement_degree(C)


def test_build_minimal_extension_packs_pairs(gr42):
    th = gr42.theta
    full = vector_code(gr42, 1, (
        SymplecticVector(gr42, (gr42.one,), (gr42.zero,)),
        SymplecticVector(gr42, (gr42.zero,), (gr42.one,)),
        SymplecticVector(gr42, (th,), (gr42.zero,)),
        SymplecticVector(gr42, (th,), (th,)),
    ))
    d = hyperbolic_decompose(full)
    assert d.c == 2  # naive pair count
    ext = full.extension
    assert ext.n - full.n == 1  # two pairs packed into one fresh coordinate
    assert is_chi_self_orthogonal(ext)
    assert same_module(puncture(ext, 1), full)


def test_minimal_extension_m1_matches_pair_count(z4):
    rng = random.Random(31)
    for _ in range(10):
        C = random_code(z4, 2, rng.randint(1, 3), rng)
        d = hyperbolic_decompose(C)
        ext = C.extension
        assert ext.n - C.n == d.c == minimum_entanglement_degree(C)


@pytest.mark.parametrize("spec,n", [((2, 2, 1), 2), ((2, 3, 1), 1), ((3, 2, 1), 1), ((2, 2, 2), 1)])
def test_extension_invariants_randomized(spec, n):
    ring = make_ring(*spec)
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(8):
        C = random_code(ring, n, rng.randint(1, 3), rng)
        d = hyperbolic_decompose(C)
        for ext in (build_extension(C), C.extension):
            assert is_chi_self_orthogonal(ext)
            assert same_module(puncture(ext, n), C)
            card = cardinality(C)
            assert card <= cardinality(ext)
            if is_free(C):
                assert cardinality(ext) == card
            # the tails read off the pairs' rows are the minimal extension's
            # subset, and pair to the pairs' exponents
            tails = tail_pairs(ext, n, len(d.isotropic))
            if ext is C.extension:
                assert tails == construct_symplectic_subset(ring, ext.n - n, d.exponents)
            assert exponents(ring, tails) == d.exponents


def test_extract_worked_shape(z4, worked):
    sub = tail_pairs(build_extension(worked), 1, 0)
    assert len(sub) == 1
    assert exponents(z4, sub) == (2,)
    # the one-pair-per-coordinate subset: (-gamma, 0) and (0, 1), gamma = 2
    assert sub[0] == ((2, 0), (0, 1))


def test_verify_quasi_symplectic(z4):
    pair = (vector(z4, [2, 0]), vector(z4, [0, 1]))
    assert verify_quasi_symplectic(z4, [pair], [])
    bad = [
        (vector(z4, [1, 0]), vector(z4, [0, 1])),
        (vector(z4, [0, 1]), vector(z4, [1, 0])),
    ]
    assert not verify_quasi_symplectic(z4, bad, [])
    # J-side: independence of mod-p reductions
    p1 = (vector(z4, [1, 0]), vector(z4, [0, 0]))
    assert verify_quasi_symplectic(z4, [p1], [0])
    p2 = (vector(z4, [2, 0]), vector(z4, [0, 0]))
    assert not verify_quasi_symplectic(z4, [p2], [0])  # reduces to 0 mod 2


def test_verify_quasi_symplectic_rejects_an_index_outside_the_pairs(z4, monkeypatch):
    """An index of J outside range(len(pairs)) raises ValueError before any
    symplectic product is formed."""
    def no_product(u, v):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(oracles, "symplectic_product", no_product)
    pair = (vector(z4, [2, 0]), vector(z4, [0, 1]))
    for pairs, J in (([], [0]), ([pair], [1]), ([pair], [0, -1])):
        with pytest.raises(ValueError, match="outside"):
            verify_quasi_symplectic(z4, pairs, J)


def test_symplectic_subset_is_quasi(z4):
    s = construct_symplectic_subset(z4, 2, [1, 3])
    assert verify_quasi_symplectic(z4, [(vector(z4, a), vector(z4, b)) for a, b in s], [])


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
    C = AdditiveCode(f2, 1, [[1, 1]])
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
    C = AdditiveCode(z8, 2, [[3, 4, 7, 1], [3, 6, 5, 6]])
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
        P = eaqecc_params(AdditiveCode(z4, len(rows[0]) // 2, rows))
        assert largest_K_over_all_tails(z4, rows, P.c) == P.K_exact
    P = eaqecc_params(AdditiveCode(z4, 1, [[2, 0], [0, 1]]))
    assert (P.c, P.card_code) == (1, 8)
    assert largest_K_over_all_tails(z4, [[2, 0], [0, 1]], 1) == P.K_upper == 2


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the minimal extension gives the order-2 generator "
                   "a unit-order tail, so C' grows past |C| (ROADMAP item 16)")
def test_minimal_extension_reaches_the_largest_K_over_all_tails(z4):
    """Z4, n = 1, gen 2 0 / gen 0 1: params reports c = 1, K_exact = 1 and
    |C'| = 16, yet a chi-self-orthogonal C' with |C'| = 8, so K = 2, exists
    among the 16^2 tails at c = 1."""
    rows = [[2, 0], [0, 1]]
    P = eaqecc_params(AdditiveCode(z4, 1, rows))
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
    as_given = eaqecc_params(AdditiveCode(z4, 3, rows))
    moved = eaqecc_params(AdditiveCode(z4, 3, rows[:1] + rows[2:] + rows[1:2]))
    assert (as_given.c, as_given.card_code) == (moved.c, moved.card_code)
    assert (as_given.K_exact, as_given.card_extended) == (moved.K_exact, moved.card_extended)


# The codes that ROADMAP items 16, 18 and 20 name, with the facts those
# items must keep: (c, K_exact, K_upper, |C|, |C'|, the verify block's
# projector dimension or skip message).  The Z16 code's K_exact is a floor
# and its |C'| a ceiling.
ROADMAP_CODES = {
    # item 16: K_upper is out of reach at c = 1 by a mod-2 argument, so
    # K = 1 is the optimum
    "Z8-no-graph": (
        "ring p=2 b=3 m=1\nn 2\ngen 1 2 4 7\ngen 0 2 2 1\ngen 0 0 4 0\ngen 0 4 0 0\n",
        (1, 1, 2, 256, 512, 1)),
    # item 18: no orthogonal split into pairs plus an isotropic part, yet
    # an extension with |C'| = |C|
    "Z8-no-split": (
        "ring p=2 b=3 m=1\nn 2\ngen 0 1 2 0\ngen 1 0 0 0\ngen 0 0 4 0\n",
        (1, 4, 4, 128, 128, 4)),
    # item 20: the fallback tried there read K = 2 against today's 4
    "Z16-fallback": (
        "ring p=2 b=4 m=1\nn 3\ngen 4 8 8 0 8 8\ngen 8 0 8 8 0 8\ngen 9 7 0 14 2 15\n"
        "gen 10 12 6 6 8 2\ngen 5 8 1 8 5 9\ngen 4 2 8 4 2 11\ngen 11 5 8 3 7 5\n",
        (3, 4, 16, 1 << 20, 1 << 22, "q^(n+c) = 16777216 exceeds the matrix cap 1024")),
}


@pytest.mark.parametrize("name", sorted(ROADMAP_CODES))
def test_roadmap_codes_keep_their_parameters(name):
    text, (c, K_exact, K_upper, card_code, card_extended, verified) = ROADMAP_CODES[name]
    ring, C = parse_code_text(text)
    rep, _ = build_report("verify", ring, C, 1 << 22, 1024)
    assert (rep["c_min"], rep["K_upper"], rep["card_code"]) == (c, K_upper, card_code)
    v = rep["verification"]
    if name == "Z16-fallback":
        assert rep["K_exact"] >= K_exact and rep["card_extended"] <= card_extended
        assert v == {"skipped": verified}
    else:
        assert (rep["K_exact"], rep["card_extended"]) == (K_exact, card_extended)
        assert v["projector_dimension"] == K_exact == verified
