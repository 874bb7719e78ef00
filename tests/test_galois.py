"""Galois ring oracle tests: construction, Frobenius, trace, duals, phi."""

import gc
import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eaqring.galois as galois_mod
from eaqring.errors import DimensionMismatch, HPolyInvalid, InternalInvariantViolation, ParameterTooLarge
from eaqring.galois import (
    RingElement,
    _check_h_divides,
    _is_primitive_mod_p,
    gen_trace,
    make_ring,
    phi_contract,
    phi_expand,
)
from eaqring.zpblinalg import _prime_factors
from oracles import frobenius, teichmuller_decompose, teichmuller_set


def all_elements(ring):
    N = ring.modulus
    for coeffs in itertools.product(range(N), repeat=ring.m):
        yield ring.element(coeffs)


def frobenius_by_digits(z):
    """Oracle: the Frobenius as sum_t p^t z_t^p over the Teichmuller digits."""
    ring = z.ring
    out = ring.zero
    for t, d in enumerate(teichmuller_decompose(z)):
        out = out + ring.scalar(ring.p ** t) * d ** ring.p
    return out


def trace_by_frobenius(z):
    """Oracle: Tr(z) = z + f(z) + ... + f^{m-1}(z) with the digit Frobenius."""
    s = cur = z
    for _ in range(z.ring.m - 1):
        cur = frobenius_by_digits(cur)
        s = s + cur
    assert s.is_scalar()
    return s.coeffs[0]


def h_by_primitive_root(p, b):
    """Oracle: the separate m = 1 construction, h = x - t with t the
    Teichmuller lift (the fixed point of z -> z^p mod p^b) of the smallest
    primitive root mod p."""
    N = p ** b
    factors = [ell for ell in range(2, p) if (p - 1) % ell == 0 and all(ell % d for d in range(2, ell))]
    g = next(g for g in range(1, p) if all(pow(g, (p - 1) // ell, p) != 1 for ell in factors))
    t = g
    while pow(t, p, N) != t:
        t = pow(t, p, N)
    return ((-t) % N, 1)


def dual_coeffs_by_gauss_jordan(ring):
    """Oracle: Gauss-Jordan inversion of the trace form Tr(theta^{i+k}),
    pivoting on units; column j of the inverse gives the theta-coordinates
    of the j-th dual basis element."""
    m, N = ring.m, ring.modulus
    aug = [[gen_trace(ring.theta ** (i + k)) for k in range(m)] + [int(i == j) for j in range(m)]
           for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col] % ring.p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, N)
        aug[col] = [(inv * x) % N for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [(x - c * y) % N for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][m + j] for i in range(m)) for j in range(m))


def h_divides_by_division(h, p, b, m):
    """Oracle: whether h | x^{p^m - 1} - 1 over Z_{p^b}, by long division."""
    N = p ** b
    order = p ** m - 1
    rem = [0] * (order + 1)
    rem[0] = N - 1
    rem[order] = 1
    for d in range(order, m - 1, -1):
        coef = rem[d]
        if coef:
            rem[d] = 0
            for k in range(m):
                rem[d - m + k] = (rem[d - m + k] - coef * h[k]) % N
    return not any(rem)


def fresh_ring(p, b, m, h_coeffs=None):
    """A construction that bypasses ``make_ring``'s memo: it runs every step
    and returns a ring that the memo does not hold."""
    return galois_mod._make_ring.__wrapped__(p, b, m, h_coeffs)


@pytest.fixture(scope="module")
def gr42():
    return make_ring(2, 2, 2)


@pytest.fixture(scope="module")
def gr92():
    return make_ring(3, 2, 2)


def test_make_ring_canonical_polynomials(gr42):
    assert gr42.h_coeffs == (1, 1, 1)  # x^2 + x + 1 over Z_4
    z4 = make_ring(2, 2, 1)
    assert z4.h_coeffs == (3, 1)  # x - 1 is the only degree-1 divisor of x - 1
    f4 = make_ring(2, 1, 2)
    assert (f4.p, f4.b, f4.m) == (2, 1, 2)
    assert f4.h_coeffs == (1, 1, 1)
    z9 = make_ring(3, 2, 1)
    assert z9.h_coeffs == (1, 1)  # x - 8: Teichmuller lift of the root 2


M1_RINGS = [(p, b, 1) for p in range(2, 200) if all(p % d for d in range(2, p))
            for b in range(1, 32) if p ** b <= 2 ** 31]
M2_RINGS = [(2, 1, 2), (2, 2, 2), (2, 3, 2), (3, 1, 2), (3, 2, 2), (5, 1, 2), (5, 2, 2), (7, 1, 2),
            (2, 1, 3), (2, 2, 3), (3, 1, 3), (2, 1, 4), (2, 2, 4), (3, 1, 4)]


def test_one_construction_matches_the_oracles():
    """Every ring, m = 1 included, comes from the one Teichmuller lift, and
    its dual basis from one Howell form: the same h as the primitive-root
    construction on every m = 1 ring with p < 200 and p^b <= 2^31, and the
    same dual basis as Gauss-Jordan there and on rings with m = 2..4."""
    assert len(M1_RINGS) == 272
    for spec in M1_RINGS + M2_RINGS:
        ring = make_ring(*spec)
        if ring.m == 1:
            assert ring.h_coeffs == h_by_primitive_root(ring.p, ring.b), spec
        assert ring._dual_coeffs == dual_coeffs_by_gauss_jordan(ring), spec


def hbar_by_full_search(p, m):
    """Oracle: the first primitive hbar over every constant term, with no
    filter: x - r over r = 1, 2, ..., p - 1 for m = 1, and for m >= 2 the
    lexicographic order with the constant term most significant."""
    factors = _prime_factors(p ** m - 1)
    tails = (((-r) % p,) for r in range(1, p)) if m == 1 else itertools.product(range(p), repeat=m)
    return next(h for h in (t + (1,) for t in tails) if _is_primitive_mod_p(h, p, m, factors))


SMALL_PRIMES = [p for p in range(2, 32) if all(p % d for d in range(2, p))]
SEARCH_FIELDS = [(p, m) for p in SMALL_PRIMES for m in range(1, 11) if p ** m <= 2000]


def test_candidate_filter_keeps_the_full_search_order():
    """Walking only constant terms that are (-1)^m times a primitive root
    mod p finds the same hbar as the unfiltered search, on every ring with
    p <= 31, p^m <= 2000 and b in {1, 2}."""
    assert len(SEARCH_FIELDS) == 38
    for p, m in SEARCH_FIELDS:
        hbar = hbar_by_full_search(p, m)
        for b in (1, 2):
            assert tuple(c % p for c in make_ring(p, b, m).h_coeffs) == hbar, (p, b, m)


@pytest.mark.parametrize("spec", [(3, 1, 10), (3, 1, 12), (3, 1, 19), (7, 1, 6), (2, 1, 31),
                                  (46337, 1, 2), (1289, 1, 3)])
def test_make_ring_tests_few_candidates(monkeypatch, spec):
    """Rings whose unfiltered search tests tens of thousands of candidates
    or more (every tail of constant term 0 first): the filtered one tests
    at most 100.  Counted on a fresh construction, since a memoized ring
    tests none."""
    calls = []
    orig = galois_mod._is_primitive_mod_p
    monkeypatch.setattr(galois_mod, "_is_primitive_mod_p", lambda *a: calls.append(a) or orig(*a))
    ring = fresh_ring(*spec)
    assert (ring.p, ring.b, ring.m) == spec
    assert 0 < len(calls) <= 100
    assert ring == make_ring(*spec)


def test_make_ring_returns_one_shared_ring():
    """Equal arguments, h as a list or a tuple, give the identical ring, so
    every code over it shares its trace and dual-basis tables."""
    ring = make_ring(3, 2, 2)
    assert make_ring(3, 2, 2) is ring
    assert make_ring(3, 2, 2, list(ring.h_coeffs)) is make_ring(3, 2, 2, tuple(ring.h_coeffs))
    assert make_ring(3, 2, 2, ring.h_coeffs) == ring
    fresh = fresh_ring(3, 2, 2)
    assert fresh == ring and fresh is not ring
    assert (ring.modulus, ring.cardinality) == (9, 81)


def test_make_ring_keys_h_mod_p_to_the_b(monkeypatch):
    """Every h equal mod p^b gives the identical ring, built once: over
    GR(4, 2), (5, 5, 1) and (-3, 1, -7) reduce to (1, 1, 1).  An h that
    is invalid mod p^b raises on every call, however it is written."""
    ring = make_ring(2, 2, 2, [1, 1, 1])
    calls = []
    orig = galois_mod._check_h_divides
    monkeypatch.setattr(galois_mod, "_check_h_divides", lambda *a: calls.append(a) or orig(*a))
    assert make_ring(2, 2, 2, [5, 5, 1]) is ring and make_ring(2, 2, 2, (-3, 1, -7)) is ring
    assert calls == []
    for _ in range(3):
        with pytest.raises(HPolyInvalid, match="^h does not divide"):
            make_ring(2, 2, 2, [7, 5, 5])  # (3, 1, 1): primitive mod 2, the wrong lift
    assert len(calls) == 3


def test_make_ring_caches_no_raising_call(monkeypatch):
    """An invalid h raises on every call, and a failed construction leaves
    nothing behind: the next call with the same arguments runs again."""
    for _ in range(3):
        with pytest.raises(HPolyInvalid):
            make_ring(2, 2, 2, [1, 0, 1])
        with pytest.raises(HPolyInvalid):
            make_ring(2, 2, 2, (3, 1, 1))
    calls = []
    orig = galois_mod._is_primitive_mod_p
    monkeypatch.setattr(galois_mod, "_is_primitive_mod_p", lambda *a: calls.append(a) or orig(*a))
    for _ in range(2):
        with pytest.raises(HPolyInvalid):
            make_ring(2, 2, 3, [1, 0, 0, 1])
    assert len(calls) == 2


def patch_poly_pow(monkeypatch, exponent, result):
    """Make ``_poly_pow_mod`` return ``result(a, N)`` for one exponent and
    compute every other power as before."""
    orig = galois_mod._poly_pow_mod
    monkeypatch.setattr(galois_mod, "_poly_pow_mod", lambda a, e, h, N:
                        result(tuple(a), N) if e == exponent else orig(a, e, h, N))


def test_each_ring_construction_check_fires(monkeypatch):
    """Each of the five checks of the construction of GR(4, 2) raises on a
    fresh construction once an upstream helper is broken.  Its
    Teichmuller iteration powers by p^m = 4 and its conjugates by p = 2."""
    with monkeypatch.context() as mp:
        mp.setattr(galois_mod, "_is_primitive_mod_p", lambda *a: False)
        with pytest.raises(InternalInvariantViolation, match="^no primitive polynomial found$"):
            fresh_ring(2, 2, 2)
    with monkeypatch.context() as mp:
        patch_poly_pow(mp, 4, lambda a, N: tuple((c + 1) % N for c in a))  # never a fixed point
        with pytest.raises(InternalInvariantViolation, match="^Teichmuller iteration did not converge$"):
            fresh_ring(2, 2, 2)
    with monkeypatch.context() as mp:
        patch_poly_pow(mp, 2, lambda a, N: a)  # every conjugate is theta: h = (x - theta)^2
        with pytest.raises(InternalInvariantViolation, match="^lifted polynomial has non-scalar coefficients$"):
            fresh_ring(2, 2, 2)
    with monkeypatch.context() as mp:
        patch_poly_pow(mp, 4, lambda a, N: (1, 0))  # the iteration settles on 1: h = (x - 1)^2
        with pytest.raises(InternalInvariantViolation, match="^lifted polynomial does not reduce to hbar$"):
            fresh_ring(2, 2, 2)
    ring = fresh_ring(2, 2, 2)
    with monkeypatch.context() as mp:
        mp.setattr(galois_mod, "howell_form", lambda M: M)  # [gram | I] left unreduced
        with pytest.raises(InternalInvariantViolation, match="^the trace form is not invertible$"):
            ring._dual_coeffs
    assert ring._dual_coeffs == make_ring(2, 2, 2)._dual_coeffs


def test_make_ring_errors():
    with pytest.raises(ParameterTooLarge):
        make_ring(2, 16, 2)
    with pytest.raises(ValueError):
        make_ring(4, 1, 1)
    with pytest.raises(HPolyInvalid):
        make_ring(2, 2, 2, h_coeffs=[1, 0, 1])  # x^2+1 = (x+1)^2 mod 2
    with pytest.raises(HPolyInvalid):
        make_ring(2, 2, 2, h_coeffs=[3, 1, 1])  # primitive mod 2, wrong lift
    # the canonical h round-trips through explicit validation
    ring = make_ring(2, 2, 2, h_coeffs=[1, 1, 1])
    assert ring == make_ring(2, 2, 2)


def test_teichmuller_set(gr42, gr92):
    for ring in (gr42, gr92, make_ring(2, 2, 1), make_ring(3, 2, 1)):
        T = teichmuller_set(ring)
        order = ring.p ** ring.m - 1
        assert len(T) == ring.p ** ring.m
        assert T[0] == ring.zero and T[1] == ring.one
        for t in T[1:]:
            assert t ** order == ring.one
        if order > 1:
            beta = T[2]
            assert all(beta ** d != ring.one for d in range(1, order))


def test_ring_mul_examples(gr42):
    th = gr42.theta
    assert (th * th).coeffs == (3, 3)  # theta^2 = -theta - 1 over Z_4
    for a in list(all_elements(gr42))[:8]:
        assert a * gr42.one == a
        assert a * gr42.zero == gr42.zero
        assert a + (-a) == gr42.zero


def test_ring_power_rejects_negative_exponents(gr42):
    th = gr42.theta
    assert th ** 0 == gr42.one and th ** 3 == th * th * th
    with pytest.raises(ValueError, match="negative"):
        th ** -1


def test_teichmuller_decompose_examples(gr42):
    assert teichmuller_decompose(gr42.zero) == (gr42.zero, gr42.zero)
    assert teichmuller_decompose(gr42.scalar(2)) == (gr42.zero, gr42.one)
    th = gr42.theta
    assert teichmuller_decompose(th) == (th, gr42.zero)


def test_teichmuller_decompose_roundtrip(gr42, gr92):
    for ring in (gr42, gr92):
        p, T = ring.p, teichmuller_set(ring)
        for z in all_elements(ring):
            digits = teichmuller_decompose(z)
            assert len(digits) == ring.b
            assert all(d in T for d in digits)
            acc = ring.zero
            for t, d in enumerate(digits):
                acc = acc + ring.scalar(p ** t) * d
            assert acc == z


def test_frobenius_examples(gr42):
    th = gr42.theta
    assert frobenius(gr42.one) == gr42.one
    assert frobenius(th) == th * th
    assert frobenius(th).coeffs == (3, 3)


@pytest.mark.parametrize("ringname", ["gr42", "gr92"])
def test_frobenius_is_automorphism(ringname, request):
    ring = request.getfixturevalue(ringname)
    elems = list(all_elements(ring))
    images = {frobenius(z).coeffs for z in elems}
    assert len(images) == len(elems)
    for u, v in itertools.product(elems[: len(elems)], repeat=2) if len(elems) <= 16 \
            else random.Random(3).sample(list(itertools.product(elems, repeat=2)), 400):
        assert frobenius(u * v) == frobenius(u) * frobenius(v)
        assert frobenius(u + v) == frobenius(u) + frobenius(v)
    for z in elems:
        cur = z
        for _ in range(ring.m):
            cur = frobenius(cur)
        assert cur == z
        # Frobenius fixes the Z_{p^b} subring
    for c in range(ring.modulus):
        assert frobenius(ring.scalar(c)) == ring.scalar(c)


@pytest.mark.parametrize("spec", [(2, 2, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2), (3, 2, 2), (2, 3, 2),
                                  (2, 1, 3), (2, 3, 3), (5, 2, 2), (2, 2, 4)])
def test_frobenius_matches_teichmuller_digits(spec):
    ring = make_ring(*spec)
    rng = random.Random(13)
    for _ in range(200):
        z = ring.element([rng.randrange(ring.modulus) for _ in range(ring.m)])
        assert frobenius(z) == frobenius_by_digits(z)


@pytest.mark.parametrize("spec", [(2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 2), (2, 1, 5)])
def test_gen_trace_matches_frobenius_sum(spec):
    ring = make_ring(*spec)
    for z in all_elements(ring):
        assert gen_trace(z) == trace_by_frobenius(z)


@pytest.mark.parametrize("spec", [(2, 2, 1), (3, 2, 1), (5, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2),
                                  (2, 2, 3), (2, 1, 4)])
def test_h_check_matches_division(spec):
    """Every single-coefficient change of the canonical h: the
    square-and-multiply check rejects exactly the non-divisors."""
    p, b, m = spec
    h = make_ring(*spec).h_coeffs
    for i in range(m):
        for v in range(p ** b):
            cand = h[:i] + (v,) + h[i + 1:]
            try:
                _check_h_divides(cand, p, b, m)
                accepted = True
            except HPolyInvalid:
                accepted = False
            assert accepted == h_divides_by_division(cand, p, b, m), cand


@pytest.mark.parametrize("spec", [(2, 1, 16), (1000003, 1, 1)])
def test_ring_layer_allocates_nothing_of_size_p_to_the_m(spec):
    """Construction, trace, dual basis and Frobenius stay far below p^m
    bytes; only the Teichmuller table is that large."""
    tracemalloc.start()
    try:
        ring = make_ring(*spec)
        ring.tr_powers, ring._dual_coeffs, frobenius(ring.theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # no cache on the ring holds a p^m-element table
    assert all(len(v) < ring.p ** ring.m for v in vars(ring).values() if hasattr(v, "__len__"))


def test_gen_trace_examples(gr42):
    assert gen_trace(gr42.one) == 2
    assert gen_trace(gr42.theta) == 3
    assert gen_trace(gr42.zero) == 0
    z4 = make_ring(2, 2, 1)
    for c in range(4):
        assert gen_trace(z4.scalar(c)) == c


@pytest.mark.parametrize("ringname", ["gr42", "gr92"])
def test_gen_trace_properties(ringname, request):
    ring = request.getfixturevalue(ringname)
    N = ring.modulus
    elems = list(all_elements(ring))
    # Z_{p^b}-linearity
    rng = random.Random(5)
    for _ in range(100):
        u, v = rng.choice(elems), rng.choice(elems)
        e = rng.randrange(N)
        assert gen_trace(u + v) == (gen_trace(u) + gen_trace(v)) % N
        assert gen_trace(ring.scalar(e) * u) == (e * gen_trace(u)) % N
    # surjectivity
    assert {gen_trace(z) for z in elems} == set(range(N))
    # nondegeneracy of the generating character
    for r in elems:
        if r:
            assert any(gen_trace(r * s) != 0 for s in elems)


def test_generating_character(gr42):
    elems = list(all_elements(gr42))
    N = gr42.modulus
    for u, v in random.Random(1).sample(list(itertools.product(elems, repeat=2)), 60):
        assert gen_trace(u + v) == (gen_trace(u) + gen_trace(v)) % N


def dual_basis(ring):
    """The dual basis of {1, theta, ..., theta^{m-1}} as ring elements."""
    return [RingElement(ring, c) for c in ring._dual_coeffs]


def test_dual_basis_example(gr42):
    g = dual_basis(gr42)
    assert g[0].coeffs == (3, 1)
    assert g[1].coeffs == (1, 2)


@pytest.mark.parametrize("spec", [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 3, 2)])
def test_dual_basis_defining_property(spec):
    ring = make_ring(*spec)
    g = dual_basis(ring)
    pw = ring.one
    for i in range(ring.m):
        for j in range(ring.m):
            assert gen_trace(pw * g[j]) == (1 if i == j else 0)
        pw = pw * ring.theta


def symplectic_exponent(ring, u, v):
    """Trace of <u|v>_s = sum(b_i a'_i - b'_i a_i), computed ring-side."""
    n = len(u) // 2
    acc = ring.zero
    for i in range(n):
        acc = acc + u[n + i] * v[i] - v[n + i] * u[i]
    return gen_trace(acc)


@pytest.mark.parametrize("spec", [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 1, 2), (2, 1, 3)])
def test_phi_pairing_preservation(spec):
    ring = make_ring(*spec)
    N = ring.modulus
    elems = list(all_elements(ring))
    rng = random.Random(9)
    for _ in range(150):
        n = rng.choice([1, 2])
        u = [rng.choice(elems) for _ in range(2 * n)]
        v = [rng.choice(elems) for _ in range(2 * n)]
        fu, fv = phi_expand(u), phi_expand(v)
        assert len(fu) == 2 * n * ring.m
        nm = n * ring.m
        flat = sum(fu[nm + i] * fv[i] - fv[nm + i] * fu[i] for i in range(nm)) % N
        assert flat == symplectic_exponent(ring, u, v)


def test_phi_rejects_wrong_lengths_as_a_dimension_mismatch():
    z4, gr42 = make_ring(2, 2, 1), make_ring(2, 2, 2)
    with pytest.raises(DimensionMismatch, match="even"):
        phi_expand([z4.one])
    with pytest.raises(DimensionMismatch, match="multiple of 2m"):
        phi_contract(gr42, (1, 0, 0))


@pytest.mark.parametrize("spec", [(2, 2, 1), (2, 2, 2), (3, 2, 2)])
def test_phi_roundtrip(spec):
    ring = make_ring(*spec)
    elems = list(all_elements(ring))
    rng = random.Random(11)
    for _ in range(50):
        v = [rng.choice(elems) for _ in range(4)]
        assert list(phi_contract(ring, phi_expand(v))) == v


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2), (5, 1, 2), (2, 1, 4)]), st.data())
def test_ring_axioms(spec, data):
    ring = make_ring(*spec)
    N = ring.modulus
    draw = lambda: ring.element([data.draw(st.integers(0, N - 1)) for _ in range(ring.m)])
    a, b, c = draw(), draw(), draw()
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


def test_ring_is_freed_without_the_cyclic_collector():
    """The ring caches plain integers only, so dropping the last reference
    frees it by reference counting alone.  Checked on a ring that
    ``make_ring``'s memo does not hold."""
    gc.disable()
    try:
        ring = fresh_ring(2, 2, 3)
        v = (ring.element([1, 2, 3]), ring.theta, ring.one, ring.zero)
        assert phi_contract(ring, phi_expand(v)) == v
        assert len(ring._dual_coeffs) == 3
        assert len(teichmuller_decompose(ring.element([1, 2, 3]))) == 2
        ref = weakref.ref(ring)
        del ring, v
        assert ref() is None
    finally:
        gc.enable()
