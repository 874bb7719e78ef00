"""Acceptance gate: nine end-to-end criteria, one printed pass/fail line
each.  The lines are written to the unredirected stdout, so they show even
under pytest's capture."""

import contextlib
import functools
import itertools
import os
import random
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest

import eaqring
from eaqring.cli import serialize_code
from eaqring.codes import (
    AdditiveCode,
    SymplecticVector,
    cardinality,
    chi_dual_level,
    code_intersection,
    is_chi_self_orthogonal,
    is_free,
    puncture,
    same_module,
    symplectic_product,
)
from eaqring.decompose import hyperbolic_decompose, rho_profile
from eaqring.extension import (
    build_extension,
    build_minimal_extension,
    eaqecc_params,
    minimum_entanglement_degree,
)
from eaqring.galois import char_exponent, gen_trace, make_ring
from eaqring.pauli import (
    PauliOperator,
    build_stabilizer,
    omega_modulus,
    pauli_matrix,
    projector_dimension,
    psi_map,
    undetectable_error_search,
)
from eaqring.zpblinalg import quotient_rank


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL", file=sys.__stdout__, flush=True)
                raise
            print(f"[criterion {num}] PASS", file=sys.__stdout__, flush=True)
        return wrapper
    return deco


# ring label, (p, b, m), allowed lengths n with |R|^{2n} <= 2^20
CORPUS_SPECS = [
    ("F2", (2, 1, 1), (1, 2, 3, 4)),
    ("F4", (2, 1, 2), (1, 2)),
    ("Z4", (2, 2, 1), (1, 2, 3)),
    ("Z8", (2, 3, 1), (1, 2, 3)),
    ("Z9", (3, 2, 1), (1, 2, 3)),
    ("GR42", (2, 2, 2), (1,)),
]

PER_RING = 200


def random_code(ring, n, k, rng):
    gens = tuple(
        SymplecticVector.from_components(
            ring,
            [ring.element([rng.randrange(ring.modulus) for _ in range(ring.m)])
             for _ in range(2 * n)])
        for _ in range(k))
    return AdditiveCode(ring, n, gens)


@pytest.fixture(scope="module")
def corpus():
    """(label, seed, index, code) for PER_RING codes per ring; the seed is
    a checksum of the label, so the sample is the same in every process."""
    out = []
    for label, spec, lengths in CORPUS_SPECS:
        ring = make_ring(*spec)
        seed = zlib.crc32(label.encode())
        rng = random.Random(seed)
        for i in range(PER_RING):
            n = rng.choice(lengths)
            out.append((label, seed, i, random_code(ring, n, rng.randint(1, 2 * n * ring.m), rng)))
    return out


@contextlib.contextmanager
def reproducer(label, seed, i, C):
    """On a failure, print which corpus code failed, in code-file form."""
    try:
        yield
    except BaseException:
        print(f"failing corpus code: {label}, seed {seed}, index {i}\n"
              f"{serialize_code(C.ring, C)}", file=sys.__stdout__, flush=True)
        raise


@pytest.fixture(scope="module")
def decomps(corpus):
    out = []
    for label, seed, i, C in corpus:
        with reproducer(label, seed, i, C):
            out.append(hyperbolic_decompose(C))
    return out


@criterion(1)
def test_criterion_1_duality_cardinality(corpus):
    start = time.monotonic()
    for label, seed, i, C in corpus:
        with reproducer(label, seed, i, C):
            ambient = C.ring.cardinality ** (2 * C.n)
            assert ambient <= 2 ** 20
            assert cardinality(C) * cardinality(chi_dual_level(C, 0)) == ambient
    assert time.monotonic() - start <= 60.0


@criterion(2)
def test_criterion_2_decomposition(corpus, decomps):
    # hyperbolic_decompose verifies its own invariants (span preservation
    # and the pairing structure) once per code; re-check the count formula
    for (label, seed, i, C), d in zip(corpus, decomps):
        with reproducer(label, seed, i, C):
            D = code_intersection(C, chi_dual_level(C, 0))
            assert 2 * d.c == quotient_rank(C.expanded_howell, D.expanded_howell)
            k = len(d.isotropic)
            gens = d.all_generators()
            for a, g in enumerate(gens):
                for b, h in enumerate(gens):
                    partners = a >= k and b >= k and a != b and (a - k) // 2 == (b - k) // 2
                    assert (char_exponent(symplectic_product(g, h)) != 0) == partners


@criterion(3)
def test_criterion_3_extension(corpus, decomps):
    for (label, seed, i, C), d in zip(corpus, decomps):
        with reproducer(label, seed, i, C):
            card = cardinality(C)
            bound = card
            for t, r in enumerate(rho_profile(C), start=1):
                bound *= C.ring.p ** ((C.ring.b - t) * r)
            for ext in (build_extension(d), build_minimal_extension(C)):
                assert is_chi_self_orthogonal(ext.extended)
                assert same_module(puncture(ext.extended, C.n), C)
                assert card <= ext.card_extended <= bound
                if is_free(C):
                    assert ext.card_extended == card


@criterion(4)
def test_criterion_4_worked_instance():
    z4 = make_ring(2, 2, 1)
    C = AdditiveCode.from_int_rows(z4, [[1, 0], [0, 2]])
    d = hyperbolic_decompose(C)
    assert d.c == 1
    ext = build_extension(d)
    want = AdditiveCode.from_int_rows(z4, [[1, 2, 0, 0], [0, 0, 2, 1]])
    assert same_module(ext.extended, want)
    assert ext.card_extended == 16
    P = eaqecc_params(C)
    assert (P.K_exact, P.D, P.rho) == (1, 1, (2,))
    group = build_stabilizer(ext)
    assert group.size == 16
    dim_total = z4.cardinality ** ext.extended.n
    assert dim_total == 16
    assert projector_dimension(group) == dim_total // ext.card_extended == 1


def _tail_extension_exists(C, degree):
    """Direct brute force: does any assignment of tails in R^{2*degree} to
    a minimal generating set of C make every pairwise trace pairing vanish?
    Any chi-self-orthogonal extension of that degree restricts to such an
    assignment on lifted generators, and any assignment spans one."""
    ring = C.ring
    N = ring.modulus
    gens = C.minimal_generating_vectors()
    k = len(gens)
    G = [[gen_trace(symplectic_product(gens[i], gens[j])) % N for j in range(k)]
         for i in range(k)]
    dim = 2 * degree * ring.m
    tails = list(itertools.product(range(N), repeat=dim))
    nm = degree * ring.m

    def tpair(u, v):
        return sum(u[nm + i] * v[i] - v[nm + i] * u[i] for i in range(nm)) % N

    def rec(assigned):
        i = len(assigned)
        if i == k:
            return True
        for t in tails:
            if all((G[j][i] + tpair(assigned[j], t)) % N == 0 for j in range(i)):
                assigned.append(t)
                if rec(assigned):
                    return True
                assigned.pop()
        return False

    return rec([])


@criterion(5)
def test_criterion_5_minimality_z4():
    start = time.monotonic()
    z4 = make_ring(2, 2, 1)
    rng = random.Random(505)
    checked = 0
    while checked < 50:
        n = rng.choice((1, 2))
        C = random_code(z4, n, rng.randint(1, 2 * n), rng)
        c = hyperbolic_decompose(C).c
        if c == 0:
            continue
        assert not _tail_extension_exists(C, c - 1)
        checked += 1
    assert time.monotonic() - start <= 600.0


@criterion(6)
def test_criterion_6_galois_packing():
    for spec in ((2, 2, 2), (2, 1, 2)):
        ring = make_ring(*spec)
        rng = random.Random(606 + spec[1])
        for _ in range(50):
            n = rng.choice((1, 2)) if ring.b == 1 else 1
            if ring.cardinality ** (2 * n) > 2 ** 20:
                n = 1
            C = random_code(ring, n, rng.randint(1, 2 * n * ring.m), rng)
            D = code_intersection(C, chi_dual_level(C, 0))
            r = quotient_rank(C.expanded_howell, D.expanded_howell)
            degree = -(-r // (2 * ring.m))
            assert minimum_entanglement_degree(C) == degree
            ext = build_minimal_extension(C)
            assert ext.c == degree
            assert is_chi_self_orthogonal(ext.extended)


def _exists_symplectic_pairs(ring, n, npairs):
    """Exhaustive: does R^{2n} contain npairs hyperbolic pairs with all
    cross pairings character-trivial?  Expanded form over Z_{p^b}."""
    N = ring.modulus
    nm = n * ring.m
    vecs = list(itertools.product(range(N), repeat=2 * nm))
    V = len(vecs)

    def pair(u, v):
        return sum(u[nm + i] * v[i] - v[nm + i] * u[i] for i in range(nm)) % N

    orth = [0] * V
    non = [0] * V
    for i, u in enumerate(vecs):
        oi = ni = 0
        for j, v in enumerate(vecs):
            if pair(u, v):
                ni |= 1 << j
            else:
                oi |= 1 << j
        orth[i], non[i] = oi, ni

    def assign_vs(vsets, chosen):
        if not vsets:
            return True
        m = vsets[0]
        for c in chosen:
            m &= orth[c]
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            m ^= bit
            if assign_vs(vsets[1:], chosen + [v]):
                return True
        return False

    def pick_us(us, start):
        if len(us) == npairs:
            vsets = []
            for i, u in enumerate(us):
                m = non[u]
                for j, w in enumerate(us):
                    if j != i:
                        m &= orth[w]
                if not m:
                    return False
                vsets.append(m)
            return assign_vs(vsets, [])
        mask = ((1 << V) - 1) & ~((1 << start) - 1)
        for u in us:
            mask &= orth[u]
        while mask:
            bit = mask & -mask
            u = bit.bit_length() - 1
            mask ^= bit
            if non[u] and pick_us(us + [u], u + 1):
                return True
        return False

    return pick_us([], 1)


@criterion(7)
def test_criterion_7_symplectic_bounds():
    start = time.monotonic()
    z4 = make_ring(2, 2, 1)
    # n = 1: the bound forbids n + 1 = 2 pairs in Z_4^2
    assert not _exists_symplectic_pairs(z4, 1, 2)
    assert _exists_symplectic_pairs(z4, 1, 1)  # sanity: one pair exists
    gr42 = make_ring(2, 2, 2)
    # n = 1: the bound forbids nm + 1 = 3 pairs in GR(4,2)^2
    assert not _exists_symplectic_pairs(gr42, 1, 3)
    assert _exists_symplectic_pairs(gr42, 1, 2)  # sanity: nm pairs exist
    assert time.monotonic() - start <= 300.0


def _rand_op(ring, n, rng):
    mk = lambda: tuple(ring.element([rng.randrange(ring.modulus) for _ in range(ring.m)])
                       for _ in range(n))
    return PauliOperator(ring, n, rng.randrange(omega_modulus(ring)), mk(), mk())


@criterion(8)
def test_criterion_8_pauli_ground_truth():
    rng = random.Random(808)
    # commutation: 200 random operator pairs against the character criterion
    ring_dims = [(make_ring(2, 1, 1), 2), (make_ring(2, 2, 1), 1),
                 (make_ring(2, 1, 2), 1), (make_ring(2, 2, 2), 1)]
    for ring, n in ring_dims:
        for _ in range(50):
            P, Q = _rand_op(ring, n, rng), _rand_op(ring, n, rng)
            A, B = pauli_matrix(P), pauli_matrix(Q)
            commutes = np.max(np.abs(A @ B - B @ A)) <= 1e-10
            ell = char_exponent(symplectic_product(psi_map(P), psi_map(Q)))
            assert commutes == (ell == 0)
    # projector dimension and undetectable-error sets on every sampled
    # instance with q^{n+c} <= 256
    instances = 0
    for ring, nmax in [(make_ring(2, 1, 1), 2), (make_ring(2, 2, 1), 2),
                       (make_ring(2, 1, 2), 2), (make_ring(2, 2, 2), 1)]:
        for _ in range(6):
            n = rng.randint(1, nmax)
            C = random_code(ring, n, rng.randint(1, 2 * n * ring.m), rng)
            ext = build_minimal_extension(C)
            if ring.cardinality ** ext.extended.n > 256:
                continue
            group = build_stabilizer(ext)
            K = projector_dimension(group)
            assert K * ext.card_extended == ring.cardinality ** ext.extended.n
            res = undetectable_error_search(C, group)
            assert res.dimension == K
            assert res.set_matches_dual_minus_code
            P = eaqecc_params(C)
            assert P.K_exact == K
            if K == 1:
                assert P.D == res.dim1_distance
            elif P.distance_case == "dual_minus_code":
                assert P.D == res.min_weight
            instances += 1
    assert instances >= 20


@criterion(9)
def test_criterion_9_cli_determinism(tmp_path):
    z4 = make_ring(2, 2, 1)
    C = AdditiveCode.from_int_rows(z4, [[1, 0], [0, 2]])
    f = tmp_path / "worked.txt"
    f.write_text(serialize_code(z4, C))
    runner = [sys.executable, "-c", "from eaqring.cli import main; main()"]
    # the child imports the same package as this process, however it was found
    src = os.path.dirname(os.path.dirname(eaqring.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for command in ("params", "verify"):
        outs = set()
        codes = set()
        for _ in range(2):
            proc = subprocess.run(runner + [command, str(f)],
                                  capture_output=True, timeout=120, env=env)
            outs.add(proc.stdout)
            codes.add(proc.returncode)
        assert codes == {0}
        assert len(outs) == 1 and outs.pop()
