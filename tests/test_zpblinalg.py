"""Oracle tests for the exact Z_{p^b} linear algebra layer.

Brute-force spans (additive closure of the generator rows) are the ground
truth that Howell/Smith/kernel/intersection outputs are checked against.
Kernels and intersections are also checked, basis for basis, against a
second route through a Smith form with its left transform, and the Smith
form's minimal generators, row for row, against its column transform.
"""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqring.codes import AdditiveCode, min_symplectic_distance
from eaqring.errors import (
    DimensionMismatch,
    NoSolution,
    NotContained,
    ParameterTooLarge,
    SearchLimitExceeded,
)
from eaqring.galois import make_ring
import eaqring.zpblinalg as zpb_mod
from eaqring.zpblinalg import (
    BLOCK,
    ZpbMatrix,
    check_ring_size,
    enumerate_module,
    howell_form,
    howell_member,
    intersect,
    kernel,
    lane_adder,
    lane_width,
    packed_blocks,
    quotient_rank,
    smith_form,
    solve_congruence,
    unpack,
)


def span_set(p, b, rows, cols):
    """Additive closure of the rows: the exact row module, as a set."""
    N = p ** b
    zero = tuple([0] * cols)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(x % N for x in r) for r in rows]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((v[i] + g[i]) % N for i in range(cols))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def mat(p, b, rows, cols=None):
    return ZpbMatrix.from_rows(p, b, rows, cols=cols)


def mat_mul(X, Y):
    """X * Y over Z_{p^b}, as rows."""
    N = X.modulus
    return [[sum(X.rows[i][k] * Y.rows[k][j] for k in range(X.cols)) % N for j in range(Y.cols)]
            for i in range(len(X.rows))]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_oracle(A):
    """Smith exponents of A with both transforms, by minimal-valuation
    pivoting: U carries every row operation and right accumulates the
    inverse of every column operation, so U * A = diag(p^{e_i}) * right
    with U and right unimodular."""
    p, b, N = A.p, A.b, A.modulus
    nr, nc = len(A.rows), A.cols
    D, U, right = [list(r) for r in A.rows], identity(nr), identity(nc)
    exps = []
    for k in range(min(nr, nc)):
        cands = [(zpb_mod._val(D[i][j], p, b), i, j)
                 for i in range(k, nr) for j in range(k, nc) if D[i][j]]
        if not cands:
            break
        v, bi, bj = min(cands)
        D[k], D[bi], U[k], U[bi] = D[bi], D[k], U[bi], U[k]
        for row in D:
            row[k], row[bj] = row[bj], row[k]
        right[k], right[bj] = right[bj], right[k]
        uinv = pow(D[k][k] // p ** v, -1, N)
        D[k] = [uinv * x % N for x in D[k]]
        U[k] = [uinv * x % N for x in U[k]]
        for i in range(k + 1, nr):
            coef = D[i][k] // p ** v
            D[i] = [(x - coef * y) % N for x, y in zip(D[i], D[k])]
            U[i] = [(x - coef * y) % N for x, y in zip(U[i], U[k])]
        for j in range(k + 1, nc):
            coef = D[k][j] // p ** v
            right[k] = [(x + coef * y) % N for x, y in zip(right[k], right[j])]
        exps.append(v)
    return exps, U, mat(p, b, right, cols=nc)


def smith_cardinality(A):
    """|row module of A| = prod p^(b - e_i) over its Smith exponents."""
    return math.prod(A.p ** (A.b - e) for e in smith_form(A).diag_exponents)


def smith_kernel(A):
    """Oracle kernel: in Smith coordinates it is spanned by p^{b-e_i} e_i
    for e_i > 0 and by e_i beyond the diagonal; x = y * U pulls it back."""
    p, b, N = A.p, A.b, A.modulus
    exps, U, _ = smith_oracle(A)
    xrows = [[p ** (b - e) * x % N for x in U[i]] for i, e in enumerate(exps) if e > 0]
    xrows += U[len(exps):]
    return howell_form(mat(p, b, xrows, cols=len(A.rows)))


def smith_intersect(M1, M2):
    """Oracle intersection: the kernel K of M1 stacked on M2 gives the
    common elements k_1 * M1 = -k_2 * M2."""
    p, b, N, cols = M1.p, M1.b, M1.modulus, M1.cols
    if not M1.rows or not M2.rows:
        return howell_form(mat(p, b, [], cols=cols))
    K = smith_kernel(mat(p, b, M1.rows + M2.rows, cols=cols))
    out = [[sum(k[t] * M1.rows[t][j] for t in range(len(M1.rows))) % N for j in range(cols)]
           for k in K.rows]
    return howell_form(mat(p, b, out, cols=cols))


ORACLE_RINGS = [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]  # F2 Z4 Z8 Z9 Z25 Z27


def seeded_matrices(p, b, seed, count):
    """Random matrices with up to 5 rows, some rows zero, some 0-row."""
    N = p ** b
    rng = random.Random(seed)
    for _ in range(count):
        nr, nc = rng.randint(0, 5), rng.randint(1, 4)
        rows = [[rng.randrange(N) for _ in range(nc)] for _ in range(nr)]
        for r in rows:
            if rng.random() < 0.2:
                r[:] = [0] * nc
            elif rng.random() < 0.3:  # a non-unit row
                r[:] = [p * x % N for x in r]
        yield mat(p, b, rows, cols=nc)


CASES = [
    (2, 2, [[1, 0], [0, 2]]),
    (2, 2, [[2, 2], [0, 2], [2, 0]]),
    (2, 3, [[4, 2], [2, 1]]),
    (3, 2, [[3, 6], [0, 3]]),
    (2, 2, [[1, 2, 3], [2, 0, 2]]),
    (3, 1, [[1, 2], [2, 1]]),
    (2, 2, [[0, 0], [0, 0]]),
]


@pytest.mark.parametrize("p,b,rows", CASES)
def test_howell_preserves_span(p, b, rows):
    cols = len(rows[0])
    H = howell_form(mat(p, b, rows))
    assert span_set(p, b, H.rows, cols) == span_set(p, b, rows, cols)


@pytest.mark.parametrize("p,b,rows", CASES)
def test_howell_canonical(p, b, rows):
    cols = len(rows[0])
    N = p ** b
    H = howell_form(mat(p, b, rows))
    # idempotent
    H2 = howell_form(H)
    assert H2.rows == H.rows and H2.pivots == H.pivots
    # invariant under span-preserving generator changes
    rng = random.Random(7)
    units = [u for u in range(1, N) if u % p != 0]
    for _ in range(8):
        perm = rows[:]
        rng.shuffle(perm)
        u0 = rng.choice(units)
        out = [[(u0 * x) % N for x in perm[0]]]
        for r in perm[1:]:
            u = rng.choice(units)
            other = rng.choice(out)
            c = rng.randrange(N)
            out.append([(u * r[i] + c * other[i]) % N for i in range(cols)])
        H3 = howell_form(mat(p, b, out, cols=cols))
        assert H3.rows == H.rows


@pytest.mark.parametrize("p,b,rows", CASES)
def test_howell_member_matches_span(p, b, rows):
    cols = len(rows[0])
    N = p ** b
    H = howell_form(mat(p, b, rows))
    members = span_set(p, b, rows, cols)
    for v in itertools.product(range(N), repeat=cols):
        assert howell_member(H, v) == (v in members)


@pytest.mark.parametrize("p,b,rows", CASES)
def test_smith_factorization(p, b, rows):
    cols = len(rows[0])
    A = mat(p, b, rows)
    sd = smith_form(A)
    exps, _, right = smith_oracle(A)
    assert list(sd.diag_exponents) == exps
    D = mat(p, b, [[p ** exps[i] if i == j < len(exps) else 0 for j in range(A.cols)]
                   for i in range(len(exps))], cols=A.cols)
    # the oracle's rows p^{e_i} * right_i span the row module of A, and so
    # do the kept generators, which are those rows
    assert howell_form(mat(p, b, mat_mul(D, right), cols=A.cols)) == howell_form(A)
    assert howell_form(mat(p, b, sd.generators, cols=A.cols)) == howell_form(A)
    # right is unimodular: it spans the whole free module
    assert (len(right.rows), right.cols) == (A.cols, A.cols)
    assert list(map(list, howell_form(right).rows)) == identity(A.cols)
    assert list(sd.diag_exponents) == sorted(sd.diag_exponents)
    assert all(e < b for e in sd.diag_exponents)
    assert smith_cardinality(A) == len(span_set(p, b, rows, cols))


@pytest.mark.parametrize("p,b,rows", CASES)
def test_minimal_generators_span(p, b, rows):
    cols = len(rows[0])
    sd = smith_form(mat(p, b, rows))
    gens = sd.generators
    assert span_set(p, b, gens, cols) == span_set(p, b, rows, cols)
    assert len(gens) == len(sd.diag_exponents)


@pytest.mark.parametrize("p,b", ORACLE_RINGS)
def test_minimal_generators_match_the_column_transform_oracle(p, b):
    """The Smith form keeps only its row operations, yet its minimal
    generators are, row for row, p^{e_i} * right_i of the Smith form with
    the column transform: 60 seeded matrices per ring, with zero rows, 0-row
    matrices and more rows than columns."""
    N = p ** b
    mats = list(seeded_matrices(p, b, 20 * p + b, 60))
    assert any(len(A.rows) > A.cols for A in mats)
    assert any(len(A.rows) == 0 for A in mats)
    assert any(not any(r) for A in mats for r in A.rows)
    for A in mats:
        exps, _, right = smith_oracle(A)
        sd = smith_form(A)
        assert list(sd.diag_exponents) == exps
        assert list(sd.generators) == [tuple(p ** e * x % N for x in right.rows[i])
                                       for i, e in enumerate(exps)]


def test_module_rank_examples():
    def exponents(p, b, rows):
        return smith_form(mat(p, b, rows)).diag_exponents
    # the rank (size of a minimal generating set) is the number of Smith factors
    assert len(exponents(2, 2, [[1, 0], [0, 2]])) == 2
    assert len(exponents(2, 2, [[2, 0], [0, 2], [2, 2]])) == 2
    assert len(exponents(2, 2, [[0, 0]])) == 0
    assert len(exponents(3, 2, [[1, 2], [2, 4]])) == 1
    # free iff every factor is a unit
    assert exponents(2, 2, [[1, 0], [0, 1]]) == (0, 0)
    assert exponents(2, 2, [[1, 0], [0, 2]]) == (0, 1)


@pytest.mark.parametrize("p,b,rows", CASES)
def test_kernel_exact(p, b, rows):
    A = mat(p, b, rows)
    N = p ** b
    K = kernel(A)
    truth = set()
    for x in itertools.product(range(N), repeat=len(A.rows)):
        prod = [sum(x[i] * A.rows[i][j] for i in range(len(A.rows))) % N
                for j in range(A.cols)]
        if not any(prod):
            truth.add(x)
    assert span_set(p, b, K.rows, len(A.rows)) == truth


def test_intersect_exact():
    cases = [
        (2, 2, [[1, 0]], [[0, 1]]),
        (2, 2, [[1, 2]], [[2, 0], [0, 2]]),
        (2, 2, [[1, 0], [0, 2]], [[2, 2]]),
        (3, 2, [[3, 0], [0, 1]], [[1, 1]]),
        (2, 3, [[2, 4]], [[4, 0], [0, 4]]),
    ]
    for p, b, r1, r2 in cases:
        cols = len(r1[0])
        H = intersect(howell_form(mat(p, b, r1)), howell_form(mat(p, b, r2)))
        truth = span_set(p, b, r1, cols) & span_set(p, b, r2, cols)
        assert span_set(p, b, H.rows, cols) == truth


@pytest.mark.parametrize("p,b", ORACLE_RINGS)
def test_kernel_and_intersect_match_the_smith_route(p, b):
    """kernel and intersect, read off one Howell form of an augmented
    matrix, equal the Smith-route Howell bases exactly, matrix and pivots,
    including zero rows, 0-row matrices and the zero module."""
    mats = list(seeded_matrices(p, b, 10 * p + b, 60))
    for A in mats:
        assert kernel(A) == smith_kernel(A)
    zero = howell_form(ZpbMatrix(p, b, 3, ()))
    by_cols = {}
    for A in mats:
        by_cols.setdefault(A.cols, []).append(howell_form(A))
    N = p ** b
    for group in by_cols.values():
        for M1, M2 in zip(group, group[1:] + group[:1]):
            assert intersect(M1, M2) == smith_intersect(M1, M2)
            # M2 plus p * M1: a meet that is neither side nor zero
            mixed = list(M2.rows) + [[p * x % N for x in r] for r in M1.rows]
            M3 = howell_form(mat(p, b, mixed, cols=M1.cols))
            assert intersect(M1, M3) == smith_intersect(M1, M3)
    for A in mats:
        if A.cols == 3:
            H = howell_form(A)
            assert intersect(H, zero) == intersect(zero, H) == zero
            assert intersect(H, H) == H


def test_module_operations_make_no_smith_form(monkeypatch):
    """kernel, intersect and enumerate_module run on Howell forms only."""
    def refuse(A):
        raise AssertionError("smith_form called")
    monkeypatch.setattr(zpb_mod, "smith_form", refuse)
    rows = [[2, 1, 0], [1, 3, 2], [3, 0, 2]]
    A = mat(2, 2, rows)
    H, H2 = howell_form(A), howell_form(mat(2, 2, [[2, 0, 0], [0, 2, 0]]))
    assert kernel(A) == smith_kernel(A) and kernel(A).cardinality > 1
    assert intersect(H, H2) == smith_intersect(H, H2) and len(intersect(H, H2).rows) > 0
    assert set(enumerate_module(H)) == span_set(2, 2, rows, 3)


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(howell_form(mat(2, 2, [[1, 0]])), howell_form(mat(2, 2, [[1, 0, 0]])))


def test_quotient_rank_examples():
    full = howell_form(mat(2, 2, [[1, 0], [0, 1]]))
    zero = howell_form(ZpbMatrix(2, 2, 2, ()))
    assert quotient_rank(full, zero) == 2
    assert quotient_rank(full, howell_form(mat(2, 2, [[2, 0], [0, 2]]))) == 2
    assert quotient_rank(full, full) == 0
    sub = howell_form(mat(2, 2, [[2, 0]]))
    assert quotient_rank(sub, zero) == 1
    assert quotient_rank(full, howell_form(mat(2, 2, [[1, 0]]))) == 1
    with pytest.raises(NotContained):
        quotient_rank(sub, full)


@pytest.mark.parametrize("p,b,rows", CASES)
def test_quotient_rank_against_counting(p, b, rows):
    cols = len(rows[0])
    N = p ** b
    M = howell_form(mat(p, b, rows))
    zero = howell_form(ZpbMatrix(p, b, cols, ()))
    pm = span_set(p, b, [[(p * x) % N for x in r] for r in rows], cols)
    expected = 0
    ratio = len(span_set(p, b, rows, cols)) // len(pm)
    while ratio > 1:
        ratio //= p
        expected += 1
    assert quotient_rank(M, zero) == expected


def test_solve_congruence():
    for lhs, rhs, n in [(2, 2, 4), (2, 0, 4), (3, 1, 4), (0, 0, 9), (6, 3, 9), (4, 4, 8), (2, 6, 8)]:
        u = solve_congruence(lhs, rhs, n)
        assert (lhs * u - rhs) % n == 0
        assert all((lhs * v - rhs) % n != 0 for v in range(u))
    with pytest.raises(NoSolution):
        solve_congruence(2, 1, 4)
    with pytest.raises(NoSolution):
        solve_congruence(0, 3, 9)
    with pytest.raises(NoSolution):
        solve_congruence(6, 2, 9)


@pytest.mark.parametrize("p,b,rows", CASES)
def test_enumerate_module(p, b, rows):
    cols = len(rows[0])
    H = howell_form(mat(p, b, rows))
    truth = span_set(p, b, rows, cols)
    elems = list(enumerate_module(H))
    assert len(elems) == len(set(elems)) == len(truth)
    assert set(elems) == truth


ANNIHILATOR_CASES = [
    (2, 2, [[2, 1]]),
    (2, 3, [[4, 2, 1]]),
    (3, 2, [[3, 1]]),
    (2, 2, [[2, 1, 0], [0, 2, 3]]),
]


@pytest.mark.parametrize("p,b,rows", ANNIHILATOR_CASES)
def test_enumerate_module_with_annihilator_rows(p, b, rows):
    """Howell forms with more rows than generators (Z4 [[2, 1]] gives
    [[2, 1], [0, 2]]): every element still comes out exactly once."""
    cols = len(rows[0])
    H = howell_form(mat(p, b, rows))
    assert len(H.rows) > len(rows)
    elems = list(enumerate_module(H))
    assert len(elems) == len(set(elems)) == H.cardinality
    assert set(elems) == span_set(p, b, rows, cols)


def test_is_prime_matches_trial_division():
    """``check_ring_size``'s primality test, on b = m = 1: it passes the
    primes and raises ValueError on the rest, below 20,000 and at 2^31 - 1;
    2^31 + 1 is past the cap on p."""
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    def passes(p):
        try:
            check_ring_size(p, 1)
        except ValueError as e:
            assert str(e) == f"p = {p} is not prime"
            return False
        return True

    assert [p for p in range(-2, 20000) if passes(p)] == [
        p for p in range(-2, 20000) if trial(p)]
    assert passes(2 ** 31 - 1)
    with pytest.raises(ParameterTooLarge):
        check_ring_size(2 ** 31 + 1, 1)
    # Carmichael numbers, then strong pseudoprimes to base 2
    for composite in (561, 1105, 1729, 2047, 3277, 4033):
        assert not passes(composite)


def test_enumerate_module_deterministic():
    H = howell_form(mat(2, 2, [[1, 2], [0, 2]]))
    a = list(enumerate_module(H))
    b = list(enumerate_module(H))
    assert a == b


def full_rebuild_enumeration(M):
    """Order oracle: the same mixed-radix counter over the Howell rows (last
    index fastest), rebuilding each element from every row."""
    N = M.modulus
    base = list(M.rows)
    radix = [N // row[col] for row, col in zip(base, M.pivots)]
    counter = [0] * len(base)
    while True:
        vec = [0] * M.cols
        for c, row in zip(counter, base):
            vec = [(x + c * y) % N for x, y in zip(vec, row)]
        yield tuple(vec)
        i = len(base) - 1
        while i >= 0:
            counter[i] += 1
            if counter[i] < radix[i]:
                break
            counter[i] = 0
            i -= 1
        if i < 0:
            return


@pytest.mark.parametrize("p,b,rows", CASES + ANNIHILATOR_CASES)
def test_enumerate_module_order_matches_full_rebuild(p, b, rows):
    """The prefix-sum walk yields the same elements in the same order as
    rebuilding each one from every Howell row."""
    H = howell_form(mat(p, b, rows))
    assert list(enumerate_module(H)) == list(full_rebuild_enumeration(H))


def pack(row, L):
    return sum(x << (L * j) for j, x in enumerate(row))


@pytest.mark.parametrize("N", [2, 4, 8, 16, 3, 9, 27, 25])
def test_lane_adder_is_addition_mod_n_in_every_lane(N):
    """The walk's step: for every pair of residues (x, y), placed in the
    lowest, a middle and the top of 7 lanes, the lane-wise sum is
    (x + y) mod N there, and the other lanes, holding their own residues,
    are untouched by any carry or borrow (N = 4 gives L = 5)."""
    cols, L = 7, lane_width(N)
    assert 2 ** (L - 1) > 2 * N - 2
    add = lane_adder(N, cols)
    rng = random.Random(N)
    for x in range(N):
        for y in range(N):
            a = [rng.randrange(N) for _ in range(cols)]
            b = [rng.randrange(N) for _ in range(cols)]
            for lane in (0, cols // 2, cols - 1):
                a[lane], b[lane] = x, y
            got = add(pack(a, L), pack(b, L))
            assert got < 1 << (L * cols)
            assert unpack(got, L, cols) == tuple((u + v) % N for u, v in zip(a, b))


def test_enumerate_module_is_the_blocks_unpacked():
    """``enumerate_module`` is the blocks of ``packed_blocks`` flattened
    (h + t) and unpacked, in the rebuild order: on one block, and on modules
    of 3^9 and 2^11 elements over Z9 and Z8 that span 729 and 64 blocks.
    The table is the walk's first block, and taking one more row would put
    it past BLOCK entries."""
    rng = random.Random(59)
    for p, b, rows in ((3, 2, [[1, 4, 8], [0, 3, 6]]),
                       (3, 2, [[rng.randrange(9) for _ in range(6)] for _ in range(4)] + [[3, 0, 0, 0, 0, 3]]),
                       (2, 3, [[rng.randrange(8) for _ in range(5)] for _ in range(4)])):
        H = howell_form(mat(p, b, rows))
        L, add = lane_width(p ** b), lane_adder(p ** b, H.cols)
        table, highs = packed_blocks(H)
        walk = [add(h, t) for h in highs for t in table]
        assert walk == [pack(v, L) for v in full_rebuild_enumeration(H)]
        assert list(enumerate_module(H)) == [unpack(v, L, H.cols) for v in walk]
        assert len(table) <= BLOCK and walk[:len(table)] == table and H.cardinality % len(table) == 0
        assert H.cardinality == len(table) or len(table) * p ** b > BLOCK


def test_enumerate_module_of_the_zero_module():
    H = howell_form(ZpbMatrix(2, 2, 3, ()))
    assert H.rows == ()
    assert list(enumerate_module(H)) == [(0, 0, 0)]


def test_enumerate_module_single_row_with_non_unit_pivot():
    """Z8 row (2, 6): the annihilator multiple 4 * (2, 6) is zero, so the
    Howell form is the one row, with pivot 2 and 8 / 2 = 4 multiples."""
    H = howell_form(mat(2, 3, [[2, 6]]))
    assert H.rows == ((2, 6),) and H.pivots == (0,)
    assert list(enumerate_module(H)) == [(0, 0), (2, 6), (4, 4), (6, 2)]


def test_enumerate_module_limit():
    """The walk takes no cap; its caller bounds it.  The zero code on one
    Z4 coordinate has the chi-dual R^2, the 16-element module spanned by
    the identity: ``enumerate_module`` walks all of it, and the D search
    over it refuses a limit of 15, naming both sizes."""
    z4 = make_ring(2, 2, 1)
    C = AdditiveCode(z4, 1, ())
    H = C.dual
    assert H == howell_form(mat(2, 2, [[1, 0], [0, 1]]))
    assert len(set(enumerate_module(H))) == 16
    with pytest.raises(SearchLimitExceeded) as exc:
        min_symplectic_distance(C, limit=15)
    assert exc.value.cardinality == 16
    assert str(exc.value) == "search set has 16 elements, over the --max-enum limit 15"


def test_enumerate_module_limit_is_inclusive():
    """The D search's limit on the walk is inclusive: over Z9, the code of
    (3, 1) has a chi-dual of 81 / 9 = 9 vectors, all of which
    ``enumerate_module`` yields; a limit of 9 searches it and 8 raises."""
    z9 = make_ring(3, 2, 1)
    C = AdditiveCode.from_int_rows(z9, [[3, 1]])
    H = C.dual
    card = H.cardinality
    assert card == 9 and len(set(enumerate_module(H))) == card
    assert min_symplectic_distance(C, limit=card) >= 1
    with pytest.raises(SearchLimitExceeded) as exc:
        min_symplectic_distance(C, limit=card - 1)
    assert exc.value.cardinality == card


def test_walks_over_2_to_the_64_elements_start_at_once():
    """A module of 4^40 = 2^80 elements over Z4 (the free rank-40 module):
    ``packed_blocks`` and ``enumerate_module`` hold one table of at most
    BLOCK entries and walk the rest lazily, so their first elements come
    at once, in ``full_rebuild_enumeration``'s order."""
    cols = 40
    H = howell_form(mat(2, 2, [[int(i == j) for j in range(cols)] for i in range(cols)]))
    assert H.cardinality == 2 ** 80 > 2 ** 64
    L, add = lane_width(4), lane_adder(4, cols)
    want = list(itertools.islice(full_rebuild_enumeration(H), 2 * BLOCK))
    start = time.perf_counter()
    table, highs = packed_blocks(H)
    first = list(itertools.islice(enumerate_module(H), 2 * BLOCK))
    h0, h1 = next(highs), next(highs)
    assert time.perf_counter() - start < 0.1
    assert first == want
    assert len(table) == BLOCK
    assert [unpack(add(h, t), L, cols) for h in (h0, h1) for t in table] == want


small_matrix = st.tuples(
    st.sampled_from([(2, 2), (3, 1), (2, 3), (3, 2), (5, 1)]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_matrix)
def test_howell_properties(args):
    (p, b), nr, nc, data = args
    N = p ** b
    rows = [[data.draw(st.integers(0, N - 1)) for _ in range(nc)] for _ in range(nr)]
    A = mat(p, b, rows, cols=nc)
    H = howell_form(A)
    truth = span_set(p, b, rows, nc)
    assert span_set(p, b, H.rows, nc) == truth
    assert howell_form(H).rows == H.rows
    assert H.cardinality == len(truth)
    # every original generator reduces to zero against the Howell basis
    for r in rows:
        assert howell_member(H, r)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(small_matrix, st.tuples(st.sampled_from([(5, 2), (3, 3)]), st.integers(0, 3),
                                         st.integers(1, 3), st.data())))
def test_enumerate_module_order_matches_full_rebuild_on_random_matrices(args):
    (p, b), nr, nc, data = args
    N = p ** b
    rows = [[data.draw(st.integers(0, N - 1)) for _ in range(nc)] for _ in range(nr)]
    H = howell_form(mat(p, b, rows, cols=nc))
    assert list(enumerate_module(H)) == list(full_rebuild_enumeration(H))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_matrix)
def test_kernel_soundness(args):
    (p, b), nr, nc, data = args
    N = p ** b
    rows = [[data.draw(st.integers(0, N - 1)) for _ in range(nc)] for _ in range(nr)]
    A = mat(p, b, rows, cols=nc)
    K = kernel(A)
    for x in K.rows:
        prod = [sum(x[t] * rows[t][j] for t in range(nr)) % N for j in range(nc)]
        assert not any(prod)
    # completeness via cardinality: |kernel| * |row space of A^T image| ... use
    # direct count instead
    count = sum(
        1 for x in itertools.product(range(N), repeat=nr)
        if not any(sum(x[t] * rows[t][j] for t in range(nr)) % N for j in range(nc))
    )
    assert K.cardinality == count


@pytest.mark.parametrize("p,b", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_howell_cardinality_matches_smith(p, b):
    """|M| read off the Howell pivots, prod N / pivot_i, agrees with the
    Smith form's prod p^(b - e_i) on seeded random matrices, including zero
    rows, all-zero matrices and 0-row matrices."""
    N = p ** b
    rng = random.Random(1000 * p + b)
    for _ in range(150):
        nr, nc = rng.randint(0, 5), rng.randint(1, 5)
        rows = [[rng.randrange(N) for _ in range(nc)] for _ in range(nr)]
        for r in rows:
            if rng.random() < 0.2:
                r[:] = [0] * nc
        A = mat(p, b, rows, cols=nc)
        assert howell_form(A).cardinality == smith_cardinality(A)
    # the multiples of one vector p^v * (1, 1): cardinality p^(b - v)
    for v in range(b + 1):
        A = mat(p, b, [[p ** v % N, p ** v % N]], cols=2)
        assert howell_form(A).cardinality == smith_cardinality(A) == p ** (b - v)


def test_from_rows_checks_the_boundary():
    with pytest.raises(ValueError, match="not prime"):
        ZpbMatrix.from_rows(4, 1, [[1]])
    with pytest.raises(ValueError, match="positive"):
        ZpbMatrix.from_rows(2, 0, [[1]])
    with pytest.raises(ParameterTooLarge):
        ZpbMatrix.from_rows(2, 32, [[1]])
    with pytest.raises(ValueError, match="ragged"):
        ZpbMatrix.from_rows(3, 2, [[1, 2], [1]])
    with pytest.raises(ValueError, match="cols"):
        ZpbMatrix.from_rows(3, 2, [])
    # inside the boundary: entries are reduced, an empty matrix takes cols
    assert ZpbMatrix.from_rows(2, 31, [[-1, 2 ** 31]]).rows == ((2 ** 31 - 1, 0),)
    assert ZpbMatrix.from_rows(3, 2, [], cols=3) == ZpbMatrix(3, 2, 3, ())


def test_one_ring_size_check_for_rings_and_matrices():
    """``make_ring`` and ``ZpbMatrix.from_rows`` share one check, in order:
    p <= 2^31, then p prime, then b and m positive, then p^(b*m) <= 2^31.
    So a composite p > 2^31 raises ParameterTooLarge, not ValueError.  Past
    b*m = 31 it fails without forming the power; forming 2^(10^8) would
    take about a second and end in the interpreter's own digit-limit
    ValueError."""
    def message(call):
        with pytest.raises((ValueError, ParameterTooLarge)) as exc:
            call()
        return type(exc.value).__name__, str(exc.value)
    for p, b in [(4, 1), (4, 0), (2, 0), (2, 32), (3, 20), (65537, 2)]:
        assert message(lambda: make_ring(p, b, 1)) == message(lambda: ZpbMatrix.from_rows(p, b, [[1]]))
    assert message(lambda: make_ring(4, 0, 0)) == ("ValueError", "p = 4 is not prime")
    assert message(lambda: make_ring(2, 1, 0)) == ("ValueError", "b and m must be positive")
    assert message(lambda: make_ring(65537, 1, 2)) == ("ParameterTooLarge", "p^(b*m) = 4295098369 exceeds 2^31")
    for call in (lambda: make_ring(2, 1, 10 ** 8), lambda: ZpbMatrix.from_rows(2, 10 ** 8, [[1]])):
        t0 = time.perf_counter()
        assert message(call) == ("ParameterTooLarge", "p^(b*m) exceeds 2^31: b*m = 100000000 > 31")
        assert time.perf_counter() - t0 < 0.1


def test_huge_p_is_rejected_before_primality():
    """p = 2^11213 - 1 is a 3,376-digit prime: trial division at that size
    would not end, and the size check runs first."""
    p = 2 ** 11213 - 1
    for call in (lambda: make_ring(p, 1, 1), lambda: ZpbMatrix.from_rows(p, 1, [[1]])):
        t0 = time.perf_counter()
        with pytest.raises(ParameterTooLarge, match=r"^p = \d+ exceeds 2\^31$"):
            call()
        assert time.perf_counter() - t0 < 0.1
    with pytest.raises(ParameterTooLarge, match=r"^p = 2147483649 exceeds 2\^31$"):
        make_ring(2 ** 31 + 1, 1, 1)


@pytest.mark.parametrize("rows", [0, 3])
def test_zero_matrix_forms_cost_nothing_per_column(rows):
    """A matrix with no nonzero entry has the empty Howell and Smith forms,
    returned without a sweep over its columns (10^7 here, where a sweep
    takes about 2 s for Howell and 0.8 s for Smith)."""
    cols = 10 ** 7 if rows == 0 else 5
    A = ZpbMatrix(2, 2, cols, ((0,) * cols,) * rows)
    t0 = time.perf_counter()
    H, sd = howell_form(A), smith_form(A)
    assert time.perf_counter() - t0 < 0.1
    assert H == zpb_mod.HowellBasis(2, 2, cols, (), pivots=())
    assert sd == zpb_mod.SmithDecomposition(diag_exponents=(), generators=())


@pytest.mark.parametrize("p,b", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_smith_exponents_match_sympy(p, b):
    """Over Z, the Smith form of A stacked on p^b * I has diagonal entries
    whose p-adic valuations, capped at b, are the exponents of the Smith
    form of A over Z_{p^b}, padded with b up to the column count."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    def valuation(d):
        v = 0
        while v < b and d % p == 0:
            d //= p
            v += 1
        return v

    N = p ** b
    rng = random.Random(100 * p + b)
    for _ in range(40):
        nr, nc = rng.randint(0, 4), rng.randint(1, 5)
        rows = [[rng.randrange(N) for _ in range(nc)] for _ in range(nr)]
        for r in rows:
            if rng.random() < 0.2:
                r[:] = [0] * nc
        exps = list(smith_form(mat(p, b, rows, cols=nc)).diag_exponents)
        S = smith_normal_form(sympy.Matrix(rows + [[N * x for x in r] for r in identity(nc)]),
                              domain=sympy.ZZ)
        got = sorted(valuation(int(S[i, i])) for i in range(nc))
        assert got == sorted(exps) + [b] * (nc - len(exps)), (rows, exps)
