"""Exact linear algebra over Z_{p^b}: the ring-parameter check, Howell
form, Smith form, kernels, intersections, quotient ranks, congruence
solving and module enumeration.

The Howell form does the module operations: membership, cardinality,
enumeration, and the solve {x*B : x*A = 0} read off one Howell form of
[A | B], which gives the kernel and the intersection.  The Smith form gives
exponents and minimal generators; it carries out row operations only, and
keeps no column transform.

Everything here works on plain integer residues in [0, p^b), and a matrix
is its rows: ``ZpbMatrix.rows`` is a tuple of row tuples, a Howell basis
is such a matrix with its pivot columns, and Smith generators are rows of
the same kind, so callers pass rows through without copying.  Pivoting is
always on entries of minimal p-valuation (every element of Z_{p^b} is
unit * p^v), with lowest-index tie-breaks, so all outputs are reproducible
bit for bit.  Enumeration is lazy and takes no cap: its callers bound
the whole walk before they start it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    NoSolution,
    NotContained,
    ParameterTooLarge,
    size_text,
)
from .frozen import Frozen


def _prime_factors(n: int) -> List[int]:
    """The distinct prime factors of n, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def check_ring_size(p: int, b: int, m: int = 1) -> None:
    """The one ring-parameter check (m = 1 for Z_{p^b}), in order: p <= 2^31,
    p prime (trial division, at most 46,341 divisors), b, m >= 1,
    p^(b*m) <= 2^31."""
    if p > 2 ** 31:
        raise ParameterTooLarge(f"p = {size_text(p)} exceeds 2^31")
    if _prime_factors(p) != [p]:
        raise ValueError(f"p = {size_text(p)} is not prime")
    if b < 1 or m < 1:
        raise ValueError("b and m must be positive")
    if b * m > 31:  # p >= 2, so this is over the cap: the power is not formed
        raise ParameterTooLarge(f"p^(b*m) exceeds 2^31: b*m = {b * m} > 31")
    if p ** (b * m) > 2 ** 31:
        raise ParameterTooLarge(f"p^(b*m) = {size_text(p ** (b * m))} exceeds 2^31")


class ZpbMatrix(Frozen):
    """Dense matrix over Z_{p^b}: ``rows`` is a tuple of row tuples, each of
    length ``cols`` with entries in [0, p^b).

    The constructor trusts its arguments.  Rows from outside the library go
    through ``from_rows``, which checks them once; every matrix built inside
    it comes from rows that are already reduced.
    """

    def __init__(self, p: int, b: int, cols: int, rows: Tuple[Tuple[int, ...], ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "rows", rows)

    @property
    def modulus(self) -> int:
        return self.p ** self.b

    @classmethod
    def from_rows(cls, p: int, b: int, rows: Sequence[Sequence[int]], cols: int | None = None) -> "ZpbMatrix":
        """Checked constructor: ``check_ring_size(p, b)`` and rectangular rows
        (``cols`` is required when there are none), reduced into [0, p^b)."""
        check_ring_size(p, b)
        N = p ** b
        reduced = tuple(tuple(x % N for x in r) for r in rows)
        if cols is None:
            if not reduced:
                raise ValueError("cols must be given for an empty matrix")
            cols = len(reduced[0])
        if any(len(r) != cols for r in reduced):
            raise ValueError("ragged rows")
        return cls(p, b, cols, reduced)


def _val(x: int, p: int, b: int) -> int:
    """p-adic valuation of the residue x, with val(0) = b."""
    if x == 0:
        return b
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class HowellBasis(ZpbMatrix):
    """Howell canonical form of a row module over Z_{p^b}: its rows, with
    ``pivots[i]`` the column of row i's pivot.

    The Howell form is the unique canonical basis of a row module over a
    residue ring: pivots are powers of p, columns below a pivot are zero,
    entries above a pivot are reduced modulo the pivot, and annihilator
    multiples of every row are again spanned by later rows.
    """

    def __init__(self, p: int, b: int, cols: int, rows: Tuple[Tuple[int, ...], ...],
                 pivots: Tuple[int, ...]):
        super().__init__(p, b, cols, rows)
        object.__setattr__(self, "pivots", pivots)

    @property
    def cardinality(self) -> int:
        """Number of elements of the row module, prod N / pivot_i.

        Every element is sum c_i * row_i with c_i in [0, N / pivot_i), each
        exactly once: echelon pivots make the coefficients unique, and the
        annihilator rows make every element reachable.
        """
        N = self.modulus
        return math.prod(N // row[col] for row, col in zip(self.rows, self.pivots))


def _pivot(work: List[List[int]], r: int, best: int, col: int, v: int, p: int, N: int) -> List[int]:
    """The pivot step of ``howell_form`` and ``smith_form``: swap row
    ``best`` into place r, scale its entry in ``col`` (of valuation v) to
    p^v and clear the column below it.  Returns the new pivot row."""
    work[r], work[best] = work[best], work[r]
    pv = p ** v
    uinv = pow(work[r][col] // pv, -1, N)
    prow = work[r] = [(uinv * x) % N for x in work[r]]
    for i in range(r + 1, len(work)):
        e = work[i][col]
        if e:
            coef = e // pv  # exact: val(e) >= v by pivot minimality
            work[i] = [(x - coef * y) % N for x, y in zip(work[i], prow)]
    return prow


def howell_form(gens: ZpbMatrix) -> HowellBasis:
    """Canonical Howell form of the row module spanned by ``gens``.

    Sweeps columns left to right, pivoting on the entry of minimal
    p-valuation (lowest row index on ties), normalizes the pivot to p^v,
    eliminates below, and appends the annihilator multiple (p^{b-v} times
    the pivot row) to the worklist so that leading-zero-stripped spans are
    preserved.  A final upward pass reduces entries above each pivot into
    [0, p^v).  Zero rows are dropped.
    """
    p, b, N = gens.p, gens.b, gens.modulus
    work = [list(r) for r in gens.rows if any(r)]
    pivots: List[Tuple[int, int, int]] = []  # (row, col, valuation)
    r = 0
    for col in range(gens.cols if work else 0):  # a zero matrix needs no column sweep
        best = -1
        best_v = b + 1
        for i in range(r, len(work)):
            e = work[i][col]
            if e:
                v = _val(e, p, b)
                if v < best_v:
                    best, best_v = i, v
        if best < 0:
            continue
        row = _pivot(work, r, best, col, best_v, p, N)
        if best_v > 0:
            ann = [((N // p ** best_v) * x) % N for x in row]
            if any(ann):
                work.append(ann)
        pivots.append((r, col, best_v))
        r += 1
    work = work[:r]
    # ascending column order: a reduction only touches columns right of its
    # pivot, which later steps then clean up in turn
    for r_i, col, v in pivots:
        pv = p ** v
        for i in range(r_i):
            coef = work[i][col] // pv  # reduce the entry into [0, p^v)
            if coef:
                work[i] = [(x - coef * y) % N for x, y in zip(work[i], work[r_i])]
    return HowellBasis(p, b, gens.cols, tuple(map(tuple, work)), tuple(col for _, col, _ in pivots))


def howell_member(H: HowellBasis, vec: Sequence[int]) -> bool:
    """Membership test against a Howell basis by pivot-wise reduction."""
    N = H.modulus
    if len(vec) != H.cols:
        raise DimensionMismatch("vector length does not match ambient dimension")
    x = [e % N for e in vec]
    for row, col in zip(H.rows, H.pivots):
        e = x[col]
        if e == 0:
            continue
        pv = row[col]  # pivot is p^v by construction
        if e % pv:
            return False
        coef = e // pv
        x = [(x[j] - coef * row[j]) % N for j in range(H.cols)]
    return not any(x)


class SmithDecomposition(Frozen):
    """Smith form over Z_{p^b}: U * A * V = diag(p^{e_i}) with U and V
    unimodular.  Only the exponents and the first r rows of U * A are kept:
    row i is p^{e_i} times a row of V^{-1}, and together they span the row
    module of A."""

    def __init__(self, diag_exponents: Tuple[int, ...], generators: Tuple[Tuple[int, ...], ...]):
        object.__setattr__(self, "diag_exponents", diag_exponents)
        object.__setattr__(self, "generators", generators)


def smith_form(A: ZpbMatrix) -> SmithDecomposition:
    """Smith normal form by minimal-p-valuation pivoting.

    Diagonal entries come out as p^{e_i} with e_i non-decreasing.  Only the
    row operations are carried out, on A's rows; a column swap just
    reorders the columns still to be searched, and the column eliminations
    are skipped: once a pivot has cleared its column, later pivots search
    only the rows and columns beyond it, so the pivot row is already p^{e_i}
    times a row of the inverse column transform.
    """
    p, b, N, nr = A.p, A.b, A.modulus, len(A.rows)
    if not any(map(any, A.rows)):  # a zero matrix needs no column order
        return SmithDecomposition(diag_exponents=(), generators=())
    D = [list(r) for r in A.rows]
    order = list(range(A.cols))  # the columns in pivot-search order
    exps: List[int] = []
    for k in range(min(nr, A.cols)):
        # minimal valuation, then lowest row, then earliest column in order
        best = min(((_val(D[i][j], p, b), i, jj) for i in range(k, nr)
                    for jj, j in enumerate(order[k:], k) if D[i][j]), default=None)
        if best is None:
            break
        v, bi, bj = best
        order[k], order[bj] = order[bj], order[k]
        _pivot(D, k, bi, order[k], v, p, N)
        exps.append(v)
    return SmithDecomposition(diag_exponents=tuple(exps),
                              generators=tuple(tuple(r) for r in D[:len(exps)]))


def _solve(A: ZpbMatrix, B: ZpbMatrix) -> HowellBasis:
    """Howell basis of {x*B : x*A = 0}, for A and B with equal row counts:
    the rows (0 | y) of one Howell form of [A | B], cut to the B block.  By
    the Howell property they are already its canonical Howell basis."""
    c = A.cols
    H = howell_form(ZpbMatrix(A.p, A.b, c + B.cols, tuple(a + b for a, b in zip(A.rows, B.rows))))
    keep = [i for i, col in enumerate(H.pivots) if col >= c]
    return HowellBasis(A.p, A.b, B.cols, tuple(H.rows[i][c:] for i in keep),
                       tuple(H.pivots[i] - c for i in keep))


def kernel(A: ZpbMatrix) -> HowellBasis:
    """All row vectors x with x*A = 0 mod p^b, as a Howell basis: the
    solve against the identity."""
    k = len(A.rows)
    eye = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    return _solve(A, ZpbMatrix(A.p, A.b, k, eye))


def intersect(M1: HowellBasis, M2: HowellBasis) -> HowellBasis:
    """Howell basis of the intersection of two row modules: the solve of
    [M1 ; M2] against [M1 ; 0], since x = (a, b) with a*M1 + b*M2 = 0 gives
    the common element a*M1 = -b*M2, and every common element arises so."""
    if M1.cols != M2.cols or (M1.p, M1.b) != (M2.p, M2.b):
        raise DimensionMismatch("ambient dimensions differ")
    zeros = ((0,) * M2.cols,) * len(M2.rows)
    return _solve(ZpbMatrix(M1.p, M1.b, M1.cols, M1.rows + M2.rows),
                  ZpbMatrix(M1.p, M1.b, M1.cols, M1.rows + zeros))


def quotient_rank(M: HowellBasis, S: HowellBasis) -> int:
    """Rank of M/S as a Z_{p^b}-module, via log_p(|M| / |pM + S|)."""
    if M.cols != S.cols or (M.p, M.b) != (S.p, S.b):
        raise DimensionMismatch("ambient dimensions differ")
    if not all(howell_member(M, r) for r in S.rows):
        raise NotContained("S is not a submodule of M")
    p, N = M.p, M.modulus
    sub = ZpbMatrix(p, M.b, M.cols, tuple(tuple(p * x % N for x in r) for r in M.rows) + S.rows)
    card_m, card_sub = M.cardinality, howell_form(sub).cardinality
    ratio, rem = divmod(card_m, card_sub)
    if rem:
        raise InternalInvariantViolation(
            f"|pM + S| = {size_text(card_sub)} does not divide |M| = {size_text(card_m)}")
    rank = 0
    while ratio > 1:
        ratio, rem = divmod(ratio, p)
        if rem:
            raise InternalInvariantViolation(
                f"|M / (pM + S)| = {size_text(card_m // card_sub)} is not a power of p = {p}")
        rank += 1
    return rank


def solve_congruence(lhs: int, rhs: int, modulus: int) -> int:
    """Smallest non-negative u with lhs*u = rhs (mod modulus)."""
    a = lhs % modulus
    r = rhs % modulus
    g = math.gcd(a, modulus)
    if r % g:
        raise NoSolution(f"{lhs}*u = {rhs} (mod {modulus}) has no solution")
    if a == 0:
        return 0
    n2 = modulus // g
    return (r // g) * pow(a // g, -1, n2) % n2


def lane_width(N: int) -> int:
    """Bits L per lane of a vector over Z_N packed in one int, coordinate j
    in bits [jL, (j+1)L), with 2^(L-1) > 2N - 2 (see ``lane_adder``)."""
    return (4 * N).bit_length()


def unpack(v: int, L: int, cols: int) -> Tuple[int, ...]:
    return tuple([v >> s & (1 << L) - 1 for s in range(0, L * cols, L)])


def lane_adder(N: int, cols: int) -> Callable[[int, int], int]:
    """Lane-wise a + b mod N on packed vectors with lanes in [0, N): the bias
    2^(L-1) - N sets the top bit of each lane >= N, and N comes off those."""
    L = lane_width(N)
    top = sum(1 << s for s in range(L - 1, L * cols, L))
    bias = (top >> (L - 1)) * ((1 << (L - 1)) - N)

    def add(a: int, b: int) -> int:
        s = a + b
        return s - (((s + bias) & top) >> (L - 1)) * N
    return add


BLOCK = 64  # most entries of a ``packed_blocks`` table; a larger one delays the D = 1 exit


def _prefix_walk(base: List[int], radix: List[int], add: Callable[[int, int], int]) -> Iterator[int]:
    """Every sum of c_i * base[i], c_i in [0, radix[i]), last index fastest,
    by prefix sums: the digit i that moves adds base[i] to partial[i] (one
    ``add`` call), and the digits after it, now 0, share the result."""
    k = len(base)
    counter, partial = [0] * k, [0] * k
    yield 0
    while True:
        i = k - 1
        while i >= 0 and counter[i] == radix[i] - 1:
            counter[i] = 0
            i -= 1
        if i < 0:
            return
        counter[i] += 1
        vec = add(partial[i], base[i])
        partial[i:] = [vec] * (k - i)
        yield vec


def packed_blocks(M: HowellBasis) -> Tuple[List[int], Iterator[int]]:
    """Every element of the row module once (``HowellBasis.cardinality``),
    packed (``lane_width``), in blocks: mixed-radix coefficients c_i in
    [0, N / pivot_i) over the Howell rows, last index fastest.  Block j is
    the table, the span of the most last rows with at most BLOCK elements,
    plus the j-th high vector, of the span of the other rows (walked
    lazily), so the first block comes at once however large M is."""
    N = M.modulus
    add, L = lane_adder(N, M.cols), lane_width(N)
    base = [sum(x << (L * j) for j, x in enumerate(r)) for r in M.rows]
    radix = [N // r[col] for r, col in zip(M.rows, M.pivots)]
    k = min(i for i in range(len(base) + 1) if math.prod(radix[i:]) <= BLOCK)
    return list(_prefix_walk(base[k:], radix[k:], add)), _prefix_walk(base[:k], radix[:k], add)


def enumerate_module(M: HowellBasis) -> Iterator[Tuple[int, ...]]:
    """The blocks of ``packed_blocks`` flattened (h + t) and unpacked: every
    element once, in their order, as a tuple of residues; a generator
    function, so that the benchmark's tracer counts what it yields."""
    table, highs = packed_blocks(M)
    add, L = lane_adder(M.modulus, M.cols), lane_width(M.modulus)
    for h in highs:
        for t in table:
            yield unpack(add(h, t), L, M.cols)
