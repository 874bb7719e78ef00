"""Additive codes C over GR(p^b,m)^{2n}: symplectic products and weights,
the chi-dual, cardinalities, and the exhaustive minimum symplectic
distance, weighed a block of packed ints at a time.

Internally every code is its phi-expanded row module over Z_{p^b}^{2nm},
and it keeps its ring-level generators.  Derived modules (the chi-dual,
C cap C^chi) stay Howell bases of expanded rows; only the public
``chi_dual_level`` and ``code_intersection`` wrap one as a code.

Codes are immutable, so every object derived from one is computed once per
code and kept on it: the expanded matrix and its Howell and Smith forms, the
objects read off C's Smith generators and their integer Gram matrix (rank,
rho and C cap C^chi; the chi-dual only when asked for), and the checked
decomposition and minimal extension.  None of them refers back to the code,
so the caches live and die with it, freed by reference counting alone.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    RingMismatch,
    SearchLimitExceeded,
    check_cap,
)
from .frozen import Frozen
from .galois import GaloisRingSpec, RingElement, gen_trace, phi_contract, phi_expand
from .zpblinalg import (
    HowellBasis,
    SmithDecomposition,
    ZpbMatrix,
    _solve,
    howell_form,
    howell_member,
    intersect,
    kernel,
    lane_width,
    packed_blocks,
    smith_form,
    unpack,
)

if TYPE_CHECKING:
    from .decompose import HyperbolicDecomposition

DEFAULT_ENUM_LIMIT = 1 << 22
# the verifier's cap on q^(n+c), kept here so that the CLI's parser needs no pauli
DEFAULT_MATRIX_DIM = 1024


class SymplecticVector(Frozen):
    """A tuple (x, y) in R^n x R^n."""

    def __init__(self, ring: GaloisRingSpec, x: Tuple[RingElement, ...], y: Tuple[RingElement, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if len(x) != len(y):
            raise DimensionMismatch("x and y halves differ in length")
        if any(e.ring != ring for e in x + y):
            raise RingMismatch("component from a different ring")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def components(self) -> Tuple[RingElement, ...]:
        return self.x + self.y

    @classmethod
    def from_components(cls, ring: GaloisRingSpec, comps: Sequence[RingElement]) -> "SymplecticVector":
        n = len(comps) // 2
        return cls(ring, tuple(comps[:n]), tuple(comps[n:]))

    @classmethod
    def from_ints(cls, ring: GaloisRingSpec, flat: Sequence[int]) -> "SymplecticVector":
        """m=1 convenience: plain residues."""
        return cls.from_components(ring, [ring.scalar(c) for c in flat])


def symplectic_product(u: SymplecticVector, v: SymplecticVector) -> RingElement:
    """<(a,b)|(a',b')>_s = b.a' - b'.a"""
    if u.ring != v.ring:
        raise RingMismatch("operands from different rings")
    if u.n != v.n:
        raise DimensionMismatch("operands of different length")
    acc = u.ring.zero
    for i in range(u.n):
        acc = acc + u.y[i] * v.x[i] - v.y[i] * u.x[i]
    return acc


def _expanded_pairing(u, v, nm, N):
    """Integer symplectic form on phi-expanded rows: equals Tr(<u|v>_s)."""
    return sum(u[nm + i] * v[i] - v[nm + i] * u[i] for i in range(nm)) % N


def block_weights(n: int, m: int, N: int) -> Callable[[int, Sequence[int]], List[int]]:
    """The weight kernel of the distance search: for packed phi-expanded
    vectors h and t (``packed_blocks``), the symplectic weight of h - t for
    each t of a table.  A lane of h - t is zero iff h and t agree there, so
    h ^ t has nonzero lanes where h - t does, each below 2^(L-2).  The y
    half folds onto the x half by OR; then each coordinate's m lanes, read
    as one number g < 2^(mL-2), set bit mL - 1 of g + 2^(mL-1) - 1 iff
    g > 0, with no carry out, and those bits are counted."""
    L = lane_width(N)
    half, w = L * n * m, L * m
    top = sum(1 << s for s in range(w - 1, half, w))
    fill = (top >> (w - 1)) * ((1 << (w - 1)) - 1)
    return lambda h, table: [(((s := h ^ t) | s >> half) + fill & top).bit_count() for t in table]


class AdditiveCode(Frozen):
    """Z_{p^b}-submodule of GR(p^b,m)^{2n}, with the objects every parameter
    of the construction is read off, each built lazily and at most once.

    Most come from one small integer matrix, the Gram matrix G[i][j] =
    Tr<c_i|c_j>_s over the rows c_i of S, C's Smith generators: at most
    2nm rows spanning C, however many rows the input has.  The map x*S ->
    x*G takes C onto the row module of G with kernel C cap C^{chi}, and mod
    p^{b-t} with kernel C cap C^{chi,t}.  So rank(C / (C cap C^{chi,t}))
    counts the Smith exponents of G below b - t, rho_t counts those equal
    to b - t, and ``meet`` = C cap C^{chi} is {x*S : x*G = 0}, read off
    one Howell form of [G | S] with no kernel and no intersection.  The
    chi-dual (``dual``) is built only when asked for, at level 0 alone,
    since G's Smith form gives every level's rank.  Both are Howell bases
    of expanded rows.  ``dual_in_code`` picks D's search set.
    On top sit the checked hyperbolic decomposition and minimal extension.
    Every invariant check runs when its object is first built.
    """

    def __init__(self, ring: GaloisRingSpec, n: int, generators: Tuple[SymplecticVector, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", generators)
        if n < 0:
            raise ValueError(f"code length n = {n} is negative")
        if any(g.ring != ring or g.n != n for g in generators):
            raise RingMismatch("generator does not match the code's ring or length")

    @property
    def ambient_cols(self) -> int:
        return 2 * self.n * self.ring.m

    @cached_property
    def expanded_matrix(self) -> ZpbMatrix:
        rows = tuple(phi_expand(g.components) for g in self.generators)
        return ZpbMatrix(self.ring.p, self.ring.b, self.ambient_cols, rows)

    @cached_property
    def expanded_howell(self) -> HowellBasis:
        return howell_form(self.expanded_matrix)

    @cached_property
    def expanded_smith(self) -> SmithDecomposition:
        return smith_form(self.expanded_matrix)

    @classmethod
    def from_expanded(cls, ring: GaloisRingSpec, n: int, H: HowellBasis) -> "AdditiveCode":
        """The code whose phi-expanded row module has Howell basis H; its
        generators are the basis rows, and H, a matrix of those rows,
        seeds the expanded caches."""
        code = cls(ring, n, tuple(SymplecticVector.from_components(ring, phi_contract(ring, r))
                                  for r in H.rows))
        code.__dict__.update(expanded_matrix=H, expanded_howell=H)
        return code

    @classmethod
    def from_int_rows(cls, ring: GaloisRingSpec, rows: Sequence[Sequence[int]]) -> "AdditiveCode":
        """m=1 convenience: each row is 2n residues."""
        if not rows:
            raise ValueError("need at least one row to infer n; use AdditiveCode directly")
        n = len(rows[0]) // 2
        return cls(ring, n, tuple(SymplecticVector.from_ints(ring, r) for r in rows))

    @cached_property
    def dual(self) -> HowellBasis:
        """C^{chi-dual}, checked against |C^{chi}| * |C| = q^{2n}, |C| read
        off C's Smith exponents."""
        p, b = self.ring.p, self.ring.b
        H = kernel(_pairing_columns(self))
        size = math.prod(p ** (b - e) for e in self.expanded_smith.diag_exponents)
        if H.cardinality * size != self.ring.cardinality ** (2 * self.n):
            raise InternalInvariantViolation("|C^(chi,0)| * |p^0 C| is not q^(2n)")
        return H

    @cached_property
    def gram(self) -> ZpbMatrix:
        """G[i][j] = Tr<c_i|c_j>_s over C's Smith generators c_i."""
        nm, N = self.n * self.ring.m, self.ring.modulus
        rows = self.expanded_smith.generators
        gram = tuple(tuple(_expanded_pairing(u, v, nm, N) for v in rows) for u in rows)
        return ZpbMatrix(self.ring.p, self.ring.b, len(rows), gram)

    @cached_property
    def meet(self) -> HowellBasis:
        """C cap C^{chi-dual} = {x*S : x*G = 0}, S being C's Smith
        generators: one Howell form of [G | S]."""
        S = ZpbMatrix(self.ring.p, self.ring.b, self.ambient_cols, self.expanded_smith.generators)
        return _solve(self.gram, S)

    @cached_property
    def dual_in_code(self) -> bool:
        """The case that picks D's search set, C^{chi} inside C: C cap C^{chi}
        sits in C^{chi}, of size q^{2n} / |C|, so iff |C cap C^{chi}| |C| = q^{2n}."""
        return self.meet.cardinality * cardinality(self) == self.ring.cardinality ** (2 * self.n)

    @cached_property
    def gram_exponents(self) -> Tuple[int, ...]:
        """Smith exponents of the Gram matrix."""
        return smith_form(self.gram).diag_exponents

    def rank(self, t: int) -> int:
        """rank(C / (C cap C^{chi-dual, t})), for 0 <= t <= b; at t = 0 this
        is twice the number of hyperbolic pairs."""
        if not 0 <= t <= self.ring.b:
            raise ValueError(f"level t = {t} out of range 0..{self.ring.b}")
        return sum(1 for e in self.gram_exponents if e < self.ring.b - t)

    @cached_property
    def rho(self) -> Tuple[int, ...]:
        """(rho_1, ..., rho_{b-1}), rho_t = rank(t-1) - rank(t); each is
        checked to be even."""
        out = []
        for t in range(1, self.ring.b):
            rho = self.rank(t - 1) - self.rank(t)
            if rho % 2:
                raise InternalInvariantViolation(f"rho_{t} = {rho} is odd")
            out.append(rho)
        return tuple(out)

    @cached_property
    def decomposition(self) -> "HyperbolicDecomposition":
        from .decompose import _decompose
        return _decompose(self)

    @cached_property
    def extension(self) -> "AdditiveCode":
        from .extension import _minimal_extension
        return _minimal_extension(self)


def cardinality(C: AdditiveCode) -> int:
    return C.expanded_howell.cardinality


def _pairing_columns(C: AdditiveCode) -> ZpbMatrix:
    """Matrix whose columns are (-B_c, A_c) over C's Smith generators c; a
    vector v is chi-orthogonal to C iff phi(v) lies in the kernel."""
    gens = C.expanded_smith.generators
    N, nm = C.ring.modulus, C.n * C.ring.m
    rows = tuple(tuple(-g[nm + i] % N for g in gens) for i in range(nm))
    rows += tuple(tuple(g[i] for g in gens) for i in range(nm))
    return ZpbMatrix(C.ring.p, C.ring.b, len(gens), rows)


def chi_dual_level(C: AdditiveCode) -> AdditiveCode:
    """C^{chi-dual} as a code: the vectors v with Tr(<v|c>_s) = 0 for all c
    in C."""
    return AdditiveCode.from_expanded(C.ring, C.n, C.dual)


def code_intersection(C1: AdditiveCode, C2: AdditiveCode) -> AdditiveCode:
    if C1.ring != C2.ring or C1.n != C2.n:
        raise DimensionMismatch("codes live in different ambient spaces")
    return AdditiveCode.from_expanded(C1.ring, C1.n, intersect(C1.expanded_howell, C2.expanded_howell))


def is_chi_self_orthogonal(C: AdditiveCode) -> bool:
    gens = C.generators
    return all(gen_trace(symplectic_product(g, h)) == 0
               for i, g in enumerate(gens) for h in gens[i:])


def min_symplectic_distance(C: AdditiveCode, limit: int = DEFAULT_ENUM_LIMIT) -> float:
    """D: the exhaustive minimum symplectic weight over C^{chi-dual} if it is
    inside C (``AdditiveCode.dual_in_code``), else over C^{chi-dual} minus C;
    math.inf when that set minus {0} is empty.  |C^{chi-dual}| = q^{2n} / |C|
    is checked against ``limit`` before the case is read or the dual is built.

    The dual is walked packed, a block at a time (``packed_blocks``): for
    each high vector h one list of ``block_weights`` weighs h - t for every
    table entry t, which runs over the same table as -t does, so the blocks
    cover the dual once.  Only a block's lightest vector, while it would
    lower the running minimum, is unpacked and tested for membership in C.
    """
    n, m, N = C.n, C.ring.m, C.ring.modulus
    check_cap("limit =", limit)
    size = C.ring.cardinality ** (2 * n) // cardinality(C)
    if size > limit:
        raise SearchLimitExceeded(size, limit)
    skip = None if C.dual_in_code else C.expanded_howell
    table, highs = packed_blocks(C.dual)
    weights, L, cols = block_weights(n, m, N), lane_width(N), 2 * n * m
    best = math.inf
    for h in highs:
        ws = weights(h, table)
        if not h:  # the first block, whose entry 0 is the zero vector
            ws[0] = best
        w = min(ws)
        while w < best:
            i = ws.index(w)
            if skip is None or not howell_member(
                    skip, [(a - b) % N for a, b in zip(unpack(h, L, cols), unpack(table[i], L, cols))]):
                best = w
            else:
                ws[i] = best  # in C: out of the running
                w = min(ws)
        if best == 1:
            break
    return best


def is_free(C: AdditiveCode) -> bool:
    return all(e == 0 for e in C.expanded_smith.diag_exponents)
