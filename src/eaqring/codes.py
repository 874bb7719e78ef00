"""Additive codes C over GR(p^b,m)^{2n}: symplectic products and weights,
chi-duals at every level, cardinalities, membership, puncturing, and the
exhaustive minimum symplectic distance, weighed a block of packed ints at a time.

Internally every code is its phi-expanded row module over Z_{p^b}^{2nm},
and it keeps its ring-level generators.  Derived modules (the chi-dual
levels, C cap C^chi) stay Howell bases of expanded rows; only the public
``chi_dual_level`` and ``code_intersection`` wrap one as a code.

Codes are immutable, so every object derived from one is computed once per
code and kept on it: the expanded matrix and its Howell and Smith forms, and
the ``CodeAnalysis``, built from C's Smith generators and their integer Gram
matrix (rank, rho and C cap C^chi; a chi-dual level only when asked for).
The caches live and die with the code.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    RingMismatch,
    SearchLimitExceeded,
)
from .frozen import Frozen
from .galois import GaloisRingSpec, RingElement, char_exponent, phi_contract, phi_expand
from .zpblinalg import (
    HowellBasis,
    SmithDecomposition,
    ZpbMatrix,
    _solve,
    enumerate_module,
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
    from .extension import SelfOrthogonalExtension

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

    def __add__(self, other: "SymplecticVector") -> "SymplecticVector":
        if self.n != other.n:
            raise DimensionMismatch("operands of different length")
        return SymplecticVector(self.ring,
                                tuple(a + b for a, b in zip(self.x, other.x)),
                                tuple(a + b for a, b in zip(self.y, other.y)))

    def scale(self, c: int) -> "SymplecticVector":
        return SymplecticVector(self.ring,
                                tuple(a.scale(c) for a in self.x),
                                tuple(a.scale(c) for a in self.y))

    def __bool__(self) -> bool:
        return any(self.x) or any(self.y)


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


def symplectic_weight(v: SymplecticVector) -> int:
    return sum(1 for a, b in zip(v.x, v.y) if a or b)


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
    """Z_{p^b}-submodule of GR(p^b,m)^{2n}."""

    def __init__(self, ring: GaloisRingSpec, n: int, generators: Tuple[SymplecticVector, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", generators)
        if any(g.ring != ring or g.n != n for g in generators):
            raise RingMismatch("generator does not match the code's ring or length")

    @property
    def ambient_cols(self) -> int:
        return 2 * self.n * self.ring.m

    @cached_property
    def expanded_matrix(self) -> ZpbMatrix:
        rows = [phi_expand(self.ring, g.components) for g in self.generators]
        return ZpbMatrix.from_reduced(self.ring.p, self.ring.b, rows, self.ambient_cols)

    @cached_property
    def expanded_howell(self) -> HowellBasis:
        return howell_form(self.expanded_matrix)

    @cached_property
    def expanded_smith(self) -> SmithDecomposition:
        return smith_form(self.expanded_matrix)

    @cached_property
    def analysis(self) -> "CodeAnalysis":
        return CodeAnalysis(self)

    @classmethod
    def from_expanded(cls, ring: GaloisRingSpec, n: int, H: HowellBasis) -> "AdditiveCode":
        """The code whose phi-expanded row module has Howell basis H; its
        generators are the basis rows, and H seeds the expanded caches."""
        code = cls(ring, n, tuple(SymplecticVector.from_components(ring, phi_contract(ring, r))
                                  for r in H.matrix.to_rows()))
        code.__dict__.update(expanded_matrix=H.matrix, expanded_howell=H)
        return code

    @classmethod
    def from_int_rows(cls, ring: GaloisRingSpec, rows: Sequence[Sequence[int]]) -> "AdditiveCode":
        """m=1 convenience: each row is 2n residues."""
        if not rows:
            raise ValueError("need at least one row to infer n; use AdditiveCode directly")
        n = len(rows[0]) // 2
        return cls(ring, n, tuple(SymplecticVector.from_ints(ring, r) for r in rows))

    def contains(self, v: SymplecticVector) -> bool:
        return howell_member(self.expanded_howell, phi_expand(self.ring, v.components))

    def minimal_generating_vectors(self) -> List[SymplecticVector]:
        return [SymplecticVector.from_components(self.ring, phi_contract(self.ring, r))
                for r in self.expanded_smith.generators]


def cardinality(C: AdditiveCode) -> int:
    return C.expanded_howell.cardinality


def same_module(C1: AdditiveCode, C2: AdditiveCode) -> bool:
    return C1.expanded_howell.matrix == C2.expanded_howell.matrix


def _pairing_columns(C: AdditiveCode, scale: int) -> ZpbMatrix:
    """Matrix whose columns are scale * (-B_c, A_c) over C's Smith
    generators c; a vector v is chi-orthogonal (at the given scale) to C
    iff phi(v) lies in the kernel."""
    gens = C.expanded_smith.generators
    N, nm = C.ring.modulus, C.n * C.ring.m
    rows = [[(-scale * g[nm + i]) % N for g in gens] for i in range(nm)]
    rows += [[(scale * g[i]) % N for g in gens] for i in range(nm)]
    return ZpbMatrix.from_reduced(C.ring.p, C.ring.b, rows, len(gens))


def chi_dual_level(C: AdditiveCode, t: int) -> AdditiveCode:
    """C^{chi-dual, t}: vectors v with Tr(<v|c>_s) = 0 mod p^{b-t} for all
    c in C.  t = 0 is the plain chi-dual; t = b is the full ambient space."""
    if not 0 <= t <= C.ring.b:
        raise ValueError("level t out of range")
    return AdditiveCode.from_expanded(C.ring, C.n, C.analysis.dual(t))


def code_intersection(C1: AdditiveCode, C2: AdditiveCode) -> AdditiveCode:
    if C1.ring != C2.ring or C1.n != C2.n:
        raise DimensionMismatch("codes live in different ambient spaces")
    return AdditiveCode.from_expanded(C1.ring, C1.n, intersect(C1.expanded_howell, C2.expanded_howell))


class CodeAnalysis:
    """The objects every parameter of the construction is read off, built
    lazily and at most once per code (``AdditiveCode.analysis``).

    Most come from one small integer matrix, the Gram matrix G[i][j] =
    Tr<c_i|c_j>_s over the rows c_i of S, C's Smith generators: at most
    2nm rows spanning C, however many rows the input has.  The map x*S ->
    x*G takes C onto the row module of G with kernel C cap C^{chi}, and mod
    p^{b-t} with kernel C cap C^{chi,t}.  So rank(C / (C cap C^{chi,t}))
    counts the Smith exponents of G below b - t, rho_t counts those equal
    to b - t, and ``meet`` = C cap C^{chi} is {x*S : x*G = 0}, read off
    one Howell form of [G | S] with no kernel and no intersection.  The
    chi-dual levels (``dual``) are built only when asked for.  Both are
    Howell bases of expanded rows.  ``dual_in_code`` picks D's search set.
    On top sit the checked hyperbolic decomposition and minimal extension.
    Every invariant check runs when its object is first built.
    """

    def __init__(self, code: AdditiveCode):
        self.code = code
        self._duals: Dict[int, HowellBasis] = {}

    def dual(self, t: int) -> HowellBasis:
        """C^{chi-dual, t} = (p^t C)^{chi}, for 0 <= t <= b, checked against
        |(p^t C)^{chi}| * |p^t C| = q^{2n}."""
        if t not in self._duals:
            C = self.code
            p, b = C.ring.p, C.ring.b
            H = kernel(_pairing_columns(C, p ** t))
            scaled = math.prod(p ** max(0, b - t - e) for e in C.expanded_smith.diag_exponents)
            if H.cardinality * scaled != C.ring.cardinality ** (2 * C.n):
                raise InternalInvariantViolation(f"|C^(chi,{t})| * |p^{t} C| is not q^(2n)")
            self._duals[t] = H
        return self._duals[t]

    @cached_property
    def gram(self) -> ZpbMatrix:
        """G[i][j] = Tr<c_i|c_j>_s over C's Smith generators c_i."""
        C = self.code
        nm, N = C.n * C.ring.m, C.ring.modulus
        rows = C.expanded_smith.generators
        gram = [[_expanded_pairing(u, v, nm, N) for v in rows] for u in rows]
        return ZpbMatrix.from_reduced(C.ring.p, C.ring.b, gram, len(rows))

    @cached_property
    def meet(self) -> HowellBasis:
        """C cap C^{chi-dual} = {x*S : x*G = 0}, S being C's Smith
        generators: one Howell form of [G | S]."""
        C = self.code
        S = ZpbMatrix.from_reduced(C.ring.p, C.ring.b, C.expanded_smith.generators, C.ambient_cols)
        return _solve(self.gram, S)

    @cached_property
    def dual_in_code(self) -> bool:
        """The case that picks D's search set, C^{chi} inside C: C cap C^{chi}
        sits in C^{chi}, of size q^{2n} / |C|, so iff |C cap C^{chi}| |C| = q^{2n}."""
        C = self.code
        return self.meet.cardinality * cardinality(C) == C.ring.cardinality ** (2 * C.n)

    @cached_property
    def gram_exponents(self) -> Tuple[int, ...]:
        """Smith exponents of the Gram matrix."""
        return smith_form(self.gram).diag_exponents

    def rank(self, t: int) -> int:
        """rank(C / (C cap C^{chi-dual, t})); at t = 0 this is twice the
        number of hyperbolic pairs."""
        return sum(1 for e in self.gram_exponents if e < self.code.ring.b - t)

    @cached_property
    def rho(self) -> Tuple[int, ...]:
        """(rho_1, ..., rho_{b-1}), rho_t = rank(t-1) - rank(t); each is
        checked to be even."""
        out = []
        for t in range(1, self.code.ring.b):
            rho = self.rank(t - 1) - self.rank(t)
            if rho % 2:
                raise InternalInvariantViolation(f"rho_{t} = {rho} is odd")
            out.append(rho)
        return tuple(out)

    @cached_property
    def decomposition(self) -> "HyperbolicDecomposition":
        from .decompose import _decompose
        return _decompose(self.code)

    @cached_property
    def extension(self) -> "SelfOrthogonalExtension":
        from .extension import _minimal_extension
        return _minimal_extension(self.code)


def is_chi_self_orthogonal(C: AdditiveCode) -> bool:
    gens = C.generators
    return all(char_exponent(symplectic_product(g, h)) == 0
               for i, g in enumerate(gens) for h in gens[i:])


def iterate_codewords(C: AdditiveCode, limit: int = DEFAULT_ENUM_LIMIT) -> Iterator[Tuple[int, ...]]:
    """Every phi-expanded codeword exactly once; raises SearchLimitExceeded."""
    yield from enumerate_module(C.expanded_howell, limit)


def min_symplectic_distance(C: AdditiveCode, limit: int = DEFAULT_ENUM_LIMIT) -> float:
    """D: the exhaustive minimum symplectic weight over C^{chi-dual} if it is
    inside C (``CodeAnalysis.dual_in_code``), else over C^{chi-dual} minus C;
    math.inf when that set minus {0} is empty.  |C^{chi-dual}| = q^{2n} / |C|
    is checked against ``limit`` before the case is read or the dual is built.

    The dual is walked packed, a block at a time (``packed_blocks``): for
    each high vector h one list of ``block_weights`` weighs h - t for every
    table entry t, which runs over the same table as -t does, so the blocks
    cover the dual once.  Only a block's lightest vector, while it would
    lower the running minimum, is unpacked and tested for membership in C.
    """
    n, m, N = C.n, C.ring.m, C.ring.modulus
    size = C.ring.cardinality ** (2 * n) // cardinality(C)
    if size > limit:
        raise SearchLimitExceeded(size, limit)
    skip = None if C.analysis.dual_in_code else C.expanded_howell
    table, highs = packed_blocks(C.analysis.dual(0), limit)
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


def puncture(C: AdditiveCode, keep_n: int) -> AdditiveCode:
    """Drop the last n - keep_n coordinates of each half."""
    if not 0 <= keep_n <= C.n:
        raise DimensionMismatch(f"keep_n = {keep_n} out of range for n = {C.n}")
    gens = tuple(SymplecticVector(C.ring, g.x[:keep_n], g.y[:keep_n]) for g in C.generators)
    return AdditiveCode(C.ring, keep_n, gens)


def is_free(C: AdditiveCode) -> bool:
    return all(e == 0 for e in C.expanded_smith.diag_exponents)
