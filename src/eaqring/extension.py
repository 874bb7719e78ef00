"""Chi-self-orthogonal extensions, symplectic subsets, minimum entanglement
degree, and the end-to-end parameter pipeline for entanglement-assisted
codes built from additive codes over GR(p^b, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .codes import (
    DEFAULT_ENUM_LIMIT,
    AdditiveCode,
    SymplecticVector,
    cardinality,
    is_chi_self_orthogonal,
    is_free,
    min_symplectic_distance,
    puncture,
    same_module,
    symplectic_product,
)
from .decompose import HyperbolicDecomposition, rho_profile
from .errors import (
    CapacityExceeded,
    InternalInvariantViolation,
    MismatchedExtension,
    OddRank,
    RingMismatch,
    SearchLimitExceeded,
    ZeroTarget,
)
from .galois import GaloisRingSpec, char_exponent
from .zpblinalg import ZpbMatrix, howell_member, smith_form


@dataclass(frozen=True)
class SymplecticSubset:
    """Pairs (a_{i1}, a_{i2}) in R^{2c} with character-trivial pairings
    everywhere except within each pair."""

    ring: GaloisRingSpec
    c: int
    pairs: Tuple[Tuple[SymplecticVector, SymplecticVector], ...]

    @property
    def e(self) -> int:
        return len(self.pairs)

    def exponents(self) -> Tuple[int, ...]:
        return tuple(char_exponent(symplectic_product(a, b)) for a, b in self.pairs)

    def verify(self) -> None:
        if self.e > self.c * self.ring.m:
            raise CapacityExceeded(f"e = {self.e} exceeds c*m = {self.c * self.ring.m}")
        flat = [v for pair in self.pairs for v in pair]
        for idx1, u in enumerate(flat):
            for idx2, v in enumerate(flat):
                i, s1 = divmod(idx1, 2)
                k, s2 = divmod(idx2, 2)
                ell = char_exponent(symplectic_product(u, v))
                if i == k and s1 != s2:
                    if ell == 0:
                        raise InternalInvariantViolation("pair with trivial character pairing")
                elif ell != 0:
                    raise InternalInvariantViolation("cross pairing is character-nontrivial")


@dataclass(frozen=True)
class SelfOrthogonalExtension:
    """A chi-self-orthogonal code over R^{2(n+c)} puncturing back to base."""

    base: AdditiveCode
    extended: AdditiveCode
    c: int
    card_extended: int
    pair_generators: Tuple[Tuple[SymplecticVector, SymplecticVector], ...]
    isotropic_generators: Tuple[SymplecticVector, ...]

    def verify(self) -> None:
        if not is_chi_self_orthogonal(self.extended):
            raise InternalInvariantViolation("extension is not chi-self-orthogonal")
        if not same_module(puncture(self.extended, self.base.n), self.base):
            raise InternalInvariantViolation("puncturing does not recover the base code")
        card_c = cardinality(self.base)
        rho = rho_profile(self.base)
        bound = card_c
        for t, r in enumerate(rho, start=1):
            bound *= self.base.ring.p ** ((self.base.ring.b - t) * r)
        if not card_c <= self.card_extended <= bound:
            raise InternalInvariantViolation("extension cardinality violates the rho sandwich")
        if is_free(self.base) and self.card_extended != card_c:
            raise InternalInvariantViolation("free base must extend without growth")


def _extend_vector(g: SymplecticVector, c: int,
                   x_tail: Sequence = (), y_tail: Sequence = ()) -> SymplecticVector:
    ring = g.ring
    zeros = [ring.zero] * c
    xt = list(x_tail) if x_tail else list(zeros)
    yt = list(y_tail) if y_tail else list(zeros)
    return SymplecticVector(ring, g.x + tuple(xt), g.y + tuple(yt))


def build_extension(d: HyperbolicDecomposition) -> SelfOrthogonalExtension:
    """One fresh coordinate per hyperbolic pair: the first member gets its
    gram gamma_i appended in the x half, the second member a unit in the y
    half, killing the pairing; isotropic generators are zero-padded."""
    C = d.code
    ring = C.ring
    c = d.c
    iso = tuple(_extend_vector(g, c) for g in d.isotropic)
    pairs = []
    for i, ((g0, g1), gamma) in enumerate(zip(d.pairs, d.grams)):
        x_tail = [ring.zero] * c
        x_tail[i] = gamma
        u1 = _extend_vector(g0, c, x_tail=x_tail)
        y_tail = [ring.zero] * c
        y_tail[i] = ring.one
        u2 = _extend_vector(g1, c, y_tail=y_tail)
        pairs.append((u1, u2))
    gens = list(iso) + [v for pair in pairs for v in pair]
    extended = AdditiveCode(ring, C.n + c, tuple(gens))
    ext = SelfOrthogonalExtension(
        base=C, extended=extended, c=c, card_extended=cardinality(extended),
        pair_generators=tuple(pairs), isotropic_generators=iso)
    ext.verify()
    return ext


def construct_symplectic_subset(ring: GaloisRingSpec, c: int,
                                targets: Sequence[int]) -> SymplecticSubset:
    """Symplectic subset of R^{2c} with prescribed character exponents.

    Pair j goes into ring coordinate j // m using the basis index j % m:
    the first member carries z_j times the dual-basis vector, the second
    the power-basis vector, so distinct pairs in one coordinate stay
    character-orthogonal.  The first member's sign is fixed afterwards so
    the measured exponent equals z_j exactly.
    """
    N = ring.modulus
    e = len(targets)
    if e > c * ring.m:
        raise CapacityExceeded(f"e = {e} exceeds capacity c*m = {c * ring.m}")
    zs = [z % N for z in targets]
    if any(z == 0 for z in zs):
        raise ZeroTarget("target exponent 0 would make the pair character-trivial")
    pairs = []
    for j, z in enumerate(zs):
        k, ell = divmod(j, ring.m)
        x1 = [ring.zero] * c
        x1[k] = ring.dual[ell].scale(z)
        a1 = SymplecticVector(ring, tuple(x1), tuple([ring.zero] * c))
        y2 = [ring.zero] * c
        y2[k] = ring.theta ** ell
        a2 = SymplecticVector(ring, tuple([ring.zero] * c), tuple(y2))
        got = char_exponent(symplectic_product(a1, a2))
        if got != z:
            if got != (-z) % N:
                raise InternalInvariantViolation("constructed pair has unexpected exponent")
            a1 = a1.scale(-1)
        if char_exponent(symplectic_product(a1, a2)) != z:
            raise InternalInvariantViolation("sign fix failed to hit the target exponent")
        pairs.append((a1, a2))
    subset = SymplecticSubset(ring, c, tuple(pairs))
    subset.verify()
    return subset


def minimum_entanglement_degree(C: AdditiveCode) -> int:
    """ceil(r / 2m) with r = rank(C / (C cap C^{chi-dual}))."""
    r = C.analysis.rank(0)
    if r % 2:
        raise OddRank(f"rank(C/(C cap dual)) = {r} is odd")
    return -(-r // (2 * C.ring.m))


def build_minimal_extension(C: AdditiveCode,
                            decomposition: Optional[HyperbolicDecomposition] = None
                            ) -> SelfOrthogonalExtension:
    """Minimal-degree chi-self-orthogonal extension.

    Appends only ceil(pairs / m) coordinates by packing up to m pairs into
    one fresh ring coordinate via a symplectic subset with the grams'
    exponents as targets.  For C's own decomposition (the default) it is
    built and checked once per code and read from ``C.analysis``.
    """
    A = C.analysis
    if decomposition is None or decomposition is A.decomposition:
        return A.extension
    return _minimal_extension(C, decomposition)


def _minimal_extension(C: AdditiveCode, d: HyperbolicDecomposition) -> SelfOrthogonalExtension:
    if d.code is not C and not same_module(d.code, C):
        raise MismatchedExtension("decomposition does not belong to this code")
    ring = C.ring
    c = -(-d.c // ring.m)
    if c != minimum_entanglement_degree(C):
        raise InternalInvariantViolation("pair count disagrees with the degree formula")
    targets = [char_exponent(g) for g in d.grams]
    subset = construct_symplectic_subset(ring, c, targets) if targets else \
        SymplecticSubset(ring, c, ())
    iso = tuple(_extend_vector(g, c) for g in d.isotropic)
    pairs = []
    for (g0, g1), (a1, a2) in zip(d.pairs, subset.pairs):
        u1 = _extend_vector(g0, c, x_tail=[-v for v in a1.x], y_tail=a1.y)
        u2 = _extend_vector(g1, c, x_tail=[-v for v in a2.x], y_tail=a2.y)
        pairs.append((u1, u2))
    gens = list(iso) + [v for pair in pairs for v in pair]
    extended = AdditiveCode(ring, C.n + c, tuple(gens))
    ext = SelfOrthogonalExtension(
        base=C, extended=extended, c=c, card_extended=cardinality(extended),
        pair_generators=tuple(pairs), isotropic_generators=iso)
    ext.verify()
    return ext


def extract_symplectic_subset(ext: SelfOrthogonalExtension,
                              d: HyperbolicDecomposition) -> SymplecticSubset:
    """Read the appended coordinates back off the extended pair generators:
    a_{i1} = (-v_hat, w_hat), a_{i2} = (-x_hat, y_hat)."""
    C = ext.base
    if not same_module(d.code, C) or len(d.pairs) != len(ext.pair_generators):
        raise MismatchedExtension("extension and decomposition disagree")
    ring = C.ring
    n = C.n
    pairs = []
    for (u1, u2), gamma in zip(ext.pair_generators, d.grams):
        a1 = SymplecticVector(ring, tuple(-v for v in u1.x[n:]), u1.y[n:])
        a2 = SymplecticVector(ring, tuple(-v for v in u2.x[n:]), u2.y[n:])
        if char_exponent(symplectic_product(a1, a2)) != char_exponent(gamma):
            raise MismatchedExtension("extracted pair exponent does not match the gram")
        pairs.append((a1, a2))
    subset = SymplecticSubset(ring, ext.c, tuple(pairs))
    subset.verify()
    return subset


def verify_quasi_symplectic(ring: GaloisRingSpec,
                            pairs: Sequence[Tuple[SymplecticVector, SymplecticVector]],
                            J: Sequence[int]) -> bool:
    """Quasi-symplectic check over Z_{p^a} (m = 1 only):

    (a) <a_{i1}|a_{j1}> = 0 for all i, j and <a_{i1}|a_{k2}> = 0 for i != k;
    (b) <a_{i1}|a_{i2}> != 0 off J, and the mod-p reductions of {a_{j1}}
        over J are F_p-independent.
    """
    if ring.m != 1:
        raise RingMismatch("quasi-symplectic subsets are defined over m = 1 rings")
    e = len(pairs)
    Jset = set(J)
    for i in range(e):
        for j in range(e):
            if symplectic_product(pairs[i][0], pairs[j][0]):
                return False
            if i != j and symplectic_product(pairs[i][0], pairs[j][1]):
                return False
    for i in range(e):
        if i not in Jset and not symplectic_product(pairs[i][0], pairs[i][1]):
            return False
    if Jset:
        rows = []
        for j in sorted(Jset):
            a1 = pairs[j][0]
            rows.append([el.coeffs[0] % ring.p for el in a1.components])
        M = ZpbMatrix.from_reduced(ring.p, 1, rows, 2 * pairs[0][0].n)
        if len(smith_form(M).diag_exponents) != len(rows):
            return False
    return True


@dataclass(frozen=True)
class EaqeccParams:
    """((n, K, D; c)) parameters of the code built from C."""

    n: int
    c: int
    K_exact: int
    K_lower: int
    K_upper: int
    K_lower_raw: Fraction
    D: object  # int, math.inf, or None for Unknown
    distance_case: str  # 'dual_subset_of_code' or 'dual_minus_code'
    rho: Tuple[int, ...]
    card_code: int
    card_extended: int
    ring: GaloisRingSpec


def eaqecc_params(C: AdditiveCode, limit: int = DEFAULT_ENUM_LIMIT) -> EaqeccParams:
    """Decompose, minimally extend, and read off ((n, K, D; c)).

    K = q^{n+c}/|C'| exactly; the lower/upper bounds come from the rho
    profile; D follows the case split on whether the chi-dual sits inside
    C, and becomes None (unknown) when the dual is too large to enumerate.
    """
    ring = C.ring
    q = ring.cardinality
    A = C.analysis
    ext = A.extension
    n, c = C.n, ext.c
    card_code = cardinality(C)
    rho = A.rho
    total = q ** (n + c)
    K_exact, rem = divmod(total, ext.card_extended)
    if rem:
        raise InternalInvariantViolation("q^{n+c} not divisible by |C'|")
    K_upper = total // card_code
    growth = 1
    for t, r in enumerate(rho, start=1):
        growth *= ring.p ** ((ring.b - t) * r)
    K_lower_raw = Fraction(total, card_code * growth)
    K_lower = max(1, math.floor(K_lower_raw))
    dual = A.dual(0)
    dual_in_code = all(howell_member(C.expanded_howell, r) for r in dual.expanded_matrix.to_rows())
    case = "dual_subset_of_code" if dual_in_code else "dual_minus_code"
    try:
        D = min_symplectic_distance(C, "dual" if dual_in_code else "dual_minus_code", limit)
    except SearchLimitExceeded:
        D = None
    return EaqeccParams(
        n=n, c=c, K_exact=K_exact, K_lower=K_lower, K_upper=K_upper,
        K_lower_raw=K_lower_raw, D=D, distance_case=case, rho=rho,
        card_code=card_code, card_extended=ext.card_extended, ring=ring)
