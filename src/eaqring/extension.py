"""Chi-self-orthogonal extensions, symplectic subsets, minimum entanglement
degree, and the end-to-end parameter pipeline for entanglement-assisted
codes built from additive codes over GR(p^b, m).

Both extensions are one assembly from a symplectic subset of R^{2c}: pair j
of the decomposition gets the tails (-a.x | a.y) of subset pair j, the
isotropic generators get zero tails, and the subset is kept on the
extension as ``ext.subset``.  ``build_extension`` gives each pair its own
coordinate; the minimal extension packs up to m pairs into one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

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
from .decompose import HyperbolicDecomposition, _check_partner_pairings
from .errors import (
    CapacityExceeded,
    InternalInvariantViolation,
    RingMismatch,
    SearchLimitExceeded,
    ZeroTarget,
)
from .galois import GaloisRingSpec, RingElement, char_exponent
from .zpblinalg import ZpbMatrix, smith_form


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
        _check_partner_pairings([v for pair in self.pairs for v in pair], 0)


def _rho_growth(C: AdditiveCode) -> int:
    """prod_t p^{(b-t) rho_t}: the rho bound on |C'| / |C| for an extension
    C' of C."""
    ring = C.ring
    return math.prod(ring.p ** ((ring.b - t) * r) for t, r in enumerate(C.analysis.rho, start=1))


@dataclass(frozen=True)
class SelfOrthogonalExtension:
    """A chi-self-orthogonal code over R^{2(n+c)} puncturing back to base,
    with the symplectic subset whose members are its pairs' tails."""

    base: AdditiveCode
    extended: AdditiveCode
    c: int
    card_extended: int
    pair_generators: Tuple[Tuple[SymplecticVector, SymplecticVector], ...]
    isotropic_generators: Tuple[SymplecticVector, ...]
    subset: SymplecticSubset

    def verify(self) -> None:
        if not is_chi_self_orthogonal(self.extended):
            raise InternalInvariantViolation("extension is not chi-self-orthogonal")
        if not same_module(puncture(self.extended, self.base.n), self.base):
            raise InternalInvariantViolation("puncturing does not recover the base code")
        card_c = cardinality(self.base)
        if not card_c <= self.card_extended <= card_c * _rho_growth(self.base):
            raise InternalInvariantViolation("extension cardinality violates the rho sandwich")
        if is_free(self.base) and self.card_extended != card_c:
            raise InternalInvariantViolation("free base must extend without growth")


def _extend(C: AdditiveCode, d: HyperbolicDecomposition,
            subset: SymplecticSubset) -> SelfOrthogonalExtension:
    """Append (-a.x | a.y) of subset pair j to each member of decomposition
    pair j and zeros to each isotropic generator; build and check C'."""
    ring, c = C.ring, subset.c
    zeros = (ring.zero,) * c
    iso = tuple(SymplecticVector(ring, g.x + zeros, g.y + zeros) for g in d.isotropic)
    pairs = tuple(
        tuple(SymplecticVector(ring, g.x + tuple(-v for v in a.x), g.y + a.y)
              for g, a in zip(members, tails))
        for members, tails in zip(d.pairs, subset.pairs))
    gens = iso + tuple(v for pair in pairs for v in pair)
    extended = AdditiveCode(ring, C.n + c, gens)
    ext = SelfOrthogonalExtension(
        base=C, extended=extended, c=c, card_extended=cardinality(extended),
        pair_generators=pairs, isotropic_generators=iso, subset=subset)
    ext.verify()
    return ext


def _at(ring: GaloisRingSpec, c: int, k: int, el: RingElement) -> Tuple[RingElement, ...]:
    """The length-c vector with el at coordinate k and zeros elsewhere."""
    return (ring.zero,) * k + (el,) + (ring.zero,) * (c - k - 1)


def build_extension(d: HyperbolicDecomposition) -> SelfOrthogonalExtension:
    """One fresh coordinate per hyperbolic pair, from the subset
    a_{j1} = (-gamma_j e_j, 0), a_{j2} = (0, e_j): the first member gets
    gamma_j appended in the x half, the second a unit in the y half."""
    ring, c = d.code.ring, d.c
    zeros = (ring.zero,) * c
    pairs = tuple((SymplecticVector(ring, _at(ring, c, j, -gamma), zeros),
                   SymplecticVector(ring, zeros, _at(ring, c, j, ring.one)))
                  for j, gamma in enumerate(d.grams))
    return _extend(d.code, d, SymplecticSubset(ring, c, pairs))


def construct_symplectic_subset(ring: GaloisRingSpec, c: int,
                                targets: Sequence[int]) -> SymplecticSubset:
    """Symplectic subset of R^{2c} with prescribed character exponents.

    Pair j goes into ring coordinate k = j // m with basis index l = j % m:
    a_{j1} = (-z_j dual_l e_k, 0) and a_{j2} = (0, theta^l e_k), so
    <a_{j1}|a_{j2}>_s = z_j theta^l dual_l has exponent z_j, and distinct
    pairs in one coordinate stay character-orthogonal.
    """
    N = ring.modulus
    e = len(targets)
    if e > c * ring.m:
        raise CapacityExceeded(f"e = {e} exceeds capacity c*m = {c * ring.m}")
    zs = tuple(z % N for z in targets)
    if 0 in zs:
        raise ZeroTarget("target exponent 0 would make the pair character-trivial")
    zeros = (ring.zero,) * c
    dual = ring.dual
    pairs = []
    for j, z in enumerate(zs):
        k, ell = divmod(j, ring.m)
        pairs.append((SymplecticVector(ring, _at(ring, c, k, dual[ell].scale(-z)), zeros),
                      SymplecticVector(ring, zeros, _at(ring, c, k, ring.theta ** ell))))
    subset = SymplecticSubset(ring, c, tuple(pairs))
    if subset.exponents() != zs:
        raise InternalInvariantViolation("a constructed pair misses its target exponent")
    subset.verify()
    return subset


def minimum_entanglement_degree(C: AdditiveCode) -> int:
    """ceil(r / 2m) with r = rank(C / (C cap C^{chi-dual}))."""
    r = C.analysis.rank(0)
    if r % 2:
        raise InternalInvariantViolation(f"rank(C/(C cap dual)) = {r} is odd")
    return -(-r // (2 * C.ring.m))


def build_minimal_extension(C: AdditiveCode) -> SelfOrthogonalExtension:
    """Minimal-degree chi-self-orthogonal extension of C's decomposition.

    Appends only ceil(pairs / m) coordinates by packing up to m pairs into
    one fresh ring coordinate via a symplectic subset with the grams'
    exponents as targets.  Built and checked once per code; every call
    returns that same object from ``C.analysis``.
    """
    return C.analysis.extension


def _minimal_extension(C: AdditiveCode) -> SelfOrthogonalExtension:
    d = C.analysis.decomposition
    c = -(-d.c // C.ring.m)
    if c != minimum_entanglement_degree(C):
        raise InternalInvariantViolation("pair count disagrees with the degree formula")
    subset = construct_symplectic_subset(C.ring, c, [char_exponent(g) for g in d.grams])
    return _extend(C, d, subset)


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
    K_lower_raw = Fraction(total, card_code * _rho_growth(C))
    K_lower = max(1, math.floor(K_lower_raw))
    # C cap C^chi sits inside C^chi, of size q^{2n} / |C|: equal sizes mean
    # C^chi is inside C, and the chi-dual itself is built only to search D
    dual_in_code = A.meet.cardinality * card_code == q ** (2 * n)
    case = "dual_subset_of_code" if dual_in_code else "dual_minus_code"
    try:
        D = min_symplectic_distance(C, "dual" if dual_in_code else "dual_minus_code", limit)
    except SearchLimitExceeded:
        D = None
    return EaqeccParams(
        n=n, c=c, K_exact=K_exact, K_lower=K_lower, K_upper=K_upper,
        K_lower_raw=K_lower_raw, D=D, distance_case=case, rho=rho,
        card_code=card_code, card_extended=ext.card_extended, ring=ring)
