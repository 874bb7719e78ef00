"""Chi-self-orthogonal extensions, symplectic subsets, minimum entanglement
degree, and the end-to-end parameter pipeline for entanglement-assisted
codes built from additive codes over GR(p^b, m).

An extension is its extended code C', of length n + c, assembled from c
coordinates of tail pairs (``_extend``): pair j of the decomposition gets
the tails (-a.x | a.y) of tail pair j, the isotropic generators get zero
tails, and C' is checked against C once.  Every parameter is read off C'
and c = n' - n.  The minimal extension packs up to m pairs into one
coordinate.  The tests' ``build_extension``, one coordinate per pair, is
the same assembly from other tails.
"""

from __future__ import annotations

import math
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
)
from .decompose import _check_partner_pairings
from .errors import (
    CapacityExceeded,
    InternalInvariantViolation,
    SearchLimitExceeded,
    ZeroTarget,
)
from .frozen import Frozen
from .galois import GaloisRingSpec, RingElement, gen_trace
from .zpblinalg import ZpbMatrix, howell_form


TailPairs = Tuple[Tuple[SymplecticVector, SymplecticVector], ...]


def _rho_growth(C: AdditiveCode) -> int:
    """prod_t p^{(b-t) rho_t}: the rho bound on |C'| / |C| for an extension
    C' of C."""
    ring = C.ring
    return math.prod(ring.p ** ((ring.b - t) * r) for t, r in enumerate(C.rho, start=1))


def _check_extension(Cp: AdditiveCode, C: AdditiveCode) -> None:
    """C' is chi-self-orthogonal, punctures back to C, lies in the rho
    sandwich |C| <= |C'| <= |C| * _rho_growth(C), and is |C| if C is free.
    phi acts coordinate by coordinate, so C' punctured to its first n
    coordinates is its expanded rows cut to the first nm columns of each
    half."""
    if not is_chi_self_orthogonal(Cp):
        raise InternalInvariantViolation("extension is not chi-self-orthogonal")
    ring, nm, half = C.ring, C.n * C.ring.m, Cp.n * C.ring.m
    cut = tuple(r[:nm] + r[half:half + nm] for r in Cp.expanded_matrix.rows)
    if howell_form(ZpbMatrix(ring.p, ring.b, 2 * nm, cut)) != C.expanded_howell:
        raise InternalInvariantViolation("puncturing does not recover the base code")
    card_c, card_ext = cardinality(C), cardinality(Cp)
    if not card_c <= card_ext <= card_c * _rho_growth(C):
        raise InternalInvariantViolation("extension cardinality violates the rho sandwich")
    if is_free(C) and card_ext != card_c:
        raise InternalInvariantViolation("free base must extend without growth")


def _extend(C: AdditiveCode, c: int, tails: TailPairs) -> AdditiveCode:
    """Append (-a.x | a.y) of tail pair j in R^{2c} to each member of pair
    j of C's decomposition and zeros to each isotropic generator; build and
    check C'."""
    ring, d = C.ring, C.decomposition
    zeros = (ring.zero,) * c
    iso = tuple(SymplecticVector(ring, g.x + zeros, g.y + zeros) for g in d.isotropic)
    paired = tuple(SymplecticVector(ring, g.x + tuple(-v for v in a.x), g.y + a.y)
                   for members, pair in zip(d.pairs, tails) for g, a in zip(members, pair))
    Cp = AdditiveCode(ring, C.n + c, iso + paired)
    _check_extension(Cp, C)
    return Cp


def _at(ring: GaloisRingSpec, c: int, k: int, el: RingElement) -> Tuple[RingElement, ...]:
    """The length-c vector with el at coordinate k and zeros elsewhere."""
    return (ring.zero,) * k + (el,) + (ring.zero,) * (c - k - 1)


def construct_symplectic_subset(ring: GaloisRingSpec, c: int,
                                targets: Sequence[int]) -> TailPairs:
    """Pairs (a_{j1}, a_{j2}) in R^{2c} with prescribed character exponents,
    character-trivial everywhere except within each pair.

    Pair j goes into ring coordinate k = j // m with basis index l = j % m:
    a_{j1} = (-z_j dual_l e_k, 0) and a_{j2} = (0, theta^l e_k), so
    <a_{j1}|a_{j2}>_s = z_j theta^l dual_l has exponent z_j, and distinct
    pairs in one coordinate stay character-orthogonal.
    """
    if c < 0:
        raise ValueError(f"c = {c} is negative")
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
    if _check_partner_pairings([v for pair in pairs for v in pair], 0) != zs:
        raise InternalInvariantViolation("a constructed pair misses its target exponent")
    return tuple(pairs)


def minimum_entanglement_degree(C: AdditiveCode) -> int:
    """ceil(r / 2m) with r = rank(C / (C cap C^{chi-dual}))."""
    r = C.rank(0)
    if r % 2:
        raise InternalInvariantViolation(f"rank(C/(C cap dual)) = {r} is odd")
    return -(-r // (2 * C.ring.m))


def _minimal_extension(C: AdditiveCode) -> AdditiveCode:
    """Minimal-degree chi-self-orthogonal extension C' of C, length n + c:
    only c = ceil(pairs / m) coordinates, packing up to m pairs into one
    fresh ring coordinate via a symplectic subset with the grams' exponents
    as targets.  Built and checked once per code as ``C.extension``."""
    d = C.decomposition
    c = -(-d.c // C.ring.m)
    if c != minimum_entanglement_degree(C):
        raise InternalInvariantViolation("pair count disagrees with the degree formula")
    tails = construct_symplectic_subset(C.ring, c, [gen_trace(g) for g in d.grams])
    return _extend(C, c, tails)


class EaqeccParams(Frozen):
    """((n, K, D; c)) parameters of the code built from C.  D is an int,
    math.inf, or None for Unknown; distance_case is 'dual_subset_of_code'
    or 'dual_minus_code'."""

    def __init__(self, n: int, c: int, K_exact: int, K_lower: int, K_upper: int,
                 K_lower_raw: Fraction, D: object, distance_case: str, rho: Tuple[int, ...],
                 card_code: int, card_extended: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "K_exact", K_exact)
        object.__setattr__(self, "K_lower", K_lower)
        object.__setattr__(self, "K_upper", K_upper)
        object.__setattr__(self, "K_lower_raw", K_lower_raw)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "distance_case", distance_case)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "card_code", card_code)
        object.__setattr__(self, "card_extended", card_extended)


def eaqecc_params(C: AdditiveCode, limit: int = DEFAULT_ENUM_LIMIT) -> EaqeccParams:
    """Decompose, minimally extend, and read off ((n, K, D; c)).

    K = q^{n+c}/|C'| exactly; the lower/upper bounds come from the rho
    profile; D and its case come from ``codes``, D being None (unknown)
    when the chi-dual is too large to enumerate.  D is read first, so a
    negative ``limit`` raises ValueError before the extension is built.
    """
    try:
        D = min_symplectic_distance(C, limit)
    except SearchLimitExceeded:
        D = None
    ring, Cp = C.ring, C.extension
    n, c = C.n, Cp.n - C.n
    card_code, card_extended = cardinality(C), cardinality(Cp)
    total = ring.cardinality ** (n + c)
    K_exact, rem = divmod(total, card_extended)
    if rem:
        raise InternalInvariantViolation("q^{n+c} not divisible by |C'|")
    K_upper = total // card_code
    K_lower_raw = Fraction(total, card_code * _rho_growth(C))
    K_lower = max(1, math.floor(K_lower_raw))
    return EaqeccParams(
        n=n, c=c, K_exact=K_exact, K_lower=K_lower, K_upper=K_upper,
        K_lower_raw=K_lower_raw, D=D, rho=C.rho,
        distance_case="dual_subset_of_code" if C.dual_in_code else "dual_minus_code",
        card_code=card_code, card_extended=card_extended)
