"""Symplectic Gram-Schmidt over Z_{p^b}: rewrite a code's generating set as
isotropic generators plus hyperbolic pairs, and compute the rho profile
tracking how pair pivots degrade across the chi-dual levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .codes import AdditiveCode, SymplecticVector, _expanded_pairing, symplectic_product
from .errors import InternalInvariantViolation, NoSolution
from .galois import RingElement, char_exponent, phi_contract, phi_expand
from .zpblinalg import ZpbMatrix, howell_form, howell_member, smith_form, solve_congruence


@dataclass(frozen=True)
class HyperbolicDecomposition:
    """Generators of C split into isotropic vectors and hyperbolic pairs.

    Each pair ((v_i,w_i),(x_i,y_i)) has character-nontrivial gram
    gamma_i = <(v_i,w_i)|(x_i,y_i)>_s, and every other pairing among the
    listed generators is character-trivial.
    """

    code: AdditiveCode
    isotropic: Tuple[SymplecticVector, ...]
    pairs: Tuple[Tuple[SymplecticVector, SymplecticVector], ...]
    grams: Tuple[RingElement, ...]

    @property
    def c(self) -> int:
        return len(self.pairs)

    def all_generators(self) -> List[SymplecticVector]:
        out = list(self.isotropic)
        for a, b in self.pairs:
            out.extend((a, b))
        return out


def _greedy_extension(base: ZpbMatrix, candidates: Sequence[Tuple[int, ...]],
                      limit: int | None = None) -> List[int]:
    """Indices of the candidates, in order, that each fall outside the span
    of ``base``'s rows and the candidates already chosen, stopping once
    ``limit`` are chosen.  Each chosen candidate joins the current Howell
    rows, which span the same module as everything before them."""
    chosen: List[int] = []
    H = howell_form(base)
    for i, cand in enumerate(candidates):
        if len(chosen) == limit:
            break
        if not howell_member(H, cand):
            chosen.append(i)
            A = H.matrix
            H = howell_form(ZpbMatrix(A.p, A.b, A.rows + 1, A.cols, A.entries + tuple(cand)))
    return chosen


def _lift_quotient_basis(C: AdditiveCode) -> List[Tuple[int, ...]]:
    """Codewords projecting to a minimal generating set of C/D, with
    D = C cap C^{chi-dual}: C's Smith generators s_i, each kept iff outside
    span(pC + D + those already kept), so minimal by Nakayama.  As x*S ->
    x*G maps C onto the rows of the Gram matrix G with kernel D, the test
    runs on G's rows: G_i outside span(pG + the kept G_j), in k <= 2nm
    columns."""
    G, target = C.analysis.gram, C.analysis.rank(0)
    pG = ZpbMatrix(G.p, G.b, G.rows, G.cols, tuple(G.p * x % G.modulus for x in G.entries))
    picks = _greedy_extension(pG, [G.row(i) for i in range(G.rows)], target)
    if len(picks) != target:
        raise InternalInvariantViolation("quotient basis lift fell short")
    return [C.expanded_smith.generators[i] for i in picks]


def _complete_generating_set(C: AdditiveCode, lifted: List[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Isotropic completion: extend the lifted quotient generators to a
    minimal generating set of C with candidates from the minimal generators
    of D = C cap C^{chi-dual} (C = span(lifted) + D, so candidates suffice),
    each kept iff outside span(pC + lifted + those already kept).

    Keeping the full list minimal means it is a basis whenever C is free,
    which the extension's free-module cardinality equality relies on.
    """
    p, N = C.ring.p, C.ring.modulus
    rows = [[p * x % N for x in r] for r in C.expanded_smith.generators] + lifted
    cands = smith_form(C.analysis.meet.matrix).minimal_generators()
    base = ZpbMatrix.from_reduced(p, C.ring.b, rows, C.ambient_cols)
    return [cands[i] for i in _greedy_extension(base, cands)]


def hyperbolic_decompose(C: AdditiveCode) -> HyperbolicDecomposition:
    """Split C into isotropic generators and hyperbolic pairs.

    Pivot pairs are chosen by minimal gcd of the pairing exponent with p^b
    (ties: lowest index pair), the rest eliminated through the two solvable
    congruences; leftover generators with all-trivial pairings join the
    isotropic set alongside an isotropic completion drawn from C's
    intersection with its chi-dual.  Built and checked once per code;
    every call returns that same object from ``C.analysis``.
    """
    return C.analysis.decomposition


def _decompose(C: AdditiveCode) -> HyperbolicDecomposition:
    """Build the decomposition of ``hyperbolic_decompose`` and check it."""
    ring = C.ring
    N = ring.modulus
    nm = C.n * ring.m
    lifted = _lift_quotient_basis(C)
    work = [list(r) for r in lifted]
    pairs: List[Tuple[SymplecticVector, SymplecticVector]] = []
    while True:
        best = None
        best_g = N + 1
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                ell = _expanded_pairing(work[i], work[j], nm, N)
                if ell:
                    g = math.gcd(ell, N)
                    if g < best_g:
                        best, best_g = (i, j), g
        if best is None:
            break
        i, j = best
        g1 = work.pop(j)
        g0 = work.pop(i)
        ell12 = _expanded_pairing(g0, g1, nm, N)
        new_work = []
        for gk in work:
            try:
                u = solve_congruence(ell12, _expanded_pairing(g1, gk, nm, N), N)
                v = solve_congruence(ell12, -_expanded_pairing(g0, gk, nm, N), N)
            except NoSolution:
                raise InternalInvariantViolation(
                    "elimination congruence unsolvable despite minimal-gcd pivot")
            new_work.append([(gk[t] + u * g0[t] + v * g1[t]) % N for t in range(2 * nm)])
        work = new_work
        pairs.append((
            SymplecticVector.from_components(ring, phi_contract(ring, g0)),
            SymplecticVector.from_components(ring, phi_contract(ring, g1)),
        ))

    iso_rows = _complete_generating_set(C, lifted)
    isotropic = tuple(
        SymplecticVector.from_components(ring, phi_contract(ring, r))
        for r in iso_rows + work)
    grams = tuple(symplectic_product(a, bb) for a, bb in pairs)

    d = HyperbolicDecomposition(code=C, isotropic=isotropic, pairs=tuple(pairs), grams=grams)
    _check_decomposition(d)
    return d


def _check_partner_pairings(gens: Sequence[SymplecticVector], k: int) -> None:
    """Check, over every ordered pair of ``gens``, that the character
    pairing is nontrivial exactly between partners.  The first k vectors
    are isotropic; the rest are pairs listed member by member."""
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            ell = char_exponent(symplectic_product(g, h))
            if i >= k and j >= k and i != j and (i - k) // 2 == (j - k) // 2:
                if ell == 0:
                    raise InternalInvariantViolation("partners pair character-trivially")
            elif ell != 0:
                raise InternalInvariantViolation("non-partners pair character-nontrivially")


def _check_decomposition(d: HyperbolicDecomposition) -> None:
    C = d.code
    gens = d.all_generators()
    _check_partner_pairings(gens, len(d.isotropic))
    rebuilt = AdditiveCode(C.ring, C.n, tuple(gens))
    if rebuilt.expanded_howell.matrix != C.expanded_howell.matrix:
        raise InternalInvariantViolation("decomposition does not span the code")
    if 2 * d.c != C.analysis.rank(0):
        raise InternalInvariantViolation("pair count does not match rank(C/(C cap C-dual))")


def rho_profile(C: AdditiveCode) -> Tuple[int, ...]:
    """(rho_1, ..., rho_{b-1}) with rho_t the drop in rank(C/(C cap
    C^{chi-dual,t})) from level t-1 to t; each entry is even and >= 0."""
    return C.analysis.rho


def verify_prop_count(d: HyperbolicDecomposition, C: AdditiveCode, t: int) -> bool:
    """Number of pair members inside C^{chi-dual,t} equals the rank drop
    from level 0 to level t."""
    A = C.analysis
    dual_t = A.dual(t)
    count = sum(1 for pair in d.pairs for member in pair
                if howell_member(dual_t, phi_expand(C.ring, member.components)))
    return count == A.rank(0) - A.rank(t)
