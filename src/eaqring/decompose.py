"""Symplectic Gram-Schmidt over Z_{p^b}: rewrite a code's generating set as
isotropic generators plus hyperbolic pairs.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .codes import AdditiveCode, SymplecticVector, _expanded_pairing, symplectic_product
from .errors import InternalInvariantViolation, NoSolution
from .frozen import Frozen
from .galois import RingElement, gen_trace, phi_contract
from .zpblinalg import ZpbMatrix, howell_form, howell_member, smith_form, solve_congruence


class HyperbolicDecomposition(Frozen):
    """Generators of C split into isotropic vectors and hyperbolic pairs.

    Each pair ((v_i,w_i),(x_i,y_i)) has character-nontrivial gram
    gamma_i = <(v_i,w_i)|(x_i,y_i)>_s, and every other pairing among the
    listed generators is character-trivial.
    """

    def __init__(self, isotropic: Tuple[SymplecticVector, ...],
                 pairs: Tuple[Tuple[SymplecticVector, SymplecticVector], ...],
                 grams: Tuple[RingElement, ...]):
        object.__setattr__(self, "isotropic", isotropic)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "grams", grams)

    @property
    def c(self) -> int:
        return len(self.pairs)

    def all_generators(self) -> List[SymplecticVector]:
        out = list(self.isotropic)
        for a, b in self.pairs:
            out.extend((a, b))
        return out


def _greedy_extension(base: ZpbMatrix, candidates: Sequence[Tuple[int, ...]]) -> List[int]:
    """Indices of the candidates, in order, that each fall outside the span
    of ``base``'s rows and the candidates already chosen, each chosen one
    joining the current Howell rows.  On pM and M's rows that is a minimal
    generating set of M: rank(M) rows, by Nakayama, with no count given."""
    chosen: List[int] = []
    H = howell_form(base)
    for i, cand in enumerate(candidates):
        if not howell_member(H, cand):
            chosen.append(i)
            H = howell_form(ZpbMatrix(H.p, H.b, H.cols, H.rows + (cand,)))
    return chosen


def _lift_quotient_basis(C: AdditiveCode) -> List[Tuple[int, ...]]:
    """Codewords projecting to a minimal generating set of C/D, with
    D = C cap C^{chi-dual}: C's Smith generators s_i, each kept iff outside
    span(pC + D + those already kept), so minimal by Nakayama.  As x*S ->
    x*G maps C onto the rows of the Gram matrix G with kernel D, the test
    runs on G's rows: G_i outside span(pG + the kept G_j), in k <= 2nm
    columns."""
    G, target = C.gram, C.rank(0)
    pG = ZpbMatrix(G.p, G.b, G.cols, tuple(tuple(G.p * x % G.modulus for x in r) for r in G.rows))
    picks = _greedy_extension(pG, G.rows)
    if len(picks) != target:
        raise InternalInvariantViolation(f"quotient basis lift picked {len(picks)} rows, not {target}")
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
    rows = tuple(tuple(p * x % N for x in r) for r in C.expanded_smith.generators) + tuple(lifted)
    cands = smith_form(C.meet).generators
    base = ZpbMatrix(p, C.ring.b, C.ambient_cols, rows)
    return [cands[i] for i in _greedy_extension(base, cands)]


def hyperbolic_decompose(C: AdditiveCode) -> HyperbolicDecomposition:
    """Split C into isotropic generators and hyperbolic pairs.

    Pivot pairs are chosen by minimal gcd of the pairing exponent with p^b
    (ties: lowest index pair), the rest eliminated through the two solvable
    congruences; leftover generators with all-trivial pairings join the
    isotropic set alongside an isotropic completion drawn from C's
    intersection with its chi-dual.  Built and checked once per code;
    every call returns that same object, ``C.decomposition``.
    """
    return C.decomposition


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

    d = HyperbolicDecomposition(isotropic=isotropic, pairs=tuple(pairs), grams=grams)
    _check_decomposition(d, C)
    return d


def _check_partner_pairings(gens: Sequence[SymplecticVector], k: int) -> Tuple[int, ...]:
    """Check, over every ordered pair of ``gens``, that the character
    pairing is nontrivial exactly between partners, and return each pair's
    exponent gen_trace(<a|b>_s), pair by pair.  The first k vectors are
    isotropic; the rest are pairs (a, b) listed member by member."""
    exponents = []
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            ell = gen_trace(symplectic_product(g, h))
            if i >= k and j >= k and i != j and (i - k) // 2 == (j - k) // 2:
                if ell == 0:
                    raise InternalInvariantViolation("partners pair character-trivially")
                if i < j:
                    exponents.append(ell)
            elif ell != 0:
                raise InternalInvariantViolation("non-partners pair character-nontrivially")
    return tuple(exponents)


def _check_decomposition(d: HyperbolicDecomposition, C: AdditiveCode) -> None:
    gens = d.all_generators()
    _check_partner_pairings(gens, len(d.isotropic))
    rebuilt = AdditiveCode(C.ring, C.n, tuple(gens))
    if rebuilt.expanded_howell != C.expanded_howell:
        raise InternalInvariantViolation("decomposition does not span the code")
    if 2 * d.c != C.rank(0):
        raise InternalInvariantViolation("pair count does not match rank(C/(C cap C-dual))")
