"""Reference implementations the tests compare the pipeline against.

Each one is the direct, slow form of something the library computes
another way, and nothing in the library calls them:

- ``compose``: the Pauli product, reference for ``_Monomials.multiply``
  and ``build_stabilizer``, and ``group_operators``, a group's index
  triples as operators, for the dense matrix oracles;
- ``monomial_tables``: the verifier's tables built from ring elements,
  reference for ``_Monomials``, which reads them off integers;
- ``frobenius``, ``teichmuller_decompose`` and the Teichmuller table
  ``teich_mod_p``: references for ``gen_trace``;
- ``symplectic_weight``: reference for ``codes.block_weights``, and
  ``combine``, a sum of multiples of vectors over ring elements, which
  the library only forms on phi-expanded rows; ``vector``, the
  ring-level vector of one phi-expanded row, and ``vector_code``, the
  code of ring-level vectors; ``random_code``, the tests' seeded random
  code;
- ``dual_level``: the chi-dual at every level t, reference for the rank
  profile that the Gram matrix's Smith form gives (the library builds
  level 0 only); ``puncture`` and ``same_module``, the ring-level form of
  the puncture check that ``_check_extension`` makes on expanded columns;
- ``build_extension``: the per-pair extension, one coordinate per
  hyperbolic pair, a second input to the verifier;
- ``verify_quasi_symplectic``, ``verify_prop_count`` and ``contains``:
  checks of the paper's statements on subsets, decompositions and codes.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, Sequence, Tuple

from eaqring.codes import AdditiveCode, SymplecticVector, _contract, _pairing_columns, symplectic_product
from eaqring.decompose import HyperbolicDecomposition
from eaqring.errors import DimensionMismatch, InternalInvariantViolation, RingMismatch
from eaqring.extension import _extend
from eaqring.galois import (GaloisRingSpec, RingElement, _dual_coords, _poly_mul_mod, gen_trace,
                            phi_contract, phi_expand)
from eaqring.pauli import PauliOperator, StabilizerGroup, omega_modulus
from eaqring.zpblinalg import ZpbMatrix, howell_member, kernel, smith_form


# ---------------------------------------------------------------- galois

def teich_mod_p(ring: GaloisRingSpec) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """T = (0, 1, beta, ..., beta^{p^m-2}), beta = theta, as coefficient
    tuples keyed by their residues mod p, in that order."""
    return _teich_table(ring.p, ring.b, ring.m, ring.h_coeffs)


@functools.cache
def _teich_table(p: int, b: int, m: int, h: Tuple[int, ...]) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """The table of ``teich_mod_p``, cached on the ring's plain fields, so
    that the cache keeps no ring alive."""
    ring = GaloisRingSpec(p, b, m, h)
    N, beta = ring.modulus, ring.theta.coeffs
    out, cur = [ring.zero.coeffs, ring.one.coeffs], beta
    for _ in range(p ** m - 2):
        out.append(cur)
        cur = _poly_mul_mod(cur, beta, h, N)
    table = {tuple(c % p for c in t): t for t in out}
    if cur != ring.one.coeffs or len(table) != p ** m:
        raise InternalInvariantViolation("Teichmuller set is not p^m distinct roots of unity")
    return table


def teichmuller_set(ring: GaloisRingSpec) -> Tuple[RingElement, ...]:
    """T = (0, 1, beta, beta^2, ..., beta^{p^m-2}) with beta = theta."""
    return tuple(RingElement(ring, c) for c in teich_mod_p(ring).values())


def teichmuller_decompose(z: RingElement) -> Tuple[RingElement, ...]:
    """p-adic digits (z_0, ..., z_{b-1}) of z, each from the Teichmuller set."""
    ring = z.ring
    p, b = ring.p, ring.b
    lookup = teich_mod_p(ring)
    digits = []
    cur = list(z.coeffs)
    for t in range(b):
        d = lookup[tuple(c % p for c in cur)]
        digits.append(RingElement(ring, d))
        # the tail after t digits only lives mod p^{b-t}
        Nt = p ** (b - t)
        cur = [((c - dc) % Nt) // p for c, dc in zip(cur, d)]
    if any(cur):
        raise InternalInvariantViolation("Teichmuller decomposition did not terminate")
    acc = ring.zero
    for t in range(b - 1, -1, -1):
        acc = ring.scalar(p) * acc + digits[t]
    if acc != z:
        raise InternalInvariantViolation("Teichmuller recomposition mismatch")
    return tuple(digits)


def frobenius(z: RingElement) -> RingElement:
    """Generalized Frobenius: p-th power on each Teichmuller digit.

    It is the Z_{p^b}-algebra automorphism sending theta, itself a
    Teichmuller element, to theta^p; evaluated by Horner's rule at theta^p.
    """
    ring = z.ring
    theta_p = ring.theta ** ring.p
    out = ring.zero
    for c in reversed(z.coeffs):
        out = out * theta_p + ring.scalar(c)
    return out


# ---------------------------------------------------------------- codes

def symplectic_weight(v: SymplecticVector) -> int:
    return sum(1 for a, b in zip(v.x, v.y) if a or b)


def combine(terms: Iterable[Tuple[int, SymplecticVector]]) -> SymplecticVector:
    """sum_i c_i v_i over ring elements, for (c_i, v_i) pairs of one ring
    and one length, at least one of them."""
    terms = list(terms)
    ring, n = terms[0][1].ring, terms[0][1].n
    if any(v.ring != ring or v.n != n for _, v in terms):
        raise DimensionMismatch("terms of different rings or lengths")
    return SymplecticVector.from_components(ring, [
        sum((ring.scalar(c) * v.components[i] for c, v in terms), ring.zero) for i in range(2 * n)])


def vector(ring: GaloisRingSpec, flat) -> SymplecticVector:
    """The ring-level vector of a phi-expanded row; for m = 1, of the
    residues x_1..x_n, y_1..y_n."""
    return SymplecticVector.from_components(ring, phi_contract(ring, flat))


def vector_code(ring: GaloisRingSpec, n: int, vectors: Iterable[SymplecticVector]) -> AdditiveCode:
    """The code of length n generated by ring-level vectors."""
    return AdditiveCode(ring, n, [phi_expand(v.components) for v in vectors])


def random_code(ring: GaloisRingSpec, n: int, k: int, rng) -> AdditiveCode:
    """k generators of length n, each coordinate of each entry drawn
    uniformly from ``rng``, entry by entry, then phi-expanded (as
    ``scripts/survey_random_codes.py`` draws its codes)."""
    N, m = ring.modulus, ring.m
    return AdditiveCode(ring, n, [
        phi_expand([ring.element([rng.randrange(N) for _ in range(m)]) for _ in range(2 * n)])
        for _ in range(k)])


def contains(C: AdditiveCode, v: SymplecticVector) -> bool:
    return howell_member(C.expanded_howell, phi_expand(v.components))


def same_module(C1: AdditiveCode, C2: AdditiveCode) -> bool:
    return C1.expanded_howell == C2.expanded_howell


def puncture(C: AdditiveCode, keep_n: int) -> AdditiveCode:
    """Drop the last n - keep_n coordinates of each half."""
    if not 0 <= keep_n <= C.n:
        raise DimensionMismatch(f"keep_n = {keep_n} out of range for n = {C.n}")
    return AdditiveCode(C.ring, keep_n, [phi_expand(g.x[:keep_n] + g.y[:keep_n]) for g in C.generators])


def dual_level(C: AdditiveCode, t: int) -> AdditiveCode:
    """C^{chi-dual, t} = (p^t C)^{chi} as a code, for 0 <= t <= b: the
    vectors v with Tr(<v|c>_s) = 0 mod p^{b-t} for all c in C, the kernel
    of C's pairing columns times p^t.  Level 0 is ``C.dual``, level b the
    whole space.  Checked as ``C.dual`` is, against |(p^t C)^{chi}| *
    |p^t C| = q^{2n}."""
    p, b = C.ring.p, C.ring.b
    if not 0 <= t <= b:
        raise ValueError(f"level t = {t} out of range 0..{b}")
    cols = _pairing_columns(C)
    H = kernel(ZpbMatrix(p, b, cols.cols, tuple(tuple(p ** t * x % cols.modulus for x in r)
                                                for r in cols.rows)))
    scaled = math.prod(p ** max(0, b - t - e) for e in C.expanded_smith.diag_exponents)
    if H.cardinality * scaled != C.ring.cardinality ** (2 * C.n):
        raise InternalInvariantViolation(f"|C^(chi,{t})| * |p^{t} C| is not q^(2n)")
    return AdditiveCode(C.ring, C.n, H.rows)


def verify_prop_count(d: HyperbolicDecomposition, C: AdditiveCode, t: int) -> bool:
    """Number of pair members inside C^{chi-dual,t} equals the rank drop
    from level 0 to level t."""
    dual_t = dual_level(C, t).expanded_howell
    count = sum(1 for pair in d.pairs for member in pair if howell_member(dual_t, member))
    return count == C.rank(0) - C.rank(t)


# ---------------------------------------------------------------- extension

def build_extension(C: AdditiveCode) -> AdditiveCode:
    """One fresh coordinate per hyperbolic pair (u_j, v_j) of C's
    decomposition, from the tails a_{j1} = (-gamma_j e_j, 0), a_{j2} =
    (0, e_j) with gamma_j = <u_j|v_j>_s over ring elements: the first member
    gets gamma_j appended in the x half, the second a unit in the y half."""
    d = C.decomposition
    ring, c = C.ring, d.c
    tails = []
    for j, (u, v) in enumerate(_contract(ring, pair) for pair in d.pairs):
        a1, a2 = [ring.zero] * (2 * c), [ring.zero] * (2 * c)
        a1[j], a2[c + j] = -symplectic_product(u, v), ring.one
        tails.append((phi_expand(a1), phi_expand(a2)))
    return _extend(C, c, tails)


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
    if not Jset <= set(range(e)):
        raise ValueError(f"J = {sorted(Jset)} indexes outside the {e} pairs")
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
        M = ZpbMatrix(ring.p, 1, 2 * pairs[0][0].n, tuple(map(tuple, rows)))
        if len(smith_form(M).diag_exponents) != len(rows):
            return False
    return True


# ---------------------------------------------------------------- pauli

def compose(P: PauliOperator, Q: PauliOperator) -> PauliOperator:
    """P*Q = omega^{phases} chi(b.a') X(a+a') Z(b+b')."""
    if P.ring != Q.ring or P.n != Q.n:
        raise DimensionMismatch("operands act on different spaces")
    ring = P.ring
    N = omega_modulus(ring)
    cross = sum((y * x for y, x in zip(P.b, Q.a)), ring.zero)
    phase = (P.phase_exp + Q.phase_exp + (N // ring.modulus) * gen_trace(cross)) % N
    return PauliOperator(ring, P.n, phase,
                         tuple(x + y for x, y in zip(P.a, Q.a)),
                         tuple(x + y for x, y in zip(P.b, Q.b)))


def indexed_elements(ring: GaloisRingSpec) -> Tuple[RingElement, ...]:
    """The ring's elements as ``pauli._Monomials`` numbers them: element i
    has the base-p^b digits of i as power-basis coordinates."""
    mod = ring.modulus
    return tuple(ring.element([i // mod ** j % mod for j in range(ring.m)])
                 for i in range(ring.cardinality))


def group_operators(group: StabilizerGroup) -> Tuple[PauliOperator, ...]:
    """The group's (l, a, b) triples of element indices as operators."""
    E = indexed_elements(group.ring)
    return tuple(PauliOperator(group.ring, group.n, l, tuple(E[i] for i in a), tuple(E[i] for i in b))
                 for l, a, b in group.elements)


def monomial_tables(ring: GaloisRingSpec):
    """(coords, index, duals, add, trace) of ``pauli._Monomials``, built as
    ring elements (``indexed_elements``); ``add`` and ``trace`` are the
    q x q tables of x + y (as an index) and of Tr(x*y)."""
    elems = indexed_elements(ring)
    index = {e.coeffs: i for i, e in enumerate(elems)}
    duals = [_dual_coords(ring, e.coeffs) for e in elems]
    add = [[index[(x + y).coeffs] for y in elems] for x in elems]
    trace = [[gen_trace(x * y) for y in elems] for x in elems]
    return [e.coeffs for e in elems], index, duals, add, trace
