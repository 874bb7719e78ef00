"""Brute-force Pauli verifier: X(a)Z(b) as monomial matrices, stabilizer-group
assembly through an effective character xi, projector dimension, and
exhaustive undetectable-error search.

The phase scale is omega = exp(2*pi*i/N) with N = p^b for odd p and 2p^b
for p = 2; the additive character zeta = exp(2*pi*i/p^b) embeds via the
exponent factor N/p^b.  omega^l X(a)Z(b) sends |x> to omega^{l + (N/p^b)
Tr(b.x)} |x + a>: a row permutation and an integer omega exponent per
column, read off q x q tables of ring addition and of Tr(x*y).  Each error
is applied to the code basis U as a row gather and a scale.  Only the
projector (the group's monomials summed into one array), its idempotence
check and its eigendecomposition are dense, and ``pauli_matrix`` for
callers that ask for one operator as a matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import math

from .codes import AdditiveCode, SymplecticVector, chi_dual_level, iterate_codewords
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InternalInvariantViolation,
    NonProjector,
    RingMismatch,
    SearchLimitExceeded,
)
from .extension import SelfOrthogonalExtension
from .galois import GaloisRingSpec, RingElement, gen_trace, phi_contract, phi_expand
from .zpblinalg import smith_form, solve_congruence

# numpy is imported by the functions that use it: only `verify` needs it,
# and importing it at start-up roughly doubles the start-up time and
# resident memory of every other command.
if TYPE_CHECKING:
    import numpy as np

DEFAULT_MATRIX_DIM = 1024


def omega_modulus(ring: GaloisRingSpec) -> int:
    """N: the order of the phase root of unity omega."""
    return ring.modulus * (2 if ring.p == 2 else 1)


@dataclass(frozen=True)
class PauliOperator:
    """omega^phase_exp * X(a) Z(b) acting on n qudits of dimension q."""

    ring: GaloisRingSpec
    n: int
    phase_exp: int
    a: Tuple[RingElement, ...]
    b: Tuple[RingElement, ...]

    def __post_init__(self):
        if len(self.a) != self.n or len(self.b) != self.n:
            raise DimensionMismatch("support length does not match n")
        if any(e.ring != self.ring for e in self.a + self.b):
            raise RingMismatch("component from a different ring")

    @property
    def weight(self) -> int:
        return sum(1 for x, z in zip(self.a, self.b) if x or z)

    def is_scalar(self) -> bool:
        return not any(self.a) and not any(self.b)

    def key(self) -> tuple:
        return (self.phase_exp,
                tuple(e.coeffs for e in self.a), tuple(e.coeffs for e in self.b))


def identity_operator(ring: GaloisRingSpec, n: int) -> PauliOperator:
    z = tuple([ring.zero] * n)
    return PauliOperator(ring, n, 0, z, z)


def from_vector(v: SymplecticVector, phase_exp: int = 0) -> PauliOperator:
    return PauliOperator(v.ring, v.n, phase_exp % omega_modulus(v.ring), v.x, v.y)


def psi_map(P: PauliOperator) -> SymplecticVector:
    """Drop the phase: omega^l X(a)Z(b) -> (a, b)."""
    return SymplecticVector(P.ring, P.a, P.b)


def compose(P: PauliOperator, Q: PauliOperator) -> PauliOperator:
    """P*Q = omega^{phases} chi(b.a') X(a+a') Z(b+b')."""
    if P.ring != Q.ring or P.n != Q.n:
        raise DimensionMismatch("operands act on different spaces")
    ring = P.ring
    N = omega_modulus(ring)
    cross = ring.zero
    for i in range(P.n):
        cross = cross + P.b[i] * Q.a[i]
    phase = (P.phase_exp + Q.phase_exp + (N // ring.modulus) * gen_trace(cross)) % N
    return PauliOperator(ring, P.n, phase,
                         tuple(x + y for x, y in zip(P.a, Q.a)),
                         tuple(x + y for x, y in zip(P.b, Q.b)))


def inverse(P: PauliOperator) -> PauliOperator:
    Q = PauliOperator(P.ring, P.n, 0, tuple(-x for x in P.a), tuple(-x for x in P.b))
    R = compose(P, Q)
    if not R.is_scalar():
        raise InternalInvariantViolation("inverse support mismatch")
    # R carries P's phase plus the cross term, so negating it cancels both
    return PauliOperator(P.ring, P.n, (-R.phase_exp) % omega_modulus(P.ring), Q.a, Q.b)


def operator_power(P: PauliOperator, e: int) -> PauliOperator:
    out = identity_operator(P.ring, P.n)
    for _ in range(e):
        out = compose(out, P)
    return out


def _element_index(z: RingElement) -> int:
    return sum(c * z.ring.modulus ** j for j, c in enumerate(z.coeffs))


class _Monomials:
    """Operators on n qudits as (rows, phase): column x of omega^l X(a)Z(b)
    holds omega^phase[x] in row rows[x], the state index of x + a.  State
    indices are big-endian in the element indices of the qudits."""

    def __init__(self, ring: GaloisRingSpec, n: int, max_dim: int):
        import numpy as np
        q, mod = ring.cardinality, ring.modulus
        if q ** n > max_dim:
            raise DimensionTooLarge(f"q^n = {q ** n} exceeds the matrix cap {max_dim}")
        self.elements = elems = [ring.element([i // mod ** j % mod for j in range(ring.m)])
                                 for i in range(q)]
        self.add = np.array([[_element_index(x + y) for y in elems] for x in elems])
        self.trace = np.array([[gen_trace(x * y) for y in elems] for x in elems])
        self.N = omega_modulus(ring)
        self.chi_scale = self.N // mod
        self.roots = np.exp(2j * np.pi * np.arange(self.N) / self.N)
        self.place = q ** np.arange(n - 1, -1, -1)
        self.states = np.arange(q ** n)
        self.digits = self.states[:, None] // self.place % q

    def of(self, a: Sequence[int], b: Sequence[int], phase_exp: int):
        """(rows, phase) of omega^phase_exp X(a)Z(b), a and b as element indices."""
        rows = self.add[self.digits, a] @ self.place
        dots = self.trace[b, self.digits].sum(axis=1)
        return rows, (phase_exp + self.chi_scale * dots) % self.N

    def dense(self, operators: Sequence[PauliOperator]) -> np.ndarray:
        """The sum of the operators as one dense matrix."""
        import numpy as np
        M = np.zeros((self.states.size, self.states.size), dtype=np.complex128)
        for P in operators:
            rows, phase = self.of([_element_index(e) for e in P.a],
                                  [_element_index(e) for e in P.b], P.phase_exp)
            M[rows, self.states] += self.roots[phase]
        return M


def pauli_matrix(P: PauliOperator, max_dim: int = DEFAULT_MATRIX_DIM) -> np.ndarray:
    """Dense unitary: entry omega^l zeta^{Tr(b.x)} at (x+a, x)."""
    return _Monomials(P.ring, P.n, max_dim).dense([P])


@dataclass(frozen=True)
class StabilizerGroup:
    """One operator per codeword of a chi-self-orthogonal code."""

    ring: GaloisRingSpec
    n: int
    elements: Tuple[PauliOperator, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def build_stabilizer(ext: SelfOrthogonalExtension,
                     max_dim: int = DEFAULT_MATRIX_DIM) -> StabilizerGroup:
    """Assemble A = { xi((X(v)Z(w))^{-1}) X(v)Z(w) : (v,w) in C' }.

    The group generated by omega*I and phase-free lifts of a Smith minimal
    generating set of C' has the diagonal relation lattice o_i g_i = phi_i
    (scalars found by symbolic composition), so the character extension
    with xi(omega*I) = omega reduces to one congruence o_i t_i = phi_i per
    generator.
    """
    ring = ext.extended.ring
    ntot = ext.extended.n
    q = ring.cardinality
    if q ** ntot > max_dim:
        raise DimensionTooLarge(f"q^(n+c) = {q ** ntot} exceeds the matrix cap {max_dim}")
    N = omega_modulus(ring)
    sd = smith_form(ext.extended.expanded_matrix)
    p, b = ring.p, ring.b
    gens: List[PauliOperator] = []
    orders: List[int] = []
    tees: List[int] = []
    for i, e in enumerate(sd.diag_exponents):
        row = tuple((p ** e * x) % ring.modulus for x in sd.right.row(i))
        vec = SymplecticVector.from_components(ring, phi_contract(ring, row))
        g = from_vector(vec)
        o = p ** (b - e)
        pw = operator_power(g, o)
        if not pw.is_scalar():
            raise InternalInvariantViolation("generator order does not annihilate support")
        gens.append(g)
        orders.append(o)
        tees.append(solve_congruence(o, pw.phase_exp, N))
    elements = []
    k = len(gens)
    counter = [0] * k
    while True:
        prod = identity_operator(ring, ntot)
        for i in range(k):
            for _ in range(counter[i]):
                prod = compose(prod, gens[i])
        xi_exp = (-prod.phase_exp + sum(c * t for c, t in zip(counter, tees))) % N
        elements.append(PauliOperator(ring, ntot, (-xi_exp) % N, prod.a, prod.b))
        i = k - 1
        while i >= 0:
            counter[i] += 1
            if counter[i] < orders[i]:
                break
            counter[i] = 0
            i -= 1
        if i < 0:
            break
    group = StabilizerGroup(ring, ntot, tuple(elements))
    _check_stabilizer(group, ext)
    return group


def _check_stabilizer(group: StabilizerGroup, ext: SelfOrthogonalExtension) -> None:
    from .galois import char_exponent
    from .codes import symplectic_product

    for el in group.elements:
        if el.is_scalar() and el.phase_exp != 0:
            raise InternalInvariantViolation("nontrivial scalar in the stabilizer")
    # abelianness on the elements' supports
    for i, eli in enumerate(group.elements):
        for elj in group.elements[i + 1:]:
            if char_exponent(symplectic_product(psi_map(eli), psi_map(elj))) != 0:
                raise InternalInvariantViolation("stabilizer is not abelian")
    # closure at small sizes
    if group.size <= 64:
        keys: Dict[tuple, int] = {el.key(): 1 for el in group.elements}
        for eli in group.elements:
            for elj in group.elements:
                if compose(eli, elj).key() not in keys:
                    raise InternalInvariantViolation("stabilizer is not closed")


def stabilizer_projector(group: StabilizerGroup,
                         max_dim: int = DEFAULT_MATRIX_DIM) -> np.ndarray:
    return _Monomials(group.ring, group.n, max_dim).dense(group.elements) / group.size


def projector_dimension(group: StabilizerGroup,
                        max_dim: int = DEFAULT_MATRIX_DIM) -> int:
    """Trace of the averaged stabilizer sum, asserted idempotent."""
    import numpy as np
    P = stabilizer_projector(group, max_dim)
    if np.max(np.abs(P @ P - P)) > 1e-9:
        raise NonProjector("averaged stabilizer sum is not idempotent")
    tr = np.trace(P)
    k = round(tr.real)
    if abs(tr - k) > 1e-6:
        raise NonProjector(f"projector trace {tr} is not an integer")
    return int(k)


@dataclass(frozen=True)
class ErrorSearchResult:
    dimension: int
    undetectable: Tuple[Tuple[int, ...], ...]  # phi-expanded (a,b) over R^{2n}
    min_weight: float
    set_matches_dual_minus_code: bool
    dim1_distance: object  # min weight with nonzero amplitude, when K = 1


def undetectable_error_search(C: AdditiveCode, ext: SelfOrthogonalExtension,
                              group: StabilizerGroup,
                              limit: int = 1 << 22,
                              max_dim: int = DEFAULT_MATRIX_DIM) -> ErrorSearchResult:
    """Classify every error X(a,0)Z(b,0), (a,b) in R^{2n}, by the matrix
    criterion on an orthonormal basis of the code space, and cross-check
    the undetectable set against C^{chi-dual} minus C."""
    import numpy as np
    ring = C.ring
    n, ntot = C.n, ext.extended.n
    q = ring.cardinality
    if q ** (2 * n) > limit:
        raise SearchLimitExceeded(q ** (2 * n), limit)
    mono = _Monomials(ring, ntot, max_dim)
    P = mono.dense(group.elements) / group.size
    if np.max(np.abs(P @ P - P)) > 1e-9:
        raise NonProjector("averaged stabilizer sum is not idempotent")
    vals, vecs = np.linalg.eigh(P)
    U = vecs[:, vals > 0.5]
    K = U.shape[1]
    Uh, eye = U.conj().T, np.eye(K)
    pad = (0,) * (ntot - n)
    undet: List[Tuple[int, ...]] = []
    best = math.inf
    dim1_best = math.inf
    for ab in itertools.product(range(q), repeat=2 * n):
        if not any(ab):
            continue
        a, b = ab[:n], ab[n:]
        rows, phase = mono.of(a + pad, b + pad, 0)
        EU = np.empty_like(U)
        EU[rows] = mono.roots[phase][:, None] * U
        M = Uh @ EU
        lam = M[0, 0]
        w = sum(1 for x, z in zip(a, b) if x or z)
        if np.max(np.abs(M - lam * eye)) > 1e-8:
            undet.append(phi_expand(ring, [mono.elements[i] for i in ab]))
            best = min(best, w)
        if K == 1 and abs(lam) > 1e-8:
            dim1_best = min(dim1_best, w)
    dual = chi_dual_level(C, 0)
    want = {flat for flat in iterate_codewords(dual, limit)
            if any(flat) and not C.contains(
                SymplecticVector.from_components(ring, phi_contract(ring, flat)))}
    matches = set(undet) == want
    return ErrorSearchResult(
        dimension=K,
        undetectable=tuple(sorted(undet)),
        min_weight=best,
        set_matches_dual_minus_code=matches,
        dim1_distance=(dim1_best if K == 1 else None),
    )
