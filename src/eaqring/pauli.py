"""Brute-force Pauli verifier: X(a)Z(b) as monomial matrices, stabilizer-group
assembly through an effective character xi, projector dimension, and
exhaustive undetectable-error search.

The phase scale is omega = exp(2*pi*i/N) with N = p^b for odd p and 2p^b
for p = 2; the additive character zeta = exp(2*pi*i/p^b) embeds via the
exponent factor N/p^b.  omega^l X(a)Z(b) sends |x> to omega^{l + (N/p^b)
Tr(b.x)} |x + a>, so with the ring elements numbered, everything is read
off q x q tables of ring addition and of Tr(x*y).  The stabilizer group is
built and checked as (l, a, b) triples of element indices; it keeps those
tables and its projector (its monomials summed, checked idempotent once).
As a matrix an operator is a row permutation and an omega exponent per
column, and each error is applied to the code basis U as a row gather and
a scale.  The undetectable set is cross-checked on integer rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Sequence, Tuple

import math

from .codes import DEFAULT_ENUM_LIMIT, AdditiveCode, SymplecticVector, _expanded_pairing
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InternalInvariantViolation,
    NoSolution,
    RingMismatch,
    SearchLimitExceeded,
)
from .extension import SelfOrthogonalExtension
from .galois import GaloisRingSpec, RingElement, _dual_coords, gen_trace, phi_expand
from .zpblinalg import enumerate_module, howell_member, solve_congruence

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


def psi_map(P: PauliOperator) -> SymplecticVector:
    """Drop the phase: omega^l X(a)Z(b) -> (a, b)."""
    return SymplecticVector(P.ring, P.a, P.b)


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


Triple = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


def _check_dim(ring: GaloisRingSpec, n: int, max_dim: int, what: str = "q^n") -> None:
    """Raise DimensionTooLarge, before any dense work, when q^n > max_dim."""
    if ring.cardinality ** n > max_dim:
        raise DimensionTooLarge(f"{what} = {ring.cardinality ** n} exceeds the matrix cap {max_dim}")


class _Monomials:
    """Operators on n qudits, as triples and as matrices.  The triple
    (l, a, b) is omega^l X(a)Z(b), a and b tuples of element indices
    sum_j c_j (p^b)^j over power-basis coordinates c_j; ``add`` and
    ``trace`` are the q x q tables of x + y (as an index) and of Tr(x*y),
    as int lists and numpy copies.  As a matrix, column x holds
    omega^phase[x] in row rows[x], the state index of x + a, big-endian in
    the qudits' element indices."""

    def __init__(self, ring: GaloisRingSpec, n: int):
        import numpy as np
        q, mod = ring.cardinality, ring.modulus
        self.elements = elems = [ring.element([i // mod ** j % mod for j in range(ring.m)])
                                 for i in range(q)]
        self.index = index = {e.coeffs: i for i, e in enumerate(elems)}
        self.dual_index = {_dual_coords(e): i for i, e in enumerate(elems)}
        self.add = [[index[(x + y).coeffs] for y in elems] for x in elems]
        self.trace = [[gen_trace(x * y) for y in elems] for x in elems]
        self.m, self.modulus, self.N = ring.m, mod, omega_modulus(ring)
        self.chi_scale = self.N // mod
        self.add_array, self.trace_array = np.array(self.add), np.array(self.trace)
        self.roots = np.exp(2j * np.pi * np.arange(self.N) / self.N)
        self.place = q ** np.arange(n - 1, -1, -1)
        self.states = np.arange(q ** n)
        self.digits = self.states[:, None] // self.place % q

    def from_row(self, row: Sequence[int]) -> Triple:
        """X(a)Z(b) of the phi-expanded row (a | b), as ``phi_expand`` writes it."""
        cuts = [tuple(row[s:s + self.m]) for s in range(0, len(row), self.m)]
        half = len(cuts) // 2
        return (0, tuple(self.index[c] for c in cuts[:half]),
                tuple(self.dual_index[c] for c in cuts[half:]))

    def multiply(self, P: Triple, Q: Triple) -> Triple:
        """P*Q by the rule of ``compose``, in table lookups."""
        (l, a, b), (l2, a2, b2) = P, Q
        add, tr = self.add, self.trace
        cross = sum(tr[y][x] for y, x in zip(b, a2))
        return ((l + l2 + self.chi_scale * cross) % self.N,
                tuple(add[x][y] for x, y in zip(a, a2)), tuple(add[x][y] for x, y in zip(b, b2)))

    def of(self, a: Sequence[int], b: Sequence[int], phase_exp: int):
        """(rows, phase) of omega^phase_exp X(a)Z(b), a and b as element indices."""
        rows = self.add_array[self.digits, a] @ self.place
        dots = self.trace_array[b, self.digits].sum(axis=1)
        return rows, (phase_exp + self.chi_scale * dots) % self.N

    def dense(self, operators: Sequence[PauliOperator]) -> np.ndarray:
        """The sum of the operators as one dense matrix."""
        import numpy as np
        M = np.zeros((self.states.size, self.states.size), dtype=np.complex128)
        for P in operators:
            rows, phase = self.of([self.index[e.coeffs] for e in P.a],
                                  [self.index[e.coeffs] for e in P.b], P.phase_exp)
            M[rows, self.states] += self.roots[phase]
        return M


def pauli_matrix(P: PauliOperator, max_dim: int = DEFAULT_MATRIX_DIM) -> np.ndarray:
    """Dense unitary: entry omega^l zeta^{Tr(b.x)} at (x+a, x)."""
    _check_dim(P.ring, P.n, max_dim)
    return _Monomials(P.ring, P.n).dense([P])


@dataclass(frozen=True)
class StabilizerGroup:
    """One operator per codeword of a chi-self-orthogonal code, with its
    monomial tables and checked projector, each built once per group."""

    ring: GaloisRingSpec
    n: int
    elements: Tuple[PauliOperator, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def _tables(self) -> _Monomials:
        return _Monomials(self.ring, self.n)

    @cached_property
    def _projector(self) -> np.ndarray:
        """The averaged monomial sum, checked idempotent, read-only."""
        import numpy as np
        P = self._tables.dense(self.elements) / self.size
        if np.max(np.abs(P @ P - P)) > 1e-9:
            raise InternalInvariantViolation("averaged stabilizer sum is not idempotent")
        P.flags.writeable = False
        return P


def build_stabilizer(ext: SelfOrthogonalExtension,
                     max_dim: int = DEFAULT_MATRIX_DIM) -> StabilizerGroup:
    """Assemble A = { xi((X(v)Z(w))^{-1}) X(v)Z(w) : (v,w) in C' }.

    The group generated by omega*I and phase-free lifts g_i of a Smith
    minimal generating set of C' has the diagonal relation lattice
    o_i g_i = phi_i (the scalar g_i^{o_i}), so the character extension with
    xi(omega*I) = omega reduces to one congruence o_i t_i = phi_i per
    generator.  The elements are g_1^{c_1} ... g_k^{c_k}, c_k fastest, with
    phase lowered by sum_i c_i t_i: each generator in turn multiplies every
    prefix product by its powers, all as triples of element indices.
    """
    ring = ext.extended.ring
    ntot = ext.extended.n
    _check_dim(ring, ntot, max_dim, "q^(n+c)")
    T = _Monomials(ring, ntot)
    sd = ext.extended.expanded_smith
    rows = sd.minimal_generators()
    elements: List[Triple] = [(0, (0,) * ntot, (0,) * ntot)]
    for row, e in zip(rows, sd.diag_exponents):
        powers = _generator_powers(T, T.from_row(row), ring.p ** (ring.b - e))
        elements = [T.multiply(P, g) for P in elements for g in powers]
    _check_stabilizer(T, elements, rows)
    E = T.elements
    group = StabilizerGroup(ring, ntot, tuple(
        PauliOperator(ring, ntot, l, tuple(E[i] for i in a), tuple(E[i] for i in b))
        for l, a, b in elements))
    group.__dict__["_tables"] = T
    return group


def _generator_powers(T: _Monomials, g: Triple, o: int) -> List[Triple]:
    """g^0, ..., g^{o-1}, with g^c's phase lowered by c t where omega^{o t}
    is the scalar g^o; raises if g^o is not a scalar."""
    powers = [(0, (0,) * len(g[1]), (0,) * len(g[2]))]
    for _ in range(o):
        powers.append(T.multiply(powers[-1], g))
    phi, a, b = powers.pop()
    if any(a) or any(b):
        raise InternalInvariantViolation("generator order does not annihilate support")
    try:
        t = solve_congruence(o, phi, T.N)
    except NoSolution:
        raise InternalInvariantViolation(f"o t = {phi} (mod {T.N}) has no solution for o = {o}")
    return [((l - c * t) % T.N, a, b) for c, (l, a, b) in enumerate(powers)]


def _check_stabilizer(T: _Monomials, elements: Sequence[Triple],
                      gen_rows: Sequence[Sequence[int]]) -> None:
    """No scalar but the identity; the phi-expanded generator rows of C'
    pair trivially under the integer trace form, so the group they generate
    is abelian; and, at most 64 elements, closure under composition."""
    for l, a, b in elements:
        if l and not any(a) and not any(b):
            raise InternalInvariantViolation("nontrivial scalar in the stabilizer")
    for i, u in enumerate(gen_rows):
        if any(_expanded_pairing(u, v, len(u) // 2, T.modulus) for v in gen_rows[i + 1:]):
            raise InternalInvariantViolation("stabilizer is not abelian")
    if len(elements) <= 64:
        members = set(elements)
        if any(T.multiply(P, Q) not in members for P in elements for Q in elements):
            raise InternalInvariantViolation("stabilizer is not closed")


def stabilizer_projector(group: StabilizerGroup,
                         max_dim: int = DEFAULT_MATRIX_DIM) -> np.ndarray:
    """The averaged stabilizer sum, checked idempotent, built once per group."""
    _check_dim(group.ring, group.n, max_dim)
    return group._projector


def projector_dimension(group: StabilizerGroup,
                        max_dim: int = DEFAULT_MATRIX_DIM) -> int:
    """Trace of the checked projector, asserted an integer."""
    import numpy as np
    tr = np.trace(stabilizer_projector(group, max_dim))
    k = round(tr.real)
    if abs(tr - k) > 1e-6:
        raise InternalInvariantViolation(f"projector trace {tr} is not an integer")
    return int(k)


@dataclass(frozen=True)
class ErrorSearchResult:
    dimension: int
    undetectable: Tuple[Tuple[int, ...], ...]  # phi-expanded (a,b) over R^{2n}
    min_weight: float
    set_matches_dual_minus_code: bool
    dim1_distance: object  # min weight with nonzero amplitude, when K = 1


def undetectable_error_search(C: AdditiveCode, group: StabilizerGroup,
                              limit: int = DEFAULT_ENUM_LIMIT,
                              max_dim: int = DEFAULT_MATRIX_DIM) -> ErrorSearchResult:
    """Classify every error X(a,0)Z(b,0), (a,b) in R^{2n}, by the matrix
    criterion on an orthonormal basis of the code space, and cross-check
    the undetectable set against C^{chi-dual} minus C.  The group must be
    over C's ring and act on at least C's n coordinates."""
    if group.ring != C.ring:
        raise RingMismatch("the stabilizer group is over a different ring than the code")
    if group.n < C.n:
        raise DimensionMismatch(f"the stabilizer group acts on n = {group.n} < {C.n} coordinates")
    import numpy as np
    ring = C.ring
    n, ntot = C.n, group.n
    q = ring.cardinality
    if q ** (2 * n) > limit:
        raise SearchLimitExceeded(q ** (2 * n), limit)
    vals, vecs = np.linalg.eigh(stabilizer_projector(group, max_dim))
    mono = group._tables
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
    want = {flat for flat in enumerate_module(C.analysis.dual(0), limit)
            if any(flat) and not howell_member(C.expanded_howell, flat)}
    return ErrorSearchResult(
        dimension=K,
        undetectable=tuple(sorted(undet)),
        min_weight=best,
        set_matches_dual_minus_code=set(undet) == want,
        dim1_distance=(dim1_best if K == 1 else None),
    )
