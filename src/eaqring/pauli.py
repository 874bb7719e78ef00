"""Exact Pauli verifier: X(a)Z(b) as monomial operators on integer states,
stabilizer-group assembly through an effective character xi, the code space
as orbit sums, and exhaustive undetectable-error search.

The phase scale is omega = exp(2*pi*i/N) with N = p^b for odd p and 2p^b
for p = 2; the additive character zeta = exp(2*pi*i/p^b) embeds via the
exponent factor N/p^b.  omega^l X(a)Z(b) sends |x> to omega^{l + (N/p^b)
Tr(b.x)} |x + a>, read off q x q tables of ring addition and of Tr(x*y)
over numbered ring elements.  The group is built and checked as (l, a, b)
triples of element indices, closure as S g in S for each generator g.  Its
code space is spanned by the orbit sums v_x = sum_g g|x> that do not
vanish, one per orbit x + A.  Each sum of powers of omega the verifier
decides, in the basis check and in each entry of U^H E U = lambda I, is
one int packing its coordinates in Z[omega]'s power basis (``_packing``):
no decision is made in floating point.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from types import MappingProxyType
from operator import add
from typing import TYPE_CHECKING, Callable, List, Mapping, Sequence, Tuple

import math

from .codes import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_MATRIX_DIM,
    AdditiveCode,
    SymplecticVector,
    _expanded_pairing,
)
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InternalInvariantViolation,
    NoSolution,
    RingMismatch,
    SearchLimitExceeded,
    size_text,
)
from .extension import SelfOrthogonalExtension
from .frozen import Frozen
from .galois import GaloisRingSpec, RingElement, _dual_coords, gen_trace
from .zpblinalg import enumerate_module, solve_congruence

if TYPE_CHECKING:
    import numpy as np


def omega_modulus(ring: GaloisRingSpec) -> int:
    """N: the order of the phase root of unity omega."""
    return ring.modulus * (2 if ring.p == 2 else 1)


def _packing(N: int, p: int, most: int) -> Tuple[List[int], Callable[[int], int]]:
    """(unit, lower) for sums of powers of omega, omega of order N a power
    of p, in which no power occurs more than ``most`` times.  Such a sum is
    the int sum_y unit[k_y], k_y < 2N: N lanes of W = bit_length(most) + 2
    bits, lane k counting omega^k.  ``lower`` takes it to Z[omega]'s power
    basis {omega^k : k < N - N/p} in one step, by omega^(N - N/p + r) =
    -sum_{t<p-1} omega^(r + t N/p) (Phi_N = sum_{t<p} x^(t N/p)).  Each
    lowered lane lies in (-2^(W-2), 2^(W-2)), so the lowered int is 0 iff
    the sum is, and two are equal iff their sums are: the lanes of a
    difference of two still fit."""
    W, step = most.bit_length() + 2, N // p
    shift = W * (N - step)
    unit = [1 << W * (k % N) for k in range(2 * N)]
    low, rep = (1 << shift) - 1, sum(1 << W * t * step for t in range(p - 1))
    return unit, lambda acc: (acc & low) - (acc >> shift) * rep


class PauliOperator(Frozen):
    """omega^phase_exp * X(a) Z(b) acting on n qudits of dimension q."""

    def __init__(self, ring: GaloisRingSpec, n: int, phase_exp: int,
                 a: Tuple[RingElement, ...], b: Tuple[RingElement, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "phase_exp", phase_exp)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != n or len(b) != n:
            raise DimensionMismatch("support length does not match n")
        if any(e.ring != ring for e in a + b):
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
    if (size := ring.cardinality ** n) > max_dim:
        raise DimensionTooLarge(f"{what} = {size_text(size)} exceeds the matrix cap {max_dim}")


class _Monomials:
    """Operators on n qudits as triples (l, a, b): omega^l X(a)Z(b), a and b
    tuples of element indices sum_j c_j (p^b)^j over power-basis coordinates
    c_j, and ``duals`` holds each element's dual-basis coordinates.  ``add``
    and ``trace`` are the q x q tables of x + y (as an index) and of
    Tr(x*y), as int lists.  A state is an int, big-endian in the
    qudits' element indices; there are ``states`` = q^n of them."""

    def __init__(self, ring: GaloisRingSpec, n: int):
        q, mod = ring.cardinality, ring.modulus
        self.elements = elems = [ring.element([i // mod ** j % mod for j in range(ring.m)])
                                 for i in range(q)]
        self.index = index = {e.coeffs: i for i, e in enumerate(elems)}
        self.duals = [_dual_coords(e) for e in elems]
        self.dual_index = {d: i for i, d in enumerate(self.duals)}
        self.add = [[index[(x + y).coeffs] for y in elems] for x in elems]
        self.trace = [[gen_trace(x * y) for y in elems] for x in elems]
        self.p, self.m, self.modulus, self.N = ring.p, ring.m, mod, omega_modulus(ring)
        self.chi_scale = self.N // mod
        self.states = q ** n

    def from_row(self, row: Sequence[int]) -> Triple:
        """X(a)Z(b) of the phi-expanded row (a | b), as ``phi_expand`` writes it."""
        cuts = [tuple(row[s:s + self.m]) for s in range(0, len(row), self.m)]
        half = len(cuts) // 2
        return (0, tuple(self.index[c] for c in cuts[:half]),
                tuple(self.dual_index[c] for c in cuts[half:]))

    def from_operator(self, P: PauliOperator) -> Triple:
        """omega^l X(a)Z(b) of a ``PauliOperator``, as a triple."""
        return (P.phase_exp, tuple(self.index[e.coeffs] for e in P.a),
                tuple(self.index[e.coeffs] for e in P.b))

    def multiply(self, P: Triple, Q: Triple) -> Triple:
        """P*Q by the rule of ``compose``, in table lookups."""
        (l, a, b), (l2, a2, b2) = P, Q
        add, tr = self.add, self.trace
        cross = sum(tr[y][x] for y, x in zip(b, a2))
        return ((l + l2 + self.chi_scale * cross) % self.N,
                tuple(add[x][y] for x, y in zip(a, a2)), tuple(add[x][y] for x, y in zip(b, b2)))

    def of(self, l: int, a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
        """(rows, phase): omega^l X(a)Z(b) sends state x to omega^phase[x] |rows[x]>."""
        q, rows, dots = len(self.add), [0], [0]
        for x, z in zip(a, b):
            rows = [r * q + y for r in rows for y in self.add[x]]
            dots = [f + t for f in dots for t in self.trace[z]]
        return rows, [(l + self.chi_scale * f) % self.N for f in dots]


def pauli_matrix(P: PauliOperator, max_dim: int = DEFAULT_MATRIX_DIM) -> np.ndarray:
    """Dense unitary: entry omega^l zeta^{Tr(b.x)} at (x+a, x)."""
    import numpy as np
    _check_dim(P.ring, P.n, max_dim)
    T = _Monomials(P.ring, P.n)
    rows, phase = T.of(*T.from_operator(P))
    M = np.zeros((T.states, T.states), dtype=np.complex128)
    M[rows, range(T.states)] = np.exp(2j * np.pi * np.array(phase) / T.N)
    return M


class StabilizerGroup(Frozen):
    """One operator per codeword of a chi-self-orthogonal code, with its
    monomial tables and checked code-space basis, each built once per group."""

    def __init__(self, ring: GaloisRingSpec, n: int, elements: Tuple[PauliOperator, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def _tables(self) -> _Monomials:
        return _Monomials(self.ring, self.n)

    @cached_property
    def _triples(self) -> Tuple[Triple, ...]:
        """The elements as (l, a, b) triples of element indices."""
        return tuple(map(self._tables.from_operator, self.elements))

    @cached_property
    def _basis(self) -> Tuple[Mapping[int, int], ...]:
        """The code space: one read-only {state: omega exponent} per orbit sum
        v_x = sum_g g|x> that does not vanish.  An orbit sum either lowers to
        0 at every state, or equals at each its term count times omega to
        the exponent of its first term; and sum_g g v = |S| v is checked on
        each, the exact form of P^2 = P for P = sum_g g / |S|.  Every sum is
        decided as one packed int (``_packing``)."""
        T = self._tables
        ops = [T.of(*g) for g in self._triples]
        unit, lower = _packing(T.N, T.p, len(ops))
        basis, seen = [], set()
        for x in range(T.states):
            if x not in seen:
                terms: dict = {}
                for rows, phase in ops:
                    terms.setdefault(rows[x], []).append(phase[x])
                seen.update(terms)
                sums = [lower(sum(map(unit.__getitem__, ks))) for ks in terms.values()]
                if any(sums):
                    if sums != [lower(len(ks) * unit[ks[0]]) for ks in terms.values()]:
                        raise InternalInvariantViolation("averaged stabilizer sum is not idempotent")
                    basis.append(MappingProxyType({y: ks[0] for y, ks in terms.items()}))
        full = [lower(len(ops) * u) for u in unit[:T.N]]
        for v in basis:
            acc: dict = {}
            for rows, phase in ops:
                for y, e in v.items():
                    acc[rows[y]] = acc.get(rows[y], 0) + unit[e + phase[y]]
            got = {y: s for y, s in zip(acc, map(lower, acc.values())) if s}
            if got != {y: full[e] for y, e in v.items()}:
                raise InternalInvariantViolation("averaged stabilizer sum is not idempotent")
        return tuple(basis)


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
    elements: List[Triple] = [(0, (0,) * ntot, (0,) * ntot)]
    gens: List[Triple] = []
    for row, e in zip(sd.generators, sd.diag_exponents):
        powers = _generator_powers(T, T.from_row(row), ring.p ** (ring.b - e))
        elements = [T.multiply(P, g) for P in elements for g in powers]
        gens.append(powers[1])
    _check_stabilizer(T, elements, sd.generators, gens)
    E = T.elements
    group = StabilizerGroup(ring, ntot, tuple(
        PauliOperator(ring, ntot, l, tuple(E[i] for i in a), tuple(E[i] for i in b))
        for l, a, b in elements))
    group.__dict__.update(_tables=T, _triples=tuple(elements))
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
                      gen_rows: Sequence[Sequence[int]], gens: Sequence[Triple]) -> None:
    """No scalar but the identity; the phi-expanded generator rows of C'
    pair trivially under the integer trace form, so the group they generate
    is abelian; and P*g in S for each element P and xi-corrected generator
    g, which makes S, a set of products of powers of the g, the group <g>."""
    for l, a, b in elements:
        if l and not any(a) and not any(b):
            raise InternalInvariantViolation("nontrivial scalar in the stabilizer")
    for i, u in enumerate(gen_rows):
        if any(_expanded_pairing(u, v, len(u) // 2, T.modulus) for v in gen_rows[i + 1:]):
            raise InternalInvariantViolation("stabilizer is not abelian")
    if not set(elements).issuperset(T.multiply(P, g) for g in gens for P in elements):
        raise InternalInvariantViolation("stabilizer is not closed")


def stabilizer_projector(group: StabilizerGroup,
                         max_dim: int = DEFAULT_MATRIX_DIM) -> Tuple[Mapping[int, int], ...]:
    """The projector's exact basis, P = sum_v |v><v| / <v|v>: the group's
    nonvanishing orbit sums as {state: omega exponent}, built once per group."""
    _check_dim(group.ring, group.n, max_dim)
    return group._basis


def projector_dimension(group: StabilizerGroup,
                        max_dim: int = DEFAULT_MATRIX_DIM) -> int:
    """The rank of the checked projector: the number of its basis vectors."""
    return len(stabilizer_projector(group, max_dim))


class ErrorSearchResult(Frozen):
    """What ``undetectable_error_search`` found: the undetectable errors as
    phi-expanded (a,b) over R^{2n}, and dim1_distance, the min weight with
    nonzero amplitude when K = 1."""

    def __init__(self, dimension: int, undetectable: Tuple[Tuple[int, ...], ...],
                 min_weight: float, set_matches_dual_minus_code: bool, dim1_distance: object):
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "undetectable", undetectable)
        object.__setattr__(self, "min_weight", min_weight)
        object.__setattr__(self, "set_matches_dual_minus_code", set_matches_dual_minus_code)
        object.__setattr__(self, "dim1_distance", dim1_distance)


def undetectable_error_search(C: AdditiveCode, group: StabilizerGroup,
                              limit: int = DEFAULT_ENUM_LIMIT,
                              max_dim: int = DEFAULT_MATRIX_DIM) -> ErrorSearchResult:
    """Classify every error E = X(a,0)Z(b,0), (a,b) in R^{2n}, by the matrix
    criterion U^H E U = lambda I on the orbit-sum basis, exactly, and
    cross-check the undetectable set against C^{chi-dual} minus C.  E sends
    orbit i onto one orbit j, so the only entry of column i is <v_j|E|v_i>,
    a sum over y in orbit i of omega^(e_y - e_{Ey} + phase[y]), packed by
    ``_packing``.  X(a) and Z(b) act apart: one row map per a and one phase
    list per b.  The group must be over C's ring and act on at least C's n
    coordinates."""
    if group.ring != C.ring:
        raise RingMismatch("the stabilizer group is over a different ring than the code")
    if group.n < C.n:
        raise DimensionMismatch(f"the stabilizer group acts on n = {group.n} < {C.n} coordinates")
    ring, n, ntot = C.ring, C.n, group.n
    q = ring.cardinality
    if q ** (2 * n) > limit:
        raise SearchLimitExceeded(q ** (2 * n), limit)
    basis = stabilizer_projector(group, max_dim)
    T = group._tables
    N, K = T.N, len(basis)
    unit, lower = _packing(N, T.p, max(map(len, basis)))

    def entry(phase: List[int], ys: Tuple[int, ...], ds: Tuple[int, ...]) -> int:
        return lower(sum(map(unit.__getitem__, map(add, ds, map(phase.__getitem__, ys)))))

    orbit = {y: (i, e) for i, v in enumerate(basis) for y, e in v.items()}
    pad, idle = (0,) * (ntot - n), (0,) * ntot
    halves = list(itertools.product(range(q), repeat=n))
    phases = [T.of(0, idle, b + pad)[1] for b in halves]
    coords = [e.coeffs for e in T.elements]
    z_flats = [tuple(itertools.chain.from_iterable(map(T.duals.__getitem__, b))) for b in halves]
    undet: List[Tuple[int, ...]] = []
    best = dim1_best = math.inf
    for a in halves:
        rows = T.of(0, a + pad, idle)[0]
        # (i, j, ys, ds): X(a) sends orbit i onto basis orbit j, ds[t] = e_y - e_{Ey} mod N
        moved = [(i, orbit[rows[ys[0]]][0], ys,
                  tuple((e - orbit[rows[y]][1]) % N for y, e in v.items()))
                 for i, v in enumerate(basis) if rows[(ys := tuple(v))[0]] in orbit]
        diag = [(ys, ds) for i, j, ys, ds in moved if i == j]
        off = [(ys, ds) for i, j, ys, ds in moved if i != j]
        # lambda is entry (0, 0), and a diagonal entry that is missing is zero
        fixes_0, short = bool(moved) and moved[0][:2] == (0, 0), len(diag) < K
        x_flat = tuple(itertools.chain.from_iterable(map(coords.__getitem__, a)))
        for b, phase, z_flat in zip(halves, phases, z_flats):
            if not any(a) and not any(b):
                continue
            diagonal = [entry(phase, ys, ds) for ys, ds in diag]
            lam = diagonal[0] if fixes_0 else 0
            w = sum(1 for x, z in zip(a, b) if x or z)
            if (lam and short) or diagonal.count(lam) < len(diagonal) or any(
                    entry(phase, ys, ds) for ys, ds in off):
                undet.append(x_flat + z_flat)
                best = min(best, w)
            if K == 1 and lam:
                dim1_best = min(dim1_best, w)
    want = set(enumerate_module(C.analysis.dual(0), limit))
    want -= set(enumerate_module(C.analysis.meet, limit))  # C^chi \ C = C^chi \ (C cap C^chi)
    return ErrorSearchResult(dimension=K, undetectable=tuple(sorted(undet)), min_weight=best,
                             set_matches_dual_minus_code=set(undet) == want,
                             dim1_distance=(dim1_best if K == 1 else None))
