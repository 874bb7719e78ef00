"""Exact Pauli verifier: X(a)Z(b) as monomial operators on integer states,
stabilizer-group assembly through an effective character xi, the code space
as orbit sums, and exhaustive undetectable-error search.

The phase scale is omega = exp(2*pi*i/N) with N = p^b for odd p and 2p^b
for p = 2; the additive character zeta = exp(2*pi*i/p^b) embeds via the
exponent factor N/p^b.  omega^l X(a)Z(b) sends |x> to omega^{l + (N/p^b)
Tr(b.x)} |x + a>, read off q x q tables of ring addition and of Tr(x*y)
over numbered ring elements.  The group is its (l, a, b) triples of
element indices, built and checked as such, closure as S g in S for each
generator g; ``PauliOperator`` is only ``pauli_matrix``'s input.  Its
code space is spanned by the orbit sums v_x = sum_g g|x> that do not
vanish, one per orbit x + A.  Every sum of powers of omega the verifier
decides is one lane group of a packed int (``_packing``), lowered to
Z[omega]'s power basis and biased so that each group's bits are its
coordinates: the basis check packs one sum per int, and the error search
packs the entries of one X part and orbit for all q^n Z parts into one,
so one pass per X part decides every error with that X part.  No decision
is made in floating point.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from types import MappingProxyType
from operator import lshift, mul, sub
from typing import TYPE_CHECKING, Callable, List, Mapping, Sequence, Tuple

import math

from .codes import DEFAULT_ENUM_LIMIT, DEFAULT_MATRIX_DIM, AdditiveCode
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InternalInvariantViolation,
    NoSolution,
    RingMismatch,
    SearchLimitExceeded,
    check_cap,
    size_text,
)
from .frozen import Frozen
from .galois import GaloisRingSpec, RingElement, _dual_coords
from .zpblinalg import enumerate_module, solve_congruence

if TYPE_CHECKING:
    import numpy as np


def omega_modulus(ring: GaloisRingSpec) -> int:
    """N: the order of the phase root of unity omega."""
    return ring.modulus * (2 if ring.p == 2 else 1)


def _packing(N: int, p: int, most: int,
             groups: int = 1) -> Tuple[List[int], Callable[[int], int], int]:
    """(unit, lower, stride) for ``groups`` sums of powers of omega packed in
    one int, omega of order N a power of p, no power occurring more than
    ``most`` times in a sum.  Group g sits at bit g * stride: 2N lanes of W
    = bit_length(most) + 2 bits, lane k counting omega^k, so a term omega^k
    of group g adds unit[k] << g * stride.  ``lower`` takes every group at
    once to Z[omega]'s power basis {omega^k : k < N - N/p}: a mask, shift
    and add folds lane N + k onto lane k (omega^N = 1), and a mask, shift
    and multiply applies omega^(N - N/p + r) = -sum_{t<p-1} omega^(r + t N/p)
    (Phi_N = sum_{t<p} x^(t N/p)).  It then adds 2^(W-1) to each of the N
    low lanes of every group.  A lowered lane lies in (-2^(W-2), 2^(W-2)),
    so once biased it fits its W bits and borrows nothing from the next:
    every group's bits are exactly its lanes.  So a group of two lowered
    ints is equal iff its sums are, it is zero iff its bits are those of
    lower(0), and the lanes of a difference of two still fit."""
    W, step = most.bit_length() + 2, N // p
    stride, shift = 2 * N * W, (N - step) * W
    every = sum(1 << g * stride for g in range(groups))  # lane 0 of each group
    unit = [1 << k * W for k in range(2 * N)]
    half, low, top = (((1 << bits) - 1) * every for bits in (N * W, shift, step * W))
    rep = sum(unit[t * step] for t in range(p - 1))
    bias = (sum(unit[:N]) << W - 1) * every

    def lower(acc: int) -> int:
        acc = (acc & half) + (acc >> N * W & half)
        return (acc & low) - (acc >> shift & top) * rep + bias
    return unit, lower, stride


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


Triple = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


def _check_dim(ring: GaloisRingSpec, n: int, max_dim: int, what: str = "q^n") -> None:
    """Raise DimensionTooLarge, before any dense work, when q^n > max_dim,
    and ValueError when max_dim < 0."""
    check_cap("max_dim =", max_dim)
    if (size := ring.cardinality ** n) > max_dim:
        raise DimensionTooLarge(f"{what} = {size_text(size)} exceeds the matrix cap {max_dim}")


class _Monomials:
    """Operators on n qudits as triples (l, a, b): omega^l X(a)Z(b), a and b
    tuples of element indices i = sum_j c_j (p^b)^j.  ``coords[i]`` holds
    the power-basis coordinates c_j and ``duals[i]`` the dual-basis ones,
    coords[i] times the ring's (symmetric) trace form.  ``add`` and
    ``trace`` are the q x q tables of x + y (as an index) and of Tr(x*y) =
    duals[x] . coords[y], as int lists; no ring element is made.  A state
    is an int, big-endian in the qudits' element indices; there are
    ``states`` = q^n of them."""

    def __init__(self, ring: GaloisRingSpec, n: int):
        q, mod, m = ring.cardinality, ring.modulus, ring.m
        self.coords = coords = [tuple(i // mod ** j % mod for j in range(m)) for i in range(q)]
        self.index = index = {c: i for i, c in enumerate(coords)}
        self.duals = [_dual_coords(ring, c) for c in coords]
        self.dual_index = {d: i for i, d in enumerate(self.duals)}
        self.add = [[index[tuple((a + b) % mod for a, b in zip(x, y))] for y in coords] for x in coords]
        self.trace = [[sum(map(mul, d, y)) % mod for y in coords] for d in self.duals]
        self.p, self.m, self.N = ring.p, ring.m, omega_modulus(ring)
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
        """P*Q = omega^(l + l' + (N/p^b) Tr(b.a')) X(a + a') Z(b + b'), for
        P = omega^l X(a)Z(b) and Q = omega^l' X(a')Z(b'), in table lookups."""
        (l, a, b), (l2, a2, b2) = P, Q
        add, tr = self.add, self.trace
        cross = sum(tr[y][x] for y, x in zip(b, a2))
        return ((l + l2 + self.chi_scale * cross) % self.N,
                tuple(add[x][y] for x, y in zip(a, a2)), tuple(add[x][y] for x, y in zip(b, b2)))

    def of(self, l: int, a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
        """(rows, phase): omega^l X(a)Z(b) sends state x to omega^phase[x] |rows[x]>.
        Either part may be given on fewer qudits, or none: the row map is
        over len(a) qudits and the phase list over len(b)."""
        q, scale, N, rows, dots = len(self.add), self.chi_scale, self.N, [0], [0]
        for x in a:
            rows = [r * q + y for r in rows for y in self.add[x]]
        for z in b:
            dots = [f + t for f in dots for t in self.trace[z]]
        return rows, [(l + scale * f) % N for f in dots]


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
    """One (l, a, b) triple of ``_Monomials`` element indices per codeword
    of a chi-self-orthogonal code, with its monomial tables and checked
    code-space basis, each built once per group.  Like ``ZpbMatrix``'s,
    the constructor trusts its arguments."""

    def __init__(self, ring: GaloisRingSpec, n: int, elements: Tuple[Triple, ...]):
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
    def _basis(self) -> Tuple[Mapping[int, int], ...]:
        """The code space: one read-only {state: omega exponent} per orbit sum
        v_x = sum_g g|x> that does not vanish.  An orbit sum either lowers to
        0 at every state, or equals at each its term count times omega to
        the exponent of its first term; and sum_g g v = |S| v is checked on
        each, the exact form of P^2 = P for P = sum_g g / |S|.  Every sum is
        decided as one packed int (``_packing``)."""
        T = self._tables
        ops = [T.of(*g) for g in self.elements]
        unit, lower, _ = _packing(T.N, T.p, len(ops))
        zero, basis, seen = lower(0), [], set()
        for x in range(T.states):
            if x not in seen:
                terms: dict = {}
                for rows, phase in ops:
                    terms.setdefault(rows[x], []).append(phase[x])
                seen.update(terms)
                sums = [lower(sum(map(unit.__getitem__, ks))) for ks in terms.values()]
                if sums.count(zero) < len(sums):
                    if sums != [lower(len(ks) * unit[ks[0]]) for ks in terms.values()]:
                        raise InternalInvariantViolation("averaged stabilizer sum is not idempotent")
                    basis.append(MappingProxyType({y: ks[0] for y, ks in terms.items()}))
        full = [lower(len(ops) * u) for u in unit[:T.N]]
        for v in basis:
            acc: dict = {}
            for rows, phase in ops:
                for y, e in v.items():
                    acc[rows[y]] = acc.get(rows[y], 0) + unit[e + phase[y]]
            got = {y: s for y, s in zip(acc, map(lower, acc.values())) if s != zero}
            if got != {y: full[e] for y, e in v.items()}:
                raise InternalInvariantViolation("averaged stabilizer sum is not idempotent")
        return tuple(basis)


def build_stabilizer(Cp: AdditiveCode,
                     max_dim: int = DEFAULT_MATRIX_DIM) -> StabilizerGroup:
    """Assemble A = { xi((X(v)Z(w))^{-1}) X(v)Z(w) : (v,w) in C' } for a
    chi-self-orthogonal code C', such as an extension.

    Before any table or group work, a C' whose Gram matrix ``Cp.gram``
    (Tr<s_i|s_j>_s over its phi-expanded Smith generators s_i) is not zero,
    so that the group is not abelian, is rejected with ValueError; the form
    is alternating, so its entries with i < j decide that.  The group
    generated by omega*I and phase-free lifts g_i of those generators has
    the diagonal relation lattice o_i g_i = phi_i (the scalar g_i^{o_i}),
    so the character extension with xi(omega*I) = omega reduces to one
    congruence o_i t_i = phi_i per generator.  The elements are
    g_1^{c_1} ... g_k^{c_k}, c_k fastest, with phase lowered by
    sum_i c_i t_i: each generator in turn multiplies every prefix product
    by its powers, as index triples, which the group keeps with its
    tables: no ring element is made.
    """
    ring, ntot = Cp.ring, Cp.n
    _check_dim(ring, ntot, max_dim, "q^(n+c)")
    if any(any(r[i + 1:]) for i, r in enumerate(Cp.gram.rows)):
        raise ValueError("the code is not chi-self-orthogonal: "
                         "its generators pair nontrivially under the trace form")
    sd = Cp.expanded_smith
    T = _Monomials(ring, ntot)
    elements: List[Triple] = [(0, (0,) * ntot, (0,) * ntot)]
    gens: List[Triple] = []
    for row, e in zip(sd.generators, sd.diag_exponents):
        powers = _generator_powers(T, T.from_row(row), ring.p ** (ring.b - e))
        elements = [T.multiply(P, g) for P in elements for g in powers]
        gens.append(powers[1])
    _check_stabilizer(T, elements, gens)
    group = StabilizerGroup(ring, ntot, tuple(elements))
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


def _check_stabilizer(T: _Monomials, elements: Sequence[Triple], gens: Sequence[Triple]) -> None:
    """No scalar but the identity, and P*g in S for each element P and
    xi-corrected generator g, which makes S, a set of products of powers of
    the g, the group <g>; ``build_stabilizer`` checked that it is abelian."""
    for l, a, b in elements:
        if l and not any(a) and not any(b):
            raise InternalInvariantViolation("nontrivial scalar in the stabilizer")
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
    cross-check the undetectable set against C^{chi-dual} minus C.  X(a)
    sends orbit i onto one orbit j (checked), so the only entry of column i
    is <v_j|E|v_i>, the sum over y in orbit i of omega^(e_y - e_{X(a)y} +
    phase_b(u)); phase_b(u) = (N/p^b) Tr(b.u) reads only y's first n
    qudits u, since b is zero on the tail.  One packed int per X part a and
    orbit holds that entry for every Z part b, in lane group b
    (``_packing``): per y it adds spread[u], which holds omega^phase_b(u)
    in every group b, shifted by the lanes of e_y - e_{X(a)y}.  After one
    ``lower``, E is undetectable iff its group of (diagonal XOR lambda) |
    (off-diagonal XOR 0) | (lambda XOR 0, when a diagonal entry is missing)
    is nonzero, lambda being entry (0, 0).  The group must be over C's ring,
    act on at least C's n coordinates and fix some state (a projector of
    rank > 0)."""
    if group.ring != C.ring:
        raise RingMismatch("the stabilizer group is over a different ring than the code")
    if group.n < C.n:
        raise DimensionMismatch(f"the stabilizer group acts on n = {group.n} < {C.n} coordinates")
    ring, n, ntot = C.ring, C.n, group.n
    q = ring.cardinality
    check_cap("limit =", limit)
    if q ** (2 * n) > limit:
        raise SearchLimitExceeded(q ** (2 * n), limit)
    basis = stabilizer_projector(group, max_dim)
    if not basis:  # a group holding a nontrivial scalar, such as {I, -I}
        raise ValueError("the stabilizer group's projector has rank 0: it fixes no state")
    T = group._tables
    N, K, tail = T.N, len(basis), q ** (ntot - n)
    halves = list(itertools.product(range(q), repeat=n))  # Z part b is lane group b
    unit, lower, stride = _packing(N, T.p, max(map(len, basis)), len(halves))
    zero, mask = lower(0), (1 << stride) - 1
    # spread[u] holds omega^phase_b(u) in every group b: Tr(b.u) = Tr(u.b),
    # so Z(u)'s phase list is phase_b(u) over b.  omega^d times spread[u]
    # is spread[u] << shifts[N + d], for -N < d < N.
    ats = range(0, len(halves) * stride, stride)  # the first bit of group b
    spread = [sum(map(lshift, map(unit.__getitem__, T.of(0, (), u)[1]), ats)) for u in halves]
    shifts = [unit[k % N].bit_length() - 1 for k in range(2 * N)]
    # state y lies in basis orbit which[y] (-1: in none) with exponent exps[y];
    # states lists the basis states orbit by orbit, orbit i in states[lo:hi]
    which, exps, states, bounds = [-1] * T.states, [0] * T.states, [], []
    for i, v in enumerate(basis):
        for y, e in v.items():
            which[y], exps[y] = i, e
        bounds.append((len(states), len(states) + len(v)))
        states += v
    spreads = [spread[y // tail] for y in states]
    offsets = [N + exps[y] for y in states]
    support = lambda half: sum(1 << t for t, x in enumerate(half) if x)
    flat = lambda table, half: tuple(itertools.chain.from_iterable(map(table.__getitem__, half)))
    z_parts = [(at, support(b), flat(T.duals, b)) for at, b in zip(ats, halves)]
    pad = (0,) * (ntot - n)
    undet: List[Tuple[int, ...]] = []
    best = dim1_best = math.inf
    for a in halves:
        rows = T.of(0, a + pad, ())[0]
        targets = list(map(rows.__getitem__, states))
        js = list(map(which.__getitem__, targets))
        # omega^(e_y - e_{X(a)y}) spread[u_y] for each basis state y, in turn
        terms = map(lshift, spreads, map(shifts.__getitem__,
                                         map(sub, offsets, map(exps.__getitem__, targets))))
        lam, bad, fixed = zero, 0, 0
        for i, (lo, hi) in enumerate(bounds):
            j = js[lo]
            if js[lo:hi].count(j) < hi - lo:
                raise InternalInvariantViolation(
                    f"X{a} sends basis orbit {i} into more than one orbit")
            s = sum(itertools.islice(terms, hi - lo))
            if j < 0:  # onto an orbit whose sum vanishes: column i is zero
                continue
            s = lower(s)
            if i != j:
                bad |= s ^ zero
                continue
            if i == 0:
                lam = s
            fixed += 1
            bad |= s ^ lam
        if fixed < K:  # a missing diagonal entry is zero
            bad |= lam ^ zero
        sa, nonzero = support(a), (lam ^ zero if K == 1 else 0)
        if not sa:  # group 0 of a = 0 is the identity
            bad, nonzero = bad & ~mask, nonzero & ~mask
        if not bad and not nonzero:
            continue
        x_flat = flat(T.coords, a)
        for at, sb, z_flat in z_parts:
            w = (sa | sb).bit_count()
            if bad >> at & mask:
                undet.append(x_flat + z_flat)
                best = min(best, w)
            if nonzero >> at & mask:
                dim1_best = min(dim1_best, w)
    want = set(enumerate_module(C.dual))
    want -= set(enumerate_module(C.meet))  # C^chi \ C = C^chi \ (C cap C^chi)
    return ErrorSearchResult(dimension=K, undetectable=tuple(sorted(undet)), min_weight=best,
                             set_matches_dual_minus_code=set(undet) == want,
                             dim1_distance=(dim1_best if K == 1 else None))
