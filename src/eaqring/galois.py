"""Galois ring arithmetic: GR(p^b, m) = Z_{p^b}[x]/<h(x)>.

Covers ring construction with a canonical defining polynomial (one
Teichmuller lift for every m), the generalized trace, dual bases (read off
a Howell form), the generating additive character chi(z) = zeta^{Tr z},
and the coordinate expansion phi down to Z_{p^b}^m.

Nothing here touches anything of size p^m: construction, the trace, the
dual basis and phi are read off the power-basis coordinates of theta^k for
k <= 2m - 2, and h is checked by square-and-multiply.  The ring keeps no
Teichmuller table; the trace's references in the tests (Teichmuller digits
and the Frobenius) build their own.

``make_ring`` keeps one shared ring per (p, b, m, h) per process, so every
code over GR(p^b, m) reuses one set of trace and dual-basis tables; a call
that raises is never cached.  The ring caches plain integers only (no
element, which would point back at it).
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from operator import mul
from typing import List, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    HPolyInvalid,
    InternalInvariantViolation,
    RingMismatch,
)
from .frozen import Frozen
from .zpblinalg import ZpbMatrix, _prime_factors, check_ring_size, howell_form


def _poly_mul_mod(a: Sequence[int], c: Sequence[int], h: Sequence[int], N: int) -> Tuple[int, ...]:
    """Product of polynomials a*c reduced mod the monic h and mod N."""
    m = len(h) - 1
    prod = [0] * (len(a) + len(c) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, cj in enumerate(c):
                prod[i + j] = (prod[i + j] + ai * cj) % N
    for d in range(len(prod) - 1, m - 1, -1):
        coef = prod[d]
        if coef:
            prod[d] = 0
            for k in range(m):
                prod[d - m + k] = (prod[d - m + k] - coef * h[k]) % N
    return tuple(prod[:m]) if m else ()


def _poly_pow_mod(a: Sequence[int], e: int, h: Sequence[int], N: int) -> Tuple[int, ...]:
    m = len(h) - 1
    result = tuple([1] + [0] * (m - 1))
    base = tuple(x % N for x in a)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, h, N)
        base = _poly_mul_mod(base, base, h, N)
        e >>= 1
    return result


def _x_mod(h: Sequence[int], N: int) -> Tuple[int, ...]:
    """x reduced mod the monic h and mod N: for m = 1 that is the root -h[0]
    of x + h[0]."""
    m = len(h) - 1
    return tuple([0, 1] + [0] * (m - 2)) if m >= 2 else ((-h[0]) % N,)


def _is_primitive_mod_p(hbar: Sequence[int], p: int, m: int, factors: Sequence[int]) -> bool:
    """x generates the full cyclic group of order p^m - 1 mod (hbar, p);
    ``factors`` are the prime factors of p^m - 1."""
    order = p ** m - 1
    x = _x_mod(hbar, p)
    one = tuple([1] + [0] * (m - 1))
    if _poly_pow_mod(x, order, hbar, p) != one:
        return False
    for ell in factors:
        if _poly_pow_mod(x, order // ell, hbar, p) == one:
            return False
    return True


class GaloisRingSpec(Frozen):
    """Immutable description of GR(p^b, m) with arithmetic caches.  h_coeffs
    holds m+1 residues mod p^b, low-to-high, monic."""

    def __init__(self, p: int, b: int, m: int, h_coeffs: Tuple[int, ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "h_coeffs", h_coeffs)
        object.__setattr__(self, "modulus", p ** b)
        object.__setattr__(self, "cardinality", p ** (b * m))

    def element(self, coeffs: Sequence[int]) -> "RingElement":
        N = self.modulus
        return RingElement(self, tuple(c % N for c in coeffs))

    def scalar(self, c: int) -> "RingElement":
        return self.element([c] + [0] * (self.m - 1))

    @property
    def zero(self) -> "RingElement":
        return self.scalar(0)

    @property
    def one(self) -> "RingElement":
        return self.scalar(1)

    @property
    def theta(self) -> "RingElement":
        """Canonical root of h: the power-basis generator x (a unit of order p^m - 1)."""
        return self.element(_x_mod(self.h_coeffs, self.modulus))

    @cached_property
    def _theta_powers(self) -> Tuple[Tuple[int, ...], ...]:
        """Power-basis coordinates of theta^k for k <= 2m - 2."""
        h, N, theta = self.h_coeffs, self.modulus, self.theta.coeffs
        out = [self.one.coeffs]
        for _ in range(2 * self.m - 2):
            out.append(_poly_mul_mod(out[-1], theta, h, N))
        return tuple(out)

    @cached_property
    def tr_powers(self) -> Tuple[int, ...]:
        """Tr(theta^j) for j < m; makes gen_trace a dot product.

        The generalized trace is the trace of multiplication by the element,
        and column i of multiplication by theta^j is theta^{i+j}.
        """
        T = self._theta_powers
        return tuple(sum(T[i + j][i] for i in range(self.m)) % self.modulus
                     for j in range(self.m))

    @cached_property
    def _gram(self) -> Tuple[Tuple[int, ...], ...]:
        """The trace form on the power basis: gram[i][k] = Tr(theta^{i+k})."""
        T, m, N = self._theta_powers, self.m, self.modulus
        tr = [sum(c * t for c, t in zip(T[s], self.tr_powers)) % N for s in range(2 * m - 1)]
        return tuple(tuple(tr[i + k] for k in range(m)) for i in range(m))

    @cached_property
    def _dual_coeffs(self) -> Tuple[Tuple[int, ...], ...]:
        """Power-basis coordinates of the dual basis of {1, theta, ...,
        theta^{m-1}}: plain integers, so the cache holds no reference back
        to the ring.  The Howell form of [gram | I] is [I | gram^{-1}], and
        column j of gram^{-1} gives the theta-coordinates of gamma_j."""
        m = self.m
        eye = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        aug = tuple(row + e for row, e in zip(self._gram, eye))
        H = howell_form(ZpbMatrix(self.p, self.b, 2 * m, aug))
        if tuple(r[:m] for r in H.rows) != eye:
            raise InternalInvariantViolation("the trace form is not invertible")
        return tuple(tuple(r[m + j] for r in H.rows) for j in range(m))


class RingElement(Frozen):
    """Element of GR(p^b, m) in power-basis coordinates (1, theta, ...)."""

    def __init__(self, ring: GaloisRingSpec, coeffs: Tuple[int, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != ring.m:
            raise RingMismatch("coefficient count does not match the ring degree")

    def _check(self, other: "RingElement"):
        if self.ring != other.ring:
            raise RingMismatch("elements belong to different rings")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        N = self.ring.modulus
        return RingElement(self.ring, tuple((a + c) % N for a, c in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        N = self.ring.modulus
        return RingElement(self.ring, tuple((a - c) % N for a, c in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RingElement":
        N = self.ring.modulus
        return RingElement(self.ring, tuple((-a) % N for a in self.coeffs))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, _poly_mul_mod(self.coeffs, other.coeffs,
                                                    self.ring.h_coeffs, self.ring.modulus))

    def __pow__(self, e: int) -> "RingElement":
        if e < 0:
            raise ValueError(f"negative exponent {e}: ring elements are powered by e >= 0")
        return RingElement(self.ring, _poly_pow_mod(self.coeffs, e,
                                                    self.ring.h_coeffs, self.ring.modulus))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_scalar(self) -> bool:
        return not any(self.coeffs[1:])


def gen_trace(z: RingElement) -> int:
    """Generalized trace Tr(z) = z + f(z) + ... + f^{m-1}(z), as a residue:
    the exponent k with chi(z) = zeta^k for the generating character chi."""
    N = z.ring.modulus
    return sum(c * t for c, t in zip(z.coeffs, z.ring.tr_powers)) % N


def _dual_coords(ring: GaloisRingSpec, coeffs: Sequence[int]) -> Tuple[int, ...]:
    """Dual-basis coordinates of the element z with power-basis coordinates
    ``coeffs``: j-th is Tr(z * theta^j), that is sum_i z_i Tr(theta^{i+j}),
    the ring's trace form times ``coeffs``."""
    N = ring.modulus
    return tuple(sum(map(mul, coeffs, row)) % N for row in ring._gram)


def phi_expand(vec: Sequence[RingElement]) -> Tuple[int, ...]:
    """Expand a length-2n vector of ring elements into 2nm residues.

    The first half is expanded in power-basis coordinates and the second
    half in dual-basis coordinates; this is the unique mixed convention
    under which Tr(<u|v>_s) = <phi(u)|phi(v)>_s holds identically.  Each
    element is expanded in its own ring.
    """
    if len(vec) % 2:
        raise DimensionMismatch("vector length must be even")
    n = len(vec) // 2
    out: List[int] = []
    for r in vec[:n]:
        out.extend(r.coeffs)
    for r in vec[n:]:
        out.extend(_dual_coords(r.ring, r.coeffs))
    return tuple(out)


def phi_contract(ring: GaloisRingSpec, flat: Sequence[int]) -> Tuple[RingElement, ...]:
    """Inverse of phi_expand."""
    m = ring.m
    if len(flat) % (2 * m):
        raise DimensionMismatch("flat length must be a multiple of 2m")
    n, N, dual = len(flat) // (2 * m), ring.modulus, ring._dual_coeffs
    out: List[RingElement] = []
    for i in range(n):
        out.append(ring.element(flat[i * m:(i + 1) * m]))
    for i in range(n, 2 * n):
        coords = flat[i * m:(i + 1) * m]
        out.append(RingElement(ring, tuple(sum(c * g[k] for c, g in zip(coords, dual)) % N
                                           for k in range(m))))
    return tuple(out)


def _check_h_divides(h: Sequence[int], p: int, b: int, m: int) -> None:
    """Verify h | x^{p^m - 1} - 1 over Z_{p^b}: x^{p^m - 1} = 1 mod h."""
    N = p ** b
    if _poly_pow_mod(_x_mod(h, N), p ** m - 1, h, N) != tuple([1] + [0] * (m - 1)):
        raise HPolyInvalid("h does not divide x^{p^m-1} - 1 over Z_{p^b}")


def make_ring(p: int, b: int, m: int, h_coeffs: Sequence[int] | None = None) -> GaloisRingSpec:
    """Construct GR(p^b, m) with a canonical defining polynomial.

    Picks the first primitive polynomial hbar over F_p: x - g for the
    smallest primitive root g mod p when m = 1, else the lexicographically
    smallest (constant term most significant).  Its constant term is (-1)^m
    times the norm of a root, a primitive root mod p, so only those
    constant terms are walked.  Then replaces hbar by the product of
    (x - theta^{p^i}) over the Teichmuller conjugates, the unique lift
    dividing x^{p^m-1} - 1 over Z_{p^b}.  A caller-supplied h is validated
    against the same invariants instead.  Equal arguments, h as a list or
    a tuple and any h equal mod p^b, return the identical ring.
    """
    return _make_ring(p, b, m, None if h_coeffs is None else tuple(h_coeffs))


@cache
def _make_ring(p: int, b: int, m: int, h_coeffs: Tuple[int, ...] | None) -> GaloisRingSpec:
    check_ring_size(p, b, m)
    h = None if h_coeffs is None else tuple(c % p ** b for c in h_coeffs)
    if h != h_coeffs:  # one memo entry builds the ring of each h mod p^b
        return _make_ring(p, b, m, h)
    factors = _prime_factors(p ** m - 1)

    if h is not None:
        if len(h) != m + 1 or h[m] != 1:
            raise HPolyInvalid("h must be monic of degree m")
        hbar = tuple(c % p for c in h)
        if not _is_primitive_mod_p(hbar, p, m, factors):
            raise HPolyInvalid("h mod p is not primitive over F_p")
        _check_h_divides(h, p, b, m)
        return GaloisRingSpec(p, b, m, h)

    ells = _prime_factors(p - 1)  # keep c iff (-1)^m c is a primitive root mod p
    consts = (c for c in (range(p - 1, 0, -1) if m == 1 else range(1, p))  # m = 1: x - r, r = 1, 2, ...
              if all(pow((-1) ** m * c, (p - 1) // ell, p) != 1 for ell in ells))
    cands = ((c,) + t + (1,) for c in consts for t in itertools.product(range(p), repeat=m - 1))
    hbar = next((h for h in cands if _is_primitive_mod_p(h, p, m, factors)), None)
    if hbar is None:
        raise InternalInvariantViolation("no primitive polynomial found")

    # provisional ring on the naive lift; Teichmuller-iterate x to a root of
    # unity, then rebuild h from its Frobenius conjugates
    ring0 = GaloisRingSpec(p, b, m, hbar)
    z = ring0.theta
    for _ in range(b + 2):
        z2 = z ** (p ** m)
        if z2 == z:
            break
        z = z2
    else:
        raise InternalInvariantViolation("Teichmuller iteration did not converge")
    # expand prod_i (X - z^{p^i}) with coefficients in the provisional ring,
    # listed low-to-high: multiplying by X - c maps poly[k] to poly[k-1] - c poly[k]
    poly = [ring0.one]
    for _ in range(m):
        poly = [a - z * c for a, c in zip([ring0.zero] + poly, poly + [ring0.zero])]
        z = z ** p
    if not all(c.is_scalar() for c in poly):
        raise InternalInvariantViolation("lifted polynomial has non-scalar coefficients")
    h = tuple(c.coeffs[0] for c in poly)
    if tuple(c % p for c in h) != hbar:
        raise InternalInvariantViolation("lifted polynomial does not reduce to hbar")
    _check_h_divides(h, p, b, m)
    return GaloisRingSpec(p, b, m, h)
