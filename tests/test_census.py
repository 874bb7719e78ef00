"""Exhaustive census of small codes: every submodule of R^{2n}, found once
by breadth-first search over canonical Howell forms, one added ambient
vector at a time.

On every code the ranks read off the Gram matrix's Smith form equal the
quotient-rank oracle at each level, the meet read off one Howell form of
[G | S] equals C cap C^chi, and K_lower <= K_exact <= K_upper.  The exact
Pauli verifier runs on every code: its projector dimension is K_exact, and
its undetectable set equals the cross-check set C^chi minus C on all codes
but one.
"""

import itertools

import pytest

from eaqring.codes import AdditiveCode, chi_dual_level, code_intersection
from eaqring.extension import eaqecc_params
from eaqring.pauli import build_stabilizer, projector_dimension, undetectable_error_search
from eaqring.galois import make_ring
from eaqring.zpblinalg import ZpbMatrix, howell_form, howell_member, quotient_rank
from oracles import dual_level


def all_codes(ring, n):
    """Every code over ``ring`` of length n, as a Howell basis of its
    phi-expanded row module, each exactly once."""
    p, b = ring.p, ring.b
    cols = 2 * n * ring.m
    ambient = list(itertools.product(range(p ** b), repeat=cols))
    zero = howell_form(ZpbMatrix(p, b, cols, ()))
    seen = {zero.rows: zero}
    frontier = [zero]
    while frontier:
        grown = []
        for H in frontier:
            for v in ambient:
                if howell_member(H, v):
                    continue
                H2 = howell_form(ZpbMatrix(p, b, cols, H.rows + (v,)))
                if H2.rows not in seen:
                    seen[H2.rows] = H2
                    grown.append(H2)
        frontier = grown
    return list(seen.values())


# The one census code whose undetectable set C^chi minus Z, Z = {v : (v, 0)
# in C'}, differs from the cross-check set C^chi minus C: Z8, n = 1, Howell
# rows (2 | 0) and (0 | 2).  Reading D off C^chi minus Z changes this pin.
FLAG_FALSE = {(2, 3, 1): [[[2, 0], [0, 2]]]}


@pytest.mark.parametrize("ring_args,n,count", [
    ((2, 1, 1), 2, 67),
    ((2, 1, 2), 1, 67),
    ((2, 2, 1), 1, 15),
    ((2, 3, 1), 1, 37),
    ((3, 2, 1), 1, 23),
], ids=["F2-n2", "F4-n1", "Z4-n1", "Z8-n1", "Z9-n1"])
def test_census(ring_args, n, count):
    ring = make_ring(*ring_args)
    bases = all_codes(ring, n)
    assert len(bases) == count
    flag_false = []
    for H in bases:
        C = AdditiveCode.from_expanded(ring, n, H)
        assert C.meet == code_intersection(C, chi_dual_level(C)).expanded_howell
        for t in range(ring.b + 1):
            meet = code_intersection(C, dual_level(C, t))
            assert C.rank(t) == quotient_rank(H, meet.expanded_howell)
        P = eaqecc_params(C)
        assert P.K_lower <= P.K_exact <= P.K_upper
        group = build_stabilizer(C.extension)
        assert projector_dimension(group) == P.K_exact
        if not undetectable_error_search(C, group).set_matches_dual_minus_code:
            flag_false.append([list(r) for r in H.rows])
    assert flag_false == FLAG_FALSE.get(ring_args, [])
