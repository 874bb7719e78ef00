#!/usr/bin/env python3
"""Sample random additive codes over a chain ring and tabulate the
((n, K, D; c)) parameters of the entanglement-assisted codes they induce.

Usage, from the root of a checkout:
    PYTHONPATH=src python3 scripts/survey_random_codes.py --p 2 --b 2 --m 1 --n 2 --count 20
"""

import argparse
import random

from eaqring import AdditiveCode, eaqecc_params, make_ring, phi_expand


def random_code(ring, n, k, rng):
    """k generators of length n, each coordinate of each entry drawn
    uniformly, entry by entry, then phi-expanded into a row."""
    return AdditiveCode(ring, n, [
        phi_expand([ring.element([rng.randrange(ring.modulus) for _ in range(ring.m)])
                    for _ in range(2 * n)])
        for _ in range(k)])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--b", type=int, default=2)
    ap.add_argument("--m", type=int, default=1)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ring = make_ring(args.p, args.b, args.m)
    rng = random.Random(args.seed)
    print(f"ring GR({args.p}^{args.b}, {args.m}), h = {ring.h_coeffs}, length n = {args.n}")
    print(f"{'|C|':>8} {'c':>3} {'K':>6} {'D':>8} {'rho':>10} {'case':>22}")
    for _ in range(args.count):
        C = random_code(ring, args.n, rng.randint(1, 2 * args.n * args.m), rng)
        P = eaqecc_params(C)
        D = "Unknown" if P.D is None else P.D
        print(f"{P.card_code:>8} {P.c:>3} {P.K_exact:>6} {str(D):>8} "
              f"{str(P.rho):>10} {P.distance_case:>22}")


if __name__ == "__main__":
    main()
