"""The per-code analysis: every derived object of a code is built once.

Counts calls through the module bindings the pipeline uses, on fresh codes
parsed per report, so a second computation of the same object shows up.
"""

import collections
import random

import pytest

import eaqring.codes as codes_mod
import eaqring.decompose as decompose_mod
import eaqring.zpblinalg as zpb_mod
from eaqring.cli import build_report, parse_code_text
from eaqring.codes import AdditiveCode, SymplecticVector, chi_dual_level
from eaqring.decompose import hyperbolic_decompose, rho_profile
from eaqring.extension import build_minimal_extension
from eaqring.galois import make_ring, phi_expand
from eaqring.zpblinalg import howell_form

CODES = {
    "Z4": "ring p=2 b=2 m=1\nn 1\ngen 1 0\ngen 0 2\n",
    "Z8": "ring p=2 b=3 m=1\nn 1\ngen 1 2\ngen 2 6\n",
    "F4": "ring p=2 b=1 m=2\nn 1\ngen 1,0 0,1\ngen 0,1 1,1\n",
    "GR42": "ring p=2 b=2 m=2\nn 1\ngen 1,0 0,0\ngen 0,1 2,0\n",
}


@pytest.fixture
def counted(monkeypatch):
    """Counters for the decomposition body, the chi-dual kernels (keyed by
    the pairing matrix, one per code and level), every Smith form, every
    Howell form and every intersection."""
    seen = collections.Counter()

    def count(module, name, key=lambda *args: None):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[name, key(*args)] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    count(decompose_mod, "_decompose")
    count(codes_mod, "kernel", key=lambda A: A)
    count(codes_mod, "intersect")
    count(codes_mod, "smith_form")
    count(zpb_mod, "smith_form")
    for module in (codes_mod, decompose_mod, zpb_mod):
        count(module, "howell_form")
    return seen


@pytest.mark.parametrize("label", sorted(CODES))
@pytest.mark.parametrize("command", ["params", "verify"])
def test_report_builds_each_object_once(counted, label, command):
    ring, C = parse_code_text(CODES[label])
    report, code = build_report(command, ring, C, 1 << 22, 1 << 10)
    assert code == 0 and "error" not in report
    assert counted["_decompose", None] == 1
    dual_kernels = {k: v for (name, k), v in counted.items() if name == "kernel"}
    # each chi-dual level at most once; the levels are 0..b-1
    assert dual_kernels and max(dual_kernels.values()) == 1
    assert len(dual_kernels) <= ring.b
    # one intersection per level; Smith forms only for the kernels of the
    # levels and of the intersections, the minimal generators of C and of
    # C cap C^chi, and the enumerations of C^chi (distance, and once more
    # for verify's cross-check)
    assert counted["intersect", None] == len(dual_kernels)
    enumerations = 1 if command == "params" else 2
    assert counted["smith_form", None] <= 2 * len(dual_kernels) + 2 + enumerations
    # Howell forms: per level the dual's kernel, the intersection's kernel
    # and result, and pM + S of the quotient rank, each derived code keeping
    # the form it was built from; then at most eight for C itself, the
    # decomposition and the extension of these one-coordinate codes
    assert counted["howell_form", None] <= 4 * len(dual_kernels) + 8


def test_repeated_calls_return_the_cached_objects():
    ring, C = parse_code_text(CODES["Z8"])
    d = hyperbolic_decompose(C)
    assert hyperbolic_decompose(C) is d
    assert build_minimal_extension(C) is build_minimal_extension(C, d)
    assert chi_dual_level(C, 1) is chi_dual_level(C, 1)
    assert rho_profile(C) is rho_profile(C)
    # a decomposition that is not C's own is extended afresh
    _, C2 = parse_code_text(CODES["Z8"])
    ext = build_minimal_extension(C, hyperbolic_decompose(C2))
    assert ext is not build_minimal_extension(C)
    assert ext.extended.generators == build_minimal_extension(C).extended.generators


@pytest.mark.parametrize("ring_args", [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2)])
def test_derived_codes_keep_consistent_howell_rows(ring_args):
    """Every chi-dual level and every meet holds its Howell rows as its
    expanded matrix: they are the phi expansion of its generators and
    already in Howell form."""
    ring = make_ring(*ring_args)
    N, m = ring.modulus, ring.m
    rng = random.Random(sum(x * 10 ** i for i, x in enumerate(ring_args)))
    for _ in range(5):
        n, k = rng.randint(1, 2), rng.randint(1, 3)
        gens = tuple(SymplecticVector.from_components(
            ring, [ring.element([rng.randrange(N) for _ in range(m)]) for _ in range(2 * n)])
            for _ in range(k))
        C = AdditiveCode(ring, n, gens)
        for t in range(ring.b + 1):
            for D in (C.analysis.dual(t), C.analysis.meet(t)):
                assert D.expanded_matrix.to_rows() == [
                    list(phi_expand(ring, g.components)) for g in D.generators]
                assert howell_form(D.expanded_matrix) == D.expanded_howell
