"""Seeded corpus of code files for the benchmark workloads.

Every file is chosen by input properties alone -- ring, length n and
generator count k -- and never by running the library under test.  A
workload is a list of shapes (ring, n, k).  The corpus is an endless
stream of blocks; each block holds one file per shape, with fresh
uniformly random generator entries, in an order whose every prefix
covers the shape list evenly.  Stratifying by shape keeps two seeds' cost
mixes alike, so run-to-run spread comes from the entries, not from which
shapes happened to be drawn.

The same (workload, seed, block) always gives byte-identical text: the
generator is a ``random.Random`` seeded with an integer derived from
those three values, never with ``hash()``.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

# name -> (p, b, m); files use the documented header without h=, so the
# library picks its canonical defining polynomial.
RINGS: Dict[str, Tuple[int, int, int]] = {
    "F2": (2, 1, 1),
    "F4": (2, 1, 2),
    "Z4": (2, 2, 1),
    "Z8": (2, 3, 1),
    "Z9": (3, 2, 1),
    "GR(4,2)": (2, 2, 2),
}


@dataclass(frozen=True)
class Shape:
    ring: str
    n: int
    k: int


def _params_shapes() -> List[Shape]:
    """Every (ring, n, k) with q^{2n} <= 2^16 and 1 <= k <= 2nm: the chi-dual
    is at most 2^16 elements, so D is always computed under the default
    enumeration cap."""
    out = []
    for ring, (p, b, m) in RINGS.items():
        q = p ** (b * m)
        n = 1
        while q ** (2 * n) <= 1 << 16:
            out.extend(Shape(ring, n, k) for k in range(1, 2 * n * m + 1))
            n += 1
    return out


def _distance_shapes() -> List[Shape]:
    """Every (ring, n, k) with 4nm/5 <= k <= nm whose input bound on the
    chi-dual, q^{2n} / |Z_{p^b}|^k, lies in [2^12, 2^13]: distance
    enumerates thousands of dual vectors per file, and a run still sees
    enough files for a steady median.  With fewer generators per position
    a weight-1 vector of C^chi outside C is likely, and D = 1 ends the
    search early.  Without the lower limit on k about half of the files
    end that way, so the median latency falls in the gap between early
    exits and full searches and jumps from seed to seed."""
    out = []
    for ring, (p, b, m) in RINGS.items():
        q = p ** (b * m)
        for n in range(1, 16):
            for k in range(math.ceil(4 * n * m / 5), n * m + 1):
                bound = q ** (2 * n) // (p ** b) ** k
                if 1 << 12 <= bound <= 1 << 13:
                    out.append(Shape(ring, n, k))
    return out


def _verify_shapes() -> List[Shape]:
    """Every (ring, n, k) with q^{2n} <= 256 and q^{n + ceil(k/2m)} <= 32.
    Since c <= ceil(k/2m), the error search and every Pauli matrix stay
    under the default caps by input alone, and no file is so large that a
    run sees too few files for steady percentiles."""
    out = []
    for ring, (p, b, m) in RINGS.items():
        q = p ** (b * m)
        n = 1
        while q ** (2 * n) <= 256:
            for k in range(1, 2 * n * m + 1):
                if q ** (n + math.ceil(k / (2 * m))) <= 32:
                    out.append(Shape(ring, n, k))
            n += 1
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    shapes: Tuple[Shape, ...]
    why: str

    @property
    def rings(self) -> List[str]:
        return sorted({s.ring for s in self.shapes}, key=list(RINGS).index)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "params-mixed", "params", tuple(_params_shapes()),
        "small duals, so Howell/Smith/kernel and the repeated chi-dual and "
        "decomposition work dominate; no Pauli code runs"),
    Workload(
        "distance-deep", "distance", tuple(_distance_shapes()),
        "duals of 2^12..2^13 vectors and k >= 4nm/5, so most files search "
        "the whole dual: per-vector enumeration and Howell membership calls "
        "dominate"),
    Workload(
        "verify-small", "verify", tuple(_verify_shapes()),
        "explicit Pauli matrices, projector and exhaustive error search, "
        "all under the default caps by input alone"),
)}


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    key = zlib.crc32(workload.encode("ascii"))
    return random.Random((seed * 1_000_003 + block) * 4_294_967_296 + key)


def code_text(shape: Shape, rng: random.Random) -> str:
    """One code file in the documented input format, entries uniform."""
    p, b, m = RINGS[shape.ring]
    N = p ** b
    lines = [f"ring p={p} b={b} m={m}", f"n {shape.n}"]
    for _ in range(shape.k):
        entries = (",".join(str(rng.randrange(N)) for _ in range(m))
                   for _ in range(2 * shape.n))
        lines.append("gen " + " ".join(entries))
    return "\n".join(lines) + "\n"


def spread_order(count: int, offset: int) -> List[int]:
    """0..count-1 in bit-reversed order, rotated by ``offset``.  Every prefix
    visits the shape list evenly, so a run that stops mid-block still sees
    rings, lengths and generator counts in proportion."""
    bits = max(1, (count - 1).bit_length())
    order = []
    for t in range(1 << bits):
        r = int(format(t, f"0{bits}b")[::-1], 2)
        if r < count:
            order.append((r + offset) % count)
    return order


def block(workload: Workload, seed: int, index: int) -> List[Tuple[Shape, str]]:
    """Block ``index`` of the stream: one file per shape, in spread order."""
    rng = block_rng(workload.name, seed, index)
    shapes = workload.shapes
    order = spread_order(len(shapes), rng.randrange(len(shapes)))
    return [(shapes[i], code_text(shapes[i], rng)) for i in order]
