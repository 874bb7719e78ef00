"""Host-speed reference: fixed pure-Python work timed between measurements.

The benchmark shares a few cores of a busy host, whose speed flips between
states about 1.8 times apart, often within a fraction of a second.  Every
per-file time the benchmark reports is taken between samples of
``reference_work`` and scaled by ``REFERENCE_S / (mean of the nearby
samples)``: a time in seconds as it would read on a host where
``reference_work`` takes ``REFERENCE_S``.  The reference work calls nothing
in eaqring, so a change to the program moves the scaled times in the same
proportion as the raw ones; only the host's drift cancels.  The raw times are
printed beside the scaled ones.

``reference_work`` is shaped like the library's hot paths: operator-
overloaded ring elements, one small object per value, row reduction over
lists of lists.
"""

from __future__ import annotations

import time
from typing import List

# A round figure near the time one reference_work() call takes on a 2-core
# x86-64 VM under CPython 3.11 (0.9 ms); it only sets the scale of the
# reported times.
REFERENCE_S = 1.0e-3


class _Residue:
    """An element of Z_8, one object per value, like eaqring's RingElement."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v & 7

    def __add__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.v + other.v)

    def __mul__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.v * other.v)

    def __neg__(self) -> "_Residue":
        return _Residue(-self.v)


def reference_work() -> int:
    """Row-reduce a fixed 8 x 12 matrix over Z_8; returns a checksum."""
    x = 12345
    rows = []
    for _ in range(8):
        row = []
        for _ in range(12):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            row.append(_Residue(x >> 16))
        rows.append(row)
    r = 0
    for col in range(12):
        pivot = next((i for i in range(r, 8) if rows[i][col].v & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _Residue(rows[r][col].v)  # odd residues are their own inverse mod 8
        rows[r] = [e * inv for e in rows[r]]
        for i in range(8):
            if i != r and rows[i][col].v:
                f = -rows[i][col]
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return sum(e.v for row in rows for e in row)


def samples(count: int) -> List[float]:
    """Seconds each of ``count`` reference_work() calls takes now."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - t0)
    return out


def factor(samples: List[float]) -> float:
    """REFERENCE_S over the mean of ``samples``: the factor that scales a
    time taken among them to the reference host speed."""
    return REFERENCE_S * len(samples) / sum(samples)


def scale(times: List[float], batches: List[List[float]], reach: int) -> List[float]:
    """Each of ``times`` scaled to the reference host speed.  Time i was
    taken between sample batches i and i + 1; it is scaled by the samples
    of the ``reach`` batches on either side.  The host's state flips within
    a fraction of a second, so only samples this close track it; their
    mean tracks it better than their median or minimum."""
    return [t * factor([s for batch in batches[max(0, i + 1 - reach):i + 1 + reach]
                        for s in batch])
            for i, t in enumerate(times)]
