"""Report checks for the benchmark: invariants that hold on any seed, and
digests of the reports the seed commit produced for the default seed.

The checks read the report JSON and the input text only; they call
nothing in the library under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import List

from corpus import RINGS, Shape

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
DEFAULT_SEED = 0
VALID_CASES = ("dual_subset_of_code", "dual_minus_code")

# Known defect: on this code the Pauli-matrix verifier finds an undetectable
# set that differs from C^chi minus C, while D_matrix still equals D.  Every
# verify-small run runs it and prints what it reports; a corpus file that
# shows the same mismatch counts as failed.
SET_MISMATCH_CODE = "ring p=2 b=2 m=1\nn 2\ngen 1 3 1 1\ngen 2 1 2 1\n"


def digest(exit_code: int, report: str) -> str:
    return hashlib.sha256(f"{exit_code}\n{report}".encode("utf-8")).hexdigest()


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, seed: int) -> List[str]:
    """Digests of (exit code, report) per file of the stream, in order, for
    the default seed; empty for any other seed."""
    if seed != DEFAULT_SEED:
        return []
    with open(reference_path(workload), encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["seed"] != DEFAULT_SEED:
        raise ValueError(f"{reference_path(workload)} records seed {ref['seed']}")
    return ref["digests"]


def _input_generators(text: str) -> List[List[List[int]]]:
    gens = []
    for line in text.splitlines():
        if line.startswith("gen "):
            gens.append([[int(c) for c in e.split(",")] for e in line.split()[1:]])
    return gens


def _distance_ok(D, n: int, capped: bool) -> bool:
    if D == "Unknown":
        return capped
    return D == "inf" or (isinstance(D, int) and 1 <= D <= n)


def check_report(command: str, shape: Shape, text: str, exit_code: int,
                 report: str) -> List[str]:
    """Every problem found with one file's report; empty when it passes."""
    if exit_code not in (0, 2):
        return [f"exit code {exit_code}"]
    try:
        r = json.loads(report)
    except json.JSONDecodeError as e:
        return [f"report is not JSON: {e}"]
    p, b, m = RINGS[shape.ring]
    q = p ** (b * m)
    capped = exit_code == 2
    problems = []
    if r.get("schema") != 1 or r.get("command") != command:
        return ["schema or command field differs"]
    ring = r["ring"]
    if (ring["p"], ring["b"], ring["m"]) != (p, b, m) or r["n"] != shape.n:
        problems.append("ring or n echo differs from the input")
    if r["generators"] != _input_generators(text):
        problems.append("generator echo differs from the input")
    if not _distance_ok(r["D"], shape.n, capped):
        problems.append(f"D = {r['D']!r} is out of range")
    if r["distance_case"] not in VALID_CASES:
        problems.append(f"unknown distance_case {r['distance_case']!r}")
    if command == "distance":
        return problems

    c = r["c_min"]
    if r["K_exact"] * r["card_extended"] != q ** (shape.n + c):
        problems.append("K_exact * card_extended != q^(n + c_min)")
    if not r["K_lower"] <= r["K_exact"] <= r["K_upper"]:
        problems.append("K_lower <= K_exact <= K_upper fails")
    if c != math.ceil(r["decomposition"]["pair_count"] / m):
        problems.append("c_min != ceil(pair_count / m)")
    rho = r["rho"]
    if len(rho) != b - 1 or any(x < 0 or x % 2 for x in rho):
        problems.append(f"rho = {rho} is not b-1 even non-negative entries")
    if command == "params":
        return problems

    v = r["verification"]
    if "skipped" in v:
        if not capped:
            problems.append("verification skipped without exit 2")
        return problems
    if v["matrix_dimension"] != q ** (shape.n + c):
        problems.append("matrix_dimension != q^(n + c_min)")
    if v["projector_dimension"] != r["K_exact"]:
        problems.append("projector_dimension != K_exact")
    if not v["set_matches_dual_minus_code"]:
        problems.append("undetectable set differs from dual minus code")
    both_defined = v["projector_dimension"] == 1 or r["distance_case"] == "dual_minus_code"
    if both_defined and r["D"] != "Unknown" and v["D_matrix"] != r["D"]:
        problems.append(f"D_matrix = {v['D_matrix']!r} but D = {r['D']!r}")
    return problems
