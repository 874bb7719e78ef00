"""Batch front end: parse text code files, run the construction pipeline,
and emit deterministic key-sorted JSON reports.

File format (whitespace-separated, # starts a comment):

    ring p=2 b=2 m=1 [h=1,1,1]
    n 1
    gen 1 0
    gen 0 2

h lists coefficients low-to-high including the leading 1; when omitted the
canonical polynomial is used and echoed into the report.  Each generator
row has 2n entries of m comma-separated coordinates.  Every number (p, b,
m, n, an h coefficient, a residue) is an optional - and ASCII digits.

The parser writes each generator's phi-expanded row directly, and makes no
ring element: x entries as given, y entries times the ring's trace form.
The report contracts rows back to entries where it lists generators.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Tuple

from .codes import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_MATRIX_DIM,
    AdditiveCode,
    SymplecticVector,
    _contract,
    cardinality,
    chi_dual_level,
)
from .decompose import hyperbolic_decompose
from .errors import (
    DimensionTooLarge,
    EaqringError,
    InternalInvariantViolation,
    ParseError,
    RangeError,
    SearchLimitExceeded,
    check_cap,
)
from .extension import eaqecc_params
from .galois import GaloisRingSpec, _dual_coords, make_ring

SCHEMA_VERSION = 1


# ---------------------------------------------------------------- parsing

_TOKEN = re.compile(r"\S+")
_is_integer = re.compile(r"-?[0-9]+").fullmatch  # not int()'s 0_1, +1 or non-ASCII digits


def _tokenize(text: str) -> List[Tuple[int, int, str]]:
    """(line, column, token) triples, 1-based, comments stripped."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for m in _TOKEN.finditer(line):
            out.append((ln, m.start() + 1, m.group()))
    return out


def _int_token(tok: Tuple[int, int, str], what: str) -> int:
    ln, col, s = tok
    if not _is_integer(s):
        raise ParseError(f"expected an integer {what}, got {s!r}", ln, col)
    return int(s)


def parse_code_text(text: str) -> Tuple[GaloisRingSpec, AdditiveCode]:
    toks = _tokenize(text)
    pos = 0

    def need(what: str) -> Tuple[int, int, str]:
        nonlocal pos
        if pos >= len(toks):
            last = toks[-1] if toks else (1, 1, "")
            raise ParseError(f"unexpected end of file, expected {what}", last[0], last[1])
        t = toks[pos]
        pos += 1
        return t

    t = need("'ring'")
    if t[2] != "ring":
        raise ParseError(f"expected 'ring', got {t[2]!r}", t[0], t[1])
    fields: Dict[str, Tuple[int, int, str]] = {}
    while pos < len(toks) and "=" in toks[pos][2]:
        ln, col, s = toks[pos]
        pos += 1
        key, _, val = s.partition("=")
        if key not in ("p", "b", "m", "h") or key in fields:
            what = "repeated" if key in fields else "unknown"
            raise ParseError(f"{what} ring header key {key!r}", ln, col)
        fields[key] = (ln, col, val)
    for key in ("p", "b", "m"):
        if key not in fields:
            raise ParseError(f"ring header is missing {key}=", t[0], t[1])
    p, b, m = (_int_token(fields[key], f"for {key}") for key in ("p", "b", "m"))
    h = None
    if "h" in fields:
        ln, col, val = fields["h"]
        if not all(map(_is_integer, val.split(","))):
            raise ParseError(f"bad h coefficient list {val!r}", ln, col)
        h = tuple(map(int, val.split(",")))
    ring = make_ring(p, b, m, h)
    t = need("'n'")
    if t[2] != "n":
        raise ParseError(f"expected 'n', got {t[2]!r}", t[0], t[1])
    n = _int_token(need("the code length"), "for n")
    if n < 1:
        raise RangeError(f"n must be positive, got {n}")
    N = ring.modulus
    rows: List[List[int]] = []
    while pos < len(toks):
        t = need("'gen'")
        if t[2] != "gen":
            raise ParseError(f"expected 'gen', got {t[2]!r}", t[0], t[1])
        row: List[int] = []
        for i in range(2 * n):
            ln, col, s = need("a generator entry")
            parts = s.split(",")
            if len(parts) != ring.m:
                raise ParseError(
                    f"entry {s!r} has {len(parts)} coordinates, expected {ring.m}", ln, col)
            coeffs = []
            for part in parts:
                if not _is_integer(part):
                    raise ParseError(f"bad residue {part!r}", ln, col)
                v = int(part)
                if not 0 <= v < N:
                    raise RangeError(f"line {ln}, column {col}: residue {v} out of range [0, {N})")
                coeffs.append(v)
            row.extend(coeffs if i < n else _dual_coords(ring, coeffs))
        rows.append(row)
    return ring, AdditiveCode(ring, n, rows)


def parse_code_file(path: str) -> Tuple[GaloisRingSpec, AdditiveCode]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_code_text(fh.read())


def serialize_code(ring: GaloisRingSpec, C: AdditiveCode) -> str:
    """Canonical text form; parsing it reproduces the same ring and code."""
    lines = [f"ring p={ring.p} b={ring.b} m={ring.m} h={','.join(map(str, ring.h_coeffs))}",
             f"n {C.n}"]
    for g in C.generators:
        lines.append("gen " + " ".join(
            ",".join(map(str, el.coeffs)) for el in g.components))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- reports

def _entry_lists(vec: SymplecticVector) -> List[List[int]]:
    return [list(el.coeffs) for el in vec.components]


def _render_D(D) -> object:
    if D is None:
        return "Unknown"
    if D == math.inf:
        return "inf"
    return int(D)


def _echo_block(ring: GaloisRingSpec, C: AdditiveCode) -> Dict:
    return {
        "ring": {"p": ring.p, "b": ring.b, "m": ring.m, "h": list(ring.h_coeffs)},
        "n": C.n,
        "generators": [_entry_lists(g) for g in C.generators],
    }


def _params_block(P, int_text: _IntTexts) -> Dict:
    raw = P.K_lower_raw
    return {
        "c_min": P.c,
        "rho": list(P.rho),
        "K_exact": P.K_exact,
        "K_lower": P.K_lower,
        "K_upper": P.K_upper,
        "K_lower_raw": f"{int_text(raw.numerator)}/{int_text(raw.denominator)}",
        "D": _render_D(P.D),
        "distance_case": P.distance_case,
        "distance_convention": "min_symplectic_weight",
        "card_code": P.card_code,
        "card_extended": P.card_extended,
    }


def _decomposition_block(ring: GaloisRingSpec, d) -> Dict:
    return {
        "pair_count": d.c,
        "isotropic_count": len(d.isotropic),
        "gram_exponents": list(d.exponents),
        "isotropic": [_entry_lists(g) for g in _contract(ring, d.isotropic)],
        "pairs": [[_entry_lists(g) for g in _contract(ring, pair)] for pair in d.pairs],
    }


def build_report(command: str, ring: GaloisRingSpec, C: AdditiveCode,
                 max_enum: int, max_matrix_dim: int,
                 int_text: Optional[_IntTexts] = None) -> Tuple[Dict, int]:
    """The report of ``command`` and its exit code.  The K_lower_raw text is
    written by ``int_text``; pass the one that renders the report, so that
    an int past the digit limit is converted once."""
    report: Dict = {"schema": SCHEMA_VERSION, "command": command}
    report.update(_echo_block(ring, C))
    code = 0
    if command == "decompose":
        report["decomposition"] = _decomposition_block(ring, hyperbolic_decompose(C))
    elif command == "extend":
        Cp = C.extension
        report["decomposition"] = _decomposition_block(ring, hyperbolic_decompose(C))
        report["c_min"] = Cp.n - C.n
        report["card_code"] = cardinality(C)
        report["card_extended"] = cardinality(Cp)
        report["extended_generators"] = [_entry_lists(g) for g in Cp.generators]
    elif command == "dual":
        dual = chi_dual_level(C)
        report["dual_generators"] = [_entry_lists(g) for g in dual.generators]
        report["card_code"] = cardinality(C)
        report["card_dual"] = C.dual.cardinality
    elif command in ("params", "distance", "verify"):
        P = eaqecc_params(C, limit=max_enum)
        if command == "distance":
            report.update(D=_render_D(P.D), distance_case=P.distance_case,
                          distance_convention="min_symplectic_weight")
        else:
            report["decomposition"] = _decomposition_block(ring, hyperbolic_decompose(C))
            report.update(_params_block(P, int_text or _IntTexts()))
        code = 2 if P.D is None else 0
        if command == "verify":
            from . import pauli  # imported here: no other command loads the verifier
            Cp = C.extension
            try:
                group = pauli.build_stabilizer(Cp, max_dim=max_matrix_dim)
                dim = pauli.projector_dimension(group, max_dim=max_matrix_dim)
                res = pauli.undetectable_error_search(C, group, limit=max_enum,
                                                      max_dim=max_matrix_dim)
                report["verification"] = {
                    "stabilizer_size": group.size,
                    "matrix_dimension": ring.cardinality ** Cp.n,
                    "projector_dimension": dim,
                    "undetectable_count": len(res.undetectable),
                    "undetectable_min_weight": _render_D(res.min_weight),
                    "set_matches_dual_minus_code": res.set_matches_dual_minus_code,
                    "dimension_one_convention": res.dimension == 1,
                    "D_matrix": _render_D(res.dim1_distance if res.dimension == 1
                                          else res.min_weight),
                }
            except (DimensionTooLarge, SearchLimitExceeded) as e:
                report["verification"] = {"skipped": str(e) or type(e).__name__}
                code = 2
    else:
        raise ValueError(f"unknown command {command!r}")
    return report, code


# below 10^512 an int has fewer digits than the smallest limit that
# sys.set_int_max_str_digits accepts (640)
_DIGIT_LIMIT = 10 ** 512


class _IntTexts:
    """Decimal texts of one report's ints, exact also past the interpreter's
    limit on the digits of an int-to-str conversion (from 10^512 on, by
    ``_rebuilt``).  Such an int is converted once per report, and each power
    2^k that ``_rebuilt`` splits at is built once, shared by all of them."""

    def __init__(self):
        self.texts: Dict[int, str] = {}
        self.powers: Dict[int, object] = {}

    def __call__(self, v: int) -> str:
        if -_DIGIT_LIMIT < v < _DIGIT_LIMIT:
            return int.__repr__(v)
        if v not in self.texts:
            import decimal
            ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                  traps=[decimal.Inexact])
            self.texts[v] = ("-" if v < 0 else "") + str(
                _rebuilt(abs(v), abs(v).bit_length(), ctx, self.powers))
        return self.texts[v]


def _rebuilt(x: int, bits: int, ctx, powers: Dict[int, object]):
    """0 <= x < 2^bits as an exact integer of ``decimal``, which has no digit
    limit: hi * 2^k + lo, k = bits // 2, both rebuilt alike (as CPython 3.12's
    ``_pylong``), in near-linear time; module-level, so no closure cycle."""
    if bits <= 1024:
        return ctx.create_decimal(x)
    k = bits >> 1
    if k not in powers:
        powers[k] = ctx.power(2, k)
    hi = x >> k
    return ctx.add(ctx.multiply(_rebuilt(hi, bits - k, ctx, powers), powers[k]),
                   _rebuilt(x - (hi << k), k, ctx, powers))


def _json(value, indent: str, int_text: _IntTexts) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` at nesting ``indent``,
    for the report schema: dicts with string keys, lists, strings, ints and
    bools.  A module-level function, so a call leaves no closure cycle."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int_text(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner, int_text)}"
                 for k, v in sorted(value.items())]
        opening, closing = "{", "}"
    elif isinstance(value, list):
        items = [_json(v, inner, int_text) for v in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"{type(value).__name__} is not in the report schema")
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def render_report(report: Dict, int_text: Optional[_IntTexts] = None) -> str:
    """The report as key-sorted JSON with an indent of 2, every int exact,
    written by ``int_text`` (a fresh one if none is given)."""
    return _json(report, "", int_text or _IntTexts()) + "\n"


# ---------------------------------------------------------------- driver

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    on it, and each ``run`` reuses it."""
    ap = argparse.ArgumentParser(prog="eaqring")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("params", "decompose", "extend", "dual", "distance", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("file", help="code file")
        sp.add_argument("--max-enum", type=int, default=DEFAULT_ENUM_LIMIT)
        sp.add_argument("--max-matrix-dim", type=int, default=DEFAULT_MATRIX_DIM)
    return ap


def run(argv: List[str], out=None) -> int:
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    C, int_text = None, _IntTexts()
    try:
        check_cap("--max-enum", args.max_enum)
        check_cap("--max-matrix-dim", args.max_matrix_dim)
        ring, C = parse_code_file(args.file)
        report, code = build_report(args.command, ring, C,
                                    args.max_enum, args.max_matrix_dim, int_text)
    except OSError as e:
        out.write(render_report({
            "schema": SCHEMA_VERSION,
            "error": {"type": "FileError", "message": str(e)}}))
        return 1
    except (EaqringError, ValueError) as e:
        err = {"type": type(e).__name__, "message": str(e)}
        if isinstance(e, ParseError):
            err["line"] = e.line
            err["column"] = e.column
        if isinstance(e, InternalInvariantViolation) and C is not None:
            err["reproducer"] = serialize_code(ring, C)
        out.write(render_report({"schema": SCHEMA_VERSION, "error": err}))
        return 1
    out.write(render_report(report, int_text))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
