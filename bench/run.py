#!/usr/bin/env python3
"""eaqring benchmark: one closed-loop client, one process, one thread.

Run from the root of a checkout:

    python3 bench/run.py --workload params-mixed --seed 0 --seconds 35 --trace 0

The client writes seeded code files (see corpus.py) and calls the CLI's
public entry point in-process, ``eaqring.cli.run([command, file],
out=StringIO())``, one file after another until ``--seconds`` of calls
and at least 100 files are done.  Every report is checked (checks.py).
With ``--trace 0`` it prints the end-to-end metrics, its timings scaled
to a reference host speed measured between files (hostspeed.py); with ``--trace 1``
it runs whole blocks, each file once with every layer's public functions
wrapped in spans (spans.py) and once untraced, and prints the per-layer
metrics.  Each metric is printed as ``name value unit``; the last line is
one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# One thread: keep numpy's BLAS from spreading the dense Pauli products over
# other cores.  Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checks
import corpus
import hostspeed

MIN_FILES = 100        # p90 needs at least ten samples beyond it
SETUP_STARTS = 11      # fresh interpreters per setup_s median
SPEED_SAMPLES = 3      # host-speed samples between two files
SPEED_REACH = 3        # sample batches on either side that scale a file's time
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

ZPB_FUNCS = ("smith_form", "howell_form", "kernel", "intersect", "quotient_rank")
PAULI_FUNCS = ("pauli_matrix", "build_stabilizer", "stabilizer_projector",
               "projector_dimension", "undetectable_error_search")
GALOIS_FUNCS = ("phi_expand", "phi_contract", "gen_trace", "make_ring")
CLI_FUNCS = ("parse_code_text", "build_report", "render_report")


def load_cli(root: str):
    """Import ``eaqring.cli`` from the checkout's ``src``, and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "eaqring", "__init__.py")):
        raise SystemExit(f"error: no eaqring package under {src}")
    sys.path.insert(0, src)
    import eaqring.cli
    if not os.path.abspath(eaqring.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: eaqring was imported from {eaqring.cli.__file__}")
    return eaqring.cli


def setup_code(wl: corpus.Workload) -> str:
    rings = [corpus.RINGS[r] for r in wl.rings]
    return ("import sys, time; sys.path.insert(0, 'src'); import eaqring.cli as cli; "
           f"[cli.make_ring(*r) for r in {rings!r}]; print(repr(time.time()))")


def fresh_start(root: str, code: str) -> float:
    """Seconds from starting a fresh interpreter until ``code`` (import
    eaqring.cli and make_ring for every ring of the workload) is done."""
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(proc.stdout) - t0


@dataclass
class FileRun:
    shape: Optional[corpus.Shape]
    text: str
    path: str
    seconds: float
    exit_code: Optional[int]   # None when cli.run raised
    report: str


def run_file(cli, command: str, shape, text: str, path: str) -> FileRun:
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        code = cli.run([command, path], out=out)
    except Exception:  # a raise is a failed file, not a stopped benchmark
        t1 = time.perf_counter()
        return FileRun(shape, text, path, t1 - t0, None, traceback.format_exc())
    t1 = time.perf_counter()
    return FileRun(shape, text, path, t1 - t0, code, out.getvalue())


def file_stream(wl: corpus.Workload, seed: int, corpus_dir: str):
    """(starts a block, shape, text, path) for every file of the endless
    stream, each file written just before it is yielded."""
    for block in itertools.count():
        for j, (shape, text) in enumerate(corpus.block(wl, seed, block)):
            path = os.path.join(corpus_dir, f"{block:04d}-{j:03d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            yield j == 0, shape, text, path


def busy_seconds(runs: List[FileRun]) -> float:
    return sum(r.seconds for r in runs)


@dataclass
class Verdict:
    problems: List[str]   # one per failed file: it counts in failed_share
    capped: int


def check_runs(wl, seed: int, runs: List[FileRun]) -> Verdict:
    reference = checks.load_reference(wl.name, seed)
    verdict = Verdict([], 0)
    for i, r in enumerate(runs):
        if r.exit_code is None:
            found = ["raised:\n" + r.report]
        else:
            verdict.capped += r.exit_code == 2
            try:
                found = checks.check_report(wl.command, r.shape, r.text, r.exit_code, r.report)
            except (KeyError, TypeError) as e:
                found = [f"report lacks a field or has one of the wrong type: {e!r}"]
            if i < len(reference) and checks.digest(r.exit_code, r.report) != reference[i]:
                found.append("report differs from the one the seed commit produced")
        if found:
            verdict.problems.append(
                f"{r.path}: {'; '.join(found)}\n--- input\n{r.text}--- report\n{r.report}")
    return verdict


def known_defects(cli, wl, corpus_dir: str) -> List[str]:
    """Lines reporting the known defects on fixed inputs; none of them
    counts as a failed file."""
    failures = []
    for ring in corpus.RINGS:
        text = corpus.code_text(corpus.Shape(ring, 1, 2), random.Random(0))
        try:
            spec, code = cli.parse_code_text(text)
            again = cli.serialize_code(spec, code)
            if cli.serialize_code(*cli.parse_code_text(again)) != again:
                failures.append(f"{ring}: text differs after a round trip")
        except Exception as e:  # report the defect, keep measuring
            failures.append(f"{ring}: {type(e).__name__}: {e}")
    lines = [f"known defect: serialize_code output fails to parse back for "
             f"{len(failures)} of {len(corpus.RINGS)} rings"]
    lines += [f"  {f}" for f in failures]
    if wl.command == "verify":
        path = os.path.join(corpus_dir, "set-mismatch-reproducer.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(checks.SET_MISMATCH_CODE)
        r = run_file(cli, "verify", None, checks.SET_MISMATCH_CODE, path)
        try:
            flag = json.dumps(json.loads(r.report)["verification"]["set_matches_dual_minus_code"])
        except (ValueError, KeyError):
            flag = f"not reported (exit code {r.exit_code})"
        lines.append(f"known defect: verify on {' / '.join(checks.SET_MISMATCH_CODE.splitlines())} "
                     f"reports set_matches_dual_minus_code = {flag}")
    return lines


def percentile_ms(values: List[float], pct: int) -> float:
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(cli, wl, seed: int, seconds: float, root: str, corpus_dir: str):
    """Untraced closed loop until ``seconds`` of calls and MIN_FILES files
    are done, with host-speed samples between files and SETUP_STARTS fresh
    starts spread evenly over the run; returns (runs, verdict, metrics).
    File timings are scaled to the reference host speed (hostspeed.py) by
    the samples nearest to them; setup_s, the median of the fresh starts,
    is scaled by all samples of the run.  The raw values are printed too."""
    code = setup_code(wl)
    fresh_start(root, code)  # discarded: fills the bytecode and file caches
    setup: List[float] = []
    runs: List[FileRun] = []
    speed: List[List[float]] = []
    busy = 0.0
    for _, shape, text, path in file_stream(wl, seed, corpus_dir):
        if busy >= len(setup) * seconds / SETUP_STARTS:
            setup.append(fresh_start(root, code))
        speed.append(hostspeed.samples(SPEED_SAMPLES))
        runs.append(run_file(cli, wl.command, shape, text, path))
        busy += runs[-1].seconds + sum(speed[-1])
        if busy >= seconds and len(runs) >= MIN_FILES:
            break
    speed.append(hostspeed.samples(SPEED_SAMPLES))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdict = check_runs(wl, seed, runs)
    raw = [r.seconds for r in runs]
    lat = hostspeed.scale(raw, speed, SPEED_REACH)
    n = len(runs)
    host = [hostspeed.factor(batch) for batch in speed]
    print(f"files {n}, busy {sum(raw):.2f} s, host speed relative to the reference: median "
          f"{statistics.median(host):.3f}, quartiles "
          f"{', '.join(f'{q:.3f}' for q in statistics.quantiles(host, n=4))}")
    setup_raw = statistics.median(setup)
    print(f"raw: ops_per_s {n / sum(raw)}, latency_p50_ms {percentile_ms(raw, 50)}, "
          f"latency_p90_ms {percentile_ms(raw, 90)}, setup_s {setup_raw}")
    print(f"failed_share {len(verdict.problems) / n} share")
    print(f"capped_share {verdict.capped / n} share")
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (percentile_ms(lat, 50), "ms"),
        "latency_p90_ms": (percentile_ms(lat, 90), "ms"),
        "ok_share": (1 - len(verdict.problems) / n, "share"),
        "uncapped_share": (1 - verdict.capped / n, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_raw * hostspeed.factor([t for batch in speed for t in batch]), "s"),
    }
    return runs, verdict, metrics


def traced(cli, wl, seed: int, seconds: float, corpus_dir: str):
    """Whole blocks, each file once with spans on and once untraced, until a
    third of ``seconds`` is traced; returns (traced runs, verdict, metrics)."""
    from spans import LAYERS, Tracer

    tracer = Tracer()
    tracer.install()
    runs: List[FileRun] = []
    replay: List[FileRun] = []
    for block_start, shape, text, path in file_stream(wl, seed, corpus_dir):
        if block_start and runs and busy_seconds(runs) >= seconds / 3:
            break
        # each file runs untraced and traced back to back, in alternating
        # order, so both runs of a pair see the same machine
        for traced_run in ((False, True) if len(runs) % 2 else (True, False)):
            if traced_run:
                tracer.file_id = len(runs)
                tracer.enable()
                try:
                    runs.append(run_file(cli, wl.command, shape, text, path))
                finally:
                    tracer.disable()
            else:
                replay.append(run_file(cli, wl.command, shape, text, path))
    verdict = check_runs(wl, seed, runs)
    verdict.problems += [f"{r.path}: traced and untraced reports differ"
                         for r, u in zip(runs, replay)
                         if (r.exit_code, r.report) != (u.exit_code, u.report)]
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.npz"))

    n = len(runs)
    self_ns = tracer.self_ns()
    index = {name: i for i, name in enumerate(tracer.names)}

    def calls(name):
        return tracer.calls[index[name]] / n

    def self_ms(name):
        return self_ns[index[name]] / 1e6 / n

    def layer_ms(layer):
        return sum(self_ns[i] for name, i in index.items()
                   if name.startswith(layer + ".")) / 1e6 / n

    metrics: Dict[str, Tuple[float, str]] = {}
    for f in ZPB_FUNCS:
        metrics[f"zpblinalg.{f}.calls"] = (calls(f"zpblinalg.{f}"), "calls/file")
        metrics[f"zpblinalg.{f}.self_ms"] = (self_ms(f"zpblinalg.{f}"), "ms/file")
    for name in ("codes.chi_dual_level", "codes.code_intersection",
                 "decompose.hyperbolic_decompose", "zpblinalg.howell_member"):
        metrics[f"{name}.calls"] = (calls(name), "calls/file")
    metrics["zpblinalg.enumerate_module.elements"] = (tracer.elements / n, "elements/file")
    metrics["codes.min_symplectic_distance.self_ms"] = (
        self_ms("codes.min_symplectic_distance"), "ms/file")
    for f in PAULI_FUNCS:
        metrics[f"pauli.{f}.calls"] = (calls(f"pauli.{f}"), "calls/file")
        metrics[f"pauli.{f}.self_ms"] = (self_ms(f"pauli.{f}"), "ms/file")
    metrics["pauli.matrix_bytes"] = (tracer.matrix_bytes / n, "bytes/file")
    for f in GALOIS_FUNCS:
        metrics[f"galois.{f}.calls"] = (calls(f"galois.{f}"), "calls/file")
        metrics[f"galois.{f}.self_ms"] = (self_ms(f"galois.{f}"), "ms/file")
    metrics["galois.ring_ops.calls"] = (tracer.ring_ops / n, "calls/file")
    for f in CLI_FUNCS:
        metrics[f"cli.{f}.self_ms"] = (self_ms(f"cli.{f}"), "ms/file")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (layer_ms(layer), "ms/file")
    traced_s, untraced_s = busy_seconds(runs), busy_seconds(replay)
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "share")

    print(f"traced files {n}, traced {traced_s:.2f} s, untraced {untraced_s:.2f} s, "
          f"spans {len(tracer.start)}")
    total_ms = traced_s * 1e3 / n
    top = max(LAYERS, key=layer_ms)
    print(f"focus: largest layer self time is {top}, "
          f"{layer_ms(top) / total_ms:.1%} of traced time")
    search = sum(self_ms(f) for f in ("codes.min_symplectic_distance",
                                      "zpblinalg.enumerate_module", "zpblinalg.howell_member"))
    print("focus: min_symplectic_distance + enumerate_module + howell_member self time "
          f"is {search / total_ms:.1%} of traced time")
    pauli_calls = sum(tracer.calls[index[f"pauli.{f}"]] for f in PAULI_FUNCS)
    print(f"focus: pauli cumulative time is {tracer.outermost_ns('pauli.') / 1e6 / n / total_ms:.1%}"
          f" of traced time, over {pauli_calls} calls")
    print("pauli.matrix_bytes is computed, not measured: the sum of dim^2 * 16 "
          "over pauli_matrix calls")
    return runs, verdict, metrics


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    cli = load_cli(root)
    wl = corpus.WORKLOADS[args.workload]
    print(f"workload {wl.name}: eaqring {wl.command}, {len(wl.shapes)} shapes per block "
          f"over {', '.join(wl.rings)}; why: {wl.why}")
    corpus_dir = os.path.join(OUT_DIR, "corpus", wl.name)
    shutil.rmtree(corpus_dir, ignore_errors=True)
    os.makedirs(corpus_dir)

    if args.trace:
        runs, verdict, metrics = traced(cli, wl, args.seed, args.seconds, corpus_dir)
    else:
        runs, verdict, metrics = end_to_end(cli, wl, args.seed, args.seconds, root, corpus_dir)
    for line in known_defects(cli, wl, corpus_dir):
        print(line)
    for detail in verdict.problems[:5]:
        print(f"FAILED {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": len(runs),
        "failed": len(verdict.problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
