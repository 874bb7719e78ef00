#!/usr/bin/env python3
"""Record the reference digests that run.py compares reports against.

Run from the root of a checkout of the commit whose reports are the
reference (reports must stay byte-identical across later commits):

    python3 bench/record_reference.py

For the default seed it runs the first BLOCKS[workload] blocks of each
workload's stream untraced and writes bench/reference/<workload>.json:
the SHA-256 of each file's exit code and report, in stream order.  Runs
that get further into the stream than this check the extra files by
invariants only.
"""

from __future__ import annotations

import json
import os
import shutil

import checks
import corpus
from run import OUT_DIR, file_stream, load_cli, run_file

# Two to three times the files one run reaches today, so a faster program
# is still compared byte for byte.
BLOCKS = {"params-mixed": 10, "distance-deep": 25, "verify-small": 56}


def main() -> None:
    cli = load_cli(os.getcwd())
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for name in sorted(corpus.WORKLOADS):
        wl = corpus.WORKLOADS[name]
        corpus_dir = os.path.join(OUT_DIR, "corpus", name)
        shutil.rmtree(corpus_dir, ignore_errors=True)
        os.makedirs(corpus_dir)
        digests = []
        for _, shape, text, path in file_stream(wl, checks.DEFAULT_SEED, corpus_dir):
            r = run_file(cli, wl.command, shape, text, path)
            if r.exit_code is None:
                raise SystemExit(f"{path} raised:\n{r.report}")
            digests.append(checks.digest(r.exit_code, r.report))
            if len(digests) == BLOCKS[name] * len(wl.shapes):
                break
        with open(checks.reference_path(name), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": checks.DEFAULT_SEED,
                       "digests": digests}, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {len(digests)} reports recorded")


if __name__ == "__main__":
    main()
