#!/usr/bin/env python3
"""Record the frozen output lines that run.py compares at the default seed.

Run from the repository root, on the commit whose output is the reference:

    python3 perfbench/record_expected.py [WORKLOAD ...]

Each input of the default-seed corpus runs once through lcpq and its
canonical line goes to perfbench/expected/<workload>.jsonl, one per input in
corpus order.  Inputs whose output fails the other checks are reported and
the file is not written.
"""

from __future__ import annotations

import os
import shutil
import sys

import run


def record(workload: str) -> bool:
    from checks import canonical_line, check_output, expected_path
    from workloads import DEFAULT_SEED, build_corpus

    directory = run.corpus_dir(workload, DEFAULT_SEED)
    shutil.rmtree(directory, ignore_errors=True)
    try:
        inputs = build_corpus(workload, DEFAULT_SEED, directory)
        lines = []
        for inp in inputs:
            code, out, result = run.call_input(inp)
            reason = check_output(inp, code, out, result, None)
            if reason is not None:
                print("%s input %d: %s" % (workload, inp.index, reason), file=sys.stderr)
                return False
            lines.append(canonical_line(inp, out, result))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(os.path.dirname(expected_path(workload)), exist_ok=True)
    with open(expected_path(workload), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("%s: %d lines" % (workload, len(lines)))
    return True


def main(argv) -> int:
    if not run.bootstrap():
        print("lcpq sources not found under %s" % run.SRC, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    return 0 if all([record(name) for name in names]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
