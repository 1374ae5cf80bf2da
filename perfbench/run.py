#!/usr/bin/env python3
"""lcpq benchmark: CLI verdict throughput and latency on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's corpus is built from --seed (perfbench/workloads.py) and fed,
one input at a time, through ``lcpq.cli.main`` in this process: a closed loop
with one client and one thread, for --seconds.  Every output is then checked
(perfbench/checks.py).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* --trace 0: the end-to-end metrics, measured with nothing patched.  Times
  are each input's median over its repeats, scaled to reference speed by a
  fixed kernel timed between inputs (see typical_times);
* --trace 1: the per-layer metrics.  Each input runs once untraced and once
  under perfbench/tracer.py; the ratio of the two summed times gives
  trace.overhead_share.

Scratch files go to .perfbench/ under the repository root.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = ".perfbench"  # relative to ROOT, so output paths are reproducible
SETUP_REPEATS = 11

# End-to-end times are scaled to a reference speed: the reference kernel
# (below) taking REFERENCE_KERNEL_S, about its time on the 2-core VM the
# benchmark was written on.  REFERENCE_WINDOW kernel runs on each side of a
# sample set its scale.
REFERENCE_MATRIX = [
    [Fraction((3 * i + 7 * j) % 11 - 5 + (9 if i == j else 0)) for j in range(6)]
    for i in range(6)
]
REFERENCE_KERNEL_S = 0.0004
REFERENCE_WINDOW = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "inputs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_share": "ratio",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


def bootstrap() -> bool:
    """Make ``src/`` of this checkout importable and keep numpy's BLAS to one
    thread, as the loop has one client; False if the sources are missing."""
    if not os.path.isfile(os.path.join(SRC, "lcpq", "cli.py")):
        return False
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.chdir(ROOT)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    return True


def corpus_dir(workload: str, seed: int) -> str:
    return os.path.join(WORK_DIR, "%s-seed%d" % (workload, seed))


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import lcpq.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    command = [sys.executable, "-c", "import lcpq.cli"]
    subprocess.run(command, env=env, check=True)  # writes the bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        subprocess.run(command, env=env, check=True)
        times.append(perf_counter() - started)
    return statistics.median(times)


def call_input(inp):
    """Run one input; return (exit code or exception text, stdout, result).

    Names are looked up on the modules at call time, so an installed tracer
    sees the call.
    """
    from lcpq import cli
    from lcpq.jordan import transforms

    out = io.StringIO()
    result = None
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            if inp.argv is None:
                result = transforms.peirce_decompose(inp.expect["x"], inp.expect["frame"])
                code = 0
            else:
                code = cli.main(inp.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed input, not a failed run
        code = "%s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), result


def timed_call(inp):
    """One sample: (input, code, out, result, elapsed_s)."""
    started = perf_counter()
    code, out, result = call_input(inp)
    return inp, code, out, result, perf_counter() - started


def reference_kernel() -> Fraction:
    """Fixed stdlib work: Gaussian elimination of a 6x6 Fraction matrix.

    It shares no code with lcpq, so no change to the program moves its time,
    and it does the same kind of work (rational arithmetic in the
    interpreter) as lcpq's exact kernels.
    """
    a = [row[:] for row in REFERENCE_MATRIX]
    det = Fraction(1)
    for k in range(len(a)):
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            for j in range(k, len(a)):
                a[i][j] -= f * a[k][j]
    return det


def time_reference() -> float:
    started = perf_counter()
    reference_kernel()
    return perf_counter() - started


def run_loop(inputs, seconds):
    """Closed loop over the corpus, cycling, until seconds pass.

    The reference kernel runs before every input and once after the last,
    so sample i lies between kernel times i and i + 1.  Returns (samples,
    kernel times, wall_s).
    """
    samples, kernel = [], []
    started = perf_counter()
    while not samples or perf_counter() - started < seconds:
        kernel.append(time_reference())
        samples.append(timed_call(inputs[len(samples) % len(inputs)]))
    kernel.append(time_reference())
    return samples, kernel, perf_counter() - started


def evaluate(samples, expected):
    """Check every sample; return (failure reasons, verdict answers)."""
    from checks import check_output, verdict_answers

    failures, answers = [], []
    for inp, code, out, result, _ in samples:
        line = None if expected is None else expected[inp.index]
        try:
            reason = check_output(inp, code, out, result, line)
            answers.extend(verdict_answers(inp, out))
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            reason = "malformed output: %s: %s" % (type(exc).__name__, exc)
        if reason is not None:
            failures.append("input %d (%s n=%d): %s" % (inp.index, inp.family, inp.n, reason))
    return failures, answers


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)]


def typical_times(samples, kernel, scale: bool) -> dict:
    """Each input's median time over its repeats in the run, in seconds at
    reference speed.

    A sample's time is multiplied by REFERENCE_KERNEL_S over the median of
    the kernel times around it (REFERENCE_WINDOW on each side), so a phase
    in which a shared machine runs all work slower or faster cancels out.
    scale=False keeps the raw wall-clock times.
    """
    repeats = {}
    for i, (inp, _, _, _, elapsed) in enumerate(samples):
        if scale:
            near = kernel[max(0, i + 1 - REFERENCE_WINDOW): i + 1 + REFERENCE_WINDOW]
            elapsed *= REFERENCE_KERNEL_S / statistics.median(near)
        repeats.setdefault(inp.index, []).append(elapsed)
    return {index: statistics.median(times) for index, times in repeats.items()}


def end_to_end(samples, typical, failures, answers, setup_s) -> dict:
    latencies = sorted(typical.values())
    decided = sum(1 for a in answers if a in ("yes", "no"))
    return {
        "setup_s": setup_s,
        "inputs_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000.0 * percentile(latencies, 50),
        "latency_p90_ms": 1000.0 * percentile(latencies, 90),
        "ok_share": 1.0 - len(failures) / len(samples),
        "decided_share": decided / len(answers) if answers else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(inputs, seconds, workload, seed):
    """Each input runs untraced, then traced, until seconds pass.

    Pairing the two runs of every input makes trace.overhead_share immune
    to slow phases of the machine.  Returns (metrics with units, all samples).
    """
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    started = perf_counter()
    while perf_counter() - started < seconds:
        inp = inputs[len(plain) % len(inputs)]
        plain.append(timed_call(inp))
        tracer.input_id = len(traced)
        tracer.install()
        try:
            traced.append(timed_call(inp))
        finally:
            tracer.uninstall()
    spans_path = os.path.join(WORK_DIR, "spans-%s-seed%d.tsv" % (workload, seed))
    print("spans: %d written to %s" % (tracer.write_spans(spans_path), spans_path))
    metrics = {}
    for name, value in tracer.metrics().items():
        stat = name.rsplit(".", 1)[1]
        unit = {"calls": "count", "self_s": "s", "witness_tries": "count"}.get(stat, "ratio")
        metrics[name] = (value, unit)
    overhead = sum(s[4] for s in traced) / sum(s[4] for s in plain) - 1.0
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        print("perfbench: %s/lcpq not found; run from an lcpq checkout" % SRC, file=sys.stderr)
        return 2

    from checks import load_expected
    from workloads import DEFAULT_SEED, WORKLOADS, build_corpus

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    setup_s = measure_setup() if args.trace == 0 else None

    directory = corpus_dir(args.workload, args.seed)
    shutil.rmtree(directory, ignore_errors=True)
    try:
        started = perf_counter()
        inputs = build_corpus(args.workload, args.seed, directory)
        print("input_build_s: %.4f s (%d inputs; the benchmark's own work)"
              % (perf_counter() - started, len(inputs)))
        expected = None
        if args.seed == DEFAULT_SEED:
            expected = load_expected(args.workload)
            if expected is None or len(expected) != len(inputs):
                expected = ["<missing frozen line>"] * len(inputs)
        for inp in inputs[: len(WORKLOADS[args.workload].strata)]:
            call_input(inp)  # warm-up round, not measured

        if args.trace:
            metrics, samples = per_layer(inputs, args.seconds, args.workload, args.seed)
            failures, _ = evaluate(samples, expected)
        else:
            samples, kernel, wall_s = run_loop(inputs, seconds=args.seconds)
            failures, answers = evaluate(samples, expected)
            raw = sorted(typical_times(samples, kernel, scale=False).values())
            print("timed: %d inputs in %.3f s, %d distinct, %.2f repeats each; reference kernel"
                  " median %.4f ms" % (len(samples), wall_s, len(raw), len(samples) / len(raw),
                                       1000.0 * statistics.median(kernel)))
            print("unscaled: %.4g inputs/s, p50 %.4g ms, p90 %.4g ms (wall clock, information only)"
                  % (len(raw) / sum(raw), 1000.0 * percentile(raw, 50), 1000.0 * percentile(raw, 90)))
            typical = typical_times(samples, kernel, scale=True)
            values = end_to_end(samples, typical, failures, answers, setup_s)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    for reason in failures[:10]:
        print("FAILED " + reason)
    print("attempted: %d  failed: %d  failed_share: %.4f"
          % (len(samples), len(failures), len(failures) / len(samples)))
    for name, (value, unit) in metrics.items():
        print("%s: %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
