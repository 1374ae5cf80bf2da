"""Command line front end.

Subcommands: classify, verify, generate, degree, and the jordan group
(identities, rank-one, embed-check).  Reports are deterministic for fixed
inputs and seeds; wall-clock timings only appear behind --timings so the
default output is byte-identical across runs.

Exit codes: 0 yes/pass, 1 no/fail/contradiction, 2 undecided, 64 usage
or parse error (main checks option ranges first; an unreadable file, JSON
nested too deep included, stops no batch), 65 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Tuple

from .classes import DEFAULT_BUDGET, NO, UNDECIDED, YES, Verdict, q_oracle, r0_degree
from .classifier import classify, classify_by_rules
from .errors import EnumerationCapError, MatrixFormatError
from .generate import GENERATOR_TYPES, MAX_ORDER, draw_instances
from .lcp import check_cap
from .matrices import RationalMatrix, parse_matrix, parse_vector
from .structure import detect_structure

if TYPE_CHECKING:
    from .jordan.algebra import Algebra

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64
EXIT_CAP = 65

_ANSWER_EXIT = {YES: EXIT_YES, NO: EXIT_NO, UNDECIDED: EXIT_UNDECIDED}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the documented code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


# What a matrix file can raise on the way to a verdict: read, parse, cap.
_INPUT_ERRORS = (OSError, UnicodeDecodeError, MatrixFormatError, EnumerationCapError)


def _input_failure(path: str, exc: Exception) -> int:
    """Report a matrix file that cannot be read or parsed, or whose order is
    past the enumeration cap, as "path: reason": exit 65 for the cap, 64
    otherwise."""
    code = EXIT_CAP if isinstance(exc, EnumerationCapError) else EXIT_USAGE
    return _fail("%s: %s" % (path, exc), code)


def _read_matrix_file(path: str) -> Tuple[RationalMatrix, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    return parse_matrix(raw.decode("utf-8-sig")), digest


def _format_scalar(value) -> Optional[str]:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, float):
        return "%.6g" % value
    if isinstance(value, str):
        return value
    return None  # vectors and nested data stay in the JSON report


def _verdict_summary(verdict: Verdict) -> str:
    parts = ["%s: %s" % (verdict.rule, verdict.condition)]
    scalars = []
    for key in sorted(verdict.data):
        text = _format_scalar(verdict.data[key])
        if text is not None:
            scalars.append("%s=%s" % (key, text))
    if scalars:
        parts.append("; " + ", ".join(scalars))
    return "".join(parts)


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def cmd_classify(args) -> int:
    """classify and verify: one report per file, and the largest exit code
    over all files.  A file that cannot be read or exceeds the enumeration
    cap is reported on stderr and the remaining files still run.  verify
    runs the oracle once per file; where no structural rule applies the
    oracle's verdict is also the classifier's."""
    verify = args.command == "verify"
    worst = EXIT_YES
    for path in args.paths:
        try:
            matrix, digest = _read_matrix_file(path)
            structure = detect_structure(matrix)
            started = time.perf_counter()
            if verify:
                oracle = q_oracle(matrix, budget=args.budget, rng_seed=args.seed)
                verdict = classify_by_rules(matrix, structure) or oracle
            else:
                verdict = classify(
                    matrix, oracle_budget=args.budget, oracle_seed=args.seed, structure=structure
                )
        except _INPUT_ERRORS as exc:
            worst = max(worst, _input_failure(path, exc))
            continue
        elapsed = time.perf_counter() - started
        record = {
            "input": path,
            "sha256": digest,
            "n": matrix.n,
            "structure": structure.tag,
            "k": structure.k,
        }
        if verify:
            contradiction = (verdict.is_yes and oracle.is_no) or (
                verdict.is_no and oracle.is_yes
            )
            code = EXIT_NO if contradiction else EXIT_YES
            record["classifier"] = verdict.to_json_obj()
            record["oracle"] = oracle.to_json_obj()
            record["agreement"] = not contradiction
            line = "%s: classifier=%s (%s) oracle=%s (%s) %s" % (
                path,
                verdict.answer,
                verdict.rule,
                oracle.answer,
                oracle.rule,
                "CONTRADICTION" if contradiction else "OK",
            )
        else:
            code = _ANSWER_EXIT[verdict.answer]
            record["notes"] = list(structure.notes)
            record["verdict"] = verdict.to_json_obj()
            line = "%s: Q: %s (%s)" % (path, verdict.answer, _verdict_summary(verdict))
        if args.format == "jsonl":
            _emit(record)
        else:
            print(line)
            if args.timings:
                print("  elapsed: %.3fs" % elapsed)
        worst = max(worst, code)
    return worst


def cmd_generate(args) -> int:
    try:
        instances = draw_instances(args.type, args.n, args.count, args.seed, args.entry_range)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    try:
        os.makedirs(args.out, exist_ok=True)
        for index, rows in enumerate(instances):
            name = "%s-n%d-seed%d-%04d.json" % (args.type, len(rows), args.seed, index)
            path = os.path.join(args.out, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"n": len(rows), "rows": rows}, sort_keys=True))
                fh.write("\n")
            print(path)
    except OSError as exc:
        return _fail("%s: %s" % (exc.filename or args.out, exc.strerror or exc), EXIT_USAGE)
    return EXIT_YES


def cmd_degree(args) -> int:
    try:
        r0, deg = r0_degree(_read_matrix_file(args.path)[0])
    except _INPUT_ERRORS as exc:
        return _input_failure(args.path, exc)
    if not r0.is_yes:
        print("NotR0")
        return EXIT_NO
    print(deg)
    return EXIT_YES


# numpy and lcpq.jordan are imported inside the jordan commands, so that
# classify, verify, generate and degree start without loading them.


def _algebra_name(algebra: Algebra) -> str:
    return "%s:%d" % (algebra.kind, algebra.size)


def _parse_algebra_arg(text: str) -> Algebra:
    from .jordan.algebra import parse_algebra

    try:
        return parse_algebra(text)
    except (ValueError, TypeError) as exc:
        raise ValueError("bad --algebra %r: %s" % (text, exc))


# The most samples a jordan command draws: run time grows linearly with
# them, and one identities sample at sym:64 takes about 0.8 s.
MAX_SAMPLES = 10000


def _build_frame(algebra: Algebra, which: str, seed: int):
    import numpy as np

    from .jordan.algebra import random_frame, standard_frame

    if which == "rotated":
        return random_frame(algebra, np.random.default_rng(seed))
    return standard_frame(algebra)


def cmd_jordan_identities(args) -> int:
    from .jordan.checks import IDENTITY_NAMES, identity_residuals

    try:
        algebra = _parse_algebra_arg(args.algebra)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    residuals = identity_residuals(algebra, args.samples, args.seed)
    overall = max(residuals.values())
    passed = overall < args.tol
    if args.json:
        _emit(
            {
                "algebra": args.algebra,
                "samples": args.samples,
                "seed": args.seed,
                "residuals": residuals,
                "overall": overall,
                "tol": args.tol,
                "pass": passed,
            }
        )
    else:
        for name in IDENTITY_NAMES:
            print("%-24s max residual %.3e" % (name, residuals[name]))
        print(
            "overall                  max residual %.3e (tol %.1e) -> %s"
            % (overall, args.tol, "pass" if passed else "fail")
        )
    return EXIT_YES if passed else EXIT_NO


def _parse_eigs(text: str) -> Tuple[list, list]:
    """The eigenvalues of an eigs: literal twice: as floats, for the
    elements and the sampler, and exactly, through parse_vector, for the
    verdict."""
    body = text[5:] if text.startswith("eigs:") else text
    try:
        values = [float(part) for part in body.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError("bad eigenvalue list %r" % (text,))
    if not values:
        raise ValueError("empty eigenvalue list %r" % (text,))
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite eigenvalue in %r" % (text,))
    try:
        # float read every part as one number, so parse_vector finds the
        # same parts, and refuses only a literal past its digit bounds.
        exact = parse_vector(body)
    except MatrixFormatError:
        raise ValueError("bad eigenvalue list %r" % (text,))
    return values, exact


def cmd_jordan_rank_one(args) -> int:
    """Decided by the exact signs of the eigenvalue literals (the paper's
    rank-one theorem, classify_rank_one_exact); the float elements give the
    reported eigenvalue extremes and, under a no, the evidence sampler,
    which alone reads --tol."""
    from .jordan.algebra import Algebra, element_from_eigenvalues
    from .jordan.sclcp import classify_rank_one_exact, sample_positivity_violation
    from .jordan.transforms import rank_one

    try:
        eigs_a, alpha = _parse_eigs(args.a)
        eigs_b, beta = _parse_eigs(args.b)
        algebra = (
            _parse_algebra_arg(args.algebra)
            if args.algebra
            else Algebra("rn", len(eigs_a))
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if len(eigs_a) != algebra.rank or len(eigs_b) != algebra.rank:
        return _fail(
            "need %d eigenvalues per element for %s"
            % (algebra.rank, _algebra_name(algebra)),
            EXIT_USAGE,
        )
    frame = _build_frame(algebra, args.frame, args.seed)
    a = element_from_eigenvalues(frame, eigs_a)
    b = element_from_eigenvalues(frame, eigs_b)
    verdict = classify_rank_one_exact(alpha, beta, a, b)
    sampler = None
    if verdict.is_no:
        sampler = sample_positivity_violation(
            rank_one(a, b), samples=args.samples, rng_seed=args.seed, tol=args.tol
        )
    if args.json:
        record = {
            "a": eigs_a,
            "b": eigs_b,
            "algebra": _algebra_name(algebra),
            "frame": args.frame,
            "verdict": verdict.to_json_obj(),
        }
        if sampler is not None:
            record["violation_sampler"] = sampler.to_json_obj()
        _emit(record)
    else:
        print("Q: %s (%s)" % (verdict.answer, _verdict_summary(verdict)))
        if sampler is not None:
            if sampler.found:
                print(
                    "cone map violation found after %d samples: min eigenvalue %.6g"
                    % (sampler.samples_used, sampler.value)
                )
            else:
                print(
                    "no violation in %d samples (%s)"
                    % (sampler.samples_used, sampler.note)
                )
    return _ANSWER_EXIT[verdict.answer]


def cmd_jordan_embed_check(args) -> int:
    """Solve LCP(A, q) exactly and check its first solution lifted along
    the frame.  unsolvable rules out every cone solution of
    LCP(hat A, hat q), not only the frame-diagonal ones (see
    sclcp.EmbedOutcome); the printed line keeps its wording."""
    from .jordan.algebra import sym_algebra
    from .jordan.sclcp import embed_solve

    try:
        matrix, digest = _read_matrix_file(args.matrix)
    except _INPUT_ERRORS as exc:
        return _input_failure(args.matrix, exc)
    try:
        qvec = parse_vector(args.q)
    except MatrixFormatError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if len(qvec) != matrix.n:
        return _fail(
            "q has %d entries but the matrix has order %d" % (len(qvec), matrix.n),
            EXIT_USAGE,
        )
    # The cap goes before the algebra: an order past it is refused (exit
    # 65) whatever --algebra says.
    try:
        check_cap(matrix.n)
    except EnumerationCapError as exc:
        return _input_failure(args.matrix, exc)
    try:
        if args.algebra:
            algebra = _parse_algebra_arg(args.algebra)
        else:
            algebra = sym_algebra(matrix.n)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if algebra.rank != matrix.n:
        return _fail(
            "algebra rank %d does not match matrix order %d" % (algebra.rank, matrix.n),
            EXIT_USAGE,
        )
    frame = _build_frame(algebra, args.frame, args.seed)
    outcome = embed_solve(matrix, qvec, frame, tol=args.tol)
    if args.json:
        record = {
            "input": args.matrix,
            "sha256": digest,
            "q": [str(v) for v in qvec],
            "algebra": _algebra_name(algebra),
            "frame": args.frame,
            "status": outcome.status,
        }
        if outcome.check is not None:
            record["check"] = outcome.check.to_json_obj()
            record["r"] = [str(v) for v in outcome.r]
        _emit(record)
    else:
        if outcome.status == "unsolvable":
            print(
                "status: unsolvable (no solution at this q; "
                "no frame-diagonal cone solution exists either)"
            )
        else:
            check = outcome.check
            print("status: embedded, r = (%s)" % ", ".join(str(v) for v in outcome.r))
            print(
                "x_min_eig=%.3e y_min_eig=%.3e inner=%.3e tol=%.1e -> %s"
                % (
                    check.x_min_eigenvalue,
                    check.y_min_eigenvalue,
                    check.inner_product,
                    check.tol,
                    "pass" if check.passed else "fail",
                )
            )
    return EXIT_YES if outcome.passed else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcpq",
        description="Classify structured matrices for the Q-property, "
        "verify against a brute-force oracle, and check symmetric-cone "
        "embeddings on Jordan algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, text in (
        ("classify", "classify matrix files by theorem rules"),
        ("verify", "run classifier and oracle, flag contradictions"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("paths", nargs="+", help="matrix files (JSON or plain rows)")
        p.add_argument("--format", choices=("table", "jsonl"), default="table")
        p.add_argument("--json", action="store_const", const="jsonl", dest="format")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="oracle witness budget")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--timings", action="store_true", help="print wall-clock timings")
        p.set_defaults(func=cmd_classify)

    p = sub.add_parser("generate", help="write seeded structured instances")
    p.add_argument("--type", required=True, choices=GENERATOR_TYPES)
    p.add_argument(
        "--n", type=int, default=3, help="matrix order, at most %d (2x2 ignores it)" % MAX_ORDER
    )
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entry-range", type=int, default=5)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("degree", help="LCP degree of an R0 matrix")
    p.add_argument("path")
    p.set_defaults(func=cmd_degree)

    jordan = sub.add_parser("jordan", help="Jordan algebra checks")
    jsub = jordan.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    p = jsub.add_parser("identities", help="sampled residuals for the transfer identities")
    p.add_argument("--algebra", required=True, help="rn:N or sym:M")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_jordan_identities)

    p = jsub.add_parser("rank-one", help="Q-property of the map x -> <b,x> a")
    p.add_argument("--a", required=True, help="eigenvalues, e.g. eigs:1,2")
    p.add_argument("--b", required=True)
    p.add_argument("--algebra", help="rn:N or sym:M (default rn sized to --a)")
    p.add_argument("--frame", choices=("standard", "rotated"), default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=200, help="witness search budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_jordan_rank_one)

    p = jsub.add_parser("embed-check", help="embed an exact LCP solution along a frame")
    p.add_argument("--matrix", required=True, help="matrix file")
    p.add_argument("--q", required=True, help="comma separated rational vector")
    p.add_argument("--algebra", help="rn:N or sym:M (default sym sized to the matrix)")
    p.add_argument("--frame", choices=("standard", "rotated"), default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_jordan_embed_check)

    return parser


_DASH_VALUE_FLAGS = ("--q", "--a", "--b", "--tol")


def _merge_dash_values(argv):
    """Join flag/value pairs whose value starts with '-' (e.g. --q "-1,-1")
    into --flag=value tokens so argparse does not read them as options."""
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token in _DASH_VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
        ):
            merged.append("%s=%s" % (token, argv[i + 1]))
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def _option_error(args) -> Optional[str]:
    """The message for the first option out of its range, or None.  Only
    the jordan seed must be >= 0: those commands seed numpy's default_rng,
    which refuses a negative seed; random.Random, behind classify, verify
    and generate, takes any int.  A nan --tol fails its range test too."""
    if getattr(args, "budget", 0) < 0:
        return "need --budget >= 0, got %d" % args.budget
    if args.command != "jordan":
        return None
    samples = getattr(args, "samples", 1)
    if samples < 1:
        return "need --samples >= 1, got %d" % samples
    if samples > MAX_SAMPLES:
        return "need --samples <= %d, got %d" % (MAX_SAMPLES, samples)
    if args.seed < 0:
        return "need --seed >= 0, got %d" % args.seed
    if not 0 <= args.tol < math.inf:
        return "need --tol >= 0, got %g" % args.tol
    return None


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_dash_values(list(argv)))
    error = _option_error(args)
    if error is not None:
        return _fail(error, EXIT_USAGE)
    # Parsing bounds every literal (matrices.MAX_LITERAL_DIGITS), but exact
    # results built from accepted entries, such as a determinant, may pass
    # the interpreter's int -> str limit; print them in full.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
