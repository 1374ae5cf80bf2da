"""Output checks for the benchmark.

Every input's output is checked three ways, and any failure counts against
the run:

* the exit code and record shape match the command's documented contract;
* certificates that can be checked from their definition are replayed in
  exact arithmetic here, without calling lcpq: a nonpositive row, a nonzero
  solution of LCP(A, 0), a nonpositive diagonal entry (a 1x1 principal
  minor), a determinant (by cofactor expansion), an embedded LCP solution,
  and the Jordan residuals against their tolerance;
* at the default seed, the canonical output line equals the frozen line in
  ``expected/<workload>.jsonl``.  Jordan lines are compared with every float
  masked, because their digits come from LAPACK and not from exact arithmetic.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import List, Optional

import numpy as np

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

ANSWER_EXIT = {"yes": 0, "no": 1, "undecided": 2}
PEIRCE_TOL = 1e-9


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, workload + ".jsonl")


def load_expected(workload: str) -> Optional[List[str]]:
    try:
        with open(expected_path(workload), encoding="utf-8") as fh:
            return fh.read().splitlines()
    except FileNotFoundError:
        return None


def _mask_floats(value):
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, dict):
        return {k: _mask_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_mask_floats(v) for v in value]
    return value


def canonical_line(inp, out: str, result) -> str:
    """The line compared against the frozen file for one input."""
    if inp.argv is None:
        diagonal, parts = result
        return json.dumps({"peirce": {"diagonal": len(diagonal), "off_parts": len(parts)}})
    line = out.rstrip("\n")
    if inp.argv[0] == "jordan":
        return json.dumps(_mask_floats(json.loads(line)), sort_keys=True)
    return line


# -- exact certificate replay -------------------------------------------------


def det_by_expansion(rows) -> Fraction:
    """Determinant by cofactor expansion along rows, memoised on the set of
    columns used so far and skipping zero entries; cheap for sparse or small
    matrices."""
    n = len(rows)
    nonzero = [[(j, Fraction(v)) for j, v in enumerate(row) if v != 0] for row in rows]
    memo = {}

    def minor(i: int, used: int) -> Fraction:
        if i == n:
            return Fraction(1)
        if used in memo:
            return memo[used]
        total = Fraction(0)
        for j, v in nonzero[i]:
            if used >> j & 1:
                continue
            position = j - bin(used & ((1 << j) - 1)).count("1")
            term = v * minor(i + 1, used | 1 << j)
            total += -term if position % 2 else term
        memo[used] = total
        return total

    return minor(0, 0)


def _is_lcp_solution(rows, q, x) -> bool:
    """x >= 0, w = Ax + q >= 0 and x . w = 0, exactly."""
    w = [sum(Fraction(a) * xi for a, xi in zip(row, x)) + qi for row, qi in zip(rows, q)]
    return (
        all(v >= 0 for v in x)
        and all(v >= 0 for v in w)
        and sum(a * b for a, b in zip(x, w)) == 0
    )


def replay_verdict(verdict: dict, rows) -> Optional[str]:
    """Check the verdict's certificate from its definition; None if it holds
    or cannot be checked that way."""
    rule, answer, witness = verdict["theorem"], verdict["answer"], verdict["witness"]
    n = len(rows)
    if answer not in ANSWER_EXIT:
        return "unknown answer %r" % (answer,)
    if rule == "nonpositive-row":
        if answer != "no" or any(v > 0 for v in rows[witness["row"] - 1]):
            return "row %s is not a nonpositive-row certificate" % witness["row"]
    if "x" in witness and answer == "no":
        x = [Fraction(v) for v in witness["x"]]
        if not any(x) or not _is_lcp_solution(rows, [0] * n, x):
            return "x is not a nonzero solution of LCP(A,0)"
    if "diag_index" in witness:
        i = witness["diag_index"] - 1
        if answer != "no" or Fraction(witness["diag_value"]) != rows[i][i] or rows[i][i] > 0:
            return "diag_index %d is not a nonpositive diagonal entry" % (i + 1)
    if "det" in witness:
        det = Fraction(witness["det"])
        if det != det_by_expansion(rows):
            return "det %s differs from cofactor expansion" % witness["det"]
        if rule == "T6.1" and (answer == "yes") != (det > 0):
            return "T6.1 answer disagrees with the sign of det"
        if rule in ("T7.1", "T8.1"):
            power = n + 1 if rule == "T7.1" else witness["k"] + 1
            signed = det if power % 2 == 0 else -det
            if Fraction(witness["signed_det"]) != signed or (answer == "yes") != (signed > 0):
                return "%s signed determinant or answer is wrong" % rule
    return None


# -- per-command checks --------------------------------------------------------


def _check_classify(inp, code, record) -> Optional[str]:
    verdict = record["verdict"]
    if code != ANSWER_EXIT.get(verdict["answer"]):
        return "exit %r does not match answer %r" % (code, verdict["answer"])
    return replay_verdict(verdict, inp.rows)


def _check_verify(inp, code, record) -> Optional[str]:
    if code != 0 or record["agreement"] is not True:
        return "classifier and oracle disagree (exit %r)" % (code,)
    return replay_verdict(record["classifier"], inp.rows) or replay_verdict(
        record["oracle"], inp.rows
    )


def _check_jordan(inp, code, record) -> Optional[str]:
    sub = inp.argv[1]
    if sub == "identities":
        tol = record["tol"]
        if code != 0 or not record["pass"] or any(v >= tol for v in record["residuals"].values()):
            return "identity residual above %g" % tol
    elif sub == "embed-check":
        if code != 0 or record["status"] != "embedded" or not record["check"]["pass"]:
            return "embed check failed (status %r)" % record["status"]
        r = [Fraction(v) for v in record["r"]]
        if not _is_lcp_solution(inp.rows, [Fraction(v) for v in inp.expect["q"]], r):
            return "r is not a solution of LCP(A,q)"
    else:
        answer = record["verdict"]["answer"]
        if answer != inp.expect["answer"] or code != ANSWER_EXIT[answer]:
            return "rank-one answer %r, expected %r" % (answer, inp.expect["answer"])
    return None


def _check_peirce(inp, result) -> Optional[str]:
    diagonal, parts = result
    x, frame = inp.expect["x"], inp.expect["frame"]
    rebuilt = sum(d * e.coords for d, e in zip(diagonal, frame))
    rebuilt = rebuilt + sum(p.coords for p in parts.values())
    scale = max(1.0, float(np.max(np.abs(x.coords))))
    if float(np.max(np.abs(rebuilt - x.coords))) > PEIRCE_TOL * scale:
        return "Peirce parts do not rebuild x"
    return None


def check_output(inp, code, out: str, result, expected_line: Optional[str]) -> Optional[str]:
    """Return why the output of one input is wrong, or None if it is right.

    code is the CLI exit code (or the exception text when the call raised),
    out its standard output, result the return value of a library call, and
    expected_line the frozen line to match, if any.
    """
    if isinstance(code, str):
        return "raised " + code
    if inp.argv is None:
        reason = _check_peirce(inp, result)
    else:
        lines = out.splitlines()
        if len(lines) != 1:
            return "expected one output line, got %d (exit %r)" % (len(lines), code)
        record = json.loads(lines[0])
        if "sha256" in inp.expect and record["sha256"] != inp.expect["sha256"]:
            return "input hash does not match the file"
        if inp.argv[0] == "jordan":
            reason = _check_jordan(inp, code, record)
        elif record["n"] != len(inp.rows):
            return "order %r does not match the file" % record["n"]
        else:
            check = _check_verify if inp.argv[0] == "verify" else _check_classify
            reason = check(inp, code, record)
    if reason is None and expected_line is not None:
        if canonical_line(inp, out, result) != expected_line:
            reason = "output differs from the frozen line %d" % inp.index
    return reason


def verdict_answers(inp, out: str) -> List[str]:
    """The Q answers an input's output returned (none for non-verdict commands)."""
    if inp.argv is None or not out:
        return []
    record = json.loads(out.splitlines()[0])
    if "classifier" in record:
        return [record["classifier"]["answer"], record["oracle"]["answer"]]
    if "verdict" in record:
        return [record["verdict"]["answer"]]
    return []
