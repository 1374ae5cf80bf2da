"""Byte guard for rational inputs.

The benchmark corpora are integer, so every matrix there has integer
rows at scale 1, and they cannot show an LP whose rows were scaled
unevenly, which can move the point Bland's rule returns (see
test_simplex), nor a scale that the determinant, ppt or the walk
forgot.  The 74 matrices in
tests/data/rational/inputs have rows of different scales:

* two to four of each lcpq generate family at n = 2, 3 or 4 (seed 15),
  with row i divided by 2, 3 or 6 in turn;
* six dense matrices at n = 4-5 with entries p/q, q in {1, 2, 3, 6}, and
  a positive diagonal;
* ten bdsw-1 instances at n = 3-5 (seed 16), divided the same way, that
  are not R0, so that verify prints the x of an R0 LP;
* six random rational matrices at n = 3-5 whose is_S runs its LP, chosen
  because rows scaled one by one would move the point that LP returns.

classify.jsonl, verify.jsonl and witnesses.json were recorded while is_R0
still scanned the minors one determinant at a time and the LPs still
took Fraction rows.  witnesses.json holds, per matrix, the witness data of
is_S, is_E0, is_E and is_R0 and the solve_lcp solutions at three q.
exact.json was recorded while the determinant, ppt and the walk still
read rows scaled one by one: per matrix, the output and exit code of
lcpq degree, the determinant, the inverse (where it exists) and
ppt(A, {1}) (where a_11 != 0).
"""

import json
import os
from fractions import Fraction

import pytest

from lcpq.classes import is_E, is_E0, is_R0, is_S
from lcpq.cli import main
from lcpq.lcp import LcpInstance, solve_lcp
from lcpq.matrices import RationalMatrix, determinant, inverse, parse_matrix
from lcpq.pivot import ppt

DATA = os.path.join(os.path.dirname(__file__), "data", "rational")
INPUTS = os.path.join(DATA, "inputs")


def _inputs():
    names = sorted(os.listdir(INPUTS))
    assert len(names) == 74
    return names


@pytest.mark.parametrize("command, code", [("classify", 1), ("verify", 0)])
def test_rational_corpus_prints_the_recorded_lines(monkeypatch, capsys, command, code):
    names = _inputs()
    monkeypatch.chdir(INPUTS)  # the records name each input as it was given
    assert main([command, "--format", "jsonl", *names]) == code
    captured = capsys.readouterr()
    with open(os.path.join(DATA, command + ".jsonl"), encoding="utf-8") as fh:
        assert captured.out == fh.read()
    assert captured.err == ""


def test_rational_corpus_keeps_the_recorded_lp_witnesses():
    with open(os.path.join(DATA, "witnesses.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    for name in _inputs():
        with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
            m = parse_matrix(fh.read())
        got = {p.__name__: p(m).to_json_obj()["witness"] for p in (is_S, is_E0, is_E, is_R0)}
        qs = [[0] * m.n, [-1] * m.n, [Fraction((-1) ** i * (i + 1), 2) for i in range(m.n)]]
        got["solve_lcp"] = [
            [[str(v) for v in s.x] for s in solve_lcp(LcpInstance(m, q))] for q in qs
        ]
        assert got == expected[name], name


def _exact():
    with open(os.path.join(DATA, "exact.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_rational_corpus_keeps_the_recorded_degree_output(monkeypatch, capsys):
    expected = _exact()
    monkeypatch.chdir(INPUTS)
    for name in _inputs():
        assert main(["degree", name]) == expected[name]["exit"], name
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected[name]["degree"], ""), name


def _text(matrix):
    return [[str(v) for v in row] for row in matrix.rows]


def test_rational_corpus_keeps_the_recorded_determinant_inverse_and_ppt():
    expected = _exact()
    for name in _inputs():
        with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
            m = parse_matrix(fh.read())
        record = expected[name]
        det = determinant(m)
        assert str(det) == record["determinant"], name
        assert (_text(inverse(m)) if det else None) == record["inverse"], name
        assert (_text(ppt(m, [1])) if m.rows[0][0] else None) == record["ppt_1"], name
        # A submatrix reads its parent's scale, which its own entries may
        # not need; a matrix built from the same entries reads their lcm.
        idx = list(range(1, m.n))
        sub = m.principal_submatrix(idx)
        fresh = RationalMatrix(sub.rows)
        assert determinant(sub) == determinant(fresh), name
        if sub.rows[0][0]:
            assert ppt(sub, [1]) == ppt(fresh, [1]), name
