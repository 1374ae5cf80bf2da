"""Tests of the benchmark's own machinery: corpora, tracer and output checks."""

import os
import sys

import run

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS, build_corpus  # noqa: E402


def _corpus_bytes(workload, seed, directory):
    """Every input file's bytes plus each input's arguments and parameters."""
    inputs = build_corpus(workload, seed, str(directory))
    files = [(name, (directory / name).read_bytes()) for name in sorted(os.listdir(directory))]
    params = []
    for inp in inputs:
        argv = [a.replace(str(directory), "<dir>") for a in inp.argv or []]
        extra = {k: v.coords.tobytes() for k, v in inp.expect.items() if k == "x"}
        params.append((inp.family, inp.n, argv, inp.rows, extra))
    return files, params


def test_same_seed_same_corpus_other_seed_differs(tmp_path):
    for workload in WORKLOADS:
        first = _corpus_bytes(workload, 7, tmp_path / (workload + "-a"))
        again = _corpus_bytes(workload, 7, tmp_path / (workload + "-b"))
        other = _corpus_bytes(workload, 8, tmp_path / (workload + "-c"))
        assert first == again, workload
        assert first[1] != other[1], workload


def _lcpq_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None and (name == "lcpq" or name.startswith("lcpq."))
    }


def test_tracer_restores_every_wrapped_function(tmp_path):
    from lcpq import cli, lcp, matrices  # cli loads every module it uses

    before = _lcpq_namespaces()
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 -1 0\n0 2 -1\n-1 0 2\n", encoding="utf-8")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        patched = {attr for _, attr in tracer.sites()}
        assert patched == {name.rsplit(".", 1)[1] for name in tracer_mod.NAMES}
        assert lcp.determinant is not before["lcpq.lcp"]["determinant"]
        tracer.input_id = 0
        assert cli.main(["verify", "--format", "jsonl", str(matrix)]) == 0
    finally:
        tracer.uninstall()
    assert _lcpq_namespaces() == before
    assert matrices.determinant is before["lcpq.matrices"]["determinant"]
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["classes.q_oracle.calls"] == 1
    assert metrics["matrices.determinant.calls"] > 0
    assert metrics["matrices.determinant.repeat_share"] > 0  # is_R0 and degree
    assert tracer.write_spans(str(tmp_path / "spans.tsv")) > 0


def test_wrong_expected_line_is_reported_as_failure(tmp_path):
    inp = build_corpus("verify-structured", 0, str(tmp_path))[0]
    code, out, result = run.call_input(inp)
    good = checks.canonical_line(inp, out, result)
    assert checks.check_output(inp, code, out, result, good) is None
    wrong = good.replace('"answer": "', '"answer": "not-')
    assert wrong != good
    expected = [None] * inp.index + [wrong]
    failures, _ = run.evaluate([(inp, code, out, result, 0.0)], expected)
    assert len(failures) == 1 and "frozen line" in failures[0]


def test_certificate_replay_rejects_a_forged_witness():
    rows = [[2, -1, 0], [0, 3, -1], [-1, 0, 1]]  # bdsw type 2, det = 6 - 1 = 5
    assert checks.det_by_expansion(rows) == 5
    verdict = {"answer": "yes", "theorem": "T6.1", "witness": {"det": "5"}}
    assert checks.replay_verdict(verdict, rows) is None
    verdict["witness"]["det"] = "4"
    assert "cofactor" in checks.replay_verdict(verdict, rows)
    singular = [[1, -1], [-1, 1]]
    forged = {"answer": "no", "theorem": "bdsw-not-R0", "witness": {"x": ["1", "0"]}}
    assert checks.replay_verdict(forged, singular) is not None
    forged["witness"]["x"] = ["1/2", "1/2"]
    assert checks.replay_verdict(forged, singular) is None




def test_typical_times_scale_to_reference_speed_and_take_the_median():
    class Inp:
        index = 0

    # A whole run at half speed: every kernel time and every repeat doubles,
    # and one repeat of three is interrupted.
    samples = [(Inp, 0, "", None, t) for t in (0.022, 0.200, 0.020)]
    kernel = [2 * run.REFERENCE_KERNEL_S] * (len(samples) + 1)
    assert run.typical_times(samples, kernel, scale=False) == {0: 0.022}
    scaled = run.typical_times(samples, kernel, scale=True)
    assert abs(scaled[0] - 0.011) < 1e-12
