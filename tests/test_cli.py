"""End-to-end CLI behaviour via in-process main() calls."""

import argparse
import hashlib
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import lcpq
from helpers import count_calls
from lcpq.classes import q_oracle
from lcpq.cli import MAX_SAMPLES, build_parser, main
from lcpq.jordan.algebra import MAX_RANK
from lcpq.jordan.checks import IDENTITY_NAMES
from lcpq.lcp import walk
from lcpq.matrices import is_lower_triangular, is_upper_triangular, nonpositive_rows
from lcpq.structure import detect_structure, is_bdsw_shape, is_triangular_plus_row


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def type3_file(tmp_path):
    return _write(tmp_path, "type3.txt", "-1 2\n1 -1\n")


def test_classify_table_line(type3_file, capsys):
    assert main(["classify", type3_file]) == 0
    out = capsys.readouterr().out
    assert out == (
        "%s: Q: yes (T9.1: pattern (iii): [- +; + -] needs det < 0; det=-1)\n"
        % type3_file
    )


def test_classify_jsonl_record(type3_file, capsys):
    assert main(["classify", "--json", type3_file]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {
        "input",
        "sha256",
        "n",
        "structure",
        "k",
        "notes",
        "verdict",
    }
    with open(type3_file, "rb") as fh:
        assert record["sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert record["n"] == 2
    assert record["structure"] == "bdsw-type-3"
    assert record["verdict"]["answer"] == "yes"
    assert record["verdict"]["theorem"] == "T9.1"


def test_classify_worst_exit_across_files(tmp_path, capsys):
    yes = _write(tmp_path, "yes.txt", "1 0\n0 1\n")
    no = _write(tmp_path, "no.txt", "1 -1\n-1 1\n")
    assert main(["classify", yes]) == 0
    assert main(["classify", yes, no]) == 1
    capsys.readouterr()


def test_classify_undecided_exit(tmp_path, capsys):
    path = _write(tmp_path, "hard.txt", "1 1 -1\n1 1 1\n-1 1 1\n")
    assert main(["classify", "--budget", "0", path]) == 2
    out = capsys.readouterr().out
    assert "undecided" in out


def test_classify_malformed_file(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "1 2\n3\n")
    assert main(["classify", path]) == 64
    assert path in capsys.readouterr().err


def test_classify_missing_file(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.txt")]) == 64
    capsys.readouterr()


def test_classify_default_output_stable(type3_file, capsys):
    main(["classify", type3_file])
    first = capsys.readouterr().out
    main(["classify", type3_file])
    assert capsys.readouterr().out == first

    main(["classify", "--timings", type3_file])
    timed = capsys.readouterr().out
    assert "elapsed:" in timed


@pytest.mark.parametrize(
    "text", ["2 -1\n-1 2\n", '{"rows": [[2, -1], [-1, 2]]}'], ids=["plain", "json"]
)
@pytest.mark.parametrize(
    "command",
    [["classify"], ["verify"], ["degree"], ["jordan", "embed-check", "--q", "-1,-1", "--matrix"]],
    ids=["classify", "verify", "degree", "embed-check"],
)
def test_a_utf8_byte_order_mark_changes_no_answer(tmp_path, capsys, text, command):
    # Editors on some systems start a UTF-8 file with U+FEFF; the file
    # reads as the same matrix, at the same name, as the file without it.
    outcomes = []
    for folder, mark in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / folder).mkdir()
        path = _write(tmp_path / folder, "m.txt", mark + text)
        code = main(command + [path])
        out, err = capsys.readouterr()
        outcomes.append((code, out.replace(path, "m.txt"), err.replace(path, "m.txt")))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and outcomes[0][2] == ""


def test_the_sha256_covers_the_byte_order_mark(tmp_path, capsys):
    path = _write(tmp_path, "bom.txt", "\ufeff2 -1\n-1 2\n")
    assert main(["classify", "--json", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"]["theorem"] == "T9.1" and record["verdict"]["answer"] == "yes"
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw.startswith(b"\xef\xbb\xbf")
    assert record["sha256"] == hashlib.sha256(raw).hexdigest()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 64


def test_verify_agreement(tmp_path, capsys):
    path = _write(tmp_path, "t4.txt", "-1 1 0\n0 -1 1\n-2 0 1\n")
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "T8.1" in out

    assert main(["verify", "--json", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["agreement"] is True
    assert record["classifier"]["theorem"] == "T8.1"
    assert record["oracle"]["answer"] == "yes"


def test_verify_runs_the_oracle_once_on_unstructured_input(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "dense.txt", "1 1 -1\n1 1 1\n-1 1 1\n")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return q_oracle(*args, **kwargs)

    monkeypatch.setattr("lcpq.cli.q_oracle", counted)
    monkeypatch.setattr("lcpq.classifier.q_oracle", counted)
    assert main(["verify", "--format", "jsonl", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert record["structure"] == "general"
    assert record["classifier"] == record["oracle"]


def test_bdsw_input_detects_its_structure_once(tmp_path, capsys, monkeypatch):
    # detect_structure runs once per file, and it runs each shape test once:
    # the rule lookup and the rule bodies run none, and q_oracle runs its own
    # nonpositive-row test and at most one bdsw-shape test.
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return detect_structure(matrix)

    monkeypatch.setattr("lcpq.cli.detect_structure", counted)
    monkeypatch.setattr("lcpq.classifier.detect_structure", counted)
    nonpositive = count_calls(monkeypatch, nonpositive_rows)
    bdsw = count_calls(monkeypatch, is_bdsw_shape)
    shape_tests = [
        count_calls(monkeypatch, test)
        for test in (is_upper_triangular, is_lower_triangular, is_triangular_plus_row)
    ]
    for name, text, theorem in [
        ("t2.txt", "2 -1 0\n0 2 -1\n-1 0 2\n", "T6.1"),
        ("t3.txt", "-1 2 0\n0 -1 1\n1 0 -1\n", "T7.1"),
        ("t4.txt", "-1 1 0\n0 -1 1\n-2 0 1\n", "T8.1"),
        ("tri.txt", "1 2 3\n0 4 5\n0 0 6\n", "T3.1"),
        ("tri-plus-row.txt", "1 2 5\n0 3 -1\n1 0 2\n", "T3.2"),
        ("bdsw-1.txt", "1 1 0\n0 1 1\n-2 0 1\n", "T5.3"),
        ("2x2.txt", "2 -1\n-1 1\n", "T9.1"),
        ("general.txt", "1 -1 1\n0 1 -1\n1 0 0\n", "unsolvable-q"),
        ("nonpositive-row.txt", "1 2 3\n-1 0 -2\n1 1 1\n", "nonpositive-row"),
    ]:
        path = _write(tmp_path, name, text)
        for command in ("classify", "verify"):
            calls.clear()
            nonpositive.clear()
            bdsw.clear()
            for counts in shape_tests:
                counts.clear()
            main([command, "--format", "jsonl", path])
            record = json.loads(capsys.readouterr().out)
            verdict = record["classifier" if command == "verify" else "verdict"]
            assert verdict["theorem"] == theorem
            assert len(calls) == 1, (name, command)
            oracle_ran = command == "verify" or name == "general.txt"
            assert len(nonpositive) == 1 + oracle_ran, (name, command)
            detected = name != "nonpositive-row.txt"  # that row ends detection
            assert detected <= len(bdsw) <= detected + oracle_ran, (name, command)
            assert all(len(counts) <= 1 for counts in shape_tests), (name, command)


def test_batch_reports_every_file_and_the_worst_exit(tmp_path, capsys):
    bad = _write(tmp_path, "bad.txt", "1 2\n3\n")
    good = _write(tmp_path, "good.txt", "1 0\n0 1\n")
    missing = str(tmp_path / "nope.txt")
    for command in ("classify", "verify"):
        assert main([command, "--format", "jsonl", bad, good, missing]) == 64
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["input"] == good
        assert bad in captured.err and missing in captured.err


def _nested_json(depth):
    return '{"rows": %s%s}' % ("[" * depth, "]" * depth)


_MALFORMED_FILES = {
    # json.loads raises RecursionError from about depth 1,000 on.
    "deep-1000.json": _nested_json(1000).encode(),
    "deep-200000.json": _nested_json(200000).encode(),
    "utf16.txt": "1 0\n0 1\n".encode("utf-16"),
    "empty.txt": b"",
    "non-square.txt": b"1 2\n3\n",
    "nan.json": b'{"rows": [[NaN, 1], [1, 1]]}',
    "nested-entry.json": b'{"rows": [[[1], 1], [1, 1]]}',
    "digits.txt": b"1" * 4301 + b" 1\n1 1\n",
    # A bad value is quoted cut at 40 characters, however wide it is.
    "wide-entry.json": b'{"rows": [[[' + b"0, " * 133000 + b"0], 1], [1, 1]]}",
    "wide-n.json": b'{"n": "' + b"x" * 300000 + b'", "rows": [[1]]}',
    "directory": None,
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_FILES))
def test_every_malformed_file_is_a_usage_error_and_the_batch_goes_on(tmp_path, capsys, name):
    path = tmp_path / name
    if _MALFORMED_FILES[name] is None:
        path.mkdir()
    else:
        path.write_bytes(_MALFORMED_FILES[name])
    path = str(path)
    good = _write(tmp_path, "ok.json", '{"rows": [[2, -1], [-1, 1]]}')
    for argv in (
        ["classify", path, good],
        ["verify", path, good],
        ["degree", path],
        ["jordan", "embed-check", "--matrix", path, "--q", "1,1"],
    ):
        assert main(argv) == 64, argv
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err, argv
        assert captured.err.startswith(path + ": "), argv
        assert len(captured.err.replace(path, "")) < 120, argv
        if argv[0] in ("classify", "verify"):
            assert captured.out.startswith(good + ": ") and len(captured.out.splitlines()) == 1
        else:
            assert captured.out == ""


def test_oversized_literals_are_rejected_and_the_batch_goes_on(tmp_path, capsys):
    exponent = _write(tmp_path, "exponent.txt", "1e5000 -1\n-1 1\n")
    digits = _write(tmp_path, "digits.json", '{"rows": [[%s, -1], [-1, 1]]}' % ("7" * 5001))
    a = "1" + "0" * 2500  # accepted; the T9.1 det a^2 - 1 has 5,000 digits
    product = _write(tmp_path, "product.json", '{"rows": [[%s, -1], [-1, %s]]}' % (a, a))
    good = _write(tmp_path, "good.txt", "2 -1\n-1 1\n")
    det = "9" * 5000
    limit = sys.get_int_max_str_digits()
    for command in ("classify", "verify"):
        for fmt in ("table", "jsonl"):
            assert main([command, "--format", fmt, exponent, digits, product, good]) == 64
            assert sys.get_int_max_str_digits() == limit
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert err == [
                "%s: exponent 5000 is beyond +-4300" % exponent,
                "%s: literal of 5001 digits; at most 4300 are accepted" % digits,
            ]
            lines = captured.out.splitlines()
            assert len(lines) == 2 and product in lines[0] and good in lines[1]
            if command == "classify" or fmt == "jsonl":
                assert det in lines[0] and "9" * 5001 not in lines[0]


def test_classify_and_verify_reject_a_negative_budget(tmp_path, capsys):
    path = _write(tmp_path, "cyclic.txt", "0 1 1\n1 0 1\n1 1 0\n")
    for command in ("classify", "verify"):
        assert main([command, "--budget", "-1", path]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "need --budget >= 0, got -1\n"
    assert main(["verify", path]) == 0
    assert "unsolvable-q" in capsys.readouterr().out


def test_generate_is_reproducible(tmp_path, capsys):
    args = ["generate", "--type", "bdsw-2", "--n", "3", "--count", "2", "--seed", "5"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()

    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["bdsw-2-n3-seed5-0000.json", "bdsw-2-n3-seed5-0001.json"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    first = json.loads((out_a / names[0]).read_text())
    assert first["n"] == 3 and len(first["rows"]) == 3


def test_generate_rejects_unknown_type(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--type", "dense", "--out", str(tmp_path)])
    assert exc.value.code == 64


@pytest.mark.parametrize("n", ["0", "-3"])
def test_generate_rejects_an_order_below_one(tmp_path, capsys, n):
    out = tmp_path / "out"
    assert main(["generate", "--type", "tri", "--n", n, "--out", str(out)]) == 64
    assert capsys.readouterr().err == "need n >= 1\n"
    assert not out.exists()


def test_generate_rejects_an_order_above_the_maximum(tmp_path, capsys):
    out = tmp_path / "out"
    for kind in ("tri", "bdsw-4"):
        assert main(["generate", "--type", kind, "--n", "100000", "--out", str(out)]) == 64
        assert capsys.readouterr().err == "need n <= 1000\n"
        assert not out.exists()


def test_generate_writes_each_matrix_as_it_is_drawn(tmp_path, capsys, monkeypatch):
    lcpq_generate = importlib.import_module("lcpq.generate")  # lcpq.generate is the function
    out = tmp_path / "out"
    written_before_draw = []
    draw = lcpq_generate.random_bdsw_type4

    def counted(*args, **kwargs):
        written_before_draw.append(len(list(out.iterdir())) if out.exists() else 0)
        return draw(*args, **kwargs)

    monkeypatch.setattr(lcpq_generate, "random_bdsw_type4", counted)
    argv = ["generate", "--type", "bdsw-4", "--n", "4", "--count", "3", "--seed", "9"]
    assert main(argv + ["--out", str(out)]) == 0
    assert written_before_draw == [0, 1, 2]
    names = capsys.readouterr().out.split()
    assert names == [str(out / ("bdsw-4-n4-seed9-%04d.json" % i)) for i in range(3)]
    for name, matrix in zip(names, lcpq_generate.generate("bdsw-4", 4, 3, 9)):
        with open(name, encoding="utf-8") as fh:
            assert fh.read() == json.dumps(matrix.to_json_obj(), sort_keys=True) + "\n"


def test_generate_rejects_a_negative_count(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", "--type", "bdsw-2", "--count", "-1", "--out", str(out)]) == 64
    assert capsys.readouterr().err == "need count >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, entry_range", [("bdsw-1", "0"), ("tri", "-2")])
def test_generate_rejects_an_entry_range_below_one(tmp_path, capsys, kind, entry_range):
    out = tmp_path / "out"
    argv = ["generate", "--type", kind, "--entry-range", entry_range, "--out", str(out)]
    assert main(argv) == 64
    assert capsys.readouterr().err == "need entry_range >= 1\n"
    assert not out.exists()


def test_generate_reports_an_unwritable_out_path(tmp_path, capsys):
    taken = _write(tmp_path, "taken", "")
    assert main(["generate", "--type", "tri", "--out", taken]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "%s: File exists\n" % taken
    out = tmp_path / "out"
    blocked = out / "tri-n3-seed0-0001.json"
    blocked.mkdir(parents=True)
    assert main(["generate", "--type", "tri", "--count", "3", "--out", str(out)]) == 64
    captured = capsys.readouterr()
    assert captured.out == "%s\n" % (out / "tri-n3-seed0-0000.json")
    assert captured.err == "%s: Is a directory\n" % blocked


def test_degree_values(tmp_path, capsys):
    eye = _write(tmp_path, "eye.txt", "1 0\n0 1\n")
    assert main(["degree", eye]) == 0
    assert capsys.readouterr().out == "1\n"

    t3 = _write(tmp_path, "t3.txt", "-1 2\n1 -1\n")
    assert main(["degree", t3]) == 0
    assert capsys.readouterr().out == "-1\n"

    not_r0 = _write(tmp_path, "p0.txt", "0 1\n0 1\n")
    assert main(["degree", not_r0]) == 1
    assert capsys.readouterr().out == "NotR0\n"


def test_degree_walks_once_and_takes_no_seed(tmp_path, capsys, monkeypatch):
    # R0 and the degree come from one walk of LCP(A, 0); nothing is drawn,
    # so there is no seed to give.
    walks = count_calls(monkeypatch, walk)
    path = _write(tmp_path, "r0.txt", "1 2 1\n1 1 0\n0 0 1\n")  # R0, not P
    assert main(["degree", path]) == 0
    assert capsys.readouterr().out == "1\n"
    assert len(walks) == 1
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--seed", "0", path])
    assert exc.value.code == 64
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_enumeration_cap_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LCP_ENUM_CAP", "2")
    path = _write(tmp_path, "dense.txt", "1 -1 1\n0 1 -1\n1 0 0\n")
    assert main(["classify", path]) == 65
    assert "cap" in capsys.readouterr().err
    assert main(["degree", path]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "%s: order 3 exceeds the support-enumeration cap 2\n" % path


def test_jordan_identities_table(capsys):
    assert main(["jordan", "identities", "--algebra", "rn:3", "--samples", "50"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == len(IDENTITY_NAMES) + 1
    assert all("max residual" in line for line in lines)
    assert lines[-1].endswith("pass")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_jordan_identities_rejects_fewer_than_one_sample(capsys, samples):
    code = main(["jordan", "identities", "--algebra", "rn:3", "--samples", samples])
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "need --samples >= 1, got %s\n" % samples


def test_jordan_identities_json(capsys):
    assert (
        main(
            [
                "jordan",
                "identities",
                "--algebra",
                "sym:2",
                "--samples",
                "40",
                "--json",
            ]
        )
        == 0
    )
    record = json.loads(capsys.readouterr().out)
    assert record["pass"] is True
    assert set(record["residuals"]) == set(IDENTITY_NAMES)


def test_jordan_rank_one_answers(capsys):
    assert main(["jordan", "rank-one", "--a", "eigs:1,2", "--b", "eigs:3,1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Q: yes (rank-one-eigensign:")

    assert main(["jordan", "rank-one", "--a", "-1,-2", "--b", "-1,-3"]) == 0
    capsys.readouterr()

    assert main(["jordan", "rank-one", "--a", "eigs:1,-1", "--b", "eigs:1,1"]) == 1
    out = capsys.readouterr().out
    assert "Q: no" in out and "violation" in out

    # A zero eigenvalue: a is not interior to either cone, so no Q.
    assert main(["jordan", "rank-one", "--a", "eigs:0,1", "--b", "eigs:1,1"]) == 1
    assert capsys.readouterr().out.startswith("Q: no (rank-one-eigensign:")


@pytest.mark.parametrize("seed", range(8))
def test_jordan_rank_one_decides_a_zero_eigenvalue_exactly_in_a_rotated_frame(capsys, seed):
    # The float readback of the zero lands near +-2e-16, on either side of
    # a --tol 0 band depending on the frame; the literal 0 decides.
    argv = ["jordan", "rank-one", "--a", "0,1,1", "--b", "1,1,1", "--algebra", "sym:3",
            "--frame", "rotated", "--tol", "0", "--seed", str(seed)]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith(
        "Q: no (rank-one-eigensign: eigenvalue signs rule out both cone orientations; a_max="
    )


@pytest.mark.parametrize(
    "a, b, code, condition",
    [
        ("1e-12,1", "1,1", 0, "both factors interior to the cone"),
        ("-1e-12,-1", "-1,-3", 0, "both factors interior to the negated cone"),
        ("0,1", "1,1", 1, "eigenvalue signs rule out both cone orientations"),
        ("-0.0,-1", "-1,-1", 1, "eigenvalue signs rule out both cone orientations"),
        ("1e-400,1", "1,1", 0, "both factors interior to the cone"),  # 0.0 as a float
    ],
)
def test_jordan_rank_one_reads_the_literal_signs_inside_the_float_band(capsys, a, b, code, condition):
    assert main(["jordan", "rank-one", "--a", a, "--b", b, "--json"]) == code
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"]["condition"] == condition
    assert record["a"] == [float(v) for v in a.split(",")]  # floats, as before
    assert set(record["verdict"]["witness"]) == {"a_min", "a_max", "b_min", "b_max"}


def test_jordan_rank_one_refuses_what_float_or_the_digit_bound_refuses(capsys):
    # float reads the long literal, the exact parse does not; "1/2" is no
    # float.  Both get the message of any bad list.
    for bad in ("0." + "0" * 4300 + "1,1", "1/2,1"):
        assert main(["jordan", "rank-one", "--a", bad, "--b", "1,1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "bad eigenvalue list %r\n" % bad


def test_jordan_rank_one_length_error_names_the_default_algebra(capsys):
    assert main(["jordan", "rank-one", "--a", "eigs:1,2", "--b", "eigs:1"]) == 64
    assert capsys.readouterr().err == "need 2 eigenvalues per element for rn:2\n"

    code = main(
        ["jordan", "rank-one", "--a", "eigs:1", "--b", "eigs:1", "--algebra", "sym:2"]
    )
    assert code == 64
    assert capsys.readouterr().err == "need 2 eigenvalues per element for sym:2\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_jordan_rank_one_rejects_fewer_than_one_sample(capsys, samples):
    code = main(
        ["jordan", "rank-one", "--a", "eigs:1,-1", "--b", "eigs:1,1", "--samples", samples]
    )
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "need --samples >= 1, got %s\n" % samples


def _refuse_sampling(monkeypatch):
    from lcpq.jordan import checks, sclcp

    def refuse(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(checks, "identity_residuals", refuse)
    monkeypatch.setattr(sclcp, "sample_positivity_violation", refuse)


@pytest.mark.parametrize(
    "command",
    [
        ["identities", "--algebra", "rn:3"],
        ["rank-one", "--a", "eigs:1,-1", "--b", "eigs:1,1"],
    ],
)
def test_jordan_samples_above_the_ceiling_are_refused_before_sampling(capsys, monkeypatch, command):
    _refuse_sampling(monkeypatch)
    code = main(["jordan"] + command + ["--samples", str(MAX_SAMPLES + 1)])
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "need --samples <= %d, got %d\n" % (MAX_SAMPLES, MAX_SAMPLES + 1)


def test_jordan_samples_at_the_ceiling_are_accepted(capsys, monkeypatch):
    # The verdict is yes, so no sampler runs.
    _refuse_sampling(monkeypatch)
    argv = ["jordan", "rank-one", "--a", "eigs:1,2", "--b", "eigs:3,1"]
    assert main(argv + ["--samples", str(MAX_SAMPLES)]) == 0
    assert capsys.readouterr().out.startswith("Q: yes (rank-one-eigensign:")


@pytest.mark.parametrize(
    "a, b, bad",
    [
        ("eigs:nan,1", "eigs:1,1", "eigs:nan,1"),
        ("eigs:inf,1", "1,1", "eigs:inf,1"),
        ("1,1", "1,-inf", "1,-inf"),
    ],
)
def test_jordan_rank_one_rejects_non_finite_eigenvalues(capsys, a, b, bad):
    assert main(["jordan", "rank-one", "--a", a, "--b", b]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "non-finite eigenvalue in %r\n" % bad


@pytest.mark.parametrize(
    "tol, shown",
    [("nan", "nan"), ("-1", "-1"), ("inf", "inf"), ("-1e-3", "-0.001"), ("-inf", "-inf")],
)
def test_jordan_commands_reject_a_tol_that_is_not_finite_and_nonnegative(
    tmp_path, capsys, tol, shown
):
    # The value is checked whether it is joined to the flag or follows it;
    # "--tol -1e-3" must not be read by argparse as a flag of its own.
    path = _write(tmp_path, "t3.txt", "-1 2\n1 -1\n")
    for argv in (
        ["jordan", "identities", "--algebra", "rn:3"],
        ["jordan", "rank-one", "--a", "eigs:1,2", "--b", "eigs:3,1"],
        ["jordan", "embed-check", "--matrix", path, "--q", "-1,-1"],
    ):
        for given in (["--tol=" + tol], ["--tol", tol]):
            assert main(argv + given) == 64
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == "need --tol >= 0, got %s\n" % shown
        assert main(argv + ["--tol", "0"]) != 64  # zero is a tolerance
        capsys.readouterr()


def test_jordan_rank_one_json_includes_sampler(capsys):
    code = main(
        ["jordan", "rank-one", "--a", "eigs:1,-1", "--b", "eigs:1,1", "--json"]
    )
    assert code == 1
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"]["answer"] == "no"
    assert record["violation_sampler"]["violation"] is True


def test_jordan_embed_check(tmp_path, capsys):
    path = _write(tmp_path, "t3.txt", "-1 2\n1 -1\n")
    assert main(["jordan", "embed-check", "--matrix", path, "--q", "-1,-1"]) == 0
    out = capsys.readouterr().out
    assert "status: embedded, r = (3, 2)" in out
    assert out.strip().endswith("pass")


def test_jordan_embed_check_json(tmp_path, capsys):
    path = _write(tmp_path, "t3.txt", "-1 2\n1 -1\n")
    code = main(
        ["jordan", "embed-check", "--matrix", path, "--q", "-1,-1", "--json"]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "embedded"
    assert record["r"] == ["3", "2"]
    assert record["algebra"] == "sym:2"


def test_jordan_embed_check_unsolvable(tmp_path, capsys):
    path = _write(
        tmp_path, "big.txt", "1 1 0 0\n0 1 1 0\n0 0 1 -1\n1 0 0 0\n"
    )
    assert (
        main(["jordan", "embed-check", "--matrix", path, "--q", "0,0,0,-1"]) == 0
    )
    assert "status: unsolvable" in capsys.readouterr().out


def test_jordan_embed_check_dimension_errors(tmp_path, capsys):
    path = _write(tmp_path, "t3.txt", "-1 2\n1 -1\n")
    assert (
        main(["jordan", "embed-check", "--matrix", path, "--q", "-1,-1,-1"]) == 64
    )
    assert (
        main(
            [
                "jordan",
                "embed-check",
                "--matrix",
                path,
                "--q",
                "-1,-1",
                "--algebra",
                "sym:3",
            ]
        )
        == 64
    )
    capsys.readouterr()


def test_jordan_embed_check_takes_no_n(tmp_path, capsys):
    # The algebra defaults to sym sized to the matrix, the one value --n
    # could take, so there is no --n.
    path = _write(tmp_path, "t3.txt", "-1 2\n1 -1\n")
    argv = ["jordan", "embed-check", "--matrix", path, "--q", "-1,-1", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["algebra"] == "sym:2"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", "2"])
    assert exc.value.code == 64
    assert "unrecognized arguments: --n" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_jordan_embed_check_rejects_n_below_one(tmp_path, capsys, n):
    # With no --n option, an order below one is a usage error like any --n.
    path = _write(tmp_path, "t3.txt", "-1 2\n1 -1\n")
    with pytest.raises(SystemExit) as exc:
        main(["jordan", "embed-check", "--matrix", path, "--q", "-1,-1", "--n", n])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --n %s" % n in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["jordan", "identities", "--algebra", "sym:2", "--samples", "2"],
        ["jordan", "rank-one", "--a", "eigs:1,-1", "--b", "eigs:1,1"],
        ["jordan", "rank-one", "--a", "eigs:1,2", "--b", "eigs:3,1", "--frame", "rotated"],
        ["jordan", "embed-check", "--q", "-1,-1", "--frame", "rotated"],
    ],
    ids=["identities", "rank-one-no", "rank-one-rotated", "embed-check-rotated"],
)
def test_jordan_commands_reject_a_negative_seed(tmp_path, capsys, argv):
    # numpy's default_rng refuses a negative seed; the command says so
    # itself instead of dying in a traceback.
    if "embed-check" in argv:
        argv = argv + ["--matrix", _write(tmp_path, "t3.txt", "-1 2\n1 -1\n")]
    assert main(argv + ["--seed", "-1"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "need --seed >= 0, got -1\n"
    assert main(argv + ["--seed", "0"]) in (0, 1)


_OVER = str(MAX_SAMPLES + 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--budget", "-1", "--seed", "-5"], "need --budget >= 0, got -1"),
        (["verify", "--seed", "-5", "--budget", "-2"], "need --budget >= 0, got -2"),
        (
            ["jordan", "identities", "--algebra", "rn:3", "--tol", "-1", "--seed", "-1"]
            + ["--samples", "0"],
            "need --samples >= 1, got 0",
        ),
        (
            ["jordan", "identities", "--algebra", "rn:3", "--tol", "nan", "--samples", _OVER],
            "need --samples <= %d, got %s" % (MAX_SAMPLES, _OVER),
        ),
        (
            ["jordan", "identities", "--algebra", "rn:3", "--tol", "inf", "--seed", "-3"],
            "need --seed >= 0, got -3",
        ),
        (
            ["jordan", "rank-one", "--a", "1,2", "--b", "3,1", "--tol", "-1", "--samples", "-4"],
            "need --samples >= 1, got -4",
        ),
        (
            ["jordan", "rank-one", "--a", "1,2", "--b", "3,1", "--seed", "-1", "--samples", _OVER],
            "need --samples <= %d, got %s" % (MAX_SAMPLES, _OVER),
        ),
        (
            ["jordan", "rank-one", "--a", "1,2", "--b", "3,1", "--tol", "nan", "--seed", "-2"],
            "need --seed >= 0, got -2",
        ),
        (
            ["jordan", "embed-check", "--q", "1,1", "--tol", "-1", "--seed", "-1"],
            "need --seed >= 0, got -1",
        ),
    ],
)
def test_the_first_out_of_range_option_is_reported_in_a_fixed_order(
    tmp_path, capsys, monkeypatch, argv, message
):
    # The order is --budget, --samples below 1, --samples above the
    # ceiling, --seed, --tol, whatever order the options are given in, and
    # every one is checked before a matrix file is read or a sample drawn.
    _refuse_sampling(monkeypatch)
    missing = str(tmp_path / "nope.txt")
    argv = argv + (["--matrix", missing] if "embed-check" in argv else [])
    argv = argv + ([missing] if argv[0] in ("classify", "verify") else [])
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


def test_core_commands_accept_a_negative_seed(tmp_path, capsys):
    # random.Random takes any int, so classify, verify and generate keep
    # accepting negative seeds.
    path = _write(tmp_path, "p.txt", "2 1\n1 2\n")
    out = str(tmp_path / "gen")
    for seed in ("-1", "-5"):
        assert main(["classify", "--seed", seed, path]) == 0
        assert main(["verify", "--seed", seed, path]) == 0
        assert main(["generate", "--type", "tri", "--seed", seed, "--out", out]) == 0
    capsys.readouterr()


_TOO_MANY_EIGS = ",".join(["1"] * (MAX_RANK + 1))


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["identities", "--algebra", "sym:3000", "--samples", "1"],
            "bad --algebra 'sym:3000': rank 3000 is above the maximum %d" % MAX_RANK,
        ),
        (
            ["identities", "--algebra", "rn:%d" % (MAX_RANK + 1)],
            "bad --algebra 'rn:%d': rank %d is above the maximum %d"
            % (MAX_RANK + 1, MAX_RANK + 1, MAX_RANK),
        ),
        (
            ["rank-one", "--a", _TOO_MANY_EIGS, "--b", _TOO_MANY_EIGS],
            "rank %d is above the maximum %d" % (MAX_RANK + 1, MAX_RANK),
        ),
        (
            ["rank-one", "--a", "1", "--b", "1", "--algebra", "sym:3000"],
            "bad --algebra 'sym:3000': rank 3000 is above the maximum %d" % MAX_RANK,
        ),
        (
            ["embed-check", "--q", "-1,-1", "--algebra", "sym:3000"],
            "bad --algebra 'sym:3000': rank 3000 is above the maximum %d" % MAX_RANK,
        ),
    ],
    ids=["identities-sym", "identities-rn", "rank-one-rn-default", "rank-one-sym", "embed-check-sym"],
)
def test_jordan_commands_refuse_a_rank_above_the_maximum_before_any_array(
    tmp_path, capsys, monkeypatch, argv, message
):
    # The rank is checked where the algebra is made, so no frame, sample
    # or operator is built for it, and the command answers at once.
    from lcpq import cli
    from lcpq.jordan import checks

    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be built past the maximum rank")

    monkeypatch.setattr(cli, "_build_frame", refuse)
    monkeypatch.setattr(checks, "identity_residuals", refuse)
    if argv[0] == "embed-check":
        argv = argv + ["--matrix", _write(tmp_path, "t3.txt", "-1 2\n1 -1\n")]
    start = time.monotonic()
    assert main(["jordan"] + argv) == 64
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_jordan_identities_runs_at_the_maximum_rank(capsys):
    assert main(["jordan", "identities", "--algebra", "rn:%d" % MAX_RANK, "--samples", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("-> pass")


def test_embed_check_refuses_an_order_past_the_cap_before_building_a_frame(
    tmp_path, capsys, monkeypatch
):
    from lcpq.jordan import algebra

    frames = []
    monkeypatch.setattr(algebra, "random_frame", lambda *args: frames.append(args))
    monkeypatch.setenv("LCP_ENUM_CAP", "2")
    path = _write(tmp_path, "dense.txt", "1 -1 1\n0 1 -1\n1 0 0\n")
    argv = ["jordan", "embed-check", "--matrix", path, "--q", "-1,-1,-1", "--frame", "rotated"]
    # The cap goes before the algebra, so a mismatched --algebra does not
    # hide it.
    for extra in ([], ["--algebra", "sym:2"]):
        assert main(argv + extra) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "%s: order 3 exceeds the support-enumeration cap 2\n" % path
    assert frames == []


def test_core_commands_import_neither_numpy_nor_the_jordan_layer():
    """Only the jordan commands need numpy; classify and verify start
    without it.  Importing lcpq.jordan loads every jordan module."""
    script = (
        "import json, sys\n"
        "import lcpq.cli\n"
        "core = sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'numpy' or m.startswith('lcpq.jordan'))\n"
        "import lcpq.jordan\n"
        "print(json.dumps([core, 'lcpq.jordan.checks' in sys.modules]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(lcpq.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    core, checks_loaded = json.loads(done.stdout)
    assert core == []
    assert checks_loaded


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_synopsis() -> dict:
    """Command -> (options, required options) from the README's "Command
    line" block; options inside [...] are optional."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    entries, command = {}, None
    for line in block.splitlines():
        if line.startswith("lcpq "):
            words = line.split()[1:]
            command = " ".join(words[:2] if words[0] == "jordan" else words[:1])
            entries[command] = ""
            line = line.split(command, 1)[1]
        if command is not None:
            entries[command] += " " + line
    out = {}
    for command, usage in entries.items():
        options = set(re.findall(r"--[\w-]+", usage))
        required = set(re.findall(r"--[\w-]+", re.sub(r"\[[^\]]*\]", "", usage)))
        out[command] = options, required
    return out


def _parser_options(parser, prefix=()) -> dict:
    """Command -> (options, required options) for every leaf subcommand."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_parser_options(sub, prefix + (name,)))
    if prefix and not out:
        options, required = set(), set()
        for action in parser._actions:
            names = set(action.option_strings) - {"-h", "--help"}
            options |= names
            if action.required:
                required |= names
        out[" ".join(prefix)] = options, required
    return out


def test_readme_synopsis_lists_every_parser_option():
    assert _readme_synopsis() == _parser_options(build_parser())
