"""End-to-end CLI behaviour via in-process main() calls."""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import lcpq
from lcpq.classes import q_oracle
from lcpq.cli import build_parser, main
from lcpq.errors import DegreeSamplingError
from lcpq.jordan.checks import IDENTITY_NAMES
from lcpq.structure import detect_structure


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
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return detect_structure(matrix)

    monkeypatch.setattr("lcpq.cli.detect_structure", counted)
    monkeypatch.setattr("lcpq.classifier.detect_structure", counted)
    for name, text, theorem in [
        ("t2.txt", "2 -1 0\n0 2 -1\n-1 0 2\n", "T6.1"),
        ("t3.txt", "-1 2 0\n0 -1 1\n1 0 -1\n", "T7.1"),
        ("t4.txt", "-1 1 0\n0 -1 1\n-2 0 1\n", "T8.1"),
    ]:
        path = _write(tmp_path, name, text)
        for command in ("classify", "verify"):
            calls.clear()
            main([command, "--format", "jsonl", path])
            assert theorem in capsys.readouterr().out
            assert len(calls) == 1, (name, command)


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


def test_degree_sampling_failure_exit(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "eye.txt", "1 0\n0 1\n")

    def explode(matrix, rng_seed=0):
        raise DegreeSamplingError("no generic q found")

    monkeypatch.setattr("lcpq.cli.degree", explode)
    assert main(["degree", path]) == 70
    assert "no generic q" in capsys.readouterr().err


def test_enumeration_cap_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LCP_ENUM_CAP", "2")
    path = _write(tmp_path, "dense.txt", "1 -1 1\n0 1 -1\n1 0 0\n")
    assert main(["classify", path]) == 65
    assert "cap" in capsys.readouterr().err


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

    assert main(["jordan", "rank-one", "--a", "eigs:0,1", "--b", "eigs:1,1"]) == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("n", ["0", "-1"])
def test_jordan_embed_check_rejects_n_below_one(tmp_path, capsys, n):
    path = _write(tmp_path, "t3.txt", "-1 2\n1 -1\n")
    code = main(["jordan", "embed-check", "--matrix", path, "--q", "-1,-1", "--n", n])
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "need --n >= 1, got %s\n" % n


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
