"""Seeded instance generators: reproducibility and family membership."""

import hashlib
import itertools
import json
import random

import pytest

from helpers import reference_random_triangular
from lcpq import matrices
from lcpq.cli import main
from lcpq.generate import GENERATOR_TYPES, MAX_ORDER, draw_instances, generate
from lcpq.matrices import RationalMatrix
from lcpq.structure import (
    BDSW_TYPE_1,
    BDSW_TYPE_2,
    BDSW_TYPE_3,
    BDSW_TYPE_4,
    detect_structure,
    is_bdsw_shape,
    is_triangular_plus_row,
)
from lcpq.matrices import is_lower_triangular, is_upper_triangular


def test_same_seed_same_instances():
    for kind in GENERATOR_TYPES:
        n = 2 if kind == "2x2" else 4
        a = generate(kind, n, 6, seed=99)
        b = generate(kind, n, 6, seed=99)
        assert a == b


def test_single_stream_prefix():
    short = generate("bdsw-4", 5, 5, seed=3)
    long = generate("bdsw-4", 5, 10, seed=3)
    assert long[:5] == short


def test_family_membership():
    for m in generate("tri", 4, 10, seed=1):
        assert is_upper_triangular(m) or is_lower_triangular(m)
    for m in generate("tri-plus-row", 4, 10, seed=1):
        assert is_triangular_plus_row(m)
    for m in generate("bdsw-1", 4, 10, seed=1):
        assert detect_structure(m).tag == BDSW_TYPE_1
    for m in generate("bdsw-2", 4, 10, seed=1):
        assert detect_structure(m).tag == BDSW_TYPE_2
    for m in generate("bdsw-3", 4, 10, seed=1):
        assert detect_structure(m).tag == BDSW_TYPE_3
    for m in generate("bdsw-4", 4, 10, seed=1):
        s = detect_structure(m)
        assert s.tag == BDSW_TYPE_4 and 1 <= s.k <= 3
    for m in generate("2x2", 2, 10, seed=1):
        assert m.n == 2 and is_bdsw_shape(m)


def test_sign_structure_of_single_sign_families():
    for m in generate("bdsw-2", 5, 8, seed=17):
        for i in range(5):
            assert m[i, i] > 0
            off = m[i, i + 1] if i < 4 else m[4, 0]
            assert off < 0
    for m in generate("bdsw-3", 5, 8, seed=17):
        for i in range(5):
            assert m[i, i] < 0
            off = m[i, i + 1] if i < 4 else m[4, 0]
            assert off > 0


def test_type1_instances_have_nonnegative_row():
    for m in generate("bdsw-1", 4, 12, seed=23):
        assert any(
            all(v >= 0 for v in row) and any(v > 0 for v in row)
            for row in m.rows
        )


def test_entry_range_respected():
    for m in generate("bdsw-2", 4, 10, seed=5, entry_range=2):
        assert all(abs(v) <= 2 for row in m.rows for v in row)
    for m in generate("2x2", 2, 10, seed=5, entry_range=1):
        assert all(abs(v) <= 1 for row in m.rows for v in row)


@pytest.mark.parametrize("kind, entry_range", [("bdsw-1", 0), ("tri", -2)])
def test_entry_range_below_one_rejected(kind, entry_range):
    # bdsw-1 once drew forever for a positive entry from [0, 0].
    with pytest.raises(ValueError, match="need entry_range >= 1"):
        generate(kind, 3, 1, seed=0, entry_range=entry_range)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        generate("dense", 3, 1, seed=0)


def test_draw_instances_is_generate_one_at_a_time():
    for kind in GENERATOR_TYPES:
        n = 2 if kind == "2x2" else 5
        drawn = [RationalMatrix(rows) for rows in draw_instances(kind, n, 7, seed=4)]
        assert drawn == generate(kind, n, 7, seed=4)
    # Nothing is drawn before it is asked for, so a huge count costs nothing.
    first = itertools.islice(draw_instances("tri", 3, 10 ** 12, seed=4), 3)
    assert [RationalMatrix(rows) for rows in first] == generate("tri", 3, 3, seed=4)


@pytest.mark.parametrize("kind, n, message", [
    ("tri", MAX_ORDER + 1, "need n <= %d" % MAX_ORDER),
    ("bdsw-2", 100000, "need n <= %d" % MAX_ORDER),
    ("tri", 0, "need n >= 1"),
    ("tri-plus-row", 1, "need n >= 2"),
])
def test_order_out_of_range_rejected_before_any_draw(kind, n, message):
    with pytest.raises(ValueError, match=message):
        draw_instances(kind, n, 1, seed=0)
    with pytest.raises(ValueError, match=message):
        generate(kind, n, 0, seed=0)


def test_2x2_ignores_the_order():
    assert generate("2x2", MAX_ORDER + 1, 3, seed=2) == generate("2x2", 0, 3, seed=2)


def test_tri_files_match_the_fraction_transpose_route(tmp_path, capsys):
    # random_triangular transposes a lower triangle while its entries are
    # still ints; the files must keep the bytes of the route that built the
    # upper triangle's Fractions and then transposed the matrix.
    sides = set()
    for seed, n, entry_range in itertools.product((0, 1, 7, -3), (1, 2, 5, 12), (1, 5)):
        out = tmp_path / ("%d-%d-%d" % (seed, n, entry_range))
        argv = ["generate", "--type", "tri", "--n", str(n), "--count", "3", "--seed", str(seed)]
        assert main(argv + ["--entry-range", str(entry_range), "--out", str(out)]) == 0
        rng = random.Random(seed)
        for index in range(3):
            expected = reference_random_triangular(rng, n, entry_range)
            sides.add((is_upper_triangular(expected), is_lower_triangular(expected)))
            path = out / ("tri-n%d-seed%d-%04d.json" % (n, seed, index))
            text = json.dumps(expected.to_json_obj(), sort_keys=True) + "\n"
            assert path.read_text(encoding="utf-8") == text
    capsys.readouterr()
    assert {(True, False), (False, True)} <= sides


def test_generate_builds_no_fraction(tmp_path, capsys, monkeypatch):
    # The files hold the ints the generators draw, written as they are.
    def refuse(value):
        raise AssertionError("generate built a Fraction from %r" % (value,))

    monkeypatch.setattr(matrices, "_to_fraction", refuse)
    for kind in GENERATOR_TYPES:
        argv = ["generate", "--type", kind, "--n", "6", "--count", "3", "--seed", "2"]
        assert main(argv + ["--out", str(tmp_path / kind)]) == 0
        assert len(capsys.readouterr().out.split()) == 3


def _generate_digest(out, capsys):
    """sha256 over the name and bytes of every file lcpq generate writes on
    a grid of families, orders, seeds and entry ranges."""
    digest = hashlib.sha256()
    for kind in GENERATOR_TYPES:
        orders = (2,) if kind == "2x2" else (1, 2, 3, 7, 40) if kind == "tri" else (2, 3, 7, 40)
        for n, seed, entry_range in itertools.product(orders, (0, -3), (1, 5)):
            argv = ["generate", "--type", kind, "--n", str(n), "--count", "3", "--seed", str(seed)]
            directory = "%s/%s-%d-%d-%d" % (out, kind, n, seed, entry_range)
            assert main(argv + ["--entry-range", str(entry_range), "--out", directory]) == 0
            for path in capsys.readouterr().out.split():
                digest.update(path[len(directory) :].encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


# Recorded from lcpq generate when it still built a RationalMatrix per
# instance and wrote its to_json_obj().
_GENERATE_SHA256 = "ffddb7f249fe01f86044da96da8193393564d09f4c3002b50b4bcb4f22d6419e"


def test_generate_bytes_match_the_recorded_digest(tmp_path, capsys):
    assert _generate_digest(str(tmp_path), capsys) == _GENERATE_SHA256
