"""Seeded instance generators: reproducibility and family membership."""

import random

import pytest

from lcpq.generate import GENERATOR_TYPES, generate, random_q
from lcpq.structure import (
    BDSW_TYPE_1,
    BDSW_TYPE_2,
    BDSW_TYPE_3,
    BDSW_TYPE_4,
    detect_structure,
    is_bdsw_shape,
    triangular_plus_row_split,
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
        assert triangular_plus_row_split(m) is not None
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


def test_random_q_shape():
    rng = random.Random(0)
    q = random_q(rng, 4, entry_range=3)
    assert len(q) == 4 and all(-3 <= v <= 3 for v in q)
