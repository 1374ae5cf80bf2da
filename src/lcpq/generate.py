"""Seeded random generators for the structural matrix families.

Everything is driven by random.Random(seed), so a (type, order, count,
seed, entry range) tuple always reproduces the same instances, byte for
byte, across platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .matrices import RationalMatrix

GENERATOR_TYPES = (
    "tri",
    "tri-plus-row",
    "bdsw-1",
    "bdsw-2",
    "bdsw-3",
    "bdsw-4",
    "2x2",
)


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v != 0:
            return v


def random_triangular(
    rng: random.Random, n: int, entry_range: int = 5, side: Optional[str] = None
) -> RationalMatrix:
    """Random triangular matrix; side is "upper", "lower" or None (coin flip)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if side is None:
        side = "upper" if rng.random() < 0.5 else "lower"
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-entry_range, entry_range)
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-entry_range, entry_range)
    matrix = RationalMatrix(rows)
    return matrix if side == "upper" else matrix.transpose()


def random_triangular_plus_row(
    rng: random.Random, n: int, entry_range: int = 5
) -> RationalMatrix:
    """Block form: upper triangular B, arbitrary last-column head, last row
    (d^T, a_nn) with d >= 0 and a_nn > 0."""
    if n < 2:
        raise ValueError("need n >= 2")
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(i, n - 1):
            rows[i][j] = rng.randint(-entry_range, entry_range)
        rows[i][n - 1] = rng.randint(-entry_range, entry_range)
    for j in range(n - 1):
        rows[n - 1][j] = rng.randint(0, entry_range)
    rows[n - 1][n - 1] = rng.randint(1, entry_range)
    return RationalMatrix(rows)


def _random_bdsw_row(rng: random.Random, entry_range: int):
    """(diagonal, off-diagonal) pair that is not nonpositive."""
    while True:
        diag = rng.randint(-entry_range, entry_range)
        off = rng.randint(-entry_range, entry_range)
        if diag > 0 or off > 0:
            return diag, off


def _assemble_bdsw(n: int, pairs) -> RationalMatrix:
    rows = [[0] * n for _ in range(n)]
    for i, (diag, off) in enumerate(pairs):
        rows[i][i] = diag
        if i < n - 1:
            rows[i][i + 1] = off
        else:
            rows[i][0] = off
    return RationalMatrix(rows)


def random_bdsw_type1(
    rng: random.Random, n: int, entry_range: int = 5, case: Optional[int] = None
) -> RationalMatrix:
    """Type-1 bdsw instance, with the (a_n1, a_nn) sign case drawn or forced.

    Case 1: a_n1 >= 0, a_nn > 0.  Case 2: a_n1 > 0, a_nn = 0.
    Case 3: a_n1 < 0, a_nn > 0.  Case 4: a_n1 > 0, a_nn < 0.
    Yes-side conditions are forced with moderate probability so both
    verdicts appear in any sizeable sample.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if case is None:
        case = rng.randint(1, 4)
    r = entry_range

    if case == 1:
        last = (rng.randint(1, r), rng.randint(0, r))  # (a_nn, a_n1)
        pairs = [_random_bdsw_row(rng, r) for _ in range(n - 1)]
        if rng.random() < 0.5:
            pairs = [(rng.randint(1, r), off) for _, off in pairs]
        pairs.append((last[0], last[1]))
        return _assemble_bdsw(n, pairs)

    if case == 2:
        pairs = [_random_bdsw_row(rng, r) for _ in range(n - 1)]
        if rng.random() < 0.5:
            pairs = [(rng.randint(1, r), -rng.randint(1, r)) for _ in pairs]
        pairs.append((0, rng.randint(1, r)))
        return _assemble_bdsw(n, pairs)

    if case == 3:
        k = rng.randint(1, n - 1)
        mode = rng.random()
        pairs = []
        for i in range(1, n):
            if i == k:
                if mode < 1 / 3:
                    pairs.append((rng.randint(1, r), rng.randint(0, r)))
                elif mode < 2 / 3:
                    pairs.append((0, rng.randint(1, r)))
                else:
                    pairs.append((rng.randint(0, r), rng.randint(0, r)))
                    if pairs[-1] == (0, 0):
                        pairs[-1] = (0, rng.randint(1, r))
            else:
                if mode < 2 / 3:
                    pairs.append((rng.randint(1, r), -rng.randint(1, r)))
                else:
                    pairs.append(_random_bdsw_row(rng, r))
        pairs.append((rng.randint(1, r), -rng.randint(1, r)))  # (a_nn, a_n1)
        return _assemble_bdsw(n, pairs)

    if case == 4:
        k = rng.randint(1, n - 1)
        pairs = []
        for i in range(1, n):
            if i == k:
                pair = (rng.randint(0, r), rng.randint(0, r))
                if pair == (0, 0):
                    pair = (rng.randint(1, r), 0)
                pairs.append(pair)
            else:
                pairs.append(_random_bdsw_row(rng, r))
        pairs.append((-rng.randint(1, r), rng.randint(1, r)))
        return _assemble_bdsw(n, pairs)

    raise ValueError("case must be 1..4")


def random_bdsw_type2(rng: random.Random, n: int, entry_range: int = 5) -> RationalMatrix:
    if n < 2:
        raise ValueError("need n >= 2")
    pairs = [
        (rng.randint(1, entry_range), -rng.randint(1, entry_range)) for _ in range(n)
    ]
    return _assemble_bdsw(n, pairs)


def random_bdsw_type3(rng: random.Random, n: int, entry_range: int = 5) -> RationalMatrix:
    return random_bdsw_type2(rng, n, entry_range).neg()


def random_bdsw_type4(rng: random.Random, n: int, entry_range: int = 5) -> RationalMatrix:
    """Mixed diagonal signs: each row is (+,-) or (-,+), with both kinds present."""
    if n < 2:
        raise ValueError("need n >= 2")
    while True:
        signs = [rng.random() < 0.5 for _ in range(n)]
        if any(signs) and not all(signs):
            break
    pairs = []
    for neg_diag in signs:
        mag_d = rng.randint(1, entry_range)
        mag_o = rng.randint(1, entry_range)
        pairs.append((-mag_d, mag_o) if neg_diag else (mag_d, -mag_o))
    return _assemble_bdsw(n, pairs)


def random_2x2(rng: random.Random, entry_range: int = 2) -> RationalMatrix:
    return RationalMatrix(
        [
            [rng.randint(-entry_range, entry_range) for _ in range(2)]
            for _ in range(2)
        ]
    )


def random_q(rng: random.Random, n: int, entry_range: int = 5) -> list:
    return [Fraction(rng.randint(-entry_range, entry_range)) for _ in range(n)]


def generate(
    kind: str,
    n: int,
    count: int,
    seed: int,
    entry_range: int = 5,
) -> list:
    """Generate count instances of the named family with one seeded stream."""
    if kind not in GENERATOR_TYPES:
        raise ValueError("unknown generator type %r" % (kind,))
    if count < 0:
        raise ValueError("need count >= 0")
    if entry_range < 1:
        # bdsw-1 would draw forever for a positive entry from [0, 0].
        raise ValueError("need entry_range >= 1")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if kind == "tri":
            out.append(random_triangular(rng, n, entry_range))
        elif kind == "tri-plus-row":
            out.append(random_triangular_plus_row(rng, n, entry_range))
        elif kind == "bdsw-1":
            out.append(random_bdsw_type1(rng, n, entry_range))
        elif kind == "bdsw-2":
            out.append(random_bdsw_type2(rng, n, entry_range))
        elif kind == "bdsw-3":
            out.append(random_bdsw_type3(rng, n, entry_range))
        elif kind == "bdsw-4":
            out.append(random_bdsw_type4(rng, n, entry_range))
        else:
            out.append(random_2x2(rng, entry_range))
    return out
