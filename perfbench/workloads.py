"""Seeded input corpora for the benchmark workloads.

A corpus is built from the workload seed alone.  Matrix files come from
``lcpq.generate`` (the structured families) or from ``random_general`` below
(unstructured matrices); Jordan inputs come from numpy's seeded generator.
Each workload lists strata, one (family, order) pair per kind of input, and
the corpus takes one input from every stratum per round, so any prefix of it
holds close to the same mix.  The timed loop cycles through the corpus.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from lcpq.generate import generate
from lcpq.jordan.algebra import random_element, random_frame, sym_algebra
from lcpq.matrices import RationalMatrix

DEFAULT_SEED = 0

STRUCTURED_FAMILIES = ("tri", "tri-plus-row", "bdsw-1", "bdsw-2", "bdsw-3", "bdsw-4")


def _structured_strata(orders) -> tuple:
    # 2x2 ignores the order, so it is one stratum of its own.
    return tuple((f, n) for n in orders for f in STRUCTURED_FAMILIES) + (("2x2", 2),)


@dataclass(frozen=True)
class Workload:
    name: str
    command: Tuple[str, ...]  # lcpq CLI arguments before the input file
    strata: Tuple[Tuple[str, int], ...]
    rounds: int


# Sizing: every corpus holds at least 100 inputs, so the p90 of the per-input
# times has ten samples beyond it, and a 35 s run still makes about three or
# more passes over it.  Orders stop where single inputs reach ~1 s (verify at
# n >= 7, unstructured oracle inputs at n >= 7 dense or n >= 9 dominant):
# a few such files decided the mean and made it swing between seeds.  For the
# same reason verify-structured has 48 rounds: at 24, its slowest n=6 files
# (witness search) still moved the mean by about 12% between seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-structured",
            ("verify", "--format", "jsonl"),
            _structured_strata((4, 5, 6)),
            48,
        ),
        Workload(
            "oracle-general",
            ("classify", "--format", "jsonl"),
            (("dense", 6), ("dense", 6), ("dense", 6), ("pdd", 7), ("pdd", 7), ("pdd", 8)),
            17,
        ),
        Workload(
            "jordan-embed",
            (),
            tuple(
                (op, m)
                for m in (3, 6, 10)
                for op in ("identities", "embed-check", "rank-one-yes", "rank-one-no", "peirce")
            ),
            7,
        ),
    )
}

IDENTITY_SAMPLES = 4
ENTRY_RANGE = 5


@dataclass
class Input:
    """One request of the closed loop.

    argv holds the ``lcpq`` CLI arguments, or is None for a library call
    (peirce_decompose).  rows is the integer matrix written to the input file,
    and expect holds what the output checks need beyond the output itself.
    """

    index: int
    family: str
    n: int
    argv: Optional[List[str]]
    rows: Optional[List[List[int]]] = None
    expect: dict = field(default_factory=dict)


def _nonzero(rng: random.Random) -> int:
    return rng.choice([v for v in range(-ENTRY_RANGE, ENTRY_RANGE + 1) if v != 0])


def random_general(rng: random.Random, n: int, dominant: bool):
    """Integer n x n matrix (n >= 3) with positive diagonal and no structure.

    dominant=False gives dense random entries; dominant=True makes each
    diagonal entry exceed its row's off-diagonal absolute sum, a P-matrix.
    Nonzero entries at (2,1) and (1,n) rule out the triangular,
    triangular-plus-row and bdsw shapes, so classify has no rule to apply.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rows = [[rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(n)] for _ in range(n)]
    rows[1][0] = _nonzero(rng)
    rows[0][n - 1] = _nonzero(rng)
    for i in range(n):
        off = sum(abs(v) for j, v in enumerate(rows[i]) if j != i) if dominant else 0
        rows[i][i] = off + rng.randint(1, ENTRY_RANGE)
    return rows


def _stratum_seed(seed: int, workload: str, index: int) -> int:
    # A string seed is hashed with SHA-512, so the derived seed does not
    # depend on PYTHONHASHSEED.
    return random.Random("%d/%s/%d" % (seed, workload, index)).randrange(2 ** 31)


def _matrix_rows(family: str, n: int, count: int, seed: int) -> List[List[List[int]]]:
    if family in ("dense", "pdd"):
        rng = random.Random(seed)
        return [random_general(rng, n, family == "pdd") for _ in range(count)]
    matrices = generate(family, n, count, seed, ENTRY_RANGE)
    return [[[int(v) for v in row] for row in m.rows] for m in matrices]


def _write_matrix(directory: str, name: str, rows) -> Tuple[str, str]:
    """Write rows as ``lcpq generate`` does; return the path and its sha256."""
    path = os.path.join(directory, name)
    data = (json.dumps(RationalMatrix(rows).to_json_obj(), sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return path, hashlib.sha256(data).hexdigest()


def _eigs_arg(values) -> str:
    return "eigs:" + ",".join("%.4f" % v for v in values)


def _jordan_inputs(op: str, m: int, count: int, seed: int, directory: str, tag: str):
    """count (argv, rows, expect) triples for one Jordan stratum."""
    rng = np.random.default_rng(seed)
    algebra = "sym:%d" % m
    out = []
    for r in range(count):
        sub_seed = int(rng.integers(0, 2 ** 31))
        if op == "identities":
            argv = ["jordan", "identities", "--algebra", algebra,
                    "--samples", str(IDENTITY_SAMPLES), "--seed", str(sub_seed), "--json"]
            out.append((argv, None, {}))
        elif op == "embed-check":
            rows = random_general(random.Random(sub_seed), m, dominant=True)
            q = [int(v) for v in rng.integers(-ENTRY_RANGE, ENTRY_RANGE + 1, size=m)]
            path, digest = _write_matrix(directory, "%s-%02d.json" % (tag, r), rows)
            argv = ["jordan", "embed-check", "--matrix", path,
                    "--q", ",".join(str(v) for v in q), "--algebra", algebra,
                    "--frame", "rotated", "--seed", str(sub_seed), "--json"]
            out.append((argv, rows, {"q": q, "sha256": digest}))
        elif op in ("rank-one-yes", "rank-one-no"):
            a = rng.uniform(0.5, 3.0, size=m)
            b = rng.uniform(0.5, 3.0, size=m)
            if op == "rank-one-no":
                a[: m // 2 + 1] *= -1.0  # mixed signs rule out both cone orientations
            argv = ["jordan", "rank-one", "--a", _eigs_arg(a), "--b", _eigs_arg(b),
                    "--algebra", algebra, "--frame", "rotated",
                    "--seed", str(sub_seed), "--json"]
            out.append((argv, None, {"answer": "yes" if op == "rank-one-yes" else "no"}))
        else:  # peirce: a library call on a seeded element and frame
            alg = sym_algebra(m)
            gen = np.random.default_rng(sub_seed)
            frame = random_frame(alg, gen)
            out.append((None, None, {"x": random_element(alg, gen), "frame": frame}))
    return out


def build_corpus(workload: str, seed: int, directory: str) -> List[Input]:
    """Write the workload's input files under directory and return its inputs.

    The same (workload, seed) always gives byte-identical files and the same
    inputs, in the same order.
    """
    spec = WORKLOADS[workload]
    os.makedirs(directory, exist_ok=True)
    per_stratum = []
    for s, (family, n) in enumerate(spec.strata):
        stratum_seed = _stratum_seed(seed, workload, s)
        tag = "s%02d-%s-n%d" % (s, family, n)
        if not spec.command:  # jordan-embed: the family names the operation
            per_stratum.append(
                _jordan_inputs(family, n, spec.rounds, stratum_seed, directory, tag)
            )
            continue
        triples = []
        for r, rows in enumerate(_matrix_rows(family, n, spec.rounds, stratum_seed)):
            path, digest = _write_matrix(directory, "%s-%02d.json" % (tag, r), rows)
            triples.append((list(spec.command) + [path], rows, {"sha256": digest}))
        per_stratum.append(triples)

    inputs = []
    for r in range(spec.rounds):
        for s, (family, n) in enumerate(spec.strata):
            argv, rows, expect = per_stratum[s][r]
            inputs.append(Input(len(inputs), family, n, argv, rows, expect))
    return inputs
