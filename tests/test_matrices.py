"""Exact matrix core: parsing, determinants, inverses, linear solves."""

import json
import random
import sys
from fractions import Fraction

import pytest

from helpers import cofactor_det, identity, matmul, matvec, plain_text, transpose
from lcpq import matrices
from lcpq.errors import MatrixFormatError, SingularPivotError
from lcpq.generate import GENERATOR_TYPES, draw_instances, generate
from lcpq.matrices import (
    RationalMatrix,
    determinant,
    inverse,
    is_lower_triangular,
    is_upper_triangular,
    nonnegative_rows,
    nonpositive_rows,
    parse_matrix,
    parse_vector,
    solve_linear,
)
from lcpq.pivot import ppt


def test_entries_become_fractions():
    m = RationalMatrix([[1, "1/2"], ["-3/4", 2]])
    assert m[0, 1] == Fraction(1, 2)
    assert m[1, 0] == Fraction(-3, 4)
    assert all(isinstance(v, Fraction) for row in m.rows for v in row)


def test_matrix_is_immutable_and_hashable():
    m = RationalMatrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = ()
    assert m == RationalMatrix([["1", "2"], ["3", "4"]])
    assert hash(m) == hash(RationalMatrix([[1, 2], [3, 4]]))


def test_rejects_nonsquare_and_empty():
    with pytest.raises(MatrixFormatError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(MatrixFormatError):
        RationalMatrix([])
    with pytest.raises(MatrixFormatError):
        RationalMatrix([[True]])


def test_parse_plain_rows():
    m = parse_matrix("1 -2\n3/2 0\n")
    assert m.rows == ((Fraction(1), Fraction(-2)), (Fraction(3, 2), Fraction(0)))


def test_parse_json_with_exact_decimals():
    # Decimal literals must come through the literal digits, not binary floats.
    m = parse_matrix('{"n": 2, "rows": [[0.1, 1], ["-2/3", 4]]}')
    assert m[0, 0] == Fraction(1, 10)
    assert m[1, 0] == Fraction(-2, 3)


def test_parse_json_order_mismatch():
    with pytest.raises(MatrixFormatError):
        parse_matrix('{"n": 3, "rows": [[1, 0], [0, 1]]}')


@pytest.mark.parametrize("declared", ["true", "false", "1.0", '"1"', "[1]"])
def test_parse_json_rejects_a_declared_order_that_is_not_an_integer(declared):
    # True == 1 and Fraction(1) == 1, so comparing alone would accept them.
    with pytest.raises(MatrixFormatError, match="not an integer"):
        parse_matrix('{"n": %s, "rows": [[1]]}' % declared)
    assert parse_matrix('{"n": 1, "rows": [[1]]}').n == 1


def _nested(depth):
    return '{"rows": %s%s}' % ("[" * depth, "]" * depth)


def test_parse_rejects_garbage():
    # json.loads raises RecursionError from about depth 1,000 on.
    for text in ("", "{", "1 2\n3 x", '{"rows": 5}', _nested(1000), _nested(200000)):
        with pytest.raises(MatrixFormatError):
            parse_matrix(text)


def _literal_parsers():
    """Each way a literal reaches Fraction or int: plain rows, a JSON number,
    a JSON string and a vector."""
    return (
        parse_matrix,
        lambda text: parse_matrix('{"rows": [[%s]]}' % text),
        lambda text: parse_matrix('{"rows": [["%s"]]}' % text),
        parse_vector,
    )


def test_literals_up_to_the_bound_are_read_exactly():
    edge = ("1" * 4300, "1e4300", "-2.5E-4300", "0.%s" % ("3" * 4299))
    for text in edge:
        for parse in _literal_parsers():
            parsed = parse(text)
            entry = parsed[0] if isinstance(parsed, list) else parsed[0, 0]
            assert entry == Fraction(text)
    ratio = "%s/%s" % ("3" * 2150, "7" * 2150)
    assert parse_matrix(ratio)[0, 0] == Fraction(ratio)


def _record_fractions(monkeypatch, modules):
    """A list that each Fraction the modules build appends its arguments to."""
    seen = []

    class RecordingFraction(Fraction):
        def __new__(cls, *args):
            seen.append(args)
            return super().__new__(cls, *args)

    for module in modules:
        monkeypatch.setattr(module, "Fraction", RecordingFraction)
    return seen


def test_literals_past_the_bound_are_rejected_before_fraction_reads_them(monkeypatch):
    seen = _record_fractions(monkeypatch, [matrices])
    rejected = ("1" * 4301, "-0.%s" % ("0" * 4300), "1e4301", "1E-4301", "2.5e+04301")
    for text in rejected:
        for parse in _literal_parsers():
            with pytest.raises(MatrixFormatError, match="digits|exponent"):
                parse(text)
    with pytest.raises(MatrixFormatError, match="4301 digits"):
        parse_matrix("%s/%s" % ("3" * 2151, "7" * 2150))
    with pytest.raises(MatrixFormatError, match="exponent 4301"):
        parse_matrix("1e4_301")  # Fraction reads underscores; JSON numbers have none
    assert seen == []


def test_json_ints_take_the_checked_route_only_past_a_long_digit_run(monkeypatch):
    checked = []
    real = matrices._checked_int

    def recorded(text):
        checked.append(text)
        return real(text)

    monkeypatch.setattr(matrices, "_checked_int", recorded)
    edge = "1" * 4300
    assert parse_matrix('{"n": 2, "rows": [[%s, -3], [0, 1]]}' % edge)[0, 0] == int(edge)
    assert checked == []  # json read every int with int itself
    note = "7" * 4301  # not an entry, but a run past the bound all the same
    text = '{"note": "%s", "rows": [[%s, -3], [0, 1]]}' % (note, edge)
    assert parse_matrix(text) == RationalMatrix([[int(edge), -3], [0, 1]])
    assert checked == [edge, "-3", "0", "1"]
    with pytest.raises(MatrixFormatError, match="literal of 4301 digits"):
        parse_matrix('{"rows": [[-%s]]}' % note)


def test_long_digit_runs_are_found_in_any_text():
    assert not matrices._has_long_digit_run("1" * 4300 + "\u00e9" + "1" + "\u4e00" * 3 + "2" * 4300)
    assert matrices._has_long_digit_run("x" + "1" * 4301)
    assert matrices._has_long_digit_run("\ud800" + "0" * 4301 + "\u00e9")
    assert not matrices._has_long_digit_run("\u0661" * 5000)  # not ASCII: no JSON number


def test_integer_input_builds_no_fraction(monkeypatch):
    # An int entry goes into the integer image as it is; a Fraction is
    # built only when an entry is read out.
    seen = _record_fractions(
        monkeypatch,
        [
            module
            for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "lcpq" and getattr(module, "Fraction", None) is Fraction
        ],
    )
    rows = [[2, -1, 0], [0, 3, 1], [4, 0, 5]]
    parsed = parse_matrix('{"n": 3, "rows": %s}' % rows)
    built = RationalMatrix(rows)
    generated = generate("bdsw-2", 4, 2, 0)
    sub = built.principal_submatrix([2, 0])
    transformed = ppt(built, [1, 2])
    assert seen == []
    assert parsed == built and built.integer_rows() == (1, tuple(map(tuple, rows)))
    assert [m.integer_rows()[0] for m in generated + [sub]] == [1] * 3
    assert sub.integer_rows() == (1, ((5, 4), (0, 2)))
    assert transformed.integer_rows()[0] == 6  # det A_JJ = 6 for J = {1, 2}


def test_a_bad_literal_is_named_once_and_cut_short():
    cases = [
        ("x", "bad rational literal 'x': not a rational number"),
        ("1/0", "bad rational literal '1/0': zero denominator"),
        (
            "y" * 5000,
            "bad rational literal %r... (5000 characters): not a rational number" % ("y" * 40),
        ),
    ]
    for literal, message in cases:
        for parse in (
            lambda: parse_matrix("1 %s\n0 1\n" % literal),
            lambda: parse_matrix('{"rows": [[1, "%s"], [0, 1]]}' % literal),
            lambda: parse_vector("1,%s" % literal),
        ):
            with pytest.raises(MatrixFormatError) as exc:
                parse()
            assert str(exc.value) == message


@pytest.mark.parametrize("kind", GENERATOR_TYPES)
@pytest.mark.parametrize("n", [3, 40])
def test_plain_rows_and_json_parse_to_one_image(monkeypatch, kind, n):
    seen = _record_fractions(monkeypatch, [matrices])
    for rows in draw_instances(kind, n, 3, n):
        plain = parse_matrix("".join(" ".join(map(str, row)) + "\n" for row in rows))
        assert seen == []  # every token read by int
        assert plain.integer_rows() == parse_matrix(json.dumps({"n": len(rows), "rows": rows})).integer_rows()
        assert plain.integer_rows() == (1, tuple(map(tuple, rows)))


def test_plain_tokens_outside_the_int_form_read_as_before():
    # Each token in a file of ints: those int reads the same way go by int,
    # the rest by the per-literal route, with its value or its message.
    # Under limit 0, as cli.main runs, int itself bounds no token, so the
    # digit bound must hold there too, also for digits int reads but the
    # ASCII count misses (non-ASCII digits, digits between underscores).
    cases = [
        ("1_000", 1000),
        ("\u0663", 3),
        ("+5", 5),
        ("-0", 0),
        ("0012", 12),
        ("1e5", 100000),
        ("-" + "1" * 4300, -int("1" * 4300)),
        ("1/0", "bad rational literal '1/0': zero denominator"),
        ("--1", "bad rational literal '--1': not a rational number"),
        ("1-2", "bad rational literal '1-2': not a rational number"),
        ("+", "bad rational literal '+': not a rational number"),
        ("1" * 4301, "literal of 4301 digits; at most 4300 are accepted"),
        ("\u0663" * 5000, "literal of 5000 digits; at most 4300 are accepted"),
        ("1_" * 4400 + "1", "literal of 4401 digits; at most 4300 are accepted"),
        ("1_" * 2500 + "1", int("1" * 2501)),
    ]
    limit = sys.get_int_max_str_digits()
    try:
        for lowered in (limit, 0):
            sys.set_int_max_str_digits(lowered)
            for token, expected in cases:
                text = "1 2\n3 %s\n" % token
                if isinstance(expected, int):
                    assert parse_matrix(text).integer_rows() == (1, ((1, 2), (3, expected)))
                else:
                    with pytest.raises(MatrixFormatError) as exc:
                        parse_matrix(text)
                    assert str(exc.value) == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_plain_tokens_are_read_one_by_one(monkeypatch):
    # A token outside the int form sends itself alone to the per-literal
    # route, not its row or the file.
    seen = _record_fractions(monkeypatch, [matrices])
    m = parse_matrix("1 -2 3\n4 1/2 -6\n7 8 +9\n")
    assert seen == [("1/2",)]
    assert m.integer_rows() == (2, ((2, -4, 6), (8, 1, -12), (14, 16, 18)))


def test_plain_token_past_a_lowered_int_digit_limit_reads_as_before():
    # Under sys.set_int_max_str_digits(640) Fraction refuses a 700-digit
    # literal, and the plain route gives its message, not int's ValueError.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(MatrixFormatError) as exc:
            parse_matrix("1 2\n3 %s\n" % ("7" * 700))
        assert str(exc.value) == "bad rational literal %r... (700 characters): not a rational number" % (
            "7" * 40
        )
        assert parse_matrix("1 2\n3 -%s\n" % ("7" * 600)).integer_rows()[1][1][1] == -int("7" * 600)
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_literal_past_a_lowered_int_digit_limit_reads_as_a_plain_token():
    # The JSON route names the same 700-digit int (or decimal) as the plain
    # route does, not with int's ValueError, and still reads a shorter one.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for literal in ("7" * 700, "0." + "7" * 700):
            with pytest.raises(MatrixFormatError) as exc:
                parse_matrix('{"rows": [[1, 2], [3, %s]]}' % literal)
            assert str(exc.value) == "bad rational literal %r... (%d characters): not a rational number" % (
                literal[:40],
                len(literal),
            )
        m = parse_matrix('{"rows": [[1, 2], [3, -%s]]}' % ("7" * 600))
        assert m.integer_rows() == (1, ((1, 2), (3, -int("7" * 600))))
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_round_trip():
    m = parse_matrix('{"rows": [[1, "1/3"], [0, -2]]}')
    again = parse_matrix(json.dumps(m.to_json_obj()))
    assert again == m
    assert parse_matrix(plain_text(m)) == m


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        assert determinant(RationalMatrix(rows)) == cofactor_det(rows)


def test_principal_minors_read_the_inherited_integer_rows():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
        m = RationalMatrix(rows)
        for mask in range(1, 1 << n):
            idx = [i for i in range(n) if mask >> i & 1]
            sub = m.principal_submatrix(idx)
            assert determinant(sub) == cofactor_det([[rows[i][j] for j in idx] for i in idx])
            scale, ints = sub.integer_rows()
            assert scale == m.integer_rows()[0]  # the parent's one scale
            assert [[Fraction(a, scale) for a in row] for row in ints] == [
                list(row) for row in sub.rows
            ]
            inner = sub.principal_submatrix(list(range(len(idx)))[::2])
            assert determinant(inner) == cofactor_det([list(row) for row in inner.rows])
            cols = [(i + 1) % n for i in idx]  # rows and columns differ
            block = [[rows[i][j] for j in cols] for i in idx]
            assert determinant(RationalMatrix(block)) == cofactor_det(block)


def test_a_single_index_outside_the_matrix_is_refused():
    # One index is picked as a slice, and a slice does not refuse -1 or n.
    m = RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    for j in range(-3, 6):
        if 0 <= j < 3:
            assert m.principal_submatrix([j]).integer_rows() == (1, ((m.integer_rows()[1][j][j],),))
        else:
            with pytest.raises(ValueError):
                m.principal_submatrix([j])


def test_determinant_fixtures():
    assert determinant(identity(4)) == 1
    assert determinant(RationalMatrix([[1, 2], [2, 4]])) == 0
    assert determinant(RationalMatrix([[-1, 2], [1, -1]])) == -1


def test_inverse_round_trip_and_singular():
    m = RationalMatrix([[2, 1], [5, 3]])
    assert matmul(m, inverse(m)) == identity(2)
    frac = RationalMatrix([["1/2", "1/3"], ["2/5", 3]])
    assert matmul(frac, inverse(frac)) == identity(2)
    assert inverse(inverse(frac)) == frac
    with pytest.raises(SingularPivotError):
        inverse(RationalMatrix([[1, 2], [2, 4]]))


def test_solve_linear_three_statuses():
    a = RationalMatrix([[2, 0], [0, 4]])
    status, x = solve_linear(a, [Fraction(1), Fraction(2)])
    assert status == "unique" and x == [Fraction(1, 2), Fraction(1, 2)]

    singular = RationalMatrix([[1, 1], [2, 2]])
    status, x = solve_linear(singular, [Fraction(1), Fraction(2)])
    assert status == "underdetermined" and x is None

    status, x = solve_linear(singular, [Fraction(1), Fraction(3)])
    assert status == "inconsistent" and x is None


def test_solve_linear_exactness():
    # Hilbert-like systems go wrong in floats almost immediately.
    n = 5
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    m = RationalMatrix(rows)
    rhs = [Fraction(1)] * n
    status, x = solve_linear(m, rhs)
    assert status == "unique"
    assert matvec(m, x) == rhs


def test_row_sign_predicates():
    m = RationalMatrix([[0, -1, 0], [0, 0, 0], [1, 2, 0]])
    assert nonpositive_rows(m) == [0, 1]  # the zero row counts as nonpositive
    assert nonnegative_rows(m) == [2]  # the zero row does not count here


def test_triangularity_predicates():
    up = RationalMatrix([[1, 2], [0, 3]])
    assert is_upper_triangular(up) and not is_lower_triangular(up)
    assert is_lower_triangular(transpose(up))
    assert is_upper_triangular(identity(3))


def test_sign_predicates_read_the_scaled_rows_as_the_fractions_say():
    # Each predicate against its definition over the Fraction entries, on
    # sparse fractional matrices whose rows have different scales.
    rng = random.Random(21)
    for _ in range(400):
        n = rng.randint(1, 5)
        entries = [0, 0, 0, Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6)))]
        m = RationalMatrix([[rng.choice(entries) for _ in range(n)] for _ in range(n)])
        rows = m.rows
        assert nonpositive_rows(m) == [i for i, r in enumerate(rows) if all(v <= 0 for v in r)]
        assert nonnegative_rows(m) == [
            i for i, r in enumerate(rows) if all(v >= 0 for v in r) and any(r)
        ]
        assert is_upper_triangular(m) == all(rows[i][j] == 0 for i in range(n) for j in range(i))
        assert is_lower_triangular(m) == all(
            rows[i][j] == 0 for i in range(n) for j in range(i + 1, n)
        )


def test_integer_rows_share_one_scale():
    m = RationalMatrix([["1/2", "1/3"], ["2/5", 1]])
    assert m.integer_rows() == (30, ((15, 10), (12, 30)))
    assert m.integer_rows() is m.integer_rows()  # computed once
    # A submatrix keeps the parent's scale, even where its own entries
    # would need less.
    assert m.principal_submatrix([1]).integer_rows() == (30, ((30,),))
    assert m.principal_submatrix([0]).integer_rows() == (30, ((15,),))
    # It still equals, and hashes like, the matrix built from its entries.
    assert m.principal_submatrix([1]) == RationalMatrix([[1]])
    assert hash(m.principal_submatrix([0])) == hash(RationalMatrix([["1/2"]]))
    integer = RationalMatrix([[1, -2], [0, 3]])
    assert integer.integer_rows() == (1, ((1, -2), (0, 3)))
    # ppt and inverse write their images themselves: each is at the lcm
    # scale, gcd-reduced, as if built from its entries.
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        a = RationalMatrix(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        )
        j_set = rng.sample(range(1, n + 1), rng.randint(1, n))
        results = []
        for transform in (lambda: ppt(a, j_set), lambda: inverse(a)):
            try:
                results.append(transform())
            except SingularPivotError:
                pass
        for result in results:
            rebuilt = RationalMatrix(result.rows)
            assert result.integer_rows() == rebuilt.integer_rows()
            assert result == rebuilt and hash(result) == hash(rebuilt)
            checked += 1
    assert checked >= 114


def test_parse_vector_forms():
    assert parse_vector("-1, 2/3 4") == [Fraction(-1), Fraction(2, 3), Fraction(4)]
    with pytest.raises(MatrixFormatError):
        parse_vector("  ")


def test_submatrix_and_matvec():
    m = RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    sub = m.principal_submatrix([0, 2])
    assert sub == RationalMatrix([[1, 3], [7, 10]])
    assert sub.n == 2 and hash(sub) == hash(RationalMatrix([[1, 3], [7, 10]]))
    with pytest.raises(ValueError):
        m.principal_submatrix([])
    assert matvec(m, [1, 0, -1]) == [Fraction(-2), Fraction(-2), Fraction(-3)]
    with pytest.raises(ValueError):
        matvec(m, [1, 2])
