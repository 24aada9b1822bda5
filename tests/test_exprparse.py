import random

import pytest

from logff.exprparse import ParseError, parse_expr
from logff.fixtures import random_elem
from logff.logring import RingElem, RingSpec


SPEC = RingSpec(5, 2, 2, 1)


def test_basic_forms():
    t1 = RingElem.variable(SPEC, 1)
    t2 = RingElem.variable(SPEC, 2)
    assert parse_expr("T1", SPEC) == t1
    assert parse_expr("3*T1^2*T2", SPEC) == RingElem.monomial(SPEC, (2, 1), 3)
    assert parse_expr("7", SPEC) == RingElem.const(SPEC, 7)
    assert parse_expr("0", SPEC).is_zero()
    assert parse_expr("T1 + T2 - 1", SPEC) == t1 + t2 - RingElem.one(SPEC)
    assert parse_expr("T2^-2", SPEC) == RingElem.variable(SPEC, 2, -2)
    assert parse_expr("-T1 + 2", SPEC) == RingElem.const(SPEC, 2) - t1
    assert parse_expr("T1*T1", SPEC) == RingElem.variable(SPEC, 1, 2)


def test_coefficients_reduced_mod_q():
    assert parse_expr("26", SPEC) == RingElem.one(SPEC)
    assert parse_expr("25*T1", SPEC).is_zero()


@pytest.mark.parametrize("text", ["0", "1", "007", "24", "25", "26", "123456789012345678901"])
def test_bare_integer_agrees_with_the_grammar(text):
    # a bare integer takes a short path; padded it goes through the tokenizer
    assert parse_expr(text, SPEC).terms == parse_expr(f" {text} ", SPEC).terms
    assert parse_expr(text, SPEC).terms == RingElem.const(SPEC, int(text)).terms


@pytest.mark.parametrize("text,col", [("²", 1), ("T1^²", 4), ("٣", 1), ("1٣", 2), ("T١", 2)])
def test_only_ascii_digits(text, col):
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_expr(text, SPEC)
    assert err.value.col == col


def test_whitespace_ignored():
    assert parse_expr("  3 * T1 ^ 2\n+ 1 ", SPEC) == \
        RingElem.monomial(SPEC, (2, 0), 3) + RingElem.one(SPEC)


def test_rejects_negative_divisor_exponent():
    with pytest.raises(ParseError):
        parse_expr("T1^-1", SPEC)
    # fine on the Laurent slot
    parse_expr("T2^-1", SPEC)


def test_rejects_out_of_range_index():
    with pytest.raises(ParseError):
        parse_expr("T3", SPEC)
    with pytest.raises(ParseError):
        parse_expr("T0", SPEC)


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("T1 + $", SPEC)
    assert err.value.col == 6
    with pytest.raises(ParseError) as err:
        parse_expr("T1 *", SPEC)
    assert "end of input" in str(err.value)
    with pytest.raises(ParseError):
        parse_expr("2*3", SPEC)  # integer is not a factor
    with pytest.raises(ParseError):
        parse_expr("T1 T2", SPEC)  # missing operator


def test_round_trip_on_random_elements():
    rng = random.Random(99)
    for _ in range(200):
        r = random_elem(rng, SPEC, max_terms=5)
        assert parse_expr(str(r), SPEC) == r


def test_round_trip_other_specs():
    rng = random.Random(100)
    for spec in [RingSpec(3, 1, 1, 0), RingSpec(3, 3, 2, 2), RingSpec(7, 1, 3, 1)]:
        for _ in range(50):
            r = random_elem(rng, spec)
            assert parse_expr(str(r), spec) == r


def test_fuzz_never_crashes():
    # arbitrary input either parses or raises ParseError with a position
    from hypothesis import given, settings, strategies as st

    @given(st.text(alphabet="T123^*+- ()x\n", max_size=30))
    @settings(max_examples=300)
    def fuzz(text):
        try:
            parse_expr(text, SPEC)
        except ParseError as exc:
            assert exc.line >= 1 and exc.col >= 1

    fuzz()
