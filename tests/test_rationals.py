import copy
import pickle
import sys
from fractions import Fraction

import pytest

from nasharc import INF, BlowupCluster, ValidationError, format_rational, parse_rational, parse_tangent
from nasharc.rationals import exact_rational, is_exact_int


class Count(int):
    pass


def test_an_exact_integer_is_an_int_but_not_a_bool():
    assert [is_exact_int(v) for v in (0, -7, 10**40, Count(3))] == [True] * 4
    assert [is_exact_int(v) for v in (True, False, 1.0, Fraction(1), "1", None)] == [False] * 6


def test_exact_rational_makes_plain_ints_and_canonical_fractions():
    assert type(exact_rational(Count(3), "counts")) is int
    assert type(exact_rational(Fraction(4, 2), "counts")) is int
    assert exact_rational(Fraction(-3, 6), "counts") == Fraction(-1, 2)
    for bad in (True, 0.5, "1", None, complex(1, 0)):
        with pytest.raises(ValidationError, match=r"^counts must be exact rationals, got "):
            exact_rational(bad, "counts")


def test_parse_rational_refuses_bools_and_floats():
    assert parse_rational(Count(2)) == 2 and parse_rational(" 3/6 ") == Fraction(1, 2)
    for bad in (True, 1.0):
        with pytest.raises(ValidationError, match=r"^expected a rational number, got "):
            parse_rational(bad)


def test_parse_rational_takes_what_exact_rational_takes():
    for value in (Fraction(1, 2), Fraction(4, 2), Count(3), -7):
        assert parse_rational(value) == exact_rational(value, "rationals")
        assert parse_tangent(value) == value
    assert type(parse_rational(Fraction(4, 2))) is Fraction


@pytest.mark.parametrize("text", ["1e400000", "-2.5E+400000", "1e-4300", "1e" + "9" * 40, "int", "fraction"])
def test_parse_rational_refuses_values_past_the_digit_limit(text):
    limit = sys.get_int_max_str_digits()
    value = {"int": 10**limit, "fraction": Fraction(3, 10**limit)}.get(text, text)
    with pytest.raises(ValidationError, match=f"^rational number past the {limit}-digit limit"):
        parse_rational(value)


def test_parse_rational_refuses_literals_past_the_digit_limit():
    # the interpreter's own conversion refuses them, and its message names the limit
    limit = sys.get_int_max_str_digits()
    for text in ("7/1" + "0" * limit, "1" * (limit + 1)):
        with pytest.raises(ValidationError, match=rf"Exceeds the limit \({limit} digits\)"):
            parse_rational(text)


def test_values_up_to_the_digit_limit_parse():
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(f"0.5e{limit}") == 5 * 10 ** (limit - 1)
    assert parse_rational(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    assert parse_rational(10**limit - 1) == 10**limit - 1


def test_a_result_past_the_digit_limit_is_refused_when_written():
    with pytest.raises(ValidationError, match="^result past the .*-digit limit"):
        format_rational(Fraction(1, 10 ** sys.get_int_max_str_digits()))


def test_inf_reads_inf():
    assert (repr(INF), str(INF), f"{INF}", "%s" % INF) == ("inf",) * 4
    assert parse_tangent(" Infinity ") is INF and parse_tangent(INF) is INF


def test_inf_keeps_its_identity_through_pickle_and_deepcopy():
    assert pickle.loads(pickle.dumps(INF)) is INF
    cluster = BlowupCluster.from_specs([(None,), (0, None, INF), (1, None, Fraction(1, 2))])
    for twin in (copy.deepcopy(cluster), pickle.loads(pickle.dumps(cluster))):
        assert twin.points[1].tangent is INF and twin == cluster


def test_inf_is_a_set_member_and_dict_key_beside_fractions():
    tangents = {INF, Fraction(0), 1, Fraction(1, 2), INF}
    assert len(tangents) == 4 and INF in tangents
    table = {INF: "vertical", Fraction(0): "horizontal", 1: "diagonal"}
    assert table[INF] == "vertical" and table[Fraction(1)] == "diagonal"
    assert INF == INF and INF != "inf" and INF != Fraction(0)
