"""Pattern parsing, pseudo-random construction, rates and screening."""

from fractions import Fraction

import pytest

from turbobound.puncture import (Classification, PcccPunctureSet,
                                 PuncturingPattern, classify, code_rate,
                                 column_index, complement_row, extend_row,
                                 probe_length, pseudo_random_pattern,
                                 punctured_core_weights, row_from_string,
                                 row_to_string)
from turbobound.rsc import RscCode

CODE_15_17 = RscCode.from_octals("15", "17")
CODE_7_5 = RscCode.from_octals("7", "5")


def test_row_helpers():
    assert row_from_string("0111010") == (0, 1, 1, 1, 0, 1, 0)
    assert row_to_string((1, 0, 1)) == "101"
    assert complement_row((0, 1, 1)) == (1, 0, 0)
    assert extend_row((1, 0), 6) == (1, 0, 1, 0, 1, 0)
    for bad in ("", "012", "x"):
        with pytest.raises(ValueError):
            row_from_string(bad)
    with pytest.raises(ValueError):
        extend_row((1, 0), 5)
    with pytest.raises(ValueError):
        complement_row(())


def test_column_index():
    assert [column_index(i, 3) for i in range(7)] == [1, 2, 3, 1, 2, 3, 1]
    with pytest.raises(ValueError):
        column_index(-1, 3)
    with pytest.raises(ValueError):
        column_index(0, 0)


def test_puncturing_pattern():
    pat = PuncturingPattern((1, 0), (0, 1))
    assert pat.period == 2
    assert pat.element(1, 1) == 1
    assert pat.element(1, 2) == 0
    assert pat.element(2, 5) == 0  # wraps: column 5 -> column 1
    with pytest.raises(ValueError):
        PuncturingPattern((1, 0), (1,))
    with pytest.raises(ValueError):
        pat.element(3, 1)
    with pytest.raises(ValueError):
        pat.element(1, 0)


def test_puncture_set_constituents():
    pset = PcccPunctureSet((1, 0), (1, 1, 0), (0, 1))
    assert pset.period == 6
    c1 = pset.constituent1()
    assert c1.p_u == (1, 0, 1, 0, 1, 0)
    assert c1.p_z == (1, 1, 0, 1, 1, 0)
    c2 = pset.constituent2()
    assert c2.p_u == (0, 0)
    assert c2.p_z == (0, 1)


def test_code_rate():
    assert code_rate(PcccPunctureSet((1,), (1,), (1,))) == Fraction(1, 3)
    assert code_rate(PcccPunctureSet((1, 1), (1, 0), (0, 1))) == Fraction(1, 2)
    # mixed periods are compared over the common period
    assert code_rate(PcccPunctureSet((1,), (1, 0), (0,))) == Fraction(2, 3)
    with pytest.raises(ValueError, match="degenerate"):
        code_rate(PcccPunctureSet((0,), (0, 0), (0,)))


def test_punctured_core_weights_goldens():
    pz = row_from_string("0111010")
    assert punctured_core_weights(CODE_15_17, pz) == [4, 2, 2, 2, 2, 2, 2]
    assert punctured_core_weights(CODE_15_17, (1,)) == [4]
    assert punctured_core_weights(CODE_15_17, (1,) * 7) == [4] * 7
    assert punctured_core_weights(CODE_7_5, (0, 1, 1)) == [1, 2, 1]


def test_punctured_core_weights_shift_sum():
    # each parity one is counted once per row column, so the shifts sum
    # to (core weight) * (row weight)
    for row in [(1, 0, 1, 1), (0, 1, 1, 1, 0, 1, 0), (1, 1)]:
        total = sum(punctured_core_weights(CODE_15_17, row))
        assert total == 4 * sum(row)


def test_pseudo_random_pattern_15_17():
    a = pseudo_random_pattern(CODE_15_17, "A")
    assert a.sys == row_from_string("1000101")
    assert a.par1 == row_from_string("0111010")
    assert a.par2 == row_from_string("1111111")
    b = pseudo_random_pattern(CODE_15_17, "B")
    assert b.sys == row_from_string("1111101")
    assert b.par1 == row_from_string("0111010")
    assert b.par2 == row_from_string("0111010")


def test_pseudo_random_pattern_7_5():
    a = pseudo_random_pattern(CODE_7_5, "A")
    assert (a.sys, a.par1, a.par2) == ((1, 0, 0), (0, 1, 1), (1, 1, 1))
    b = pseudo_random_pattern(CODE_7_5, "B")
    assert (b.sys, b.par1, b.par2) == ((1, 1, 0), (0, 1, 1), (0, 1, 1))


def test_pseudo_random_keep_zero():
    b = pseudo_random_pattern(CODE_7_5, "B", keep_zero=2)
    assert b.sys == (1, 0, 1)
    with pytest.raises(ValueError, match=r"keep_zero must be one of \[2, 3\]"):
        pseudo_random_pattern(CODE_7_5, "B", keep_zero=1)


@pytest.mark.parametrize("fb,ff", [("7", "5"), ("15", "17"), ("23", "35")])
def test_pseudo_random_rate_half(fb, ff):
    code = RscCode.from_octals(fb, ff)
    for variant in "AB":
        assert code_rate(pseudo_random_pattern(code, variant)) == Fraction(1, 2)


def test_pseudo_random_rejects():
    with pytest.raises(ValueError, match="'A' or 'B'"):
        pseudo_random_pattern(CODE_15_17, "C")
    with pytest.raises(ValueError, match="not primitive"):
        pseudo_random_pattern(RscCode.from_octals("17", "15"), "A")


def test_probe_length():
    # span commensurate with the period: fixed floor of four periods
    assert probe_length(CODE_15_17, 7) == 29
    assert probe_length(CODE_15_17, 1) == 29
    assert probe_length(CODE_15_17, 2) == 29
    # longer column cycles extend the horizon
    assert probe_length(CODE_15_17, 8) == 64
    assert probe_length(CODE_7_5, 4) == 16
    # M > L + 1: the longest span of the cycle must fit at all M columns
    assert probe_length(RscCode.from_octals("5", "7"), 5) == 15


def test_classify_normal():
    a = pseudo_random_pattern(CODE_15_17, "A")
    c1 = a.constituent1()
    assert classify(CODE_15_17, c1.p_u, c1.p_z) is Classification.NORMAL
    assert classify(CODE_15_17, (1,), (1,)) is Classification.NORMAL


def test_classify_semi_catastrophic():
    # a single kept parity column leaves some shifted core weight at 0
    for shift in range(7):
        pz = tuple(1 if i == shift else 0 for i in range(7))
        got = classify(CODE_15_17, (1,), pz)
        assert got is Classification.SEMI_CATASTROPHIC
        assert str(got) == "SemiCatastrophic"


def test_classify_catastrophic():
    # the k=1 excursion touches columns {1,2,3,4,5,7} only, so keeping
    # parity column 6 alone and no systematic output hides a weight-2
    # event completely
    pz = (0, 0, 0, 0, 0, 1, 0)
    assert classify(CODE_15_17, (0,), pz) is Classification.CATASTROPHIC
    # transmitting the systematic stream rescues it
    assert classify(CODE_15_17, (1,), pz) is Classification.SEMI_CATASTROPHIC
