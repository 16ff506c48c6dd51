"""Closed-form weight-2 enumerators against hand counts and the oracles."""

import math
import re
import sys
import warnings
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import turbobound.rsc as rsc

from turbobound.cwef import (Cwef, _cwef_w2, cwef_w2_punctured, min_weights, path_weights,
                             weight2_heads, weight2_minima, weight2_total)
from turbobound.oracle import GRID_CODES, brute_force_cwef, exact_cwef_dp
from turbobound.pccc import (_marginal, _slot_width, _unpack, _weight2_marginals,
                             certified_horizon)
from turbobound.puncture import pseudo_random_pattern, row_from_string
from turbobound.rsc import RscCode, weight2_parity_response


# The unpunctured closed form and the path count of Benedetto & Montorsi,
# "Unveiling turbo codes", IEEE Trans. IT 1996: references for the
# punctured enumerator, which no command needs on its own.

def group_multiplicity(n: int, k: int, l_period: int, m_period: int, m: int) -> int:
    """Number of weight-2 paths of span k*l_period + 1 that start in
    pattern column m within a block of n steps."""
    if k < 1 or not 1 <= m <= m_period:
        raise ValueError("need k >= 1 and 1 <= m <= m_period")
    if n <= k * l_period:
        return 0
    q, r = divmod(n - k * l_period, m_period)
    return q + 1 if m <= r else q


def cwef_w2_unpunctured(code: RscCode, n: int) -> Cwef:
    """Weight-2 enumerator of the parent rate-1/2 code: one term per
    span, z(k) = k*z_core + 2 when G_F has full degree, with multiplicity
    n - kL; empty when no span fits."""
    y = weight2_parity_response(code)
    z_core, y_last = sum(y[:-1]), y[-1]
    terms: dict[tuple[int, int], int] = {}
    for k in range(1, (n - 1) // code.period + 1):
        # y_last corrects for feedforward polynomials of degree < nu
        z = k * z_core + 2 + (k - 2) * y_last
        terms[2, z] = terms.get((2, z), 0) + n - k * code.period
    return Cwef(2, n, terms)

CODE_15_17 = RscCode.from_octals("15", "17")
CODE_7_5 = RscCode.from_octals("7", "5")

PA = pseudo_random_pattern(CODE_15_17, "A")
PB = pseudo_random_pattern(CODE_15_17, "B")


def test_cwef_container():
    c = Cwef(2, 10, {(2, 4): 3, (1, 2): 1})
    assert c.total() == 4
    assert min_weights(c) == (3, 2)
    with pytest.raises(ValueError):
        min_weights(Cwef(2, 10, {}))


def test_group_multiplicity_goldens():
    # n=20, L=7, unpunctured columns M=7: spans 8 and 15 fit
    assert [group_multiplicity(20, 1, 7, 7, m) for m in range(1, 8)] \
        == [2, 2, 2, 2, 2, 2, 1]
    assert sum(group_multiplicity(20, 1, 7, 7, m) for m in range(1, 8)) == 13
    assert group_multiplicity(1000, 3, 7, 4, 2) == 245
    assert group_multiplicity(20, 2, 7, 7, 7) == 0
    assert group_multiplicity(14, 2, 7, 7, 1) == 0  # span does not fit


def test_group_multiplicity_rejects():
    with pytest.raises(ValueError):
        group_multiplicity(20, 0, 7, 7, 1)
    with pytest.raises(ValueError):
        group_multiplicity(20, 1, 7, 7, 0)
    with pytest.raises(ValueError):
        group_multiplicity(20, 1, 7, 7, 8)


def test_group_multiplicity_counts_positions():
    # against a literal scan of starting positions
    n, l_period, m_period = 53, 7, 4
    for k in (1, 2, 3):
        for m in range(1, m_period + 1):
            direct = sum(
                1 for start in range(n - k * l_period)
                if start % m_period == m - 1)
            assert group_multiplicity(n, k, l_period, m_period, m) == direct


def test_path_weights_pseudo_a():
    # k=1 path starting in column 1 keeps u=2 and parity columns 3,4
    assert path_weights(CODE_15_17, PA.sys, PA.par1, 1, 1) == (2, 2)
    assert path_weights(CODE_15_17, PA.sys, PA.par1, 1, 2) == (0, 4)
    # second constituent: systematic never transmitted
    assert path_weights(CODE_15_17, (0,) * 7, PA.par2, 1, 1) == (0, 6)


def test_path_weights_unpunctured_matches_formula():
    for k in (1, 2, 3, 4):
        u, z = path_weights(CODE_15_17, (1,), (1,), k, 3)
        assert (u, z) == (2, 4 * k + 2)


def test_path_weights_rejects():
    with pytest.raises(ValueError):
        path_weights(CODE_15_17, (1,), (1,), 0, 1)
    with pytest.raises(ValueError):
        path_weights(CODE_15_17, (1,), (1,), 1, 0)


def test_unpunctured_goldens():
    assert cwef_w2_unpunctured(CODE_15_17, 8).terms == {(2, 6): 1}
    assert cwef_w2_unpunctured(CODE_15_17, 20).terms == {(2, 6): 13, (2, 10): 6}
    assert cwef_w2_unpunctured(CODE_15_17, 22).terms \
        == {(2, 6): 15, (2, 10): 8, (2, 14): 1}


def test_unpunctured_short_block_warns():
    assert cwef_w2_unpunctured(CODE_15_17, 7).terms == {}
    with pytest.warns(UserWarning, match="no weight-2 path"):
        assert cwef_w2_punctured(CODE_15_17, (1,), (1,), 7).terms == {}


@pytest.mark.parametrize("n", [0, 1, 7])
def test_minima_and_heads_refuse_a_block_no_path_fits(n):
    # both read the weight-2 paths of min(probe length, n), and none fits
    # in n <= L: one message, and no empty-enumerator warning first
    message = re.escape(f"no weight-2 path fits in n={n} <= L=7")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            weight2_minima(CODE_15_17, (1, 0), (0, 1), n)
        with pytest.raises(ValueError, match=message):
            weight2_heads(CODE_15_17, (0, 1), 2, n)


def test_unpunctured_count_conservation():
    for n in (8, 30, 101):
        c = cwef_w2_unpunctured(CODE_15_17, n)
        assert c.total() == sum(n - 7 * k for k in range(1, (n - 1) // 7 + 1))


def test_unpunctured_low_degree_feedforward():
    # y_L = 1 here, so the spans do not simply stack the core weight:
    # z(k) = k*1 + 2 + (k-2)*1 = 2k
    code = RscCode.from_octals("17", "7")
    got = cwef_w2_unpunctured(code, 13).terms
    assert got == {(2, 2): 9, (2, 4): 5, (2, 6): 1}


@pytest.mark.parametrize("fb,ff,n", [
    ("15", "17", 36),
    ("17", "7", 23),   # feedforward degree < nu
    ("15", "5", 30),   # feedforward degree < nu
    ("17", "15", 21),  # non-primitive feedback
])
def test_unpunctured_matches_oracles(fb, ff, n):
    code = RscCode.from_octals(fb, ff)
    closed = cwef_w2_unpunctured(code, n)
    assert closed.terms == exact_cwef_dp(code, (1,), (1,), n, 2).for_weight(2).terms
    assert closed.terms == brute_force_cwef(code, (1,), (1,), n, 2).terms


def test_punctured_all_ones_equals_unpunctured():
    for code in (CODE_15_17, CODE_7_5, RscCode.from_octals("17", "15")):
        for n in (2 * code.period + 1, 40):
            a = cwef_w2_punctured(code, (1,) * code.period, (1,), n)
            b = cwef_w2_unpunctured(code, n)
            assert a.terms == b.terms


def test_punctured_pseudo_a_constituents():
    # first constituent at n=50: minimum transmitted weight 4
    a1 = cwef_w2_punctured(CODE_15_17, PA.sys, PA.par1, 50)
    assert min_weights(a1) == (4, 2)
    # second constituent keeps every parity bit: z = 4k + 2, k = 1..7
    a2 = cwef_w2_punctured(CODE_15_17, (0,) * 7, PA.par2, 50)
    assert min_weights(a2) == (6, 6)
    assert set(a2.terms) == {(0, 4 * k + 2) for k in range(1, 8)}


def test_punctured_pseudo_b_constituents():
    a2 = cwef_w2_punctured(CODE_15_17, (0,) * 7, PB.par2, 50)
    assert min_weights(a2) == (2, 2)


def test_punctured_count_conservation():
    for p_u, p_z in [(PA.sys, PA.par1), ((1, 0), (0, 1, 1)), ((1,), (1, 0, 0, 1))]:
        c = cwef_w2_punctured(CODE_15_17, p_u, p_z, 60)
        assert c.total() == sum(60 - 7 * k for k in range(1, 59 // 7 + 1))


@pytest.mark.parametrize("fb,ff,p_u,p_z,n", [
    ("15", "17", "1000101", "0111010", 50),
    ("15", "17", "1111101", "0111010", 46),
    ("17", "7", "10", "1101", 33),     # y_L = 1 under puncturing
    ("15", "5", "110", "0101", 41),    # y_L = 1, mixed periods
    ("17", "15", "0010", "1101", 37),  # non-primitive feedback
    ("7", "5", "110", "011", 29),
    # a column cycle that sends no parity: each progression from one
    # start column in three (7/5, 001), two in four (5/7, 1000) or every
    # one, L = 3 starts lost a cycle (7/5, 0), sums in one closed form
    ("7", "5", "1", "001", 300),
    ("5", "7", "1", "1000", 300),
    ("7", "5", "1", "0", 300),
])
def test_punctured_matches_oracles(fb, ff, p_u, p_z, n):
    code = RscCode.from_octals(fb, ff)
    pu = row_from_string(p_u)
    pz = row_from_string(p_z)
    closed = cwef_w2_punctured(code, pu, pz, n)
    assert closed.terms == exact_cwef_dp(code, pu, pz, n, 2).for_weight(2).terms
    assert closed.terms == brute_force_cwef(code, pu, pz, n, 2).terms


# the grid codes, codes whose y_L = 1, and 1+D, whose period L = 1
# leaves every core empty
REFERENCE_CODES = [RscCode.from_octals(*octals) for octals in (
    ("5", "7"), ("7", "5"), ("15", "17"), ("17", "15"), ("23", "35"),
    ("17", "7"), ("15", "5"), ("3", "1"))]
ROWS = st.integers(1, 8).flatmap(lambda m: st.tuples(*[st.integers(0, 1)] * m))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REFERENCE_CODES), ROWS, ROWS, st.integers(0, 600),
       st.one_of(st.just(math.inf), st.integers(1, 60)))
@example(CODE_7_5, (1, 0), (0, 1, 1), 21, math.inf)  # n = 25
# n = 200, h = 5: each column's walk stops at the horizon after one or
# two of its 12 spans while 28 fit in the block, so the paths a cycle
# on must still weigh h or more
@example(CODE_15_17, (1, 0, 1), (1, 1, 0, 1), 192, 5)
# a zero-step progression below and at the horizon
@example(CODE_7_5, (1,), (0, 0, 1), 200, 2)
def test_punctured_agrees_with_path_weights(code, pu, pz, extra, horizon):
    # every (k, m) group below the horizon lands on the term its path
    # weights predict, over blocks of up to several column cycles
    l_period, m_period = code.period, lcm(len(pu), len(pz))
    cycle = lcm(l_period, m_period) // l_period
    longest = min(600, 4 * cycle * l_period + m_period + l_period)
    n = l_period + 1 + extra % (longest - l_period)
    expected: dict[tuple[int, int], int] = {}
    for k in range(1, (n - 1) // l_period + 1):
        for m in range(1, m_period + 1):
            cnt = group_multiplicity(n, k, l_period, m_period, m)
            key = path_weights(code, pu, pz, k, m)
            if cnt and key[1] < horizon:
                expected[key] = expected.get(key, 0) + cnt
    assert cwef_w2_punctured(code, pu, pz, n, horizon).terms == expected


@st.composite
def marginal_cases(draw):
    """(code, p_u, p_z, n, h): rows of one period 1-12, as search makes
    them, or of two lengths whose lcm is the period; n from L + 1 to
    10^6; h a certified horizon, or inf where n is at most 3,000."""
    code = draw(st.sampled_from([RscCode.from_octals(*octals)
                                 for octals in (*GRID_CODES, ("133", "171"))]))
    m = draw(st.integers(1, 12))
    lengths = (m, m) if draw(st.booleans()) else (m, draw(st.integers(1, 12)))
    p_u, p_z = (draw(st.tuples(*[st.integers(0, 1)] * k)) for k in lengths)
    if draw(st.booleans()):
        n = draw(st.integers(code.period + 1, 3000))
        return code, p_u, p_z, n, math.inf
    n = draw(st.integers(code.period + 1, 10**6))
    total = weight2_total(code, n) ** 2
    h = certified_horizon(Fraction(1, 2), draw(st.floats(-2.0, 12.0)),
                          draw(st.integers(0, 40)), total)
    return code, p_u, p_z, n, h


@settings(max_examples=150, deadline=None)
@given(marginal_cases())
# the last n whose products fit 8-byte slots, and the first that takes
# wide byte slots (15/17: weight2_total(n)^2 passes 2^64 at 245,217)
@example((CODE_15_17, (1, 0, 1, 1), (0, 1, 1, 0), 245216, 60))
@example((CODE_15_17, (1, 0, 1, 1), (0, 1, 1, 0), 245217, 60))
def test_packed_marginals_equal_the_enumerators(case):
    # search's packed (sys, par1) marginal by u + z and par2 marginal by
    # z, read below h, against the enumerator that bound builds
    code, p_u, p_z, n, h = case
    width = _slot_width(weight2_total(code, n) ** 2)
    marginal = _weight2_marginals(code, n, width)
    for u_weight, rows in ((1, (p_u, p_z)), (0, ((0,) * len(p_z), p_z))):
        assert (dict(_unpack(marginal(*rows, h), h, width))
                == _marginal(_cwef_w2(code, *rows, n, h), u_weight, h))


def test_weight2_response_computed_once_per_code(monkeypatch):
    # the impulse response depends on the code alone, so one code object
    # walks the encoder for it once: L + 1 steps, however many enumerators
    calls = []
    real = rsc.step

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("turbobound") and getattr(module, "step", None) is real:
            monkeypatch.setattr(module, "step", counted)
    code = RscCode.from_octals("15", "17")
    rows = [(p_u, p_z) for p_u in ("1", "10", "0110") for p_z in ("1", "01", "1101")]
    for i in range(100):
        p_u, p_z = rows[i % len(rows)]
        cwef_w2_punctured(code, row_from_string(p_u), row_from_string(p_z),
                          30 + i)
    assert len(calls) <= code.period + 1
