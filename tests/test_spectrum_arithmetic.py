"""Randomized differential tests of the spectrum arithmetic.

The uniform-interleaver combine convolves integer count vectors in one
big-int product, the distance spectrum sums integer counts, and the
union sum divides ints and stops at the first Q that is exactly 0.0.
Every count is over the one denominator C(n, w).  Each is checked here,
through Fraction(count, C(n, w)), against the plain Fraction arithmetic
it replaced.  The one-product distance spectrum is checked against the
combine followed by the spectrum sum.
"""

import math
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from turbobound.cwef import Cwef
from turbobound.pccc import (IowefSlice, combine_uniform_interleaver,
                             distance_spectrum, iowef_slice, q_function,
                             union_bound_term)

N = 400


def nested_loop_combine(a1, a2, n, w):
    # every (u1, z1) term against every projected z2, one Fraction each
    z_marginal = {}
    for (_, z2), c in a2.terms.items():
        z_marginal[z2] = z_marginal.get(z2, 0) + c
    raw = {}
    for (u1, z1), c1 in a1.terms.items():
        for z2, c2 in z_marginal.items():
            key = (u1, z1 + z2)
            raw[key] = raw.get(key, 0) + c1 * c2
    denom = comb(n, w)
    return {key: Fraction(raw[key], denom) for key in sorted(raw)}


def fraction_sum_slice(terms):
    coeffs = {}
    for (u, z), c in terms.items():
        coeffs[u + z] = coeffs.get(u + z, Fraction(0)) + c
    return {d: coeffs[d] for d in sorted(coeffs)}


def as_fractions(counts, n, w):
    return {key: Fraction(c, comb(n, w)) for key, c in counts.items()}


def fraction_union_sum(b, n, rate, ebn0_db):
    scale = 2.0 * float(rate) * 10.0 ** (ebn0_db / 10.0)
    return math.fsum(
        float(Fraction(b.w, n) * Fraction(c, comb(n, b.w)))
        * q_function(math.sqrt(scale * d))
        for d, c in sorted(b.coeffs.items()))


# counts are positive, as every producer stores them (absent keys are
# zero); the top of the range is far above 2**64
counts = st.integers(1, 2**90)


@st.composite
def cwef_pairs(draw):
    w = draw(st.sampled_from((2, 3)))
    # a small z range gives dense vectors, a large one gaps between terms
    z_max = draw(st.sampled_from((3, 40, 2000)))

    def enumerator():
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, w), st.integers(0, z_max)), counts,
            max_size=25))
        return Cwef(w, N, terms)

    return enumerator(), enumerator()


@settings(max_examples=300, deadline=None)
@given(cwef_pairs())
@example((Cwef(2, N, {}), Cwef(2, N, {(0, 4): 3})))
@example((Cwef(2, N, {(2, 3): 4}), Cwef(2, N, {})))
@example((Cwef(3, N, {(3, 7): 2**64 + 1}), Cwef(3, N, {(1, 5): 2**64 - 1})))
@example((Cwef(2, N, {(2, 0): 2**80, (2, 1000): 2**80}),
          Cwef(2, N, {(0, 0): 2**80, (2, 0): 2**80, (1, 999): 1})))
# 300 overlapping products of the largest count fill a slot past 2**136
@example((Cwef(2, N, {(2, z): 2**64 - 1 for z in range(300)}),
          Cwef(2, N, {(0, z): 2**64 - 1 for z in range(300)})))
def test_combine_matches_nested_loop(pair):
    a1, a2 = pair
    got = combine_uniform_interleaver(a1, a2, N, a1.w)
    want = nested_loop_combine(a1, a2, N, a1.w)
    assert as_fractions(got.terms, N, a1.w) == want
    assert list(got.terms) == list(want)   # same (u, z) order
    assert all(isinstance(c, int) for c in got.terms.values())


@settings(max_examples=300, deadline=None)
@given(cwef_pairs())
@example((Cwef(2, N, {}), Cwef(2, N, {})))
@example((Cwef(3, N, {}), Cwef(3, N, {(1, 5): 2})))
@example((Cwef(2, N, {(2, 3): 4}), Cwef(2, N, {})))
@example((Cwef(2, N, {(0, 0): 1}), Cwef(2, N, {(0, 0): 1})))
@example((Cwef(3, N, {(3, 7): 2**90}), Cwef(3, N, {(2, 9): 2**90})))
# many (u, z) terms land on one distance, so the projected counts pass 2**90
@example((Cwef(2, N, {(u, 50 - u): 2**90 for u in range(3)}),
          Cwef(2, N, {(u, 7): 2**90 for u in range(3)})))
# 300 overlapping products of the largest count fill a slot past 2**136
@example((Cwef(2, N, {(2, z): 2**64 - 1 for z in range(300)}),
          Cwef(2, N, {(0, z): 2**64 - 1 for z in range(300)})))
def test_distance_spectrum_matches_combine_then_slice(pair):
    a1, a2 = pair
    got = distance_spectrum(a1, a2)
    want = iowef_slice(combine_uniform_interleaver(a1, a2, N, a1.w))
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)   # ascending distance
    # and against the Fraction arithmetic, which shares no product code
    want = fraction_sum_slice(nested_loop_combine(a1, a2, N, a1.w))
    assert as_fractions(got.coeffs, N, a1.w) == want
    assert all(isinstance(c, int) for c in got.coeffs.values())


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 60)),
                       st.integers(1, 2**70), max_size=40))
def test_iowef_slice_matches_fraction_sum(terms):
    sl = iowef_slice(Cwef(2, N, terms))
    want = fraction_sum_slice(as_fractions(terms, N, 2))
    assert as_fractions(sl.coeffs, N, 2) == want
    assert list(sl.coeffs) == list(want)
    assert all(isinstance(c, int) for c in sl.coeffs.values())


@settings(max_examples=300, deadline=None)
@given(w=st.sampled_from((2, 3, 4, 5, 6)),
       coeffs=st.dictionaries(st.integers(0, 3000), st.integers(0, 2**140),
                              max_size=60),
       n=st.integers(1, 10**6),
       rate=st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                             Fraction(3, 4), Fraction(7, 8))),
       ebn0_db=st.floats(-3.0, 25.0))
# n * C(n, 6) passes 2**130, far beyond what a float holds exactly
@example(w=6, coeffs={d: 2**140 - d for d in range(20, 40)}, n=10**6,
         rate=Fraction(1, 2), ebn0_db=2.0)
def test_union_bound_term_matches_fraction_sum(w, coeffs, n, rate, ebn0_db):
    assume(n >= w)   # no weight-w input fits in a shorter block
    b = IowefSlice(w, coeffs)
    assert (union_bound_term(b, n, rate, ebn0_db)
            == fraction_union_sum(b, n, rate, ebn0_db))


def test_union_bound_term_past_underflow():
    # rate 1/2 at 20 dB: Q(sqrt(100 d)) is about 1e-306 at d = 14 and
    # exactly 0.0 from d = 15 on, where the sum stops
    assert 0.0 < q_function(math.sqrt(100.0 * 14)) < 1e-300
    assert q_function(math.sqrt(100.0 * 15)) == 0.0
    b = IowefSlice(2, {d: d * 10**9 for d in range(14, 400)})
    got = union_bound_term(b, 1000, Fraction(1, 2), 20.0)
    assert got > 0.0
    assert got == fraction_union_sum(b, 1000, Fraction(1, 2), 20.0)


def test_q_function_reaches_zero_monotonically():
    # the early stop rests on Q never increasing and reaching exactly 0.0
    xs = [30.0 + i * 1e-4 for i in range(100_001)]
    qs = [q_function(x) for x in xs]
    assert all(a >= b for a, b in zip(qs, qs[1:]))
    assert qs[0] > 0.0 and qs[-1] == 0.0


def test_distance_spectrum_rejects_mismatched_pair():
    a1 = Cwef(2, 10, {(2, 3): 1})
    with pytest.raises(ValueError, match="weight mismatch"):
        distance_spectrum(a1, Cwef(3, 10, {}))
    with pytest.raises(ValueError, match="length mismatch"):
        distance_spectrum(a1, Cwef(2, 12, {}))
