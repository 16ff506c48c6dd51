"""Randomized differential tests of the enumerators beyond the fixed grid.

The closed form, the trellis DP and exhaustive enumeration must agree on
random codes and puncturing rows.  The exhaustive oracle builds each
codeword by superposing shifted impulse responses, so it is also checked
against plain encoding of every input, which does not lean on linearity.
The DP, which shifts flat numpy rows, is checked against a plain dict
pass over the same trellis, truncation flag and path total included,
and its folded layout, which counts d = u + z alone, against its split
(w, u, d) layout.
"""

from itertools import combinations
from math import lcm

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from turbobound.cwef import (cwef_w2_punctured, min_weights, path_weights, weight2_heads,
                             weight2_least, weight2_minima)
from turbobound.gf2 import BinaryPolynomial
from turbobound.oracle import GRID_CODES, brute_force_cwef, exact_cwef_dp
from turbobound.puncture import Classification, classify, extend_row, probe_length
from turbobound.rsc import RscCode, step


@st.composite
def codes(draw, nu_max=4):
    # both generators keep their constant term; the feedback one sets
    # the memory nu and the feedforward one may have lower degree
    nu = draw(st.integers(1, nu_max))
    feedback = 1 | 1 << nu | draw(st.integers(0, (1 << (nu - 1)) - 1)) << 1
    feedforward = 1 | draw(st.integers(0, (1 << nu) - 1)) << 1
    assume(feedforward != feedback)
    return RscCode(BinaryPolynomial(feedback), BinaryPolynomial(feedforward))


def rows(max_period):
    return st.integers(1, max_period).flatmap(
        lambda m: st.tuples(*[st.integers(0, 1)] * m))


@st.composite
def punctured_codes(draw, max_period=8):
    """A code and a row pair of period <= max_period that is not
    catastrophic, screened the way the verification grid screens them."""
    code = draw(codes())
    p_u, p_z = draw(rows(max_period)), draw(rows(max_period))
    assume(classify(code, p_u, p_z) is not Classification.CATASTROPHIC)
    return code, p_u, p_z


@settings(max_examples=150, deadline=None)
@given(punctured_codes(), st.integers(1, 120))
def test_closed_form_dp_and_brute_force_agree_w2(case, n):
    code, p_u, p_z = case
    assume(n > code.period)
    closed = cwef_w2_punctured(code, p_u, p_z, n).terms
    assert exact_cwef_dp(code, p_u, p_z, n, w_max=2).for_weight(2).terms == closed
    assert brute_force_cwef(code, p_u, p_z, n, 2).terms == closed


@settings(max_examples=60, deadline=None)
@given(punctured_codes(), st.integers(1, 40))
def test_dp_and_brute_force_agree_w3(case, n):
    code, p_u, p_z = case
    assert brute_force_cwef(code, p_u, p_z, n, 3).terms \
        == exact_cwef_dp(code, p_u, p_z, n, w_max=3).for_weight(3).terms


@st.composite
def row_pairs(draw, max_period=12):
    """Two rows whose common period, the lcm of their lengths, is at
    most max_period."""
    m = draw(st.integers(1, max_period))
    lengths = st.sampled_from([d for d in range(1, m + 1) if m % d == 0])
    row = lengths.flatmap(lambda a: st.tuples(*[st.integers(0, 1)] * a))
    return draw(row), draw(row)


@settings(max_examples=300, deadline=None)
@given(codes(), row_pairs(), st.integers(0, 10**6))
# 5/7 (L = 2) at M = 5: the zero-weight span k = 5 starts in column 5
@example(RscCode.from_octals("5", "7"), ((1, 1, 1, 0, 1), (0, 0, 0, 0, 0)), 0)
def test_probe_length_minima_match_every_path(code, pair, cut):
    # the enumerator at probe_length sees the smallest weights of every
    # span up to one column cycle at every start column
    p_u, p_z = pair
    m_period = lcm(len(p_u), len(p_z))
    cycle = lcm(code.period, m_period) // code.period
    paths = {(k, m0): path_weights(code, p_u, p_z, k, m0 + 1)
             for k in range(1, cycle + 1) for m0 in range(m_period)}
    weights = paths.values()
    probe = cwef_w2_punctured(code, p_u, p_z, probe_length(code, m_period))
    assert min_weights(probe) == (min(u + z for u, z in weights),
                                  min(z for _, z in weights))
    # the running minimum over the span walk reads the same paths, at
    # the probe length and at a shorter block where some do not fit
    assert weight2_minima(code, p_u, p_z) == min_weights(probe)
    short = code.period + 1 + cut % (probe_length(code, m_period) - code.period)
    assert weight2_minima(code, p_u, p_z, short) \
        == min_weights(cwef_w2_punctured(code, p_u, p_z, short))
    # every path above fits in the probe length, and the heads are those
    # of z < L + 3, each with the z that path_weights gives it and the
    # remerge column whose systematic bit path_weights counts
    pu = extend_row(p_u, m_period)
    remerge = {(k, m0): (m0 + k * code.period) % m_period for k, m0 in paths}
    assert all(u == pu[m0] + pu[remerge[k, m0]] for (k, m0), (u, _) in paths.items())
    heads = weight2_heads(code, p_z, m_period)
    assert sorted(heads) == sorted((z, m0, remerge[k, m0]) for (k, m0), (_, z)
                                   in paths.items() if z < code.period + 3)
    # the search screen, one scan of the heads sorted by z per p_u
    for n, want in ((None, probe), (short, cwef_w2_punctured(code, p_u, p_z, short))):
        heads = weight2_heads(code, p_z, m_period, n)
        assert [z for z, _, _ in heads] == sorted(z for z, _, _ in heads)
        assert (weight2_least(heads, pu), heads[0][0]) == min_weights(want)


def encoded_tally(code, p_u, p_z, n, w):
    # one full encoder run per input, with no appeal to linearity
    terms = {}
    for ones in combinations(range(n), w):
        state = u = z = 0
        for i in range(n):
            state, s, p = step(code, state, int(i in ones))
            u += s & p_u[i % len(p_u)]
            z += p & p_z[i % len(p_z)]
        if not state:
            terms[u, z] = terms.get((u, z), 0) + 1
    return terms


@settings(max_examples=60, deadline=None)
@given(codes(), rows(8), rows(8), st.sampled_from((1, 2, 3, 4)).flatmap(
    lambda w: st.tuples(st.integers(1, 16 if w == 4 else 24), st.just(w))))
def test_superposition_matches_direct_encoding(code, p_u, p_z, size):
    n, w = size
    assert brute_force_cwef(code, p_u, p_z, n, w).terms \
        == encoded_tally(code, p_u, p_z, n, w)


def reference_dp(code, p_u, p_z, n, w_max, d_cap):
    # one dict entry per (state, w, u, d); a step of a path of weight
    # <= w_max that would lift d past the cap marks the pass truncated
    cur, truncated = {(0, 0, 0, 0): 1}, False
    for i in range(n):
        new = {}
        for (s, w, u, d), count in cur.items():
            for b in (0, 1):
                t, _, parity = step(code, s, b)
                du = b & p_u[i % len(p_u)]
                dd = du + (parity & p_z[i % len(p_z)])
                if w + b > w_max:
                    continue
                if d + dd > d_cap:
                    truncated = True
                else:
                    key = (t, w + b, u + du, d + dd)
                    new[key] = new.get(key, 0) + count
        cur = new
    by_weight = {}
    for (s, w, u, d), count in cur.items():
        if s == 0:
            by_weight.setdefault(w, {})[u, d - u] = count
    return by_weight, truncated, sum(cur.values())


@settings(max_examples=150, deadline=None)
@given(codes(), rows(8), rows(8), st.integers(1, 60), st.integers(1, 4),
       st.one_of(st.none(), st.integers(1, 40)))
def test_dp_matches_dict_trellis(code, p_u, p_z, n, w_max, d_max):
    res = exact_cwef_dp(code, p_u, p_z, n, w_max, d_max)
    by_weight, truncated, total = reference_dp(
        code, p_u, p_z, n, w_max, n + w_max if d_max is None else d_max)
    # the pass leaves out w = 0, whose only input is the all-zero one
    assert by_weight.pop(0) == {(0, 0): 1}
    assert {w: c.terms for w, c in res.by_weight.items() if c.terms} == by_weight
    assert (res.truncated, res.total_paths) == (truncated, total)


def distance_counts(cwef):
    """The u + z marginal of an enumerator: {d: count}."""
    out = {}
    for (u, z), count in cwef.terms.items():
        out[u + z] = out.get(u + z, 0) + count
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GRID_CODES), rows(8), rows(8), st.integers(1, 200),
       st.integers(1, 4), st.one_of(st.none(), st.integers(1, 60)), st.data())
def test_folded_pass_is_the_split_pass_summed_over_u(octals, p_u, p_z, n, w_max, d_max,
                                                    data):
    code = RscCode.from_octals(*octals)
    keep = data.draw(st.sets(st.integers(1, n), max_size=3))
    split = exact_cwef_dp(code, p_u, p_z, n, w_max, d_max, keep=keep)
    folded = exact_cwef_dp(code, p_u, p_z, n, w_max, d_max, keep=keep, folded=True)
    assert folded.by_weight == {w: distance_counts(c) for w, c in split.by_weight.items()}
    assert (folded.truncated, folded.total_paths) == (split.truncated, split.total_paths)
    assert folded.kept.keys() == split.kept.keys() == keep
    for i, cells in split.kept.items():
        assert np.array_equal(folded.kept[i], cells.sum(axis=1, keepdims=True)), i
