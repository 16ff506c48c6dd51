"""The event-span certificate and the bound path's shortened trellis pass.

`constituent_cwefs` must give exactly the u + z marginal of what
`exact_cwef_dp` gives at the requested n, flag included, whether it
reads the counts off the closed forms, off a shorter folded pass, or
falls back to the folded pass at n.  At w_max = 3 the closed forms
take most constituents, so the tests of the trellis path run at
w_max = 4.  `event_span_bound` must bound the span of every weight-2
path the closed form knows, and its zero-weight cycle screen must agree
with walking every cycle.  It alone decides whether its walk starts: a
certificate over `DP_MEMORY_LIMIT`, or a weight-2 path that already
outlasts the walk's limit within d_max, returns before any array is
built.
"""

from itertools import product
from math import ceil, lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import turbobound.oracle as oracle
import turbobound.pccc as pccc
from turbobound.cwef import path_weights, weight2_span_minimum
from turbobound.gf2 import is_primitive
from turbobound.oracle import GRID_CODES, event_span_bound, exact_cwef_dp, span_step_cost
from turbobound.pccc import constituent_cwefs
from turbobound.puncture import pseudo_random_pattern
from turbobound.rsc import RscCode, step
from test_oracle_differential import codes, distance_counts, rows

CODE_15_17 = RscCode.from_octals("15", "17")


@st.composite
def constituents(draw):
    """A grid code with rows of period <= 4, or one constituent of its
    pseudo-random pattern A or B."""
    code = RscCode.from_octals(*draw(st.sampled_from(GRID_CODES)))
    if code.nu >= 2 and is_primitive(code.feedback) and draw(st.booleans()):
        pset = pseudo_random_pattern(code, draw(st.sampled_from("AB")))
        c = draw(st.sampled_from((pset.constituent1(), pset.constituent2())))
        return code, c.p_u, c.p_z
    return code, draw(rows(4)), draw(rows(4))


def budget(code, p_u, p_z, w_max, d_max):
    # a path makes at most w_max zero-input runs, and each lcm(L, M)
    # steps of a run close whole cycles, which weigh at least 1
    return w_max * ((d_max + 2) * lcm(code.period, len(p_u), len(p_z)) + 1)


def span(code, p_u, p_z, w_max, d_max):
    """event_span_bound within the budget every such event fits in."""
    return event_span_bound(code, p_u, p_z, w_max, d_max,
                            budget(code, p_u, p_z, w_max, d_max))


def assert_matches_dp(code, p_u, p_z, n, w_max, d_max):
    by_weight, truncated = constituent_cwefs(code, p_u, p_z, n, w_max, d_max)
    res = exact_cwef_dp(code, p_u, p_z, n, w_max, d_max)
    assert truncated == res.truncated
    for w in range(2, w_max + 1):
        assert by_weight[w] == distance_counts(res.for_weight(w)), w


@settings(max_examples=60, deadline=None)
@given(constituents(), st.integers(1, 3000), st.integers(2, 4),
       st.integers(8, 60))
# a parity row of zeros: a zero-weight cycle, so no span bound
@example((CODE_15_17, (1,), (0,)), 2500, 3, 40)
# S = 106: at w_max 4, n = 215 leaves no shorter pass, n = 260 one of
# 215 steps; at w_max 3 the closed forms take n = 130
@example((CODE_15_17, (1,), (1,)), 215, 4, 60)
@example((CODE_15_17, (1,), (1,)), 260, 4, 60)
@example((CODE_15_17, (1,), (1,)), 130, 3, 60)
def test_bound_path_matches_the_dp_at_n(case, n, w_max, d_max):
    assert_matches_dp(*case, n, w_max, d_max)


@st.composite
def long_row_constituents(draw):
    """A grid code with a row of period M in [20, 130] and a row whose
    period divides M, in either order."""
    code = RscCode.from_octals(*draw(st.sampled_from(GRID_CODES)))
    m_period = draw(st.integers(20, 130))
    short = draw(st.sampled_from([d for d in range(1, m_period + 1) if m_period % d == 0]))
    pair = [tuple(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
            for m in (m_period, short)]
    return (code, *(pair if draw(st.booleans()) else pair[::-1]))


@settings(max_examples=100, deadline=None)
@given(long_row_constituents(), st.integers(200, 3000), st.integers(3, 4),
       st.integers(30, 60))
# M = 130 on 16 states: the certificate holds 466 KB against the folded
# pass's 163 KB, and finds S = 166
@example((RscCode.from_octals("23", "35"), (1, 0) * 65, (1, 1, 0, 1, 1)), 3000, 4, 60)
def test_long_rows_match_the_folded_pass_at_n(case, n, w_max, d_max):
    by_weight, truncated = constituent_cwefs(*case, n, w_max, d_max)
    res = exact_cwef_dp(*case, n, w_max, d_max, folded=True)
    assert truncated == res.truncated
    for w in range(2, w_max + 1):
        assert by_weight[w] == res.by_weight[w], w


def pass_lengths(monkeypatch):
    lengths = []

    def recorded(code, p_u, p_z, n, *args, **kwargs):
        lengths.append(n)
        return exact_cwef_dp(code, p_u, p_z, n, *args, **kwargs)

    monkeypatch.setattr(pccc, "exact_cwef_dp", recorded)
    return lengths


@pytest.mark.parametrize("gr,gf,variant,w_max,base", [
    ("15", "17", "B", 4, 1500),   # M = 7, two events
    ("23", "35", "A", 4, 1000),   # M = 15, two events
])
def test_every_residue_of_n(monkeypatch, gr, gf, variant, w_max, base):
    code = RscCode.from_octals(gr, gf)
    c = pseudo_random_pattern(code, variant).constituent1()
    lengths = pass_lengths(monkeypatch)
    for n in range(base, base + c.period):
        assert_matches_dp(code, c.p_u, c.p_z, n, w_max, 40)
    # every residue took a short pass
    assert len(lengths) == c.period and max(lengths) < base


def test_unbounded_span_and_short_blocks_take_the_pass_at_n(monkeypatch):
    lengths = pass_lengths(monkeypatch)
    assert span(CODE_15_17, (1,), (0,), 4, 40) is None
    constituent_cwefs(CODE_15_17, (1,), (0,), 2500, 4, 40)
    assert span(CODE_15_17, (1,), (1,), 4, 60) == 106
    # two events: the pass of 2 * 106 + 3 = 215 steps pays once the
    # certificate's 106 steps, at their cost, and that pass fit below n
    first = 4 + ceil(106 * (2 + span_step_cost(CODE_15_17, 4, 60, 1)))
    for n in (215, first - 1, first, 2500):
        constituent_cwefs(CODE_15_17, (1,), (1,), n, 4, 60)
    assert lengths == [2500, 215, first - 1, 215, 215]


def refused(*args, **kwargs):
    raise AssertionError("refused call")


def span_calls(monkeypatch, walk=True):
    """Record the (limit, result) of every event_span_bound call that
    constituent_cwefs makes; with walk False, numpy refuses to build an
    array during the call, so a certificate that starts its walk fails."""
    calls = []

    def recorded(*args):
        with monkeypatch.context() as m:
            for name in () if walk else ("array", "empty", "full", "zeros"):
                m.setattr(np, name, refused)
            calls.append((args[-1], event_span_bound(*args)))
        return calls[-1][1]

    monkeypatch.setattr(pccc, "event_span_bound", recorded)
    return calls


def test_a_certificate_over_the_memory_limit_is_never_built(monkeypatch):
    # a degree-12 feedback behind pseudo A has M = 4095: the certificate's
    # 4 x 4096 x 4095 nodes would hold about 3.8 GB, over DP_MEMORY_LIMIT,
    # where the split pass at n holds 212 MiB.  At n = 20,000 its step
    # budget is positive, so the memory limit alone refuses it, before
    # the zero-weight cycle screen and the weight-2 witness
    code = RscCode.from_octals("10123", "1")
    c = pseudo_random_pattern(code, "A").constituent1()
    assert 4 * code.n_states * 4095 * oracle._SPAN_NODE_BYTES > oracle.DP_MEMORY_LIMIT
    monkeypatch.setattr(oracle, "_zero_weight_cycle", refused)
    monkeypatch.setattr(oracle, "weight2_span_minimum", refused)
    calls = span_calls(monkeypatch, walk=False)
    lengths = []

    def recorded(code, p_u, p_z, n, *args, **kwargs):
        lengths.append(n)
        return oracle.DpResult({}, False, 0)

    monkeypatch.setattr(pccc, "exact_cwef_dp", recorded)
    constituent_cwefs(code, c.p_u, c.p_z, 20_000, 4, 120)
    [(limit, result)] = calls
    assert limit >= 1 and result is None
    assert lengths == [20_000]


def test_a_64_state_certificate_shortens_the_pass(monkeypatch):
    # 133/171 pseudo A, M = 63: the certificate's 16,128 nodes hold
    # 882 KiB, more than the folded pass's 635 KiB at d_max 60 but far
    # below DP_MEMORY_LIMIT, so it walks, finds S = 292, and the pass
    # stops short of n; counts and flag are those of the pass at n
    code = RscCode.from_octals("133", "171")
    c = pseudo_random_pattern(code, "A").constituent1()
    calls = span_calls(monkeypatch)
    lengths = pass_lengths(monkeypatch)
    by_weight, truncated = constituent_cwefs(code, c.p_u, c.p_z, 3000, 4, 60)
    res = exact_cwef_dp(code, c.p_u, c.p_z, 3000, 4, 60, folded=True)
    assert [span for _, span in calls] == [292]
    assert len(lengths) == 1 and lengths[0] <= 2 * 292 + 4 * 63
    assert (by_weight, truncated) == (res.by_weight, res.truncated)


def test_span_bound_stops_at_its_limit():
    # S = 106 here: a smaller limit gives up, a larger one changes nothing
    assert event_span_bound(CODE_15_17, (1,), (1,), 3, 60, limit=105) is None
    assert event_span_bound(CODE_15_17, (1,), (1,), 3, 60, limit=106) == 106


@pytest.mark.parametrize("octals", GRID_CODES, ids="/".join)
def test_span_bound_covers_every_weight2_path(octals):
    # a weight-2 path of span kL + 1 whose u + z fits under d_max must
    # fit under S too; past S // L + 2 column cycles every path ends
    # where a shorter one ends, heavier by a whole cycle
    code = RscCode.from_octals(*octals)
    all_rows = [r for m in (1, 2, 3) for r in product((0, 1), repeat=m)]
    for p_u, p_z, d_max in product(all_rows, all_rows, (8, 30)):
        s = span(code, p_u, p_z, 2, d_max)
        if s is None:
            continue
        m_period = lcm(len(p_u), len(p_z))
        cycle = lcm(code.period, m_period) // code.period
        for k in range(1, s // code.period + 2 * cycle + 1):
            for m in range(1, m_period + 1):
                u, z = path_weights(code, p_u, p_z, k, m)
                if u + z <= d_max:
                    assert k * code.period + 1 <= s, (p_u, p_z, d_max, k, m)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GRID_CODES), rows(4), rows(4), st.integers(1, 3),
       st.integers(2, 40))
def test_span_bound_is_the_least_limit_that_finds_it(octals, p_u, p_z, w_max, d_max):
    # an event's first step weighs at most 2 <= d_max, so S >= 2 and
    # S - 1 is a limit too
    code = RscCode.from_octals(*octals)
    s = span(code, p_u, p_z, w_max, d_max)
    assume(s is not None)
    assert event_span_bound(code, p_u, p_z, w_max, d_max, s) == s
    assert event_span_bound(code, p_u, p_z, w_max, d_max, s - 1) is None


def walked_zero_weight_cycle(code, p_z):
    # follow zero input from every (state != 0, column) for one full
    # period of both, which closes the cycle through it
    steps = lcm(code.period, len(p_z))
    for s0, c0 in product(range(1, code.n_states), range(len(p_z))):
        s, weight = s0, 0
        for t in range(steps):
            s, _, parity = step(code, s, 0)
            weight += parity & p_z[(c0 + t) % len(p_z)]
        if weight == 0:
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(codes(), rows(8))
def test_zero_weight_cycle_screen_matches_walking_every_cycle(code, p_z):
    assert oracle._zero_weight_cycle(code, p_z) == walked_zero_weight_cycle(code, p_z)


@settings(max_examples=200, deadline=None)
@given(codes(), rows(6), rows(6), st.integers(1, 80))
def test_span_minimum_is_the_least_path_weight(code, p_u, p_z, k):
    m_period = lcm(len(p_u), len(p_z))
    assert weight2_span_minimum(code, p_u, p_z, k) == min(
        sum(path_weights(code, p_u, p_z, k, m)) for m in range(1, m_period + 1))


@settings(max_examples=100, deadline=None)
@given(constituents(), st.integers(2, 4), st.integers(8, 60), st.integers(1, 400))
def test_a_weight2_path_past_the_limit_leaves_the_walk_nothing(case, w_max, d_max,
                                                              limit):
    # with the witness blinded, the walk itself must give up: skipping
    # it loses no span the budget could have found
    code, p_u, p_z = case
    k = ceil(limit / code.period)
    if weight2_span_minimum(code, p_u, p_z, k) <= d_max:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(oracle, "weight2_span_minimum", lambda *args: d_max + 1)
            assert event_span_bound(code, p_u, p_z, w_max, d_max, limit) is None


def test_a_weight2_witness_skips_the_walk(monkeypatch):
    # 23/35 with p_z = 110000 at w_max 4 and d_max 120: S = 940, but at
    # n = 1000 the walk's limit is under 500 steps, and a weight-2 path
    # of span kL + 1 past it weighs at most d_max, so event_span_bound
    # gives up before its walk, which would give up there too
    code, p_u, p_z = RscCode.from_octals("23", "35"), (0,) * 6, (1, 1, 0, 0, 0, 0)
    assert span(code, p_u, p_z, 4, 120) == 940
    calls = span_calls(monkeypatch, walk=False)
    lengths = pass_lengths(monkeypatch)
    assert_matches_dp(code, p_u, p_z, 1000, 4, 120)
    [(limit, result)] = calls
    assert 1 <= limit < 500 and result is None
    assert weight2_span_minimum(code, p_u, p_z, ceil(limit / code.period)) <= 120
    assert lengths == [1000]
