"""The weight-3 closed form against the trellis and brute force.

cwef_w3_punctured must equal the weight-3 enumerator of the split
exact_cwef_dp at every cap, and brute_force_cwef where C(n, 3) is
small, over every feedback of degree 1-5: primitive ones, ones of lower
order with weight-3 events (25 of order 6, 43 of order 21) and ones
with none (5, 17 and 37).  When a single 1 at step 0 weighs more
than d_max by step n - 1, the trellis flag is True, which is what lets
constituent_cwefs skip the trellis; at w_max = 3 it then runs no pass
unless the walk tables would outgrow it.  Events are tallied by family,
a triangle of events whose two gaps each grow by lcm(L, M), so a
differential test draws n large enough that a family holds many.
"""

from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import turbobound.pccc as pccc
from turbobound.cwef import Weight3Events, cwef_w3_punctured
from turbobound.oracle import brute_force_cwef, exact_cwef_dp
from turbobound.pccc import constituent_cwefs
from turbobound.puncture import PcccPunctureSet, pseudo_random_pattern, row_from_string
from turbobound.rsc import RscCode
from test_oracle_differential import codes, distance_counts, rows


def code(gr, gf):
    return RscCode.from_octals(gr, gf)


PSEUDO_A1 = pseudo_random_pattern(code("23", "35"), "A").constituent1()


@settings(max_examples=300, deadline=None)
@given(codes(nu_max=5), rows(6), rows(6), st.integers(1, 90), st.integers(1, 60))
@example(code("43", "21"), (1, 0, 1), (0, 1, 1), 61, 40)
@example(code("25", "37"), (1,), (1,), 90, 60)
@example(code("37", "25"), (1,), (1,), 90, 60)
@example(code("5", "7"), (1,), (1,), 50, 30)
@example(code("17", "15"), (1, 1), (0, 1), 70, 60)
@example(code("15", "17"), (0,), (1, 0, 0, 0, 0, 0), 90, 12)
# first gaps pass P = lcm(L, M): 3 with cycle weights 1 and 2, then 0
# and 1; 15 with families whose two walks both send nothing
@example(code("7", "5"), (1,), (0, 1, 1), 60, 60)
@example(code("7", "5"), (1,), (0, 0, 1), 60, 60)
@example(code("23", "35"), (1,), (0, 0, 0, 0, 1), 60, 60)
def test_closed_form_equals_the_trellis_and_brute_force(c, p_u, p_z, n, d_max):
    closed = cwef_w3_punctured(c, p_u, p_z, n, d_max)
    res = exact_cwef_dp(c, p_u, p_z, n, 3, d_max)
    assert closed.terms == res.for_weight(3).terms
    if comb(n, 3) <= 50_000:
        brute = brute_force_cwef(c, p_u, p_z, n, 3)
        assert closed.terms == {k: v for k, v in brute.terms.items() if sum(k) <= d_max}
        # u + z <= n + 3 holds for every input
        assert cwef_w3_punctured(c, p_u, p_z, n, n + 3).terms == brute.terms
    if Weight3Events(c, p_u, p_z, n, d_max).lone > d_max:
        assert res.truncated


@settings(max_examples=60, deadline=None)
@given(codes(nu_max=5), rows(6), rows(6), st.integers(1, 600), st.integers(1, 60))
def test_the_bound_path_matches_the_folded_pass(c, p_u, p_z, n, d_max):
    by_weight, truncated = constituent_cwefs(c, p_u, p_z, n, 3, d_max)
    res = exact_cwef_dp(c, p_u, p_z, n, 3, d_max, folded=True)
    assert truncated == res.truncated
    assert by_weight == res.by_weight


def test_feedbacks_with_no_weight3_event():
    # 1 + D divides 5, 17 and 10001, and 1 + alpha^a is no power of a
    # root alpha of 37: no three 1s leave the zero state and return to
    # it.  25 and 43 are not primitive either, but have such inputs
    for gr in ("5", "17", "10001", "37"):
        assert cwef_w3_punctured(code(gr, "1"), (1,), (1,), 200, 512).terms == {}
    for gr in ("25", "43"):
        assert cwef_w3_punctured(code(gr, "1"), (1,), (1,), 200, 512).terms


def test_exact_at_every_n_with_no_pass():
    # the counts of a weight-3 event grow by one start every M steps,
    # whatever the residue of n; the pass at n checks each
    c = code("23", "35")
    p_u, p_z = (0, 1, 1), (1, 0, 1, 1, 0)
    for n in range(300, 316):
        got = distance_counts(cwef_w3_punctured(c, p_u, p_z, n, 24))
        assert got == exact_cwef_dp(c, p_u, p_z, n, 3, 24, folded=True).for_weight(3)


@settings(max_examples=80, deadline=None)
@given(codes(nu_max=4), rows(6), rows(6), st.integers(500, 3000), st.integers(1, 250))
@example(code("7", "5"), (1,), (0, 0, 1), 3000, 60)
@example(code("7", "5"), (1,), (0, 1, 1), 3000, 60)
# 23/35 pseudo A constituent 1: L = M = 15 and cycle weights 4 and 8
@example(code("23", "35"), PSEUDO_A1.p_u, PSEUDO_A1.p_z, 2500, 120)
def test_progressions_that_repeat_match_the_folded_pass(c, p_u, p_z, n, d_max):
    # n is large enough that both gaps of an event pass P = lcm(L, M)
    # many times, so each family is a triangle of many events.  In the
    # first example (228,697 events (c0, a, b)) the orbit cycles send 0
    # or 1 parity bit, so a family's events pile up on few cells
    closed = cwef_w3_punctured(c, p_u, p_z, n, d_max)
    res = exact_cwef_dp(c, p_u, p_z, n, 3, d_max, folded=True)
    assert distance_counts(closed) == res.for_weight(3)


def test_a_long_event_list_takes_the_closed_form(monkeypatch):
    # 15/17 with par2 01000 at d_max 512: constituent 2 has about 6.2
    # million weight-3 events (c0, a, b) in 750 families, and runs no
    # pass; its counts are those of the certificate and the short pass,
    # run when the tables may not fit
    c = code("15", "17")
    pset = PcccPunctureSet(*map(row_from_string, ("10111", "01011", "01000")))
    c2 = pset.constituent2()
    real = pccc.exact_cwef_dp
    lengths = []

    def refused(*args, **kwargs):
        raise AssertionError("the trellis ran")

    def recorded(code, p_u, p_z, n, *args, **kwargs):
        lengths.append(n)
        return real(code, p_u, p_z, n, *args, **kwargs)

    monkeypatch.setattr(pccc, "exact_cwef_dp", refused)
    closed = constituent_cwefs(c, c2.p_u, c2.p_z, 100_000, 3, 512)
    monkeypatch.setattr(pccc, "exact_cwef_dp", recorded)
    monkeypatch.setattr(pccc, "event_tables_fit", lambda *args: False)
    assert constituent_cwefs(c, c2.p_u, c2.p_z, 100_000, 3, 512) == closed
    assert len(lengths) == 1 and lengths[0] < 10_000


def test_refuses_what_it_cannot_count():
    # C(4 * 10^6, 3) passes 2^63, which would wrap the int64 tally
    c = code("7", "5")
    for n, d_max in ((0, 10), (10, -1), (4_000_000, 10)):
        with pytest.raises(ValueError):
            cwef_w3_punctured(c, (1,), (1,), n, d_max)
