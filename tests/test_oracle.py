"""Trellis DP and brute-force oracles, and the cross-check harness."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

import turbobound.oracle as oracle
from turbobound.cwef import Cwef, cwef_w2_punctured
from turbobound.oracle import (GridCase, VerificationReport, brute_force_cwef,
                               default_verification_grid, diff_cwefs,
                               exact_cwef_dp, run_case, run_verification)
from turbobound.puncture import row_from_string
from turbobound.rsc import RscCode, step

CODE_15_17 = RscCode.from_octals("15", "17")
ONES = (1,)


def test_dp_hand_verified_block():
    res = exact_cwef_dp(CODE_15_17, ONES, ONES, 8, 2)
    assert res.for_weight(2).terms == {(2, 6): 1}
    assert res.for_weight(1).terms == {}  # weight 1 never remerges
    assert not res.truncated


def test_dp_rejects():
    with pytest.raises(ValueError):
        exact_cwef_dp(CODE_15_17, ONES, ONES, 0, 2)
    with pytest.raises(ValueError):
        exact_cwef_dp(CODE_15_17, ONES, ONES, 10, 0)
    with pytest.raises(ValueError):
        exact_cwef_dp(CODE_15_17, ONES, ONES, 10, 7)
    with pytest.raises(ValueError, match="pass d_max"):
        exact_cwef_dp(CODE_15_17, ONES, ONES, 2049, 2)
    with pytest.raises(ValueError):
        exact_cwef_dp(CODE_15_17, ONES, ONES, 10, 2, d_max=0)
    with pytest.raises(ValueError):
        exact_cwef_dp(CODE_15_17, ONES, ONES, 10, 2, d_max=513)
    with pytest.raises(ValueError, match="overflow"):
        exact_cwef_dp(CODE_15_17, ONES, ONES, 4000, 6, d_max=100)


def test_dp_refuses_more_memory_than_its_limit():
    # 1+D^16: two int64 rows of 16 * 123 cells and 16 transition views
    # per state, 65,536 states
    big = RscCode.from_octals("200001", "1")
    need = (1 << 16) * (2 * 8 * 16 * 123 + 16 * oracle._DP_VIEW_BYTES)
    assert need > oracle.DP_MEMORY_LIMIT
    with pytest.raises(ValueError, match=f"about {need >> 20} MiB"):
        exact_cwef_dp(big, ONES, ONES, 200, 3, d_max=120)


def test_dp_weight_zero_slice():
    # at w = 0 the only input is the all-zero one, so no slice holds it
    res = exact_cwef_dp(CODE_15_17, ONES, ONES, 10, 2)
    assert set(res.by_weight) == {1, 2}
    with pytest.raises(ValueError):
        res.for_weight(0)
    with pytest.raises(ValueError):
        res.for_weight(3)


def test_dp_cells_wide_enough_for_every_path():
    # sum_{w <= 5} C(1000, w) paths would wrap int32 cells, so the pass
    # holds int64 ones; sum_{w <= 3} C(2048, w) = 1,431,657,473 < 2^31
    # paths fit int32 cells
    code = RscCode.from_octals("5", "7")
    wide = exact_cwef_dp(code, ONES, ONES, 1000, 5, keep=(1000,))
    assert wide.kept[1000].dtype == np.int64
    assert wide.total_paths == sum(comb(1000, w) for w in range(6)) == 8_291_875_042_451
    narrow = exact_cwef_dp(code, ONES, ONES, 2048, 3, keep=(2048,))
    assert narrow.kept[2048].dtype == np.int32
    assert narrow.total_paths == sum(comb(2048, w) for w in range(4)) == 1_431_657_473
    assert narrow.for_weight(2).terms == cwef_w2_punctured(code, ONES, ONES, 2048).terms


def test_dp_total_paths():
    # every input sequence survives an uncapped pass: the table total is
    # the number of weight <= w_max inputs
    res = exact_cwef_dp(CODE_15_17, ONES, ONES, 6, 6)
    assert res.total_paths == 2**6
    res = exact_cwef_dp(CODE_15_17, ONES, ONES, 30, 2)
    assert res.total_paths == 1 + 30 + comb(30, 2)


def test_dp_distance_cap_is_exact_below_cap():
    full = exact_cwef_dp(CODE_15_17, ONES, ONES, 30, 2)
    capped = exact_cwef_dp(CODE_15_17, ONES, ONES, 30, 2, d_max=8)
    assert capped.truncated
    assert not full.truncated
    want = {k: c for k, c in full.for_weight(2).terms.items() if sum(k) <= 8}
    assert capped.for_weight(2).terms == want
    assert capped.total_paths < full.total_paths


def test_dp_roomy_cap_not_truncated():
    res = exact_cwef_dp(CODE_15_17, ONES, ONES, 30, 2, d_max=40)
    assert not res.truncated
    assert res.for_weight(2).terms \
        == exact_cwef_dp(CODE_15_17, ONES, ONES, 30, 2).for_weight(2).terms


def test_uncapped_grid_passes_never_truncated():
    # with no cap nothing is dropped, so no pass may say it dropped something
    flagged = []
    for case in default_verification_grid():
        code = RscCode.from_octals(case.feedback, case.feedforward)
        res = exact_cwef_dp(code, row_from_string(case.p_u),
                            row_from_string(case.p_z), case.n, 2)
        if res.truncated:
            flagged.append(case.label())
    assert flagged == []


def prefix_weight_maxima(code, p_u, p_z, n, w_max):
    # the largest punctured u + z of any input of weight exactly w, for
    # each w <= w_max; weight never decreases along an input, so its
    # largest prefix weight is its full-block weight
    best = []
    for w in range(w_max + 1):
        top = 0
        for ones in combinations(range(n), w):
            state = d = 0
            for i in range(n):
                state, s, p = step(code, state, int(i in ones))
                d += (s & p_u[i % len(p_u)]) + (p & p_z[i % len(p_z)])
            top = max(top, d)
        best.append(top)
    return best


@pytest.mark.parametrize("rows", [("1", "1"), ("11", "10"), ("0010", "1101")],
                         ids=":".join)
@pytest.mark.parametrize("octals", oracle.GRID_CODES, ids="/".join)
def test_truncated_matches_brute_force(octals, rows):
    # truncated exactly when some input of weight <= w_max has a prefix
    # whose punctured u + z exceeds d_max; checked at the caps around
    # that largest weight, where the flag turns over
    code = RscCode.from_octals(*octals)
    p_u, p_z = map(row_from_string, rows)
    w_top = 4
    for n in (1, 2, 3, 5, 8, 12):
        maxima = prefix_weight_maxima(code, p_u, p_z, n, w_top)
        for w_max in range(1, w_top + 1):
            worst = max(maxima[:w_max + 1])
            for d_max in range(max(1, worst - 2), worst + 2):
                res = exact_cwef_dp(code, p_u, p_z, n, w_max, d_max)
                assert res.truncated == (worst > d_max), (n, w_max, d_max)


def test_brute_force_edges():
    assert brute_force_cwef(CODE_15_17, ONES, ONES, 10, 0).terms == {(0, 0): 1}
    assert brute_force_cwef(CODE_15_17, ONES, ONES, 25, 1).terms == {}
    with pytest.raises(ValueError):
        brute_force_cwef(CODE_15_17, ONES, ONES, 10, -1)
    with pytest.raises(ValueError):
        brute_force_cwef(CODE_15_17, ONES, ONES, 0, 2)
    with pytest.raises(ValueError, match="brute-force limit"):
        brute_force_cwef(CODE_15_17, ONES, ONES, 2000, 3)


@pytest.mark.parametrize("w", [2, 3])
def test_brute_force_matches_dp(w):
    pu, pz = (1, 0), (0, 1, 1)
    dp = exact_cwef_dp(CODE_15_17, pu, pz, 60, 3)
    bf = brute_force_cwef(CODE_15_17, pu, pz, 60, w)
    assert dp.for_weight(w).terms == bf.terms


@pytest.mark.parametrize("block", [oracle._BRUTE_BLOCK, 200])
@pytest.mark.parametrize("w, n", [(3, 80), (4, 40)])
def test_brute_force_matches_dp_across_blocks(monkeypatch, w, n, block):
    # the inputs' last two 1s come in blocks of whole rows of pairs; with
    # blocks of 200 or fewer, each lead meets its tails across many blocks
    monkeypatch.setattr(oracle, "_BRUTE_BLOCK", block)
    pu, pz = (1, 0), (0, 1, 1)
    dp = exact_cwef_dp(CODE_15_17, pu, pz, n, w)
    assert brute_force_cwef(CODE_15_17, pu, pz, n, w).terms == dp.for_weight(w).terms


def test_brute_force_edge_weights_match_dp():
    # a weight-1 input never remerges, more 1s than positions give no
    # input, and a single position holds no pair: all as the DP counts
    for code in (CODE_15_17, RscCode.from_octals("5", "7")):
        for n in range(1, 6):
            dp = exact_cwef_dp(code, (1, 0), ONES, n, 6)
            for w in range(1, 7):
                assert brute_force_cwef(code, (1, 0), ONES, n, w).terms \
                    == dp.for_weight(w).terms, (code.label(), n, w)


def test_diff_cwefs():
    a = Cwef(2, 10, {(2, 4): 3, (2, 6): 1})
    assert diff_cwefs(a, Cwef(2, 10, dict(a.terms))) is None
    b = Cwef(2, 10, {(2, 4): 3, (2, 8): 1})
    assert diff_cwefs(a, b) == "(u=2,z=6): 1 vs 0; (u=2,z=8): 0 vs 1"
    many = Cwef(2, 10, {(2, z): 9 for z in range(8)})
    msg = diff_cwefs(many, Cwef(2, 10, {}), limit=3)
    assert msg.endswith("... 5 more")


def test_grid_shape():
    grid = default_verification_grid()
    assert len(grid) == 725
    by_code = {}
    for case in grid:
        by_code.setdefault((case.feedback, case.feedforward), set()).add(
            (case.p_u, case.p_z))
    assert set(by_code) == set(oracle.GRID_CODES)
    for pats in by_code.values():
        assert len(pats) == 29
    pats_15 = by_code[("15", "17")]
    assert ("1", "1") in pats_15
    assert ("1000101", "0111010") in pats_15
    assert ("0000000", "0111010") in pats_15
    assert ("11", "10") in pats_15 and ("00", "01") in pats_15
    # deterministic: same grid every call
    assert grid == default_verification_grid()


def test_run_case_passes():
    case = GridCase("15", "17", "1000101", "0111010", 50)
    res = run_case(case)
    assert res.ok and res.detail == ""


def test_run_case_brute_forces_every_case_it_accepts():
    # the uncapped trellis pass refuses first whatever brute force could
    # not enumerate, so run_case has no case left to check by DP alone
    assert comb(oracle.DP_UNCAPPED_N_LIMIT, 2) <= oracle.BRUTE_FORCE_LIMIT
    with pytest.raises(ValueError, match="pass d_max"):
        run_case(GridCase("7", "5", "1", "1", oracle.DP_UNCAPPED_N_LIMIT + 1))


def test_run_case_catches_planted_error(monkeypatch):
    # corrupt one closed-form count and expect a named (k, m) culprit
    real = cwef_w2_punctured

    def corrupted(code, p_u, p_z, n):
        out = real(code, p_u, p_z, n)
        key = min(out.terms)
        bad = dict(out.terms)
        bad[key] += 1
        return Cwef(out.w, out.n, bad)

    monkeypatch.setattr(oracle, "cwef_w2_punctured", corrupted)
    res = run_case(GridCase("15", "17", "1000101", "0111010", 50))
    assert not res.ok
    assert "closed vs trellis" in res.detail
    assert "closed vs brute force" in res.detail
    assert "(k=" in res.detail


def test_verification_report_summary():
    case = GridCase("7", "5", "1", "1", 20)
    ok = oracle.CaseResult(case, True)
    bad = oracle.CaseResult(case, False, "closed vs trellis: boom")
    rep = VerificationReport((ok, ok, bad))
    lines = rep.summary().splitlines()
    assert lines[0] == lines[1] == "PASS 7/5 pu=1 pz=1 n=20"
    assert lines[2] == "FAIL 7/5 pu=1 pz=1 n=20 :: closed vs trellis: boom"
    assert lines[3] == "# result = FAIL (2/3)"
    assert not rep.all_ok and rep.passed == 2


def test_run_verification_subset():
    cases = [GridCase("7", "5", "110", "011", 29),
             GridCase("15", "17", "1111101", "0111010", 46),
             GridCase("17", "15", "0010", "1101", 37)]
    rep = run_verification(cases)
    assert rep.all_ok
    assert rep.summary().rstrip().endswith("# result = PASS (3/3)")


def test_run_verification_parallel_subset():
    cases = [GridCase("7", "5", "1", "1", 20),
             GridCase("15", "17", "1", "1", 22),
             GridCase("5", "7", "10", "01", 21)]
    pooled = run_verification(cases, jobs=2)
    assert pooled.all_ok
    # the pool gives the serial report line for line
    assert pooled.summary() == run_verification(cases, jobs=1).summary()
