"""Trellis DP and brute-force oracles, and the cross-check harness."""

from math import comb

import pytest

import turbobound.oracle as oracle
from turbobound.cwef import Cwef, cwef_w2_punctured
from turbobound.oracle import (GridCase, VerificationReport, brute_force_cwef,
                               default_verification_grid, diff_cwefs,
                               exact_cwef_dp, run_case, run_verification)
from turbobound.rsc import RscCode

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
    res = exact_cwef_dp(CODE_15_17, ONES, ONES, 10, 2, include_w0=True)
    assert res.for_weight(0).terms == {(0, 0): 1}
    bare = exact_cwef_dp(CODE_15_17, ONES, ONES, 10, 2)
    with pytest.raises(ValueError):
        bare.for_weight(0)
    with pytest.raises(ValueError):
        bare.for_weight(3)


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
    assert res.ok and res.brute_checked and res.detail == ""
    res = run_case(case, brute_limit=0)
    assert res.ok and not res.brute_checked


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
    ok = oracle.CaseResult(case, True, True)
    dponly = oracle.CaseResult(case, True, False)
    bad = oracle.CaseResult(case, False, True, "closed vs trellis: boom")
    rep = VerificationReport((ok, dponly, bad))
    lines = rep.summary().splitlines()
    assert lines[0] == "PASS 7/5 pu=1 pz=1 n=20"
    assert lines[1] == "PASS 7/5 pu=1 pz=1 n=20 [dp-only]"
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
    assert run_verification(cases, jobs=2).all_ok
    # the pool must honour brute_limit just as the serial path does
    for jobs in (1, 2):
        rep = run_verification(cases, jobs=jobs, brute_limit=0)
        assert rep.all_ok
        assert not any(r.brute_checked for r in rep.results)
