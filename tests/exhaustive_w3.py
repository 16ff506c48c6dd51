"""Exhaustive weight-3 cross-check of the closed form, the trellis DP
and brute force.

For every case of the verification grid, the weight-3 enumerator of
exact_cwef_dp must equal the one brute_force_cwef builds by encoding
every weight-3 input, the folded pass, which counts d = u + z alone,
must equal that enumerator's u + z marginal, and neither pass, which
has no distance cap, may report itself truncated.  The closed form
cwef_w3_punctured is the third side: uncapped it must equal brute
force, and at each cap of CAPS its u + z marginal must equal the folded
pass at that cap.  The grid's largest block, n = 200, has
C(200, 3) = 1,313,400 such inputs, encoded in numpy blocks, so the full
grid takes seconds.  The closed form tallies its events by family, a
triangle of events whose two gaps grow by lcm(L, M), and at n = 200 a
family seldom holds a second event, so a sweep then checks it against
the folded pass at each n of LARGE_N and d_max LARGE_CAP for every
(code, pattern) of the grid.  The file name does not match test_*.py,
so pytest does not collect it.

    PYTHONPATH=src python tests/exhaustive_w3.py

Prints each disagreeing case and exits 1 if there is one.
"""

import sys
import time

from turbobound.cwef import cwef_w3_punctured
from turbobound.oracle import (GridCase, brute_force_cwef, default_verification_grid,
                               diff_cwefs, exact_cwef_dp)
from turbobound.puncture import row_from_string
from turbobound.rsc import RscCode
from test_oracle_differential import distance_counts

CAPS = (12, 30)
LARGE_N, LARGE_CAP = (2000, 5000), 60


def main() -> int:
    start = time.perf_counter()
    cases = default_verification_grid()
    failed = 0
    for case in cases:
        code = RscCode.from_octals(case.feedback, case.feedforward)
        p_u, p_z = row_from_string(case.p_u), row_from_string(case.p_z)
        res = exact_cwef_dp(code, p_u, p_z, case.n, w_max=3)
        folded = exact_cwef_dp(code, p_u, p_z, case.n, w_max=3, folded=True)
        brute = brute_force_cwef(code, p_u, p_z, case.n, 3)
        problems = []
        mismatch = diff_cwefs(res.for_weight(3), brute)
        if mismatch:
            problems.append(mismatch)
        if folded.for_weight(3) != distance_counts(brute):
            problems.append("the folded pass is not the u + z marginal")
        if res.truncated or folded.truncated:
            problems.append("an uncapped pass reports truncated")
        # u + z <= n + 3 holds for every input: the closed form uncapped
        mismatch = diff_cwefs(cwef_w3_punctured(code, p_u, p_z, case.n, case.n + 3), brute)
        if mismatch:
            problems.append(f"closed form vs brute force: {mismatch}")
        for cap in CAPS:
            capped = exact_cwef_dp(code, p_u, p_z, case.n, w_max=3, d_max=cap, folded=True)
            closed = cwef_w3_punctured(code, p_u, p_z, case.n, cap)
            if capped.for_weight(3) != distance_counts(closed):
                problems.append(f"closed form vs the folded pass at d_max {cap}")
        if problems:
            failed += 1
            print(f"FAIL {case.label()} :: {'; '.join(problems)}", flush=True)
    print(f"# w = 3, closed form and trellis DP, split and folded, vs brute force: "
          f"{len(cases) - failed}/"
          f"{len(cases)} cases agree ({time.perf_counter() - start:.0f} s)")
    start = time.perf_counter()
    patterns = dict.fromkeys((c.feedback, c.feedforward, c.p_u, c.p_z) for c in cases)
    large = [GridCase(*pattern, n) for pattern in patterns for n in LARGE_N]
    large_failed = 0
    for case in large:
        code = RscCode.from_octals(case.feedback, case.feedforward)
        p_u, p_z = row_from_string(case.p_u), row_from_string(case.p_z)
        capped = exact_cwef_dp(code, p_u, p_z, case.n, w_max=3, d_max=LARGE_CAP, folded=True)
        closed = cwef_w3_punctured(code, p_u, p_z, case.n, LARGE_CAP)
        if capped.for_weight(3) != distance_counts(closed):
            large_failed += 1
            print(f"FAIL {case.label()} :: closed form vs the folded pass at "
                  f"d_max {LARGE_CAP}", flush=True)
    print(f"# w = 3, closed form vs the folded pass at d_max {LARGE_CAP}: "
          f"{len(large) - large_failed}/{len(large)} cases agree "
          f"({time.perf_counter() - start:.0f} s)")
    return 1 if failed or large_failed else 0


if __name__ == "__main__":
    sys.exit(main())
