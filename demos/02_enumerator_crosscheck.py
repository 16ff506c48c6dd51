#!/usr/bin/env python3
"""Three independent routes to the same weight-2 enumerator.

The closed forms are fast but easy to get subtly wrong (off-by-one in the
pattern phase, wrong remerge column, ...), so everything they produce is
checked against a trellis dynamic program and, at small block lengths,
against literal encoding of every weight-2 input.  This script runs that
comparison on one punctured configuration and prints the full term maps so
the agreement is visible, not just asserted.
"""

from turbobound import (RscCode, brute_force_cwef, cwef_w2_punctured,
                        diff_cwefs, exact_cwef_dp, row_from_string)

CODE = RscCode.from_octals("15", "17")
P_U = row_from_string("1000101")
P_Z = row_from_string("0111010")
N = 64


def main():
    print(f"code {CODE.label()}, p_u={''.join(map(str, P_U))} "
          f"p_z={''.join(map(str, P_Z))}, n={N}\n")

    closed = cwef_w2_punctured(CODE, P_U, P_Z, N)
    trellis = exact_cwef_dp(CODE, P_U, P_Z, N, w_max=2).for_weight(2)
    brute = brute_force_cwef(CODE, P_U, P_Z, N, w=2)

    print(f"{'(u, z)':>10}  {'closed':>8}  {'trellis':>8}  {'brute':>8}")
    keys = sorted(set(closed.terms) | set(trellis.terms) | set(brute.terms))
    for key in keys:
        print(f"{str(key):>10}  {closed.terms.get(key, 0):>8}"
              f"  {trellis.terms.get(key, 0):>8}  {brute.terms.get(key, 0):>8}")

    total = sum(closed.terms.values())
    expect = sum(N - k * CODE.period for k in range(1, N // CODE.period + 1))
    print(f"\npath count {total}, expected sum(n - k*L) = {expect}")

    assert closed.terms == trellis.terms == brute.terms
    print("all three routes agree exactly")

    # What a disagreement looks like: diff against a different pattern.
    other = cwef_w2_punctured(CODE, P_U, row_from_string("1111111"), N)
    print("\nsame code, unpunctured parity instead:")
    print(f"  {diff_cwefs(closed, other)}")


if __name__ == "__main__":
    main()
