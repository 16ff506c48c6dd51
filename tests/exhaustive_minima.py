"""Exhaustive check of the probe length that every minimum is read at.

For the five verification-grid codes and every row pair (p_u, p_z) of
one period M <= 7, 109,220 pairs in all, the minima of the weight-2
enumerator at probe_length(code, M) must equal the minima at M*L more
steps, which lets every span of the column cycle start in every column
more than once.  classify must call a pair catastrophic exactly when
the smallest transmitted weight there is 0.  The screen that search
runs, one scan of the weight-2 heads of p_z per p_u, must give the
enumerator's minima for every pair, at the probe length and at a block
half way down to L + 1, which holds fewer spans.  The run takes about
half a minute, and the file name does not match test_*.py, so pytest
does not collect it.

    PYTHONPATH=src python tests/exhaustive_minima.py

Prints each disagreeing pair and exits 1 if there is one.
"""

import sys
import time
from itertools import product

from turbobound.cwef import cwef_w2_punctured, min_weights, weight2_heads, weight2_least
from turbobound.oracle import GRID_CODES
from turbobound.puncture import (Classification, classify, probe_length,
                                 row_to_string)
from turbobound.rsc import RscCode

MAX_PERIOD = 7


def screen(heads, p_u):
    """search's minima of one row pair, off the heads of its parity row."""
    return weight2_least(heads, p_u), heads[0][0]


def main() -> int:
    start = time.perf_counter()
    checked = failed = 0
    for gr, gf in GRID_CODES:
        code = RscCode.from_octals(gr, gf)
        for m in range(1, MAX_PERIOD + 1):
            probe = probe_length(code, m)
            short = (probe + code.period + 1) // 2
            rows = list(product((0, 1), repeat=m))
            pairs = list(product(rows, rows))
            heads = {p_z: weight2_heads(code, p_z, m) for p_z in rows}
            heads_short = {p_z: weight2_heads(code, p_z, m, short) for p_z in rows}
            for p_u, p_z in pairs:
                checked += 1
                got = min_weights(cwef_w2_punctured(code, p_u, p_z, probe))
                want = min_weights(cwef_w2_punctured(
                    code, p_u, p_z, probe + m * code.period))
                got_short = min_weights(cwef_w2_punctured(code, p_u, p_z, short))
                catastrophic = classify(code, p_u, p_z) is Classification.CATASTROPHIC
                screened = screen(heads[p_z], p_u)
                screened_short = screen(heads_short[p_z], p_u)
                if (got != want or catastrophic != (want[0] == 0)
                        or screened != got or screened_short != got_short):
                    failed += 1
                    print(f"FAIL {gr}/{gf} {row_to_string(p_u)}/{row_to_string(p_z)}"
                          f" :: probe {probe} minima {got}, longer {want},"
                          f" catastrophic {catastrophic}, screened {screened};"
                          f" at n = {short} minima {got_short},"
                          f" screened {screened_short}", flush=True)
    print(f"# weight-2 minima at probe_length: {checked - failed}/{checked} "
          f"row pairs agree ({time.perf_counter() - start:.0f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
