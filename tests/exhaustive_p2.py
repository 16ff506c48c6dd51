"""Exhaustive check of the certified P(2) horizon against the D* clip.

`bound` and `search` clip each weight-2 spectrum at a certified horizon
h <= D* and prove that the counts past h cannot change a P(2) sum,
rebuilding up to D* when the proof fails.  Every value must equal, bit
for bit, the P(2) of the spectrum clipped at D*, where Q is exactly 0.0
at the lowest grid point.  Checked here:

- every (code, pattern) of the verification grid as constituent 1, with
  par2 equal to its parity row (or unpunctured, when that leaves no
  valid rate), at n in {L + 1, 500, 4000, 10^5}, on the 0:8:0.5 grid and
  at -3 dB alone;
- every P(2) contender of `search` for the five grid codes at periods
  2-4, rates 1/2, 2/3 and 3/4, n = 1000 and -3, 0 and 6 dB.

The run takes about 35 s, and the file name does not match
test_*.py, so pytest does not collect it.

    PYTHONPATH=src python tests/exhaustive_p2.py

Prints each disagreement and how often the proof failed and the D*
spectrum was built, and exits 1 on any disagreement.
"""

import io
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

from turbobound import cli, pccc
from turbobound.cwef import cwef_w2_punctured
from turbobound.oracle import GRID_CODES, _grid_patterns
from turbobound.pccc import (PcccConfig, distance_spectrum, p2_approximation,
                             p2_slice, q_horizon, union_bound_curve)
from turbobound.puncture import PcccPunctureSet, row_from_string
from turbobound.rsc import RscCode

GRIDS = (tuple(0.5 * i for i in range(17)), (-3.0,))
SEARCH_SETTINGS = [(rate, period) for rate in ("1/2", "2/3", "3/4")
                   for period in (2, 3, 4)
                   if (period * Fraction(rate).denominator) % Fraction(rate).numerator == 0]

calls = {"sums": 0, "rebuilds": 0}


def counted(certified_p2):
    """certified_p2, counting the sums it proves and the D* rebuilds."""
    def wrapper(spectrum, *args):
        built = []

        def recorded(h):
            built.append(h)
            return spectrum(h)

        sums = certified_p2(recorded, *args)
        calls["sums"] += 1
        calls["rebuilds"] += len(built) - 1
        return sums
    return wrapper


def d_star_p2(config, grid):
    """P(2) from the spectrum clipped at D* of the lowest point."""
    b = p2_slice(config, q_horizon(config.rate, min(grid)))
    return union_bound_curve(b, config.n, config.rate, grid)


def bound_configs():
    for gr, gf in GRID_CODES:
        code = RscCode.from_octals(gr, gf)
        for p_u, p_z in _grid_patterns(code):
            p_u, p_z = row_from_string(p_u), row_from_string(p_z)
            for n in (code.period + 1, 500, 4000, 10**5):
                for par2 in (p_z, (1,)):
                    try:
                        yield PcccConfig(code, code, PcccPunctureSet(p_u, p_z, par2), n)
                        break
                    except ValueError:  # no valid rate
                        continue


def search_calls():
    """The arguments of each call that search makes to its P(2) pass."""
    captured = []
    real = cli._search_p2

    def recorder(*args):
        captured.append(args)
        return real(*args)

    cli._search_p2 = recorder
    try:
        for gr, gf in GRID_CODES:
            for rate, period in SEARCH_SETTINGS:
                for snr in ("-3", "0", "6"):
                    with redirect_stdout(io.StringIO()):
                        cli.entrypoint(["search", "--gr1", gr, "--gf1", gf, "--rate", rate,
                                        "--period", str(period), "--n", "1000",
                                        f"--snr={snr}"])
    finally:
        cli._search_p2 = real
    return captured


def main() -> int:
    start = time.perf_counter()
    pccc.certified_p2 = cli.certified_p2 = counted(pccc.certified_p2)
    checked = failed = 0
    for config in bound_configs():
        for grid in GRIDS:
            checked += 1
            got = tuple(p.raw for p in p2_approximation(config, grid).points)
            want = d_star_p2(config, grid)
            if got != want:
                failed += 1
                print(f"FAIL bound {config.code1.label()} {config.punctures} "
                      f"n={config.n} grid from {grid[0]}: {got} vs {want}", flush=True)
    bound_sums = dict(calls)
    search_args = search_calls()
    before = dict(calls)
    contenders = 0
    for args in search_args:
        code1, code2, rows_list, n, rate, db, _ = args
        got = cli._search_p2(*args)
        horizon = q_horizon(rate, db)
        for rows, value in zip(rows_list, got):
            contenders += 1
            a1 = cwef_w2_punctured(code1, rows[0], rows[1], n, horizon)
            a2 = cwef_w2_punctured(code2, (0,) * len(rows[2]), rows[2], n, horizon)
            want = union_bound_curve(distance_spectrum(a1, a2, n, 2, horizon),
                                     n, rate, (db,))[0]
            if value != want:
                failed += 1
                print(f"FAIL search {code1.label()} {rows} n={n} at {db} dB: "
                      f"{value} vs {want}", flush=True)
    print(f"# bound: {checked} P(2) curves, {bound_sums['rebuilds']} of "
          f"{bound_sums['sums']} certified sums rebuilt at D*")
    print(f"# search: {contenders} contenders, "
          f"{calls['rebuilds'] - before['rebuilds']} of "
          f"{calls['sums'] - before['sums']} certified sums rebuilt at D*")
    print(f"# certified P(2) equals the D*-clipped P(2): "
          f"{checked + contenders - failed}/{checked + contenders} "
          f"({time.perf_counter() - start:.0f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
