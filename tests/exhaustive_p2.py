"""Exhaustive check of the certified P(2) horizon and of each union
sum's own stop against whole walks.

`bound` and `search` clip each weight-2 spectrum at a certified horizon
h <= D* and prove that the counts past h cannot change a P(2) sum,
rebuilding up to D* when the proof fails.  Every union sum stops each
SNR point at the first distance where the rest of the spectrum provably
cannot change it.  Every value must equal, bit for bit, the sum of the
spectrum clipped at D*, where Q is exactly 0.0 at the lowest grid point,
with each point walked to its first Q of 0.0.  Checked here:

- every (code, pattern) of the verification grid as constituent 1, with
  par2 equal to its parity row (or unpunctured, when that leaves no
  valid rate), at n in {L + 1, 500, 4000, 10^5}, on the 0:8:0.5 grid and
  at -3 dB alone;
- the per-weight curves of the truncated bound at w_max 3 and d_max 120
  on the same patterns and grids at n in {500, 4000};
- every P(2) contender of `search` for the five grid codes at periods
  2-4, rates 1/2, 2/3 and 3/4, n = 1000 and -3, 0 and 6 dB.

The run takes about 25 s, and the file name does not match
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
from turbobound.pccc import (IowefSlice, PcccConfig, constituent_cwefs, distance_spectrum,
                             p2_approximation, p2_slice, q_horizon, truncated_union_bound)
from turbobound.puncture import PcccPunctureSet, row_from_string
from turbobound.rsc import RscCode
from test_spectrum_arithmetic import walked_union_curve

GRIDS = (tuple(0.5 * i for i in range(17)), (-3.0,))
W_MAX, D_MAX, TRUNCATED_N = 3, 120, (500, 4000)
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
    """P(2) from the spectrum clipped at D* of the lowest point, each
    point walked to its first Q of 0.0."""
    b = p2_slice(config, q_horizon(config.rate, min(grid)))
    return walked_union_curve(b, config.n, config.rate, grid)


def walked_per_weight(config, grid):
    """The truncated bound's per-weight curves, each point walked to its
    first Q of 0.0."""
    (e1, _), (e2, _) = (constituent_cwefs(*c, config.n, W_MAX, D_MAX)
                        for c in config.constituents())
    out = {}
    for w in range(2, W_MAX + 1):
        kept = {d: c for d, c in pccc._convolve(e1[w], e2[w]) if d <= D_MAX}
        out[w] = walked_union_curve(IowefSlice(w, kept), config.n, config.rate, grid)
    return out


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
    checked = truncated = failed = 0
    for config in bound_configs():
        for grid in GRIDS:
            checked += 1
            got = tuple(p.raw for p in p2_approximation(config, grid).points)
            want = d_star_p2(config, grid)
            if got != want:
                failed += 1
                print(f"FAIL bound {config.code1.label()} {config.punctures} "
                      f"n={config.n} grid from {grid[0]}: {got} vs {want}", flush=True)
            if config.n in TRUNCATED_N:
                truncated += 1
                got = truncated_union_bound(config, W_MAX, D_MAX, grid).per_weight
                want = walked_per_weight(config, grid)
                if got != want:
                    failed += 1
                    print(f"FAIL truncated {config.code1.label()} {config.punctures} "
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
            want = walked_union_curve(distance_spectrum(a1, a2, horizon),
                                      n, rate, (db,))[0]
            if value != want:
                failed += 1
                print(f"FAIL search {code1.label()} {rows} n={n} at {db} dB: "
                      f"{value} vs {want}", flush=True)
    print(f"# bound: {checked} P(2) curves, {bound_sums['rebuilds']} of "
          f"{bound_sums['sums']} certified sums rebuilt at D*")
    print(f"# truncated bound: {truncated} w_max {W_MAX}, d_max {D_MAX} curve sets")
    print(f"# search: {contenders} contenders, "
          f"{calls['rebuilds'] - before['rebuilds']} of "
          f"{calls['sums'] - before['sums']} certified sums rebuilt at D*")
    total = checked + truncated + contenders
    print(f"# each union sum equals the whole walk: "
          f"{total - failed}/{total} "
          f"({time.perf_counter() - start:.0f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
